"""Pins the whole output of the command line: the exit code, stdout and
stderr of every verb in text and json on the fixture games and two
random ones, the error paths, and the bytes of the certificate files
that solve --cert-out writes. bench's timings are masked by a clock
that never advances, so its ms column reads 0."""

import hashlib
import io
import json

from ssg import VertexKind, random_game, serialize_game
from ssg.cli import main
from ssg.fixtures import FIXTURES, GAME_A

GAMES = {
    **{name.lower(): game for name, game in FIXTURES.items()},
    # a transform game worth 1/3 and an hk game worth 1/2, each with
    # 4 or 5 of its 6 interior vertices strictly inside (0, 1)
    "mixed": random_game(8, (1, 1, 2), seed=8),
    "stopping": random_game(8, (1, 1, 2), seed=5, require_stopping=True),
}

# sha256 of the transcript that _transcript writes
TRANSCRIPT_SHA256 = "d94b3bfc85e763a7fd290af2569007263569cc31476feb7221635a0ad7983e02"


def _picks(game, kind):
    """The first child of every vertex of kind, as reduce's --tau and
    --sigma take them."""
    return ",".join(f"{v}->{game.children_of(v)[0]}" for v in game.vertices_of_kind(kind))


def _game_argvs(name, game):
    """Every verb that reads a game, on the file name.ssg."""
    path, cert = f"{name}.ssg", f"{name}.cert"
    return [
        ["validate", path],
        ["solve", "--approx", "3", "--cert-out", cert, path],
        ["solve", "--method", "vi", path],
        ["solve", "--method", "lp", path],
        ["value", "--approx", "4", path],
        ["decide", "--alpha", "1/2", path],
        ["strategies", path],
        ["reduce", "--tau", _picks(game, VertexKind.MIN),
         "--sigma", _picks(game, VertexKind.MAX), "--approx", "2", path],
        ["transform", "--c", "1", "--map", path],
        ["certify", "--cert", cert, path],
        ["certify", "--cert", "zero.cert", path],
        ["oracle", "--approx", "2", "--budget", "4096", path],
        ["oracle", "--budget", "1", path],
    ]


# the verbs that read no game, and the error paths
OTHER_ARGVS = [
    ["gen", "--n", "7", "--seed", "2", "--weights", "1:1:2"],
    ["gen", "--n", "6", "--seed", "1", "--stopping"],
    ["bench", "--suite", "suite.txt", "--methods", "auto,vi,hk,lp,avg-free,mc,oracle",
     "--plays", "300", "--budget", "64"],
    ["bench", "--suite", "empty.txt"],
    ["value", "-"],
    ["value", "missing.ssg"],
    ["decide", "--alpha", "3/2", "game-a.ssg"],
    ["certify", "--cert", "game-a.ssg", "game-a.ssg"],
    ["reduce", "--sigma", "1->2", "game-e.ssg"],
    ["gen", "--n", "1"],
    ["value", "--approx", "x", "game-a.ssg"],
]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _transcript(capsys, monkeypatch):
    out = io.StringIO()

    def run(argv, fmt):
        argv = [argv[0], "--format", fmt, *argv[1:]]
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_game(GAME_A)))
        code = main(argv)
        captured = capsys.readouterr()
        out.write(f"$ ssg {' '.join(argv)}\nexit {code}\n")
        out.write(f"--- stdout\n{captured.out}--- stderr\n{captured.err}")

    for name, game in GAMES.items():
        _write(f"{name}.ssg", serialize_game(game))
    _write("suite.txt", "".join(f"{name}.ssg\n" for name in GAMES))
    _write("empty.txt", "# no games\n")
    for name, game in GAMES.items():
        _write("zero.cert", json.dumps({"schema": 3, "sigma": [], "z": ["0"] * game.n}))
        for fmt in ("text", "json"):
            for argv in _game_argvs(name, game):
                run(argv, fmt)
            with open(f"{name}.cert", encoding="utf-8") as fh:
                out.write(f"--- {name}.cert\n{fh.read()}")
    for fmt in ("text", "json"):
        for argv in OTHER_ARGVS:
            run(argv, fmt)
    return out.getvalue()


def test_cli_transcript_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("time.perf_counter", lambda: 0.0)
    transcript = _transcript(capsys, monkeypatch)
    assert hashlib.sha256(transcript.encode()).hexdigest() == TRANSCRIPT_SHA256
