"""Exercises the command-line front end through main()."""

import io
import json
import re
import sys

import pytest

import ssg.stopping
from ssg import (
    build_game,
    is_stopping,
    parse_game,
    serialize_game,
)
from ssg.cli import main
from ssg.fixtures import GAME_A, GAME_B, GAME_E, GAME_G


@pytest.fixture
def game_file(tmp_path):
    def write(game, name="game.ssg"):
        path = tmp_path / name
        path.write_text(serialize_game(game), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ validate


def test_validate_reports_shape(game_file, capsys):
    code, out, _ = run(capsys, "validate", game_file(GAME_A))
    assert code == 0
    assert out == "ok: n=3 start=1 max=0 min=0 avg=1 (stopping)\n"


def test_validate_flags_non_stopping(game_file, capsys):
    code, out, _ = run(capsys, "validate", game_file(GAME_E))
    assert code == 0
    assert "(non-stopping)" in out


def test_validate_json(game_file, capsys):
    code, out, _ = run(capsys, "validate", "--format", "json", game_file(GAME_B))
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == 3
    assert doc["ok"] is True
    assert doc["kinds"] == {"max": 0, "min": 0, "avg": 2}


def test_reads_game_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_game(GAME_A)))
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert out.startswith("ok: n=3")


def test_validate_huge_vertex_count_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("ssg 99999999999999999999 1\n"))
    code, out, err = run(capsys, "validate", "-")
    assert code == 1
    assert out == ""
    assert "missing vertex 1" in err


def test_validate_undecodable_file_exits_1(tmp_path, capsys):
    path = tmp_path / "game.ssg"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert f"{path} is not valid UTF-8" in err


# --------------------------------------------------------------- solve


def test_solve_text_output(game_file, capsys):
    code, out, _ = run(capsys, "solve", game_file(GAME_A))
    assert code == 0
    lines = out.splitlines()
    assert "v(1) = 1/2" in lines
    assert "v(2) = 0" in lines
    assert "v(3) = 1" in lines
    assert lines[-1] == "value = 1/2"
    assert "tau: -" in lines and "sigma: -" in lines


def test_solve_reports_strategies(game_file, capsys):
    code, out, _ = run(capsys, "solve", game_file(GAME_G))
    assert code == 0
    assert "sigma: 1->3" in out.splitlines()


def test_solve_json_schema(game_file, capsys):
    code, out, _ = run(capsys, "solve", "--format", "json", game_file(GAME_G))
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == 3
    assert doc["verb"] == "solve"
    assert doc["value"] == "3/4"
    assert doc["values"] == ["3/4", "1/2", "3/4", "0", "1"]
    assert doc["strategies"]["sigma"] == [[1, 3]]
    assert doc["certificate"] is None


def test_solve_json_byte_stable(game_file, capsys):
    path = game_file(GAME_G)
    _, first, _ = run(capsys, "solve", "--format", "json", path)
    _, second, _ = run(capsys, "solve", "--format", "json", path)
    assert first == second


def test_solve_approx_rendering(game_file, capsys):
    code, out, _ = run(capsys, "solve", "--approx", "3", game_file(GAME_A))
    assert code == 0
    assert "value = 1/2 ~ 0.500" in out


def test_solve_method_override(game_file, capsys):
    code, out, _ = run(capsys, "solve", "--method", "vi", game_file(GAME_B))
    assert code == 0
    assert "method: vi" in out.splitlines()


def test_solve_method_oracle_is_usage_error(game_file, capsys):
    # enumeration has one entry point, the oracle verb
    code, out, err = run(capsys, "solve", "--method", "oracle", game_file(GAME_E))
    assert code == 2
    assert out == ""
    assert "invalid choice: 'oracle'" in err


# ------------------------------------------------------- value, decide


def test_value_prints_bare_rational(game_file, capsys):
    code, out, _ = run(capsys, "value", game_file(GAME_B))
    assert code == 0
    assert out == "2/3\n"


def test_decide_true_exits_zero(game_file, capsys):
    code, out, _ = run(capsys, "decide", "--alpha", "1/2", game_file(GAME_B))
    assert code == 0
    assert out == "true (value 2/3 > alpha 1/2)\n"


def test_decide_false_exits_three(game_file, capsys):
    code, out, _ = run(capsys, "decide", "--alpha", "1/2", game_file(GAME_A))
    assert code == 3
    assert out == "false (value 1/2 <= alpha 1/2)\n"


def test_decide_alpha_out_of_range_is_domain_error(game_file, capsys):
    code, _, err = run(capsys, "decide", "--alpha", "3/2", game_file(GAME_A))
    assert code == 1
    assert err.startswith("error:")


def test_decide_alpha_garbage_is_usage_error(game_file, capsys):
    code, _, _ = run(capsys, "decide", "--alpha", "half", game_file(GAME_A))
    assert code == 2


# ---------------------------------------------------------- strategies


def test_strategies_verb(game_file, capsys):
    code, out, _ = run(capsys, "strategies", game_file(GAME_E))
    assert code == 0
    assert out == "tau: 2->1\nsigma: 1->2\n"


# -------------------------------------------------------------- reduce


def test_reduce_solves_fixed_chain(game_file, capsys):
    code, out, _ = run(capsys, "reduce", "--sigma", "1->3", game_file(GAME_G))
    assert code == 0
    assert "value = 3/4" in out.splitlines()


def test_reduce_both_strategies(game_file, capsys):
    code, out, _ = run(
        capsys, "reduce", "--tau", "2->4", "--sigma", "1->2", game_file(GAME_E)
    )
    assert code == 0
    assert "value = 1" in out.splitlines()


def test_reduce_missing_pick_is_domain_error(game_file, capsys):
    code, _, err = run(capsys, "reduce", "--sigma", "1->2", game_file(GAME_E))
    assert code == 1
    assert "error:" in err


def test_reduce_bad_edge_syntax_is_usage_error(game_file, capsys):
    code, _, _ = run(capsys, "reduce", "--sigma", "1=>2", game_file(GAME_E))
    assert code == 2


# max-only with avg: `gen --n 6 --seed 3`
MAX_ONLY = build_game(6, 1, [(1, "avg", 2, 6), (2, "max", 6, 1), (3, "max", 6, 2), (4, "max", 3, 6)])


@pytest.mark.parametrize(
    "argv, expected",
    [
        # the last pick for vertex 2 used to win silently
        (["--sigma", "2->6,3->6,4->3,2->1"], "same vertex twice"),
        # tau used to be dropped on a game without min vertices
        (["--tau", "7->9", "--sigma", "2->6,3->6,4->3"], "picks for non-min vertices"),
    ],
)
def test_reduce_refuses_picks_it_cannot_use(game_file, capsys, argv, expected):
    code, out, err = run(capsys, "reduce", *argv, game_file(MAX_ONLY))
    assert code == 1
    assert out == ""
    assert expected in err


# ----------------------------------------------------------- transform


def test_transform_emits_valid_stopping_game(game_file, capsys):
    code, out, _ = run(capsys, "transform", "--c", "9", game_file(GAME_A))
    assert code == 0
    companion = parse_game(out)
    assert companion.n == 57
    assert is_stopping(companion)


def test_transform_map_comments(game_file, capsys):
    code, out, _ = run(capsys, "transform", "--map", game_file(GAME_A))
    assert code == 0
    assert "# map 1 -> 1" in out
    assert "# map 2 -> 56" in out
    assert "# map 3 -> 57" in out
    # comment lines must not break reparsing
    assert parse_game(out).n == 57


def test_transform_json_map(game_file, capsys):
    code, out, _ = run(
        capsys, "transform", "--map", "--format", "json", game_file(GAME_A)
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["map"] == {"1": 1, "2": 56, "3": 57}
    assert parse_game(doc["game"]).n == doc["n"] == 57


def test_transform_refuses_a_huge_companion_before_building_it(game_file, capsys, monkeypatch):
    # --c 100000 on GAME-A asks for 600,003 vertices; this used to build
    # them all, taking seconds and hundreds of MB, before printing
    def no_build(*args):
        raise AssertionError("the companion was built")

    monkeypatch.setattr(ssg.stopping, "build_game", no_build)
    code, out, err = run(capsys, "transform", "--c", "100000", game_file(GAME_A))
    assert code == 1
    assert out == ""
    assert "600003 vertices" in err


# ------------------------------------------------------------- certify


def test_solve_certificate_roundtrip(game_file, tmp_path, capsys):
    game = game_file(GAME_B)
    cert = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "solve", "--cert-out", cert, game)
    assert code == 0
    assert f"certificate written to {cert}" in out

    code, out, _ = run(capsys, "certify", "--cert", cert, game)
    assert code == 0
    assert out == "certificate accepted\n"


def test_certify_rejects_tampered_certificate(game_file, tmp_path, capsys):
    game = game_file(GAME_B)
    cert = str(tmp_path / "cert.json")
    run(capsys, "solve", "--cert-out", cert, game)

    doc = json.loads((tmp_path / "cert.json").read_text())
    doc["z"][0] = "1/3"
    (tmp_path / "cert.json").write_text(json.dumps(doc))

    code, out, _ = run(capsys, "certify", "--cert", cert, game)
    assert code == 1
    assert out == "certificate rejected\n"


def test_certify_refuses_non_edge_sigma_pick(game_file, tmp_path, capsys):
    # GAME-G's max vertex 1 has children 2 and 3; 1 -> 4 is no edge
    game = game_file(GAME_G)
    cert = tmp_path / "cert.json"
    run(capsys, "solve", "--cert-out", str(cert), game)
    doc = json.loads(cert.read_text())
    assert doc["sigma"] == [[1, 3]]
    doc["sigma"] = [[1, 4]]
    cert.write_text(json.dumps(doc))

    code, out, err = run(capsys, "certify", "--cert", str(cert), game)
    assert code == 1
    assert out == ""
    assert "1->4 is not an edge" in err


def test_certify_undecodable_certificate_exits_1(game_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "certify", "--cert", str(cert), game_file(GAME_B))
    assert code == 1
    assert out == ""
    assert f"{cert} is not valid UTF-8" in err


@pytest.mark.parametrize(
    "text",
    ['{"schema": 3, "sigma": [[1' + "0" * 5000 + ", 2]]}", "[" * 100_000],
    ids=["long-integer", "deep-nesting"],
)
def test_certify_unparsable_json_is_domain_error(game_file, tmp_path, capsys, text):
    # json.loads raises ValueError past the int-to-str digit limit and
    # RecursionError on deep nesting, not JSONDecodeError
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    code, out, err = run(capsys, "certify", "--cert", str(cert), game_file(GAME_B))
    assert code == 1
    assert out == ""
    assert err.startswith("error: certificate file is not valid json: ")


def test_certify_json_reports_the_verdict(game_file, tmp_path, capsys):
    game = game_file(GAME_G)
    cert = str(tmp_path / "cert.json")
    run(capsys, "solve", "--cert-out", cert, game)
    code, out, _ = run(capsys, "certify", "--format", "json", "--cert", cert, game)
    assert code == 0
    assert json.loads(out) == {"verb": "certify", "accepted": True, "n": 5, "schema": 3}


def test_certify_refuses_other_schema(game_file, tmp_path, capsys):
    # a schema-2 certificate carried the companion's values s and the
    # chain multiplier c in place of sigma
    game = GAME_A
    cert = tmp_path / "cert.json"
    run(capsys, "solve", "--cert-out", str(cert), game_file(game))
    doc = json.loads(cert.read_text())
    del doc["sigma"]
    doc.update(schema=2, c=9, s=doc["z"])
    cert.write_text(json.dumps(doc))

    code, out, err = run(capsys, "certify", "--cert", str(cert), game_file(game))
    assert code == 1
    assert out == ""
    assert "schema 2" in err and "schema 3" in err


def test_certify_malformed_certificate_is_domain_error(game_file, tmp_path, capsys):
    bad = tmp_path / "cert.json"
    bad.write_text('{"schema": 3, "z": ["1/2", "0", "1"]}')
    code, _, err = run(capsys, "certify", "--cert", str(bad), game_file(GAME_A))
    assert code == 1
    assert "missing field 'sigma'" in err


@pytest.mark.parametrize("sigma", ['"1->3"', "[[1]]", "[[1, 2.5]]", "[[1, true]]", "[[1, 2], [1, 3]]"])
def test_certify_malformed_sigma_is_domain_error(game_file, tmp_path, capsys, sigma):
    bad = tmp_path / "cert.json"
    bad.write_text('{"schema": 3, "z": ["3/4", "1/2", "3/4", "0", "1"], "sigma": %s}' % sigma)
    code, out, err = run(capsys, "certify", "--cert", str(bad), game_file(GAME_G))
    assert code == 1
    assert out == ""
    assert "certificate field 'sigma'" in err


# ----------------------------------------------------------------- gen


def test_gen_is_deterministic_per_seed(capsys):
    _, a, _ = run(capsys, "gen", "--n", "7", "--seed", "11")
    _, b, _ = run(capsys, "gen", "--n", "7", "--seed", "11")
    _, c, _ = run(capsys, "gen", "--n", "7", "--seed", "12")
    assert a == b
    assert a != c
    assert parse_game(a).n == 7


def test_gen_stopping_flag(capsys):
    _, out, _ = run(capsys, "gen", "--n", "8", "--seed", "3", "--stopping")
    assert is_stopping(parse_game(out))


def test_gen_weights_shape_the_mix(capsys):
    _, out, _ = run(capsys, "gen", "--n", "9", "--seed", "0", "--weights", "0:0:1")
    game = parse_game(out)
    assert all(line.split()[1] == "avg" for line in out.splitlines()[1:] if line)
    assert game.n == 9


def test_gen_bad_weights_is_usage_error(capsys):
    code, _, _ = run(capsys, "gen", "--n", "6", "--weights", "1:2")
    assert code == 2


def test_gen_n_takes_a_sign(capsys):
    code, out, _ = run(capsys, "gen", "--n", "+6")
    assert code == 0
    assert parse_game(out).n == 6


def test_gen_negative_seed_is_usage_error(capsys):
    # used to end in a numpy ValueError traceback
    code, out, err = run(capsys, "gen", "--n", "5", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "non-negative integer" in err


# -------------------------------------------------------------- oracle


def test_oracle_verb(game_file, capsys):
    code, out, _ = run(capsys, "oracle", game_file(GAME_E))
    assert code == 0
    assert "method: oracle" in out.splitlines()
    assert "value = 0" in out.splitlines()


ORACLE_E_TEXT = """\
method: oracle
iterations: 1
v(1) = 0
v(2) = 0
v(3) = 0
v(4) = 1
tau: 2->1
sigma: 1->2
value = 0
"""

ORACLE_E_JSON = {
    "certificate": None,
    "iterations": 1,
    "method": "oracle",
    "n": 4,
    "schema": 3,
    "start": 1,
    "strategies": {"sigma": [[1, 2]], "tau": [[2, 1]]},
    "value": "0",
    "values": ["0", "0", "0", "1"],
}


def test_oracle_verb_prints_what_solve_method_oracle_printed(game_file, capsys):
    # pinned from 'solve --method oracle', which the oracle verb replaces;
    # only the json verb field differs
    path = game_file(GAME_E)
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert out == ORACLE_E_TEXT
    code, out, _ = run(capsys, "oracle", "--format", "json", path)
    assert code == 0
    assert json.loads(out) == {**ORACLE_E_JSON, "verb": "oracle"}


def test_oracle_budget_exceeded(game_file, capsys):
    code, _, err = run(capsys, "oracle", "--budget", "1", game_file(GAME_E))
    assert code == 1
    assert "budget" in err


# --------------------------------------------------------------- bench


def test_bench_table(game_file, tmp_path, capsys):
    game_file(GAME_B, "b.ssg")
    suite = tmp_path / "suite.txt"
    suite.write_text("b.ssg\n# a comment line\n")
    code, out, _ = run(capsys, "bench", "--suite", str(suite))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["game", "n", "method", "iters", "ms", "value"]
    assert [line.split()[2] for line in lines[1:]] == ["auto", "vi"]
    vi_row = lines[2].split()
    assert vi_row[-1] == "2/3" and int(vi_row[3]) > 0


def test_bench_json_rows(game_file, tmp_path, capsys):
    game_file(GAME_G, "g.ssg")
    suite = tmp_path / "suite.txt"
    suite.write_text("g.ssg\n")
    code, out, _ = run(
        capsys, "bench", "--suite", str(suite), "--methods", "auto,mc",
        "--plays", "500", "--format", "json",
    )
    doc = json.loads(out)
    assert code == 0
    methods = {row["method"] for row in doc["rows"]}
    assert methods == {"auto", "mc"}
    for row in doc["rows"]:
        assert row["error"] is None
        assert row["ms"] >= 0


def test_bench_vi_row_degrades_on_non_stopping_game(game_file, tmp_path, capsys):
    game_file(GAME_E, "e.ssg")
    suite = tmp_path / "suite.txt"
    suite.write_text("e.ssg\n")
    code, out, _ = run(
        capsys, "bench", "--suite", str(suite), "--methods", "vi", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0
    assert all(row["error"] == "PreconditionError" for row in doc["rows"])


def test_bench_oracle_row_reports_budget_error(game_file, tmp_path, capsys):
    game_file(GAME_E, "e.ssg")
    suite = tmp_path / "suite.txt"
    suite.write_text("e.ssg\n")
    code, out, _ = run(
        capsys, "bench", "--suite", str(suite), "--methods", "auto,oracle", "--budget", "1"
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(r[2], r[-1]) for r in rows] == [("auto", "0"), ("oracle", "BudgetError")]


def test_bench_mc_row_degrades(game_file, tmp_path, capsys):
    # an out-of-range rollout seed used to abort the run and lose the auto row
    game_file(GAME_B, "b.ssg")
    suite = tmp_path / "suite.txt"
    suite.write_text("b.ssg\n")
    code, out, _ = run(
        capsys, "bench", "--suite", str(suite), "--methods", "auto,mc",
        "--seed", str(2**32),
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(r[2], r[-1]) for r in rows] == [("auto", "2/3"), ("mc", "PreconditionError")]


def test_bench_empty_suite_is_domain_error(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text("# nothing here\n")
    code, _, err = run(capsys, "bench", "--suite", str(suite))
    assert code == 1
    assert "no game files" in err


def test_bench_unknown_method_is_usage_error(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text("x.ssg\n")
    code, _, _ = run(capsys, "bench", "--suite", str(suite), "--methods", "fast")
    assert code == 2


@pytest.mark.parametrize("flag", ["--repeat", "--plays"])
@pytest.mark.parametrize("count", ["0", "-1", "two"])
def test_bench_non_positive_count_is_usage_error(game_file, tmp_path, capsys, flag, count):
    # --repeat 0 used to time nothing and crash on the missing report
    game_file(GAME_B, "b.ssg")
    suite = tmp_path / "suite.txt"
    suite.write_text("b.ssg\n")
    code, _, err = run(
        capsys, "bench", "--suite", str(suite), "--methods", "auto,mc", flag, count
    )
    assert code == 2
    assert "positive integer" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("transform --c 0", "positive integer"),
        ("transform --c -1", "positive integer"),
        ("oracle --budget -1", "non-negative integer"),
    ],
)
def test_non_positive_multiplier_or_negative_budget_is_usage_error(game_file, capsys, argv, expected):
    # oracle --budget -1 used to report a budget of -1 as exceeded
    code, _, err = run(capsys, *argv.split(), game_file(GAME_G))
    assert code == 2
    assert expected in err


def test_solve_has_no_multiplier_flag(game_file, capsys):
    # the transform route's chain length is fixed; --c must not resolve
    # to --cert-out by prefix either
    code, out, err = run(capsys, "solve", "--c", "9", game_file(GAME_G))
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --c" in err


@pytest.mark.parametrize("flag", ["--seed", "--budget"])
def test_bench_negative_seed_or_budget_is_usage_error(game_file, tmp_path, capsys, flag):
    game_file(GAME_B, "b.ssg")
    suite = tmp_path / "suite.txt"
    suite.write_text("b.ssg\n")
    code, _, err = run(capsys, "bench", "--suite", str(suite), "--methods", "auto,mc", flag, "-1")
    assert code == 2
    assert "non-negative integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["decide", "--alpha", "1/2"],
        ["strategies"],
        ["transform"],
        ["certify", "--cert", "cert.json"],
        ["gen", "--n", "5"],
        ["bench", "--suite", "suite.txt"],
    ],
)
def test_approx_on_a_verb_that_prints_no_value_is_usage_error(game_file, capsys, argv):
    # these verbs used to accept --approx and ignore it
    game = [] if argv[0] in ("gen", "bench") else [game_file(GAME_G)]
    code, out, err = run(capsys, *argv, *game, "--approx", "3")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --approx 3" in err


@pytest.mark.parametrize("verb", [["solve"], ["reduce", "--sigma", "1->3"]])
@pytest.mark.parametrize("digits", ["-1", "-2", "x"])
def test_negative_approx_is_usage_error(game_file, capsys, verb, digits):
    # --approx -2 used to end in a format-specifier ValueError traceback
    code, _, err = run(capsys, *verb, "--approx", digits, game_file(GAME_G))
    assert code == 2
    assert "non-negative integer" in err


@pytest.mark.parametrize(
    "verb", [["solve"], ["value"], ["reduce", "--sigma", "1->3"], ["oracle"]]
)
def test_approx_past_the_int_str_limit_is_usage_error(game_file, capsys, verb):
    # --approx 5000 used to end in a ValueError traceback from str(int)
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter prints ints of any length")
    path = game_file(GAME_G)
    code, out, err = run(capsys, *verb, "--approx", str(limit + 1), path)
    assert (code, out) == (2, "")
    assert f"at most {limit} digits" in err
    code, out, _ = run(capsys, *verb, "--approx", str(limit), path)
    assert code == 0
    assert re.search(rf"~ [01]\.\d{{{limit}}}$", out, re.M)


# ------------------------------------------------------------- failures


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/game.ssg")
    assert code == 1
    assert err.startswith("error:")


def test_malformed_game_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.ssg"
    bad.write_text("ssg 3 1\n1 avg 2\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "error: line" in err


def test_non_ascii_integer_in_game_file_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.ssg"
    for text, where in (("ssg 5 1\n1 max 2 3\n2 min 4 5\n3 avg 2 0_5\n", "line 4, column 9"),
                        ("ssg ５ 1\n1 avg 2 3\n", "line 1, column 5")):
        bad.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert where in err


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--sigma", "1->３", "GAME"],
        ["decide", "--alpha", "٣/٤", "GAME"],
        ["oracle", "--budget", "１", "GAME"],
        ["bench", "--suite", "GAME", "--plays", "５"],
        ["gen", "--n", "６"],
        ["gen", "--n", "6", "--weights", "١:1:1"],
    ],
)
def test_non_ascii_integer_flag_is_usage_error(game_file, capsys, argv):
    path = game_file(GAME_G)
    code, out, _ = run(capsys, *(path if a == "GAME" else a for a in argv))
    assert code == 2
    assert out == ""


def test_unknown_verb_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_no_verb_is_usage_error(capsys):
    assert run(capsys)[0] == 2
