"""Command-line front end.

Verbs: validate, solve, value, decide, strategies, reduce, transform,
certify, gen, oracle, bench. Games are read from a file argument or
standard input ('-'). Every verb exits 0 on success, 1 on a domain
error, 2 on a usage error; decide exits 3 when the answer is false and
certify exits 1 when the certificate is rejected.

Each verb builds its json document and its text in one pass and
returns (exit code, document, text); main prints the one that --format
asks for, so no verb reads --format, and turns a domain error (an
SSGError, or an OSError from a file) into exit 1 with the message on
standard error. Output is text by default; --format json emits the
document with a schema: 3 field, sorted keys, and rationals as "p/q"
strings.
Certificate files carry the same schema field, the values z and the
max strategy sigma as [vertex, child] pairs; certify refuses a
certificate of any other schema.
The json output of deterministic verbs is byte-stable across runs for
identical inputs; bench rows carry wall-clock timings and are not.
"""

from __future__ import annotations

import argparse
import json
import math
import os.path
import sys
import time
from fractions import Fraction
from typing import Callable, Union

from .exceptions import FormatError, SSGError
from .games import (
    Game,
    Strategy,
    ValueVector,
    VertexKind,
    ascii_int,
    format_rational,
    parse_game,
    parse_rational,
    serialize_game,
)
from .generate import random_game
from .markov import is_stopping, mc_estimate, reduce_game, solve_value_vector
from .solve import (
    METHODS,
    Certificate,
    DEFAULT_ORACLE_BUDGET,
    SolveReport,
    brute_force_oracle,
    game_value,
    solve,
    verify_ovv_certificate,
)
from .stopping import DEFAULT_C, build_stopping_game

SCHEMA = 3

def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except SSGError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int_arg(text: str) -> int:
    try:
        value = ascii_int(text, signed=False)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _non_negative_int_arg(text: str) -> int:
    try:
        return ascii_int(text, signed=False)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None


def _approx_arg(text: str) -> int:
    # _decimal's str(int) stops at Python's digit limit (0 or absent: none)
    digits, limit = _non_negative_int_arg(text), getattr(sys, "get_int_max_str_digits", int)()
    if limit and digits > limit:
        raise argparse.ArgumentTypeError(
            f"expected at most {limit} digits, Python's int-to-str limit, got {text!r}")
    return digits


def _weights_arg(text: str) -> tuple[int, int, int]:
    try:
        a, b, c = (ascii_int(part, signed=False) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weights must look like 'a:b:c' with nonnegative integers, got {text!r}"
        ) from None
    return a, b, c


def _edges_arg(text: str) -> tuple[tuple[int, int], ...]:
    if not text.strip():
        return ()
    edges = []
    for part in text.split(","):
        i, _, j = part.partition("->")
        try:
            edges.append((ascii_int(i.strip(), signed=False), ascii_int(j.strip(), signed=False)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"strategies are comma-separated 'i->j' pairs, got {part.strip()!r}"
            ) from None
    return tuple(edges)


def _methods_arg(text: str) -> tuple[str, ...]:
    tokens = tuple(t.strip() for t in text.split(",") if t.strip())
    allowed = {*METHODS, "mc", "oracle"}
    for t in tokens:
        if t not in allowed:
            raise argparse.ArgumentTypeError(
                f"unknown method {t!r}; want a comma list from {', '.join(sorted(allowed))}"
            )
    if not tokens:
        raise argparse.ArgumentTypeError("empty method list")
    return tokens


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise FormatError(f"{name} is not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def _read_game(path: str) -> Game:
    return parse_game(_read_text(path))


def _decimal(x: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering without going through float."""
    scaled = round(x * 10**digits)
    whole, frac = divmod(scaled, 10**digits)
    return f"{whole}.{frac:0{digits}d}" if digits else str(whole)


def _fmt(x: Fraction, approx: Union[int, None]) -> str:
    text = format_rational(x)
    if approx is not None:
        text += f" ~ {_decimal(x, approx)}"
    return text


def _strategy_text(s: Strategy) -> str:
    if not s.picks:
        return "-"
    return ", ".join(f"{v}->{c}" for v, c in s.picks)


def _strategy_edges(s: Strategy) -> list[list[int]]:
    return [[v, c] for v, c in s.picks]


def _values_json(values: ValueVector) -> list[str]:
    return [format_rational(x) for _, x in values.items()]


def _certificate_json(cert: Certificate, n: int) -> dict:
    return {"n": n, "sigma": _strategy_edges(cert.sigma), "z": _values_json(cert.z)}


def _json_text(doc: dict) -> str:
    """doc with the schema stamped, as stdout and certificate files hold it."""
    return json.dumps({**doc, "schema": SCHEMA}, indent=2, sort_keys=True) + "\n"


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _strategies_out(tau: Strategy, sigma: Strategy) -> tuple[dict, list[str]]:
    """The strategy pair as json fields and as text lines."""
    doc = {"tau": _strategy_edges(tau), "sigma": _strategy_edges(sigma)}
    return doc, [f"tau: {_strategy_text(tau)}", f"sigma: {_strategy_text(sigma)}"]


def _values_out(
    doc: dict, values: ValueVector, start: int, approx: Union[int, None]
) -> tuple[list[str], str]:
    """Put the vector, the start vertex's value and, with approx, the
    decimals of both into doc; return the text lines of the vector and
    the value line."""
    doc["values"] = _values_json(values)
    doc["value"] = format_rational(values[start])
    if approx is not None:
        doc["values_approx"] = [_decimal(x, approx) for _, x in values.items()]
        doc["value_approx"] = _decimal(values[start], approx)
    lines = [f"v({i}) = {_fmt(x, approx)}" for i, x in values.items()]
    return lines, f"value = {_fmt(values[start], approx)}"


def _report_out(
    verb: str, game: Game, report: SolveReport, approx: Union[int, None]
) -> tuple[dict, list[str]]:
    """solve's and oracle's output of one report, as a json document and
    text lines."""
    strategies, strategy_lines = _strategies_out(report.tau, report.sigma)
    doc = {
        "verb": verb,
        "n": game.n,
        "start": game.start,
        "method": report.method,
        "iterations": report.iterations,
        "strategies": strategies,
        "certificate": (
            _certificate_json(report.certificate, game.n) if report.certificate else None
        ),
    }
    value_lines, value_line = _values_out(doc, report.values, game.start, approx)
    header = [f"method: {report.method}", f"iterations: {report.iterations}"]
    return doc, header + value_lines + strategy_lines + [value_line]


def _parse_value_list(raw, what: str) -> ValueVector:
    if not isinstance(raw, list):
        raise SSGError(f"certificate field {what!r} must be a list of 'p/q' strings")
    try:
        return ValueVector(parse_rational(str(x)) for x in raw)
    except SSGError as exc:
        raise SSGError(f"certificate field {what!r}: {exc}") from None


def _parse_sigma(raw) -> Strategy:
    well_formed = isinstance(raw, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in raw
    )
    if not well_formed:
        raise SSGError("certificate field 'sigma' must be a list of [vertex, child] integer pairs")
    try:
        return Strategy(VertexKind.MAX, tuple(tuple(p) for p in raw))
    except SSGError as exc:
        raise SSGError(f"certificate field 'sigma': {exc}") from None


def _load_certificate(path: str) -> Certificate:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # json.JSONDecodeError is a ValueError; so is an integer past the
        # int-to-str digit limit, and deep nesting recurses too far
        raise SSGError(f"certificate file is not valid json: {exc}") from None
    if not isinstance(doc, dict):
        raise SSGError("certificate file must hold a json object")
    if doc.get("schema") != SCHEMA:
        raise SSGError(
            f"certificate file has schema {doc.get('schema')!r}; this version reads schema {SCHEMA}"
        )
    for field in ("z", "sigma"):
        if field not in doc:
            raise SSGError(f"certificate file is missing field {field!r}")
    return Certificate(z=_parse_value_list(doc["z"], "z"), sigma=_parse_sigma(doc["sigma"]))


# ---------------------------------------------------------------- verbs

Output = tuple[int, dict, str]


def _cmd_validate(args) -> Output:
    game = _read_game(args.game)
    counts = {
        kind.value: len(game.vertices_of_kind(kind))
        for kind in (VertexKind.MAX, VertexKind.MIN, VertexKind.AVG)
    }
    stopping = is_stopping(game)
    doc = {
        "verb": "validate",
        "ok": True,
        "n": game.n,
        "start": game.start,
        "kinds": counts,
        "stopping": stopping,
    }
    kinds = " ".join(f"{k}={v}" for k, v in counts.items())
    word = "stopping" if stopping else "non-stopping"
    return 0, doc, f"ok: n={game.n} start={game.start} {kinds} ({word})\n"


def _cmd_solve(args) -> Output:
    game = _read_game(args.game)
    report = solve(game, method=args.method, with_certificate=args.cert_out is not None)
    doc, lines = _report_out("solve", game, report, args.approx)
    if args.cert_out:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            fh.write(_json_text(_certificate_json(report.certificate, game.n)))
        lines.append(f"certificate written to {args.cert_out}")
    return 0, doc, _text(lines)


def _cmd_value(args) -> Output:
    value = game_value(_read_game(args.game))
    doc = {"verb": "value", "value": format_rational(value)}
    if args.approx is not None:
        doc["value_approx"] = _decimal(value, args.approx)
    return 0, doc, _fmt(value, args.approx) + "\n"


def _cmd_decide(args) -> Output:
    if not 0 <= args.alpha <= 1:
        raise SSGError(f"alpha must lie in [0, 1], got {format_rational(args.alpha)}")
    value = game_value(_read_game(args.game))
    result = value > args.alpha
    doc = {
        "verb": "decide",
        "alpha": format_rational(args.alpha),
        "value": format_rational(value),
        "result": result,
    }
    rel = ">" if result else "<="
    text = f"{'true' if result else 'false'} (value {doc['value']} {rel} alpha {doc['alpha']})\n"
    return 0 if result else 3, doc, text


def _cmd_strategies(args) -> Output:
    report = solve(_read_game(args.game), "auto")
    doc, lines = _strategies_out(report.tau, report.sigma)
    return 0, {"verb": "strategies", **doc}, _text(lines)


def _cmd_reduce(args) -> Output:
    game = _read_game(args.game)
    tau = Strategy(VertexKind.MIN, args.tau)
    sigma = Strategy(VertexKind.MAX, args.sigma)
    values = solve_value_vector(reduce_game(game, tau, sigma))
    doc = {"verb": "reduce", "tau": _strategy_edges(tau), "sigma": _strategy_edges(sigma)}
    value_lines, value_line = _values_out(doc, values, game.start, args.approx)
    return 0, doc, _text(value_lines + [value_line])


def _cmd_transform(args) -> Output:
    game = _read_game(args.game)
    transformed, record = build_stopping_game(game, args.c)
    text = serialize_game(transformed)
    doc = {"verb": "transform", "c": args.c, "n": transformed.n, "game": text}
    if args.map:
        doc["map"] = {str(v): record.mapped(v) for v in game.vertices}
        text += _text([f"# map {v} -> {record.mapped(v)}" for v in game.vertices])
    return 0, doc, text


def _cmd_certify(args) -> Output:
    game = _read_game(args.game)
    accepted = verify_ovv_certificate(game, _load_certificate(args.cert))
    doc = {"verb": "certify", "accepted": accepted, "n": game.n}
    return 0 if accepted else 1, doc, f"certificate {'accepted' if accepted else 'rejected'}\n"


def _cmd_gen(args) -> Output:
    game = random_game(
        args.n, weights=args.weights, seed=args.seed, require_stopping=args.stopping
    )
    text = serialize_game(game)
    doc = {
        "verb": "gen",
        "n": args.n,
        "seed": args.seed,
        "weights": ":".join(str(w) for w in args.weights),
        "stopping": args.stopping,
        "game": text,
    }
    return 0, doc, text


def _cmd_oracle(args) -> Output:
    game = _read_game(args.game)
    report = brute_force_oracle(game, budget=args.budget)
    doc, lines = _report_out("oracle", game, report, args.approx)
    return 0, doc, _text(lines)


# ---------------------------------------------------------------- bench


def _time_best(fn: Callable, repeat: int):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _bench_rows(game: Game, name: str, methods, args):
    for method in methods:
        row = {
            "game": name,
            "n": game.n,
            "method": method,
            "iterations": None,
            "ms": None,
            "value": None,
            "error": None,
        }
        try:
            if method == "mc":
                report = solve(game, "auto")
                rg = reduce_game(game, report.tau, report.sigma)
                est, secs = _time_best(
                    lambda: mc_estimate(rg, plays=args.plays, seed=args.seed), args.repeat
                )
                iterations, value = est.plays, est.value
            else:
                report, secs = _time_best(
                    lambda: brute_force_oracle(game, budget=args.budget)
                    if method == "oracle" else solve(game, method),
                    args.repeat,
                )
                iterations, value = report.iterations, report.values[game.start]
            row["iterations"] = iterations
            row["ms"] = round(secs * 1000, 3)
            row["value"] = format_rational(value)
        except SSGError as exc:
            row["error"] = type(exc).__name__
        yield row


def _cmd_bench(args) -> Output:
    suite_dir = "." if args.suite == "-" else os.path.dirname(os.path.abspath(args.suite))
    paths = []
    for raw in _read_text(args.suite).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            paths.append(line)
    if not paths:
        raise SSGError("bench suite lists no game files")

    rows = []
    for rel in paths:
        full = rel if os.path.isabs(rel) else os.path.join(suite_dir, rel)
        game = _read_game(full)
        rows.extend(_bench_rows(game, rel, args.methods, args))

    headers = ["game", "n", "method", "iters", "ms", "value"]
    table = [headers] + [
        [
            r["game"],
            str(r["n"]),
            r["method"],
            "-" if r["iterations"] is None else str(r["iterations"]),
            "-" if r["ms"] is None else f"{r['ms']:.3f}",
            r["error"] or r["value"] or "-",
        ]
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return 0, {"verb": "bench", "rows": rows}, _text(lines)


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssg",
        description="Exact solvers for simple stochastic games.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output style"
    )
    # only the verbs that print values take --approx
    valued = argparse.ArgumentParser(add_help=False, parents=[common])
    valued.add_argument(
        "--approx",
        type=_approx_arg,
        metavar="DIGITS",
        help="append a decimal rendering with this many digits",
    )

    def add(verb, handler, help_text, game_arg=True, parents=(common,)):
        # no prefix matching: a dropped flag such as solve --c must not
        # resolve to a longer one such as --cert-out
        p = sub.add_parser(verb, help=help_text, parents=list(parents), allow_abbrev=False)
        if game_arg:
            p.add_argument("game", nargs="?", default="-", help="game file, or '-' for stdin")
        p.set_defaults(func=handler)
        return p

    add("validate", _cmd_validate, "parse a game file and report its shape")

    p = add("solve", _cmd_solve, "compute optimal values and strategies", parents=(valued,))
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--cert-out", metavar="FILE",
                   help="write a verification certificate to FILE")

    add("value", _cmd_value, "print the game value (optimal start-vertex value)",
        parents=(valued,))

    p = add("decide", _cmd_decide, "exit 0 if the game value exceeds alpha, 3 if not")
    p.add_argument("--alpha", type=_rational_arg, required=True, metavar="P/Q")

    add("strategies", _cmd_strategies, "print optimal strategies")

    p = add("reduce", _cmd_reduce, "fix strategies and solve the resulting chain",
            parents=(valued,))
    p.add_argument("--tau", type=_edges_arg, default=(), metavar="EDGES",
                   help="min strategy as comma-separated i->j pairs")
    p.add_argument("--sigma", type=_edges_arg, default=(), metavar="EDGES",
                   help="max strategy as comma-separated i->j pairs")

    p = add("transform", _cmd_transform, "emit the stopping companion game")
    p.add_argument("--c", type=_positive_int_arg, default=DEFAULT_C, metavar="C")
    p.add_argument("--map", action="store_true",
                   help="include the original-to-companion vertex map")

    p = add("certify", _cmd_certify, "check a certificate; exit 1 if rejected")
    p.add_argument("--cert", required=True, metavar="FILE")

    p = add("gen", _cmd_gen, "generate a seeded random game", game_arg=False)
    p.add_argument("--n", type=ascii_int, required=True)
    p.add_argument("--seed", type=_non_negative_int_arg, default=0)
    p.add_argument("--weights", type=_weights_arg, default=(1, 1, 1), metavar="A:B:C",
                   help="relative frequency of max:min:avg vertices")
    p.add_argument("--stopping", action="store_true",
                   help="retry seeds until the game is stopping")

    p = add("oracle", _cmd_oracle, "solve by enumerating all strategy pairs",
            parents=(valued,))
    p.add_argument("--budget", type=_non_negative_int_arg, default=DEFAULT_ORACLE_BUDGET)

    p = add("bench", _cmd_bench, "time solver methods over a suite of games",
            game_arg=False)
    p.add_argument("--suite", required=True, metavar="FILE",
                   help="file listing one game path per line")
    p.add_argument("--methods", type=_methods_arg, default=("auto", "vi"),
                   metavar="LIST", help="comma list, e.g. auto,vi,hk,mc")
    p.add_argument("--repeat", type=_positive_int_arg, default=1)
    p.add_argument("--plays", type=_positive_int_arg, default=100_000,
                   help="rollouts per mc row")
    p.add_argument("--seed", type=_non_negative_int_arg, default=0, help="rollout seed for mc rows")
    p.add_argument("--budget", type=_non_negative_int_arg, default=DEFAULT_ORACLE_BUDGET)

    return parser


def main(argv: Union[list[str], None] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code, doc, text = args.func(args)
        sys.stdout.write(_json_text(doc) if args.format == "json" else text)
    except (SSGError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
