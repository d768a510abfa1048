"""Graph construction, validation, strategies, value vectors, text format."""

import dataclasses
import hashlib
import inspect
import io
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ssg

from ssg import (
    FormatError,
    Game,
    PreconditionError,
    Strategy,
    StrategyError,
    ValidationError,
    ValueVector,
    VertexKind,
    build_game,
    enumerate_strategies,
    format_rational,
    parse_game,
    parse_rational,
    random_game,
    serialize_game,
    validate_strategy,
)
from ssg import games
from ssg.fixtures import FIXTURES, GAME_A, GAME_B, GAME_C, GAME_E, GAME_G


def test_build_game_basic():
    g = build_game(4, 1, [(1, "max", 2, 3), (2, "min", 1, 4)])
    assert g.n == 4
    assert g.start == 1
    assert g.sink0 == 3
    assert g.sink1 == 4
    assert g.kind(1) is VertexKind.MAX
    assert g.kind(3) is VertexKind.SINK0
    assert g.kind(4) is VertexKind.SINK1
    assert g.children_of(1) == (2, 3)
    assert list(g.interior) == [1, 2]
    assert g.edge_count == 4


def test_minimal_game_has_only_sinks():
    g = build_game(2, 2, [])
    assert list(g.interior) == []
    assert g.edge_count == 0


def test_children_of_sink_raises():
    with pytest.raises(ValueError):
        GAME_A.children_of(2)


def test_kind_helpers():
    assert VertexKind.SINK0.is_sink and VertexKind.SINK1.is_sink
    assert not VertexKind.AVG.is_sink and not VertexKind.MAX.is_sink
    assert GAME_A.has_kind(VertexKind.AVG)
    assert not GAME_A.has_kind(VertexKind.MAX)
    assert GAME_E.vertices_of_kind(VertexKind.MIN) == (2,)


def test_edges_enumeration():
    assert list(GAME_B.edges()) == [(1, 2), (1, 4), (2, 1), (2, 3)]


@pytest.mark.parametrize(
    "rows, msg",
    [
        ([(1, "max", 2, 2)], "not distinct"),
        ([(1, "max", 0, 2)], "out of range"),
        ([(1, "max", 2, 5)], "out of range"),
        ([(1, "frob", 2, 3)], "unknown vertex kind"),
        ([(1, "max", 2, 3), (1, "min", 2, 3)], "duplicate"),
        ([(3, "max", 1, 2)], "out of range"),
        ([], "missing vertex 1"),
        ([(1, 5, 2, 3)], r"vertex row \(1, 5, 2, 3\) has kind 5"),
        ([(1, "avg", "2", 3)], r"vertex row \(1, 'avg', '2', 3\) needs integer ids"),
        ([(1, "avg", 2.0, 3)], r"vertex row \(1, 'avg', 2.0, 3\) needs integer ids"),
        ([(1, "avg", 2)], r"vertex row \(1, 'avg', 2\) is not \(id, kind, child1, child2\)"),
        ([5], r"vertex row 5 is not \(id, kind, child1, child2\)"),
    ],
)
def test_build_game_rejects(rows, msg):
    with pytest.raises(ValidationError, match=msg):
        build_game(3, 1, rows)


@pytest.mark.parametrize("n", [3.0, "3", None])
def test_build_game_rejects_a_non_integer_vertex_count(n):
    with pytest.raises(ValidationError, match="vertex count must be an integer"):
        build_game(n, 1, [(1, "avg", 2, 3)])


AVG3 = (VertexKind.AVG, VertexKind.SINK0, VertexKind.SINK1)


@pytest.mark.parametrize(
    "fields, msg",
    [
        # each used to make a game that solve failed on with a TypeError
        # and serialize_game wrote as a file parse_game refuses
        (dict(n=3.0), "vertex count must be an integer, got 3.0"),
        (dict(start=1.5), "start vertex must be an integer, got 1.5"),
        (dict(children=((2, 3.0), None, None)), r"children \(2, 3.0\) of vertex 1 must be"),
        (dict(children=(("2", 3), None, None)), "of vertex 1 must be integers"),
        (dict(kinds=("avg", *AVG3[1:])), "vertex 1 has kind 'avg', not a VertexKind"),
        (dict(children=(5, None, None)), "vertex 1 must have exactly two children, got 5"),
        (dict(children=((2,), None, None)), "vertex 1 must have exactly two children"),
    ],
)
def test_validate_game_refuses_non_integers_and_foreign_kinds(fields, msg):
    with pytest.raises(ValidationError, match=msg):
        Game(**{"n": 3, "start": 1, "kinds": AVG3, "children": ((2, 3), None, None), **fields})


def test_validate_game_takes_numpy_integers():
    children = ((np.int64(2), 3), None, None)
    game = Game(n=np.int64(3), start=np.int64(1), kinds=AVG3, children=children)
    assert serialize_game(game) == "ssg 3 1\n1 avg 2 3\n"


def test_validate_game_checks_sink_positions():
    with pytest.raises(ValidationError, match="0-sink"):
        Game(
            n=3,
            start=1,
            kinds=(VertexKind.AVG, VertexKind.SINK1, VertexKind.SINK0),
            children=((2, 3), None, None),
        )


SINK0, SINK1 = VertexKind.SINK0, VertexKind.SINK1


@pytest.mark.parametrize(
    "fields, msg",
    [
        (dict(n=1, kinds=(SINK1,), children=(None,)), "vertex count must be at least 2, got 1"),
        (dict(kinds=AVG3[1:]), "kinds/children length does not match vertex count"),
        (dict(children=((2, 3), None)), "kinds/children length does not match vertex count"),
        (dict(kinds=(VertexKind.AVG, SINK0, SINK0)), "vertex 3 must be the 1-sink"),
        (dict(children=((2, 3), None, (1, 2))), "sink 3 must not have children"),
        (
            dict(n=4, kinds=(VertexKind.AVG, SINK1, SINK0, SINK1), children=((3, 4), None, None, None)),
            "only the last two vertices may be sinks, vertex 2 is one",
        ),
    ],
    ids=["one-vertex", "short-kinds", "short-children", "no-1-sink", "sink-children", "interior-sink"],
)
def test_validate_game_checks_the_shape(fields, msg):
    with pytest.raises(ValidationError, match=msg):
        Game(**{"n": 3, "start": 1, "kinds": AVG3, "children": ((2, 3), None, None), **fields})


def test_game_built_directly_is_validated():
    # both used to build games that solve and game_value failed on
    # with a bare IndexError
    with pytest.raises(ValidationError, match="start out of range"):
        dataclasses.replace(GAME_G, start=9)
    with pytest.raises(ValidationError, match="not distinct"):
        Game(
            n=4,
            start=1,
            kinds=(VertexKind.MAX, VertexKind.AVG, VertexKind.SINK0, VertexKind.SINK1),
            children=((2, 2), (1, 7), None, None),
        )


def test_validate_game_checks_start_range():
    with pytest.raises(ValidationError, match="start out of range"):
        build_game(3, 7, [(1, "avg", 2, 3)])


def test_strategy_basics():
    s = Strategy.of(VertexKind.MIN, {2: 1})
    assert s.pick(2) == 1
    assert s.as_dict() == {2: 1}
    assert s.vertices == (2,)
    with pytest.raises(StrategyError):
        s.pick(5)


def test_strategy_equality_ignores_order():
    a = Strategy(VertexKind.MAX, ((3, 1), (1, 2)))
    b = Strategy(VertexKind.MAX, ((1, 2), (3, 1)))
    assert a == b
    assert hash(a) == hash(b)
    assert a.picks == ((1, 2), (3, 1))


def test_strategy_rejects_duplicates_and_bad_owner():
    with pytest.raises(StrategyError):
        Strategy(VertexKind.MAX, ((1, 2), (1, 3)))
    with pytest.raises(StrategyError):
        Strategy.of(VertexKind.AVG, {1: 2})


@pytest.mark.parametrize("picks", [((1, 3.0),), ((1.0, 3),)])
def test_strategy_rejects_float_vertex_ids(picks):
    # 3.0 == 3, so a float id used to pass validation and break lookups later
    with pytest.raises(StrategyError, match="integer vertex ids"):
        Strategy(VertexKind.MAX, picks)


@pytest.mark.parametrize("pick, shown", [((1,), r"\(1,\)"), (5, "5"), ((1, 2, 3), r"\(1, 2, 3\)")])
def test_strategy_rejects_malformed_picks(pick, shown):
    with pytest.raises(StrategyError, match=f"pick {shown} is not a \\(vertex, child\\) pair"):
        Strategy(VertexKind.MAX, (pick,))


def test_strategy_rejects_an_owner_that_is_no_vertex_kind():
    with pytest.raises(StrategyError, match="owner must be max or min, got 'max'"):
        Strategy("max", ())


def test_strategy_normalises_numpy_ids():
    s = Strategy(VertexKind.MAX, ((np.int64(1), np.int64(3)),))
    assert s.picks == ((1, 3),)
    assert all(type(x) is int for x in s.picks[0])


def test_validate_strategy_coverage():
    tau = Strategy.of(VertexKind.MIN, {2: 1})
    validate_strategy(GAME_E, tau)
    with pytest.raises(StrategyError, match="missing picks"):
        validate_strategy(GAME_E, Strategy.of(VertexKind.MIN, {}))
    with pytest.raises(StrategyError, match="not an edge"):
        validate_strategy(GAME_E, Strategy.of(VertexKind.MIN, {2: 3}))


def test_enumerate_strategies_order():
    sigmas = enumerate_strategies(GAME_E, VertexKind.MAX)
    assert [s.as_dict() for s in sigmas] == [{1: 2}, {1: 3}]
    # a player without vertices still has exactly the empty strategy
    taus = enumerate_strategies(GAME_A, VertexKind.MIN)
    assert len(taus) == 1 and taus[0].picks == ()


def test_value_vector_indexing_and_bounds():
    v = ValueVector([Fraction(1, 2), 0, 1])
    assert v[1] == Fraction(1, 2)
    assert v.n == len(v) == 3
    assert list(v.items()) == [(1, Fraction(1, 2)), (2, 0), (3, 1)]
    with pytest.raises(IndexError):
        v[0]
    with pytest.raises(IndexError):
        v[4]
    with pytest.raises(ValidationError):
        ValueVector([Fraction(3, 2)])
    with pytest.raises(ValidationError):
        ValueVector([Fraction(-1, 2)])


def test_value_vector_gap_and_leq():
    a = ValueVector([Fraction(1, 2), Fraction(1, 4)])
    b = ValueVector([Fraction(1, 2), Fraction(1, 3)])
    assert a.leq(b)
    assert not b.leq(a)
    assert a.gap(b) == Fraction(1, 12)


def test_format_and_parse_rational():
    assert format_rational(Fraction(2, 3)) == "2/3"
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational(" 1 ") == 1
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("+1/2") == Fraction(1, 2)
    for bad in ("1/0", "x", "1.5", "1/ 2", "1/+2", "1/", "٣/٤", "3/٤", "1_0/3"):
        with pytest.raises(FormatError):
            parse_rational(bad)


SAMPLE = """\
# a two-cycle of averages
ssg 4 1
1 avg 2 4
2 avg 1 3   # back to the top
"""


def test_parse_game_with_comments():
    g = parse_game(SAMPLE)
    assert g == GAME_B
    assert parse_game(io.StringIO(SAMPLE)) == GAME_B


def test_parse_game_huge_vertex_count_fails_validation():
    # rows are checked before anything n-long is built
    with pytest.raises(ValidationError, match="missing vertex 1"):
        parse_game("ssg 99999999999999999999 1\n")


def test_parse_game_line_order_free():
    g = parse_game("ssg 4 1\n2 avg 1 3\n1 avg 2 4\n")
    assert g == GAME_B


def test_parse_game_takes_a_sign_on_integers():
    assert parse_game("ssg +4 +1\n1 avg 2 +4\n+2 avg 1 3\n") == GAME_B


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("", 1, 1),
        ("sgg 3 1\n1 avg 2 3", 1, 1),
        ("ssg 3\n1 avg 2 3", 1, 1),
        ("ssg 3 1\n1 avg 2", 2, 1),
        ("ssg 3 1\n1 foo 2 3", 2, 3),
        ("ssg x 1\n1 avg 2 3", 1, 5),
        # int() alone takes underscores and other scripts' digits
        ("ssg 5 1\n1 max 2 3\n2 min 4 5\n3 avg 2 0_5", 4, 9),
        ("ssg ５ 1\n1 avg 2 3", 1, 5),
        ("ssg 3 1\n1\tfoo 2 3", 2, 3),
        ("ssg 3 1\n1 avg 2 x # a comment", 2, 9),
        ("ssg 4 1\r\n1 avg 2 4\r\n2 avg 1 x\r\n", 3, 9),
        # the column is that of the last token before the comment
        ("ssg 3 1 9 9 # 7 8 9\n1 avg 2 3", 1, 11),
        # a vertical tab is whitespace inside a line, not a line break
        ("ssg 4 1\n1 avg 2 4\x0b\n2 avg 1 x\n", 3, 9),
        # a bad token at each integer position, with and without a sign
        # on the other tokens; the first bad token in the line is named
        ("ssg 4 1\n1 avg 2 4\nx avg 1 3\n", 3, 1),
        ("ssg 4 1\n1 avg 2 4\n2 avg y 3\n", 3, 7),
        ("ssg 4 1\n1 avg 2 4\n2 avg 1 z\n", 3, 9),
        ("ssg 4 1\n1 avg 2 4\n-x avg +1 3\n", 3, 1),
        ("ssg 4 1\n1 avg 2 4\n+2 avg 1- 3\n", 3, 8),
        ("ssg 4 1\n1 avg 2 4\n2 avg +1 3x\n", 3, 10),
        ("ssg 4 1\n1 avg 2 4\nx foo 1 3\n", 3, 1),
        ("ssg 4 1\n1 avg 2 4\n2 foo 1 x\n", 3, 3),
    ],
)
def test_parse_game_errors_carry_position(text, line, col):
    with pytest.raises(FormatError) as exc:
        parse_game(text)
    assert exc.value.line == line
    assert exc.value.col == col
    assert f"line {line}" in str(exc.value)


def test_parse_game_breaks_lines_only_at_newlines():
    # str.splitlines breaks lines at each of these; the format only
    # separates tokens with them
    for space in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        assert parse_game(f"ssg 3 1\n1 avg{space}2 3\n") == build_game(3, 1, [(1, "avg", 2, 3)])
    assert parse_game("ssg 4 1\r1 avg 2 4\r\n2 avg 1 3\n") == GAME_B


def test_parse_game_computes_no_column_on_success(monkeypatch):
    def no_column(*args):
        raise AssertionError("a successful parse computed a column")

    monkeypatch.setattr(games, "_token_error", no_column)
    texts = [serialize_game(g) for g in FIXTURES.values()]
    texts += [serialize_game(random_game(n, seed=s)) for n in (3, 8, 24) for s in range(20)]
    texts += [_rerender(t, random.Random(i)) for i, t in enumerate(texts)]
    for text in texts:
        parse_game(text)
    with pytest.raises(AssertionError, match="computed a column"):
        parse_game("ssg x 1\n")


def _rerender(text, rnd):
    """text with every freedom the format allows drawn from rnd: runs of
    spaces, tabs and form feeds between tokens, '+' signs, trailing and
    whole-line comments, blank lines, shuffled vertex lines, and each
    line ended by '\\n', '\\r\\n' or '\\r'."""

    def gap():
        return "".join(rnd.choice(" \t\f") for _ in range(rnd.randint(1, 3)))

    def token(t):
        return "+" + t if t.isdigit() and rnd.random() < 0.2 else t

    header, *vertex_lines = text.splitlines()
    rnd.shuffle(vertex_lines)
    out = []
    for line in [header, *vertex_lines]:
        while rnd.random() < 0.3:
            out.append(rnd.choice(["", gap(), "# 1 avg 2 3", gap() + "#"]))
        body = (gap() if rnd.random() < 0.3 else "") + gap().join(map(token, line.split()))
        if rnd.random() < 0.3:
            body += rnd.choice(["", gap()]) + "# ssg 1 2 " + gap()
        out.append(body)
    return "".join(line + rnd.choice(["\n", "\r\n", "\r"]) for line in out)


def test_serialize_is_canonical():
    assert serialize_game(GAME_B) == "ssg 4 1\n1 avg 2 4\n2 avg 1 3\n"
    assert serialize_game(GAME_C) == "ssg 3 1\n1 min 1 2\n"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_round_trip_fixtures(name):
    g = FIXTURES[name]
    assert parse_game(serialize_game(g)) == g


@given(seed=st.integers(0, 10_000), n=st.integers(3, 12), render=st.integers(0, 2**32))
def test_round_trip_random_games(seed, n, render):
    g = random_game(n, seed=seed)
    assert parse_game(serialize_game(g)) == g
    assert parse_game(_rerender(serialize_game(g), random.Random(render))) == g


def test_random_game_rejects_negative_seed():
    with pytest.raises(PreconditionError, match="seed"):
        random_game(5, seed=-1)
    assert random_game(5, seed=2**70).n == 5


def test_random_game_draws_are_pinned():
    # The draw protocol is fixed for reproducibility, so a change to how
    # draws are decoded must leave every serialized game unchanged.
    digest = hashlib.sha256()
    for n in (*range(3, 41), 60, 100, 300):
        for weights in ((1, 1, 1), (1, 0, 1), (0, 1, 1), (1, 1, 0), (1, 1, 8)):
            for seed in range(4):
                digest.update(serialize_game(random_game(n, weights, seed=seed)).encode())
    for n in (3, 5, 8, 12, 20):
        for seed in range(3):
            game = random_game(n, (1, 1, 8), seed=seed, require_stopping=True)
            digest.update(serialize_game(game).encode())
    assert digest.hexdigest() == "59ff0d75e3f5240e6a3d66e65f95a02bfc02c04acfacf78c9f827399da9d9b01"


@given(num=st.integers(0, 10**9), den=st.integers(1, 10**9))
def test_rational_round_trip(num, den):
    x = Fraction(num, den)
    assert parse_rational(format_rational(x)) == x


def test_exports_match_all():
    # every exported name resolves, and every public non-module name
    # the package binds is exported
    assert all(hasattr(ssg, name) for name in ssg.__all__)
    bound = {name for name, obj in vars(ssg).items() if not name.startswith("_")}
    modules = {name for name in bound if inspect.ismodule(getattr(ssg, name))}
    assert bound - modules == set(ssg.__all__)
