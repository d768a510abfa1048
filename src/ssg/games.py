"""Game graphs, strategies, value vectors, and the text format.

A game is a finite directed graph on vertices 1..n. Vertex n-1 is the
0-sink and vertex n the 1-sink; every other vertex is owned by the max
player, the min player, or chance ("avg") and has exactly two distinct
children. One token starts on the start vertex and moves along edges,
the owner choosing at player vertices and a fair coin at avg vertices.
Max wins if the token reaches the 1-sink; the value of a vertex is the
probability of that event under optimal play from both sides.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, TextIO, Union

from .exceptions import FormatError, StrategyError, ValidationError


class VertexKind(Enum):
    MAX = "max"
    MIN = "min"
    AVG = "avg"
    SINK0 = "sink0"
    SINK1 = "sink1"

    @property
    def is_sink(self) -> bool:
        return self in (VertexKind.SINK0, VertexKind.SINK1)


_KIND_BY_NAME = {
    "max": VertexKind.MAX,
    "min": VertexKind.MIN,
    "avg": VertexKind.AVG,
}


@dataclass(frozen=True)
class Game:
    """Immutable game graph.

    kinds[i-1] and children[i-1] describe vertex i; sinks store None for
    children. Every game is validated at construction (validate_game),
    dataclasses.replace included; build_game and parse_game assemble
    one from vertex rows.
    """

    n: int
    start: int
    kinds: tuple[VertexKind, ...]
    children: tuple[Union[tuple[int, int], None], ...]

    def __post_init__(self):
        validate_game(self)

    @property
    def sink0(self) -> int:
        return self.n - 1

    @property
    def sink1(self) -> int:
        return self.n

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def interior(self) -> range:
        """Non-sink vertices."""
        return range(1, self.n - 1)

    @property
    def edge_count(self) -> int:
        return 2 * max(self.n - 2, 0)

    def kind(self, v: int) -> VertexKind:
        return self.kinds[v - 1]

    def children_of(self, v: int) -> tuple[int, int]:
        pair = self.children[v - 1]
        if pair is None:
            raise ValueError(f"vertex {v} is a sink and has no children")
        return pair

    def vertices_of_kind(self, kind: VertexKind) -> tuple[int, ...]:
        return tuple(v for v, k in enumerate(self.kinds, 1) if k is kind)

    def has_kind(self, kind: VertexKind) -> bool:
        # members compare by identity, so this is the identity test
        return kind in self.kinds

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every (vertex, child) pair, left slot first."""
        for v in self.interior:
            c = self.children[v - 1]
            if c is not None:
                yield (v, c[0])
                yield (v, c[1])


def _integer(x, what: str) -> int:
    """x as an int, by operator.index, which takes numpy integers but
    not 2.0 or '2'; raises ValidationError naming what it is."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {x!r}") from None


_INTERIOR_KINDS = (VertexKind.MAX, VertexKind.MIN, VertexKind.AVG)


def validate_game(game: Game) -> None:
    """Raise ValidationError naming the first violated invariant. n,
    start and every child must be integers (operator.index) and every
    kind a VertexKind, so that a valid game also serializes to a file
    that parse_game reads back."""
    n = _integer(game.n, "vertex count")
    start = _integer(game.start, "start vertex")
    if n < 2:
        raise ValidationError(f"vertex count must be at least 2, got {n}")
    if len(game.kinds) != n or len(game.children) != n:
        raise ValidationError("kinds/children length does not match vertex count")
    if not 1 <= start <= n:
        raise ValidationError(f"start out of range: {start} not in 1..{n}")
    if game.kinds[n - 2] is not VertexKind.SINK0:
        raise ValidationError(f"vertex {n - 1} must be the 0-sink")
    if game.kinds[n - 1] is not VertexKind.SINK1:
        raise ValidationError(f"vertex {n} must be the 1-sink")
    for s in (n - 1, n):
        if game.children[s - 1] is not None:
            raise ValidationError(f"sink {s} must not have children")
    index = operator.index
    for v, kind, pair in zip(range(1, n - 1), game.kinds, game.children):
        if kind not in _INTERIOR_KINDS:
            if isinstance(kind, VertexKind):
                raise ValidationError(f"only the last two vertices may be sinks, vertex {v} is one")
            raise ValidationError(f"vertex {v} has kind {kind!r}, not a VertexKind")
        try:
            a, b = pair
        except (TypeError, ValueError):
            message = f"vertex {v} must have exactly two children, got {pair!r}"
            raise ValidationError(message) from None
        try:
            a, b = index(a), index(b)
        except TypeError:
            raise ValidationError(f"children {pair!r} of vertex {v} must be integers") from None
        for c in (a, b):
            if not 1 <= c <= n:
                raise ValidationError(f"child {c} of vertex {v} out of range 1..{n}")
        if a == b:
            raise ValidationError(f"children of vertex {v} are not distinct")


def build_game(
    n: int,
    start: int,
    rows: Iterable[tuple[int, Union[str, VertexKind], int, int]],
) -> Game:
    """Assemble and validate a game from (id, kind, child1, child2) rows.

    Rows may arrive in any order; ids must cover 1..n-2 exactly once.
    Ids and children are integers, and a kind is a VertexKind or its
    name 'max', 'min' or 'avg'; a row of any other type is refused by
    name. The graph, a sink kind on an interior vertex included, is
    validate_game's job.
    """
    n = _integer(n, "vertex count")
    if n < 2:
        raise ValidationError(f"vertex count must be at least 2, got {n}")
    # keyed by id, so a huge n in a header costs nothing before the check
    # for missing vertices
    kinds: dict[int, VertexKind] = {}
    children: dict[int, tuple[int, int]] = {}
    for row in rows:
        try:
            vid, kind, c1, c2 = row
        except (TypeError, ValueError):
            raise ValidationError(f"vertex row {row!r} is not (id, kind, child1, child2)") from None
        try:
            # operator.index also takes numpy integers, but not 2.0 or '2'
            vid, c1, c2 = operator.index(vid), operator.index(c1), operator.index(c2)
        except TypeError:
            raise ValidationError(f"vertex row {row!r} needs integer ids and children") from None
        if not 1 <= vid <= n - 2:
            raise ValidationError(f"vertex id {vid} out of range 1..{n - 2}")
        if vid in kinds:
            raise ValidationError(f"duplicate vertex line for vertex {vid}")
        if isinstance(kind, str):
            try:
                kind = _KIND_BY_NAME[kind]
            except KeyError:
                raise ValidationError(f"unknown vertex kind {kind!r}") from None
        elif not isinstance(kind, VertexKind):
            raise ValidationError(f"vertex row {row!r} has kind {kind!r}, not a VertexKind or its name")
        kinds[vid] = kind
        children[vid] = (c1, c2)
    interior = range(1, n - 1)
    # ids are in range and distinct, so only a short count misses one,
    # and the search stops within len(rows) + 1 steps
    if len(kinds) < n - 2:
        missing = next(v for v in interior if v not in kinds)
        raise ValidationError(f"missing vertex {missing}")
    return Game(
        n=n,
        start=start,
        kinds=(*(kinds[v] for v in interior), VertexKind.SINK0, VertexKind.SINK1),
        children=(*(children[v] for v in interior), None, None),
    )


@dataclass(frozen=True)
class Strategy:
    """A positional strategy: one child choice per owned vertex.

    picks is kept sorted by vertex id so equal strategies compare and
    hash equal regardless of construction order.
    """

    owner: VertexKind
    picks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.owner not in (VertexKind.MAX, VertexKind.MIN):
            owner = self.owner.value if isinstance(self.owner, VertexKind) else repr(self.owner)
            raise StrategyError(f"strategy owner must be max or min, got {owner}")
        picks = []
        for pick in self.picks:
            try:
                v, c = pick
            except (TypeError, ValueError):
                message = f"strategy pick {pick!r} is not a (vertex, child) pair"
                raise StrategyError(message) from None
            try:
                # operator.index also takes numpy integers, but not 3.0
                picks.append((operator.index(v), operator.index(c)))
            except TypeError:
                raise StrategyError(f"strategy pick {v!r}->{c!r} needs integer vertex ids") from None
        ordered = tuple(sorted(picks))
        by_vertex = dict(ordered)
        if len(by_vertex) != len(ordered):
            raise StrategyError("strategy picks the same vertex twice")
        object.__setattr__(self, "picks", ordered)
        object.__setattr__(self, "_map", by_vertex)

    @classmethod
    def of(cls, owner: VertexKind, picks: Mapping[int, int]) -> "Strategy":
        return cls(owner, tuple(picks.items()))

    def pick(self, v: int) -> int:
        try:
            return self._map[v]
        except KeyError:
            raise StrategyError(f"strategy has no pick for vertex {v}") from None

    def as_dict(self) -> dict[int, int]:
        return dict(self.picks)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.picks)


def validate_strategy(game: Game, strategy: Strategy) -> None:
    """Check that the strategy covers exactly the owner's vertices with real edges."""
    owned = set(game.vertices_of_kind(strategy.owner))
    got = set(strategy.vertices)
    if got != owned:
        missing = sorted(owned - got)
        extra = sorted(got - owned)
        parts = []
        if missing:
            parts.append(f"missing picks for {missing}")
        if extra:
            parts.append(f"picks for non-{strategy.owner.value} vertices {extra}")
        raise StrategyError("strategy/game mismatch: " + "; ".join(parts))
    for v, c in strategy.picks:
        if c not in game.children_of(v):
            raise StrategyError(f"strategy pick {v}->{c} is not an edge of the game")


def enumerate_strategies(game: Game, owner: VertexKind) -> tuple[Strategy, ...]:
    """All strategies for one player, lexicographic, left children first.

    The first entry always picks every vertex's left child. A player
    with no vertices gets the single empty strategy.
    """
    if owner not in (VertexKind.MAX, VertexKind.MIN):
        raise StrategyError(f"strategy owner must be max or min, got {owner.value}")
    owned = game.vertices_of_kind(owner)
    slots = [tuple((v, c) for c in game.children_of(v)) for v in owned]
    return tuple(Strategy(owner, combo) for combo in itertools.product(*slots))


class ValueVector:
    """Exact per-vertex probabilities, indexed by 1-based vertex id."""

    __slots__ = ("_vals",)

    def __init__(self, values: Iterable[Union[Fraction, int]]):
        vals = tuple(x if type(x) is Fraction else Fraction(x) for x in values)
        for idx, x in enumerate(vals):
            # A Fraction's denominator is positive, so this is 0 <= x <= 1
            # in plain integers; a certificate z holds one entry per vertex.
            if not 0 <= x.numerator <= x.denominator:
                raise ValidationError(f"value at vertex {idx + 1} outside [0, 1]: {x}")
        self._vals = vals

    @property
    def n(self) -> int:
        return len(self._vals)

    @property
    def components(self) -> tuple[Fraction, ...]:
        return self._vals

    def __len__(self) -> int:
        return len(self._vals)

    def __getitem__(self, vid: int) -> Fraction:
        if not 1 <= vid <= len(self._vals):
            raise IndexError(f"vertex id {vid} out of range 1..{len(self._vals)}")
        return self._vals[vid - 1]

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return ((i + 1, x) for i, x in enumerate(self._vals))

    def __eq__(self, other) -> bool:
        return isinstance(other, ValueVector) and self._vals == other._vals

    def __hash__(self) -> int:
        return hash(self._vals)

    def gap(self, other: "ValueVector") -> Fraction:
        """Largest componentwise absolute difference."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return max((abs(a - b) for a, b in zip(self._vals, other._vals)), default=Fraction(0))

    def leq(self, other: "ValueVector") -> bool:
        """Componentwise <=."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return all(a <= b for a, b in zip(self._vals, other._vals))

    def __repr__(self) -> str:
        return "ValueVector(" + ", ".join(format_rational(x) for x in self._vals) + ")"


def format_rational(x: Fraction) -> str:
    """Render as 'p/q', or plain 'p' for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def ascii_int(text: str, signed: bool = True) -> int:
    """The integer that text spells in ASCII digits, after one optional
    sign if signed; raises ValueError on anything else. int() alone also
    takes other scripts' digits, '_' separators and surrounding spaces.
    """
    # parse_game calls this on every token, so the common case, plain
    # digits, costs two string tests
    if text.isascii() and (
        text.isdigit() or signed and text[:1] in ("+", "-") and text[1:].isdigit()
    ):
        return int(text)
    raise ValueError(f"not an ASCII integer: {text!r}")


def parse_rational(text: str) -> Fraction:
    num, slash, den = text.strip().partition("/")
    try:
        num, den = ascii_int(num), ascii_int(den, signed=False) if slash else 1
    except ValueError:
        raise FormatError(f"expected a rational like '2/3' or '1', got {text!r}") from None
    if den == 0:
        raise FormatError(f"zero denominator in rational {text!r}")
    return Fraction(num, den)


def _token_error(message: str, ln: int, line: str, index: int) -> FormatError:
    """A FormatError at token index (0-based) of line ln. Only an error
    needs a column, so one regex over the text before '#' finds it here."""
    cols = [m.start() + 1 for m in re.finditer(r"\S+", line.split("#", 1)[0])]
    return FormatError(message, ln, cols[index])


def _parse_int(toks: list[str], index: int, what: str, ln: int, line: str) -> int:
    try:
        return ascii_int(toks[index])
    except ValueError:
        message = f"expected integer {what}, got {toks[index]!r}"
        raise _token_error(message, ln, line, index) from None


def parse_game(source: Union[str, TextIO]) -> Game:
    """Parse the text game format.

    Layout: a header line 'ssg <n> <start>', then one line per non-sink
    vertex, '<id> <max|min|avg> <child1> <child2>', in any order. Blank
    lines and '#' comments are ignored. Sinks are implicit: vertex n-1
    is the 0-sink and vertex n the 1-sink. Lines end at '\\n', '\\r\\n'
    or '\\r' (universal newlines); any other whitespace separates
    tokens. A FormatError names the line and column of the bad token;
    build_game checks the rows and validate_game the graph.
    """
    text = source if isinstance(source, str) else source.read()
    numbered = enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1)
    lines = [(ln, line, toks) for ln, line in numbered if (toks := line.split("#", 1)[0].split())]
    if not lines:
        raise FormatError("empty input: expected header 'ssg <n> <start>'", 1, 1)

    ln, line, toks = lines[0]
    if toks[0] != "ssg":
        raise _token_error(f"expected header keyword 'ssg', got {toks[0]!r}", ln, line, 0)
    if len(toks) != 3:
        last = len(toks) - 1 if len(toks) > 3 else 0
        raise _token_error("header must be 'ssg <n> <start>'", ln, line, last)
    n = _parse_int(toks, 1, "vertex count", ln, line)
    start = _parse_int(toks, 2, "start vertex", ln, line)

    rows = []
    for ln, line, toks in lines[1:]:
        if len(toks) != 4:
            raise _token_error(
                "vertex line must be '<id> <max|min|avg> <child1> <child2>'", ln, line, 0
            )
        vid, name, c1, c2 = toks
        kind = _KIND_BY_NAME.get(name)
        # tokens are never empty, so one test covers all three integers
        digits = vid + c1 + c2
        if kind is not None and digits.isascii() and digits.isdigit():
            rows.append((int(vid), kind, int(c1), int(c2)))
            continue
        # a sign or an error: check token by token, in line order
        vid = _parse_int(toks, 0, "vertex id", ln, line)
        if kind is None:
            raise _token_error(f"unknown vertex kind {name!r} (want max, min, or avg)", ln, line, 1)
        c1 = _parse_int(toks, 2, "child", ln, line)
        rows.append((vid, kind, c1, _parse_int(toks, 3, "child", ln, line)))

    return build_game(n, start, rows)


def serialize_game(game: Game) -> str:
    """Canonical text form: header plus vertex lines in ascending id order."""
    out = [f"ssg {game.n} {game.start}"]
    for v in game.interior:
        c1, c2 = game.children_of(v)
        out.append(f"{v} {game.kind(v).value} {c1} {c2}")
    return "\n".join(out) + "\n"
