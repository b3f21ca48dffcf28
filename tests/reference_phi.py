"""The seed's literal ``phi`` and ``phi_inv``, kept as an independent oracle.

This is the first transcription of the paper's recursive definition that
the repository held: strip the first edge, transform the rest, put the
first edge back, then repair by the three-way case split on how the first
two edges relate (aligned: nothing; crossed: cycle the fan; nested:
re-anchor).  Every surgery relabels vertices by rank from scratch, so it
shares no code and no representation with the library's in-place offset
steps.  It pins the library's maps to the seed's reading of the paper, and
is only as faithful to the paper as the seed was.  It imports nothing from
``wedgematch`` and carries its own minimal matching type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple


class CorruptedInput(ValueError):
    """An unwinding step met a matching that no phi image can be."""


class Edge(NamedTuple):
    """An arc between two vertices, with ``left < right``."""

    left: int
    right: int


@dataclass(frozen=True)
class Matching:
    """A perfect matching on [2n] as a partner table: ``partner[v - 1]`` is
    the vertex matched to ``v``."""

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(self.partner)
        object.__setattr__(self, "partner", table)
        size = len(table)
        for v, p in enumerate(table, start=1):
            if not 1 <= p <= size or p == v or table[p - 1] != v:
                raise ValueError(f"not a perfect matching at vertex {v}: {table}")

    @property
    def n(self) -> int:
        return len(self.partner) // 2

    def partner_of(self, v: int) -> int:
        return self.partner[v - 1]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Edges sorted by left endpoint."""
        return tuple(Edge(v, p) for v, p in enumerate(self.partner, start=1) if v < p)


def all_matchings(n: int) -> Iterator[Matching]:
    """Every perfect matching on [2n]: the least free vertex takes each
    other free vertex in turn."""

    def tables(free: tuple[int, ...], table: list[int]) -> Iterator[tuple[int, ...]]:
        if not free:
            yield tuple(table)
            return
        v, rest = free[0], free[1:]
        for i, w in enumerate(rest):
            table[v - 1], table[w - 1] = w, v
            yield from tables(rest[:i] + rest[i + 1:], table)

    for table in tables(tuple(range(1, 2 * n + 1)), [0] * (2 * n)):
        yield Matching(table)


# -- the three-case rearrangement -------------------------------------------


class PhiCase(enum.Enum):
    """How the first two edges of a matching relate."""

    ALIGNED = "aligned"
    CROSSED = "crossed"
    NESTED = "nested"


@dataclass(frozen=True)
class CrossFanContext:
    """Working data for the crossed case.

    ``fan`` holds the edges crossing the first edge (1, r), ordered by left
    endpoint; the first of them starts at vertex 2.
    """

    r: int
    fan: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.fan or self.fan[0].left != 2:
            raise ValueError("crossed case requires a fan starting at vertex 2")
        for left, right in self.fan:
            if not 1 < left < self.r < right:
                raise ValueError(f"edge ({left},{right}) does not cross (1,{self.r})")


@dataclass(frozen=True)
class NestContext:
    """Working data for the nested case.

    ``cross_both`` are the edges crossing both (1, r) and (2, q);
    ``cross_outer`` cross (1, r) only.  ``anchors`` merges their left
    endpoints with q into one sorted reconnection pool v_1 < ... <
    v_{p+s+1}, in which q sits at position p+1.
    """

    r: int
    q: int
    cross_both: tuple[Edge, ...]
    cross_outer: tuple[Edge, ...]
    anchors: tuple[int, ...]

    def __post_init__(self) -> None:
        p, s = len(self.cross_both), len(self.cross_outer)
        lefts = [e.left for e in self.cross_both] + [self.q] + [
            e.left for e in self.cross_outer
        ]
        if list(self.anchors) != lefts or sorted(lefts) != lefts:
            raise ValueError("anchor pool must be the sorted lefts merged with q")
        if len(self.anchors) != p + s + 1:
            raise ValueError("anchor pool has the wrong size")


def phi_case_forward(m: Matching) -> PhiCase:
    """Classify how the first two edges (by left endpoint) relate.

    Aligned when the first edge is (1, 2); otherwise the second edge is
    (2, q) and the pair is crossed when q > r, nested when q < r.
    """
    if m.n < 2:
        raise ValueError("case split needs at least two edges")
    r = m.partner_of(1)
    if r == 2:
        return PhiCase.ALIGNED
    q = m.partner_of(2)
    return PhiCase.CROSSED if q > r else PhiCase.NESTED


def cross_fan_context(m: Matching) -> CrossFanContext:
    """Extract the crossed-case fan from a matching whose first two edges cross."""
    r = m.partner_of(1)
    fan = tuple(Edge(left, right) for left, right in m.edges if 1 < left < r < right)
    return CrossFanContext(r=r, fan=fan)


def nest_context(m: Matching) -> NestContext:
    """Extract the nested-case data from a matching whose first two edges nest."""
    r = m.partner_of(1)
    q = m.partner_of(2)
    cross_both = tuple(Edge(left, right) for left, right in m.edges if 2 < left < q and right > r)
    cross_outer = tuple(Edge(left, right) for left, right in m.edges if q < left < r and right > r)
    anchors = tuple(sorted([e.left for e in cross_both] + [q] + [e.left for e in cross_outer]))
    return NestContext(r=r, q=q, cross_both=cross_both, cross_outer=cross_outer, anchors=anchors)


# Surgery bookkeeping: vertices are tracked as orderable keys (v, tag) so a
# vertex can be inserted between neighbours without renumbering on the fly;
# _relabel then maps keys to 1..2n by rank.  Existing vertices carry tag 0,
# a vertex inserted right before position v carries (v, -1), and one
# inserted right after carries (v, 1).

_Key = tuple[int, int]


def _relabel(keyed_edges: list[tuple[_Key, _Key]]) -> Matching:
    keys = sorted(k for e in keyed_edges for k in e)
    rank = {k: i for i, k in enumerate(keys, start=1)}
    table = [0] * len(keys)
    for ka, kb in keyed_edges:
        a, b = rank[ka], rank[kb]
        table[a - 1], table[b - 1] = b, a
    return Matching(tuple(table))


def _strip_first_edge(m: Matching) -> Matching:
    """Delete the first edge and its two vertices, renumbering the rest."""
    return _relabel([((a, 0), (b, 0)) for a, b in m.edges[1:]])


def _reinsert_first_edge(m: Matching, r: int) -> Matching:
    """Insert fresh vertices at positions 1 and r and connect them."""
    keyed: list[tuple[_Key, _Key]] = [((a, 0), (b, 0)) for a, b in m.edges]
    keyed.append(((0, 0), (r - 2, 1)))
    return _relabel(keyed)


def _cross_surgery(n2: Matching) -> Matching:
    """Crossed case: cycle the fan's right endpoints one slot leftward.

    Each fan right endpoint r_j reconnects to the next fan left l_{j+1};
    the last one connects to a fresh vertex placed right before r; vertex 2
    disappears.  The first edge keeps its position (1, r).
    """
    ctx = cross_fan_context(n2)
    fan_set = set(ctx.fan)
    keyed: list[tuple[_Key, _Key]] = [
        ((a, 0), (b, 0)) for a, b in n2.edges if Edge(a, b) not in fan_set
    ]
    for this, nxt in zip(ctx.fan, ctx.fan[1:]):
        keyed.append(((nxt.left, 0), (this.right, 0)))
    keyed.append(((ctx.r, -1), (ctx.fan[-1].right, 0)))
    return _relabel(keyed)


def _nest_surgery(n2: Matching) -> Matching:
    """Nested case: re-anchor the crossing edges around a fresh vertex.

    A fresh vertex right before r takes anchor v_{s+1}; the crossing edges'
    right endpoints r_1..r_{p+s} take the remaining anchors in order; the
    edge (2, q) dissolves (q survives as an anchor, vertex 2 disappears).
    """
    ctx = nest_context(n2)
    drop = set(ctx.cross_both) | set(ctx.cross_outer) | {Edge(2, ctx.q)}
    keyed: list[tuple[_Key, _Key]] = [((a, 0), (b, 0)) for a, b in n2.edges if Edge(a, b) not in drop]
    s = len(ctx.cross_outer)
    keyed.append(((ctx.anchors[s], 0), (ctx.r, -1)))
    remaining = ctx.anchors[:s] + ctx.anchors[s + 1:]
    rights = [e.right for e in ctx.cross_both + ctx.cross_outer]
    for anchor, right in zip(remaining, rights):
        keyed.append(((anchor, 0), (right, 0)))
    return _relabel(keyed)


def phi(m: Matching) -> Matching:
    """First-edge-preserving rearrangement with nestings(phi(M)) = st_total(M).

    Defined recursively: strip the first edge, transform the rest, put the
    first edge back, then repair the picture according to how the first two
    edges relate (aligned: nothing, crossed: fan cycling, nested:
    re-anchoring).
    """
    if m.n <= 1:
        return m
    r = m.partner_of(1)
    n1 = phi(_strip_first_edge(m))
    n2 = _reinsert_first_edge(n1, r)
    case = phi_case_forward(n2)
    if case is PhiCase.ALIGNED:
        return n2
    out = _cross_surgery(n2) if case is PhiCase.CROSSED else _nest_surgery(n2)
    if out.partner_of(1) != r:
        raise AssertionError("surgery must keep the first edge in place")
    return out


def phi_case_inverse(m: Matching) -> PhiCase:
    """Detect which case produced a matching.

    The aligned case leaves first edge (1, 2); otherwise the vertex just
    before the right endpoint of the first edge is a left endpoint exactly
    for the crossed case and a right endpoint exactly for the nested case.
    """
    if m.n < 2:
        raise ValueError("case split needs at least two edges")
    r = m.partner_of(1)
    if r == 2:
        return PhiCase.ALIGNED
    return PhiCase.CROSSED if m.partner_of(r - 1) > r - 1 else PhiCase.NESTED


def _crossing_edges(m: Matching, r: int) -> list[Edge]:
    return [Edge(a, b) for a, b in m.edges if 1 < a < r < b]


def _cross_unwind(m: Matching) -> Matching:
    """Undo :func:`_cross_surgery`: cycle fan rights one slot rightward."""
    r = m.partner_of(1)
    crossing = _crossing_edges(m, r)
    if not crossing or crossing[-1].left != r - 1:
        raise CorruptedInput("crossed-case unwind finds no fan at the first edge")
    keyed: list[tuple[_Key, _Key]] = [
        ((a, 0), (b, 0)) for a, b in m.edges if Edge(a, b) not in set(crossing)
    ]
    lefts: list[_Key] = [(1, 1)] + [(e.left, 0) for e in crossing[:-1]]
    for left, edge in zip(lefts, crossing):
        keyed.append((left, (edge.right, 0)))
    return _relabel(keyed)


def _nest_unwind(m: Matching) -> Matching:
    """Undo :func:`_nest_surgery`: rebuild the anchor pool and re-anchor."""
    r = m.partner_of(1)
    new_vertex = r - 1
    partner = m.partner_of(new_vertex)
    crossing = _crossing_edges(m, r)
    pool = sorted([e.left for e in crossing] + [partner])
    s = pool.index(partner)
    p = len(crossing) - s
    q_now = pool[p]
    drop = set(crossing) | {Edge(partner, new_vertex)}
    keyed: list[tuple[_Key, _Key]] = [((a, 0), (b, 0)) for a, b in m.edges if Edge(a, b) not in drop]
    keyed.append(((1, 1), (q_now, 0)))
    lefts = [v for v in pool if v != q_now]
    for left, edge in zip(lefts, crossing):
        keyed.append(((left, 0), (edge.right, 0)))
    return _relabel(keyed)


def phi_inv(m: Matching) -> Matching:
    """Exact two-sided inverse of :func:`phi`.

    Detects the case from the shape of the result, undoes the surgery,
    strips the first edge, recurses, and reinserts the first edge.
    """
    if m.n <= 1:
        return m
    case = phi_case_inverse(m)
    if case is PhiCase.ALIGNED:
        n2 = m
    elif case is PhiCase.CROSSED:
        n2 = _cross_unwind(m)
    else:
        n2 = _nest_unwind(m)
    r = m.partner_of(1)
    if n2.partner_of(1) != r:
        raise CorruptedInput("unwinding moved the first edge")
    m1 = phi_inv(_strip_first_edge(n2))
    return _reinsert_first_edge(m1, r)
