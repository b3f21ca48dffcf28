"""The bijections between wedge paths and matchings.

``psi`` encodes a path as an insertion code and builds a matching by
repeatedly connecting the least free vertex to its b_i-th free right
neighbour.  ``phi`` is a first-edge-preserving rearrangement of matchings
that turns the stacking statistic into the nesting count; it is computed
iteratively over the insertion code, with a three-way case split on how
the first two edges relate at each step.  The composite ``big_phi = phi o psi`` sends the number
of north steps of a path to the number of nestings of its image.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidMatchingError
from .matching import Matching, _sweep
from .paths import WedgePath

__all__ = [
    "InsertionCode",
    "big_phi",
    "big_phi_inv",
    "insertion_code",
    "path_from_code",
    "phi",
    "phi_inv",
    "psi",
    "psi_inv",
]


@dataclass(frozen=True)
class InsertionCode:
    """The sequence b_1..b_n with 1 <= b_i <= 2(n+1-i) - 1.

    Entry b_i says which free vertex (counting to the right of the least
    free one) gets connected at insertion step i.
    """

    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _check_code(tuple(self.b)))

    @property
    def n(self) -> int:
        return len(self.b)


def _check_code(b: tuple[int, ...]) -> tuple[int, ...]:
    """Return ``b`` if every entry is in range, else raise ValueError."""
    n = len(b)
    for i, bi in enumerate(b, start=1):
        hi = 2 * (n + 1 - i) - 1
        if not 1 <= bi <= hi:
            raise ValueError(f"code entry {bi} at position {i} is outside 1..{hi}")
    return b


def _code_from_heights(a: Sequence[int]) -> tuple[int, ...]:
    n = len(a)
    return tuple(a[n - i] + n + 1 - i for i in range(1, n + 1))


def insertion_code(path: WedgePath) -> InsertionCode:
    """Read the insertion code off a path: b_i = a_{n+1-i} + n + 1 - i.

    >>> insertion_code(WedgePath((0, 1))).b
    (3, 1)
    """
    return InsertionCode(_code_from_heights(path.heights))


def path_from_code(code: InsertionCode) -> WedgePath:
    """Invert :func:`insertion_code`: a_{n+1-i} = b_i - (n+1-i)."""
    n = code.n
    heights = [0] * n
    for i, bi in enumerate(code.b, start=1):
        heights[n - i] = bi - (n + 1 - i)
    return WedgePath(tuple(heights))


def _partner_from_code(b: Sequence[int]) -> tuple[int, ...]:
    """Run the insertion procedure for the code b on 2n free vertices."""
    free = list(range(1, 2 * len(b) + 1))
    table = [0] * len(free)
    for bi in b:
        right = free.pop(bi)
        left = free.pop(0)
        table[left - 1], table[right - 1] = right, left
    return tuple(table)


def psi(path: WedgePath) -> Matching:
    """Map a wedge path to a matching via its insertion code.

    >>> psi(WedgePath((0, 1))).to_text()
    '(1,4),(2,3)'
    """
    return Matching(_partner_from_code(insertion_code(path).b))


def psi_inv(m: Matching) -> WedgePath:
    """Exact inverse of :func:`psi`.

    >>> psi_inv(Matching.from_pairs([(1, 3), (2, 4)])).heights
    (0, 0)
    """
    if m.n == 0:
        raise InvalidMatchingError("the empty matching has no path preimage")
    return path_from_code(InsertionCode(_sweep(m.partner)))


# -- the three-case rearrangement -------------------------------------------
#
# phi is defined by recursion on the first edge: strip it, transform the
# rest, put it back, then repair according to how the first two edges
# relate.  Stripping the first edge of psi(b) gives psi(b[1:]), so the
# first edges met on the way down are the insertion code itself, and the
# recursion unrolls into one loop over b from last to first.  Each step
# takes and returns an offset list, d[v] = mate(v) - v on 0-based
# vertices: an arc that lies wholly on one side of the vertices a step
# inserts or deletes keeps its offset, so a step copies those entries as
# slices and writes only the pairs it rewires.  The inverse unwinds from
# the outside, collecting the code, and hands it to the insertion
# procedure; _phi_walk and _phi_inv_code are the folds of _phi_step and
# _phi_inv_step, and convert to and from partner tuples once.  Over a whole
# family the same fact makes the phi images one tree, walked depth-first by
# the path stream, along which the verification harness folds _phi_step and
# checks each node against its parent with _phi_inv_step.


def _phi_step(b: int, d: Sequence[int]) -> list[int]:
    """One surgery step of :func:`phi` on offset lists.

    Puts the first edge (0, b) back in front of the matching ``d`` and
    repairs the picture according to how the first two edges relate.
    Aligned (b = 1): nothing to repair.  Crossed: the fan of edges
    crossing the first edge passes its right endpoints one left endpoint
    down the line.  Nested: the edges crossing the first edge are
    re-anchored around the second edge's right endpoint.  In both repairs
    vertex 1 disappears and a fresh vertex appears right before b.
    ``d`` itself is left unchanged.

    Every arc that does not cross the first edge keeps its offset, so the
    step costs a scan of [1, b - 1) for the fan, two slice copies and one
    write per end of the fan.  The scan and the fan keep a walk Theta(n^2):
    on a random path of 1024 edges a step scanned about 520 vertices and
    rewired a fan of about 170 arcs on average.
    """
    if b == 1:
        return [1, -1, *d]
    # Old vertex v keeps its index below lo = b - 1 and moves past the
    # fresh vertex lo and the first edge's end b otherwise.  Old vertex 0
    # is the one deleted; q is its mate.  lefts/rights: the other edges
    # crossing (0, b), the rights already at their new indices.
    lo = b - 1
    q = d[0]
    lefts = [j for j in range(1, lo) if d[j] >= lo - j]
    rights = [j + d[j] + 2 for j in lefts]
    if q >= lo:
        pairs = zip(lefts + [lo], [q + 2] + rights)
    else:
        k = bisect.bisect(lefts, q)
        anchors = [*lefts[:k], q, *lefts[k:]]
        fresh_mate = anchors.pop(len(lefts) - k)
        pairs = [(fresh_mate, lo), *zip(anchors, rights)]
    out = [b, *d[1:lo], 0, -b, *d[lo:]]
    for u, v in pairs:
        out[u], out[v] = v - u, u - v
    return out


def _phi_walk(code: Sequence[int]) -> tuple[int, ...]:
    """phi(psi(code)) as a partner tuple: one surgery step (see
    :func:`_phi_step`) per entry of the code, from last to first."""
    d: list[int] = []
    for b in reversed(code):
        d = _phi_step(b, d)
    return tuple([v + x + 1 for v, x in enumerate(d)])


def phi(m: Matching) -> Matching:
    """First-edge-preserving rearrangement with nestings(phi(M)) = st_total(M).

    Reads the insertion code of ``m`` with the code read ``_sweep``, then
    walks it from last to first, applying one surgery step (see
    :func:`_phi_step`) per entry.

    >>> phi(Matching.from_pairs([(1, 6), (2, 5), (3, 4)])).to_text()
    '(1,6),(2,3),(4,5)'
    """
    return Matching(_phi_walk(_sweep(m.partner)))


def _phi_inv_step(d: Sequence[int]) -> tuple[int, list[int]]:
    """One unwinding step of :func:`phi_inv` on offset lists, the inverse
    of :func:`_phi_step`: ``(r, parent)`` with ``_phi_step(r, parent) == d``.

    Reads the case off the matching: the first edge (0, r) is aligned when
    r = 1; otherwise the fresh vertex r - 1 is a left endpoint exactly in
    the crossed case.  Undoes the repair and strips the first edge.  ``d``
    itself is left unchanged.  As in :func:`_phi_step`, only the fan is
    rewritten; the rest is copied as slices.
    """
    r = d[0]
    if r == 1:
        return r, d[2:]
    # Undoing the repair deletes the fresh vertex f and brings back a
    # vertex right after 0, which is vertex 0 once the first edge is
    # stripped; f's slot stands in for it.  Vertices past r move down
    # two.  g is f's mate; rights are at their parent indices.
    f = r - 1
    g = f + d[f]
    lefts = [j for j in range(1, r) if d[j] > r - j]
    rights = [j + d[j] - 2 for j in lefts]
    # r < 1: vertex 0 has no mate to its right, so no fan either.
    if r < 1 or g > f:
        if not lefts or lefts[-1] != f:
            raise InvalidMatchingError(
                "corrupted input: crossed-case unwind finds no fan at the first edge"
            )
        pairs = zip([0] + lefts[:-1], rights)
    else:
        # g joins the anchors in order; in a corrupted input g can be 0,
        # which re-anchoring would rewire, or f itself, whose slot is 0.
        if g == 0:
            raise InvalidMatchingError("corrupted input: unwinding moved the first edge")
        k = bisect.bisect(lefts, g)
        anchors = [*lefts[:k], g if g < f else 0, *lefts[k:]]
        q = anchors.pop(len(lefts) - k)
        pairs = [(0, q), *zip(anchors, rights)]
    out = [0, *d[1:f], *d[r + 1:]]
    for u, v in pairs:
        out[u], out[v] = v - u, u - v
    return r, out


def _phi_inv_code(partner: Sequence[int]) -> tuple[int, ...]:
    """The code of :func:`phi_inv` of a partner tuple, unwound from the
    outside: one step (see :func:`_phi_inv_step`) per edge, each giving the
    next code entry."""
    d = [w - v for v, w in enumerate(partner, 1)]
    code: list[int] = []
    while d:
        r, d = _phi_inv_step(d)
        code.append(r)
    return tuple(code)


def _phi_inv_partner(partner: Sequence[int]) -> tuple[int, ...]:
    """The kernel of :func:`phi_inv`: unwind the code, then insert it."""
    return _partner_from_code(_check_code(_phi_inv_code(partner)))


def phi_inv(m: Matching) -> Matching:
    """Exact two-sided inverse of :func:`phi`.

    >>> phi_inv(Matching.from_pairs([(1, 6), (2, 3), (4, 5)])).to_text()
    '(1,6),(2,5),(3,4)'
    """
    return Matching(_phi_inv_partner(m.partner))


# -- the composite bijection -------------------------------------------------
#
# Both directions factor through the insertion code: phi walks the code
# psi would insert, and phi_inv unwinds to the code psi_inv would read, so
# the intermediate matching is never built.


def big_phi(path: WedgePath) -> Matching:
    """The full path-to-matching bijection: phi after psi.

    Sends the number of north steps to the number of nestings.

    >>> big_phi(WedgePath((0, -1, -2))).nestings()
    0
    """
    return Matching(_phi_walk(insertion_code(path).b))


def big_phi_inv(m: Matching) -> WedgePath:
    """Inverse of :func:`big_phi`: psi_inv after phi_inv."""
    if m.n == 0:
        raise InvalidMatchingError("the empty matching has no path preimage")
    return path_from_code(InsertionCode(_phi_inv_code(m.partner)))
