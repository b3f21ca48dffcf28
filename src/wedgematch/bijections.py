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
# recursion unrolls into one loop over b from last to first.  The inverse
# unwinds from the outside, collecting the code, and hands it to the
# insertion procedure.  Steps come in two layers.
#
# _phi_step and _phi_inv_step take one step on an offset list, d[v] =
# mate(v) - v on 0-based vertices, in place: an arc that lies wholly on one
# side of the vertices a step inserts or deletes keeps its offset, so a
# step inserts or deletes two slots and writes only the pairs it rewires.
# Over a whole family the same fact makes the phi images one tree, walked
# depth-first by the path stream, along which the verification harness
# folds _phi_step on a copy of each parent's image and checks each node
# against its parent with _phi_inv_step on a copy of the node's.
#
# _phi_walk and _phi_inv_code, behind the public maps, walk a whole code in
# Flajolet's history form instead: a bytearray w with 1 at each opener, and
# a list h with -1 at each opener and, at each closer, the rank of the arc
# it closes among the arcs open just before it, left to right (the number
# of arcs nesting over it).  There a crossed step is a two-slot insertion,
# and a nested step rewrites only the closers between the old first edge's
# end and the new one.  Each walk converts once, at its end or its start,
# and takes or gives offset lists.  The walks equal the step folds by the
# differential tests (every code up to n = 6, and seeded random codes up to
# n = 4096; every code of n = 7 and 8 in CI), and the harness's rerun of
# a failed size checks the walks themselves.  Only _partners and _offsets
# convert, at the Matching boundary and in the harness, which tests each
# image's partner tuple with the involution test it runs on psi's images.


def _partners(d: Sequence[int]) -> tuple[int, ...]:
    """The partner tuple of the offset list ``d``."""
    return tuple([v + x + 1 for v, x in enumerate(d)])


def _offsets(p: Sequence[int]) -> list[int]:
    """The offset list of the partner tuple ``p``."""
    return [w - v for v, w in enumerate(p, 1)]


def _phi_step(b: int, d: list[int]) -> list[int]:
    """One surgery step of :func:`phi` on an offset list, in place.

    Puts the first edge (0, b) back in front of the matching ``d`` and
    repairs the picture according to how the first two edges relate.
    Aligned (b = 1): nothing to repair.  Crossed: the fan of edges
    crossing the first edge passes its right endpoints one left endpoint
    down the line.  Nested: the edges crossing the first edge are
    re-anchored around the second edge's right endpoint.  In both repairs
    vertex 1 disappears and a fresh vertex appears right before b.
    Edits ``d`` and returns it; a caller who keeps the list passes a copy.

    Every arc that does not cross the first edge keeps its offset, so the
    step costs a scan of [1, b - 1) for the fan, a two-slot insertion and
    one write per end of the fan.  The scan and the fan keep a walk
    Theta(n^2): on a random path of 1024 edges a step scanned about 520
    vertices and rewired a fan of about 170 arcs on average.
    """
    if b == 1:
        d[0:0] = (1, -1)
        return d
    # Old vertex v keeps its index below lo = b - 1 and moves past the
    # fresh vertex lo and the first edge's end b otherwise.  Old vertex 0
    # is the one overwritten; q is its mate.  lefts: the other edges
    # crossing (0, b), whose right ends lie past lo.
    lo = b - 1
    q = d[0]
    lefts = [j for j in range(1, lo) if d[j] >= lo - j]
    d[0] = b
    d[lo:lo] = (0, -b)
    if q >= lo:
        # Each left takes the right end of the edge before it in the fan,
        # the first takes q's, and the fresh vertex the last right end.
        prev = q + 2
        for u in lefts:
            v = u + d[u] + 2
            d[u], d[prev] = prev - u, u - prev
            prev = v
        d[lo], d[prev] = prev - lo, lo - prev
        return d
    # q joins the lefts as an anchor in order; the fresh vertex takes one
    # anchor and the fan's right ends the rest, in order.
    rights = [j + d[j] + 2 for j in lefts]
    k = bisect.bisect(lefts, q)
    anchors = [*lefts[:k], q, *lefts[k:]]
    fresh_mate = anchors.pop(len(lefts) - k)
    d[fresh_mate], d[lo] = lo - fresh_mate, fresh_mate - lo
    for u, v in zip(anchors, rights):
        d[u], d[v] = v - u, u - v
    return d


def _phi_walk(code: Sequence[int]) -> list[int]:
    """phi(psi(code)) as an offset list: the code walked from last to first
    in history form (see the comment above :func:`_phi_step`), then
    converted once.

    q is the mate of vertex 0, the entry before b, as phi keeps the first
    edge, and lo = b - 1.  Aligned (b = 1) and crossed (q >= lo): an opener
    and a closer of rank 0 come in at lo.  Nested (q < lo): the arcs still
    open from before q get the first edge (0, b) in front of them, so their
    closers in (q, lo) move one rank up, and the arcs opened in (q, lo) get
    q's arc too, so theirs move two; ``old`` and ``new`` count the open arcs
    of each kind.  q becomes an opener, and closers of ranks new + 1 and 0
    come in at lo.
    """
    w, h = bytearray(), []
    q = 0
    for b in reversed(code):
        lo = b - 1
        if q < lo:
            old, new = 2 * w.count(1, 0, q + 1) - q - 1, 0
            for c in range(q + 1, lo):
                k = h[c]
                if k < 0:
                    new += 1
                elif k < old:
                    h[c] = k + 1
                    old -= 1
                else:
                    h[c] = k + 2
                    new -= 1
            w[q], h[q] = 1, -1
            w[lo:lo], h[lo:lo] = b"\0\0", (new + 1, 0)
        else:
            w[lo:lo], h[lo:lo] = b"\1\0", (-1, 0)
        q = b
    d = [0] * len(h)
    opened: list[int] = []
    for c, k in enumerate(h):
        if k < 0:
            opened.append(c)
        else:
            u = opened.pop(k)
            d[u], d[c] = c - u, u - c
    return d


def phi(m: Matching) -> Matching:
    """First-edge-preserving rearrangement with nestings(phi(M)) = st_total(M).

    Reads the insertion code of ``m`` with the code read ``_sweep``, then
    walks it from last to first, one step per entry (see
    :func:`_phi_walk`).

    >>> phi(Matching.from_pairs([(1, 6), (2, 5), (3, 4)])).to_text()
    '(1,6),(2,3),(4,5)'
    """
    return Matching(_partners(_phi_walk(_sweep(m.partner))))


def _phi_inv_step(d: list[int]) -> tuple[int, list[int]]:
    """One unwinding step of :func:`phi_inv` on an offset list, in place,
    the inverse of :func:`_phi_step`: ``(r, parent)`` with
    ``_phi_step(r, parent) == d``.

    Reads the case off the matching: the first edge (0, r) is aligned when
    r = 1; otherwise the fresh vertex r - 1 is a left endpoint exactly in
    the crossed case.  Undoes the repair and strips the first edge.  Edits
    ``d`` and returns it as ``parent``; a caller who keeps the list passes
    a copy.  A corrupted input is refused before any write, so ``d`` is
    then left as it was.  As in :func:`_phi_step`, the step costs a scan of
    [1, r) for the fan, a two-slot deletion and one write per end of the
    fan, and the scan and the fan keep an unwinding Theta(n^2).
    """
    r = d[0]
    if r == 1:
        del d[:2]
        return r, d
    # Undoing the repair deletes the fresh vertex f and brings back a
    # vertex right after 0, which is vertex 0 once the first edge is
    # stripped; f's slot stands in for it.  Vertices past r move down
    # two.  g is f's mate.
    f = r - 1
    g = f + d[f]
    lefts = [j for j in range(1, r) if d[j] > r - j]
    # r < 1: vertex 0 has no mate to its right, so no fan either.
    if r < 1 or g > f:
        if not lefts or lefts[-1] != f:
            raise InvalidMatchingError(
                "corrupted input: crossed-case unwind finds no fan at the first edge"
            )
        # Each right end w > r, written at its index before the deletion
        # with the offset it has at w - 2, goes back to the left before
        # its own: vertex 0 for the first.
        prev = 0
        for u in lefts:
            w = u + d[u]
            d[prev], d[w] = w - 2 - prev, prev + 2 - w
            prev = u
        del d[f:r + 1]
        return r, d
    # g joins the anchors in order; in a corrupted input g can be 0,
    # which re-anchoring would rewire, or f itself, whose slot is 0.
    if g == 0:
        raise InvalidMatchingError("corrupted input: unwinding moved the first edge")
    rights = [j + d[j] - 2 for j in lefts]
    k = bisect.bisect(lefts, g)
    anchors = [*lefts[:k], g if g < f else 0, *lefts[k:]]
    q = anchors.pop(len(lefts) - k)
    # Vertex 0 gets q back, and the other anchors the fan's right ends, at
    # their indices once the two slots are gone.
    del d[f:r + 1]
    d[0], d[q] = q, -q
    for u, v in zip(anchors, rights):
        d[u], d[v] = v - u, u - v
    return r, d


def _phi_inv_code(d: Sequence[int]) -> tuple[int, ...]:
    """The code of :func:`phi_inv` of the offset list ``d``, which it leaves
    as it was: converted once to history form (see the comment above
    :func:`_phi_step`), refusing a ``d`` that is no perfect matching, then
    unwound from the outside, undoing :func:`_phi_walk`'s steps.

    The first edge is (0, r) and f = r - 1 the fresh vertex.  Aligned
    (r = 1) and crossed (f an opener): f and r go, and vertex 0's next mate
    is the first closer of rank 0 from f on.  Nested: walking left from f
    undoes the forward step's moves, one rank down or two, as ``new`` and
    ``old`` count back (``old`` two above the forward count, as the ranks
    it is compared with count the first edge and q's arc), until an opener
    is met with ``new`` at 0: that is q.  q becomes a closer of rank 0, f
    and r go, and q is the next r.
    """
    size = len(d)
    w, h = bytearray(size), [-1] * size
    opened: list[int] = []
    for v, x in enumerate(d):
        u = v + x
        if x > 0 and u < size and d[u] == -x:
            w[v] = 1
            opened.append(v)
            continue
        k = bisect.bisect_left(opened, u)
        if k == len(opened) or opened[k] != u:
            raise InvalidMatchingError(f"offset list is no perfect matching at vertex {v + 1}")
        del opened[k]
        h[v] = k
    code: list[int] = []
    r = d[0] if d else 0
    while h:
        code.append(r)
        f = r - 1
        if w[f]:
            del w[f:r + 1], h[f:r + 1]
            r = h.index(0, f) if h else 0
            continue
        new = h[f] - 1
        old = 2 * w.count(1, 0, f) - f - new
        for c in range(f - 1, 0, -1):
            k = h[c]
            if k < 0:
                if not new:
                    break
                new -= 1
            elif k < old:
                h[c] = k - 1
                old += 1
            else:
                h[c] = k - 2
                new += 1
        w[c], h[c] = 0, 0
        del w[f:r + 1], h[f:r + 1]
        r = c
    return tuple(code)


def phi_inv(m: Matching) -> Matching:
    """Exact two-sided inverse of :func:`phi`: unwind the code, then insert it.

    >>> phi_inv(Matching.from_pairs([(1, 6), (2, 3), (4, 5)])).to_text()
    '(1,6),(2,5),(3,4)'
    """
    return Matching(_partner_from_code(_check_code(_phi_inv_code(_offsets(m.partner)))))


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
    return Matching(_partners(_phi_walk(insertion_code(path).b)))


def big_phi_inv(m: Matching) -> WedgePath:
    """Inverse of :func:`big_phi`: psi_inv after phi_inv."""
    if m.n == 0:
        raise InvalidMatchingError("the empty matching has no path preimage")
    return path_from_code(InsertionCode(_phi_inv_code(_offsets(m.partner))))
