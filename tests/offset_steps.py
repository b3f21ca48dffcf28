"""phi's steps on offset lists, kept as a second oracle for its history-form
steps.

These are the surgery step and the unwinding step that the verification
harness once folded along the code tree: each takes one step on an
**offset list**, ``d[v] = mate(v) - v`` on 0-based vertices, in place.  An
arc that lies wholly on one side of the vertices a step inserts or deletes
keeps its offset, so a step inserts or deletes two slots and writes only
the fan of arcs crossing the first edge.  They share no code and no
representation with ``wedgematch.bijections``, whose walks hold a matching
in Flajolet's history form, so the differential tests in
``test_bijections.py`` compare two implementations of the same map, as
``reference_phi.py`` does for the seed's recursive one.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from wedgematch.errors import InvalidMatchingError


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

