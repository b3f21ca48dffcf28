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
# insertion procedure.
#
# Both directions hold a matching in Flajolet's history form: a bytearray w
# with 1 at each opener, and a list h with -1 at each opener and, at each
# closer, the rank of the arc it closes among the arcs open just before it,
# left to right, which is the number of arcs nesting over it.  So the sum
# of the ranks is the nesting count, sum(h) + n.  There a crossed step is a
# two-slot insertion, and a nested step rewrites only the closers between
# the old first edge's end and the new one.  The module has one step pair,
# _phi_hstep and _phi_inv_hstep, each taking one step on (w, h) in place.
# The walks _phi_walk and _phi_inv_code behind the public maps are their
# folds, and the verification harness folds the same steps along the code
# tree, one per node, and checks each node against its parent with one
# unwinding step.  Only _partners and _history convert, at the Matching
# boundary and in the harness.


def _partners(w: Sequence[int], h: Sequence[int]) -> tuple[int, ...]:
    """The partner tuple of the history ``(w, h)``.  Each arc the history
    makes is written at both ends, and a vertex it does not pair keeps the
    partner 0, which no matching has: where ``w`` and ``h`` disagree on
    whether it opens, where its rank is not that of an open arc, or where
    its arc is left open.  So the tuple is a matching exactly when it holds
    no 0, and exactly when ``(w, h)`` is the history of one."""
    p = [0] * len(h)
    opened: list[int] = []
    if len(w) == len(h):
        for c, k in enumerate(h):
            if k == -1 and w[c] == 1:
                opened.append(c)
            elif 0 <= k < len(opened) and w[c] == 0:
                u = opened.pop(k)
                p[u], p[c] = c + 1, u + 1
    return tuple(p)


def _history(p: Sequence[int]) -> tuple[bytearray, list[int]]:
    """The history ``(w, h)`` of the partner tuple ``p``, refusing a ``p``
    that is no perfect matching (:class:`InvalidMatchingError`)."""
    size = len(p)
    w, h = bytearray(size), [-1] * size
    opened: list[int] = []
    for v, u in enumerate(p, 1):
        if v < u <= size and p[u - 1] == v:
            w[v - 1] = 1
            opened.append(v)
            continue
        k = bisect.bisect_left(opened, u)
        if k == len(opened) or opened[k] != u:
            raise InvalidMatchingError(f"partner table is no perfect matching at vertex {v}")
        del opened[k]
        h[v - 1] = k
    return w, h


def _phi_hstep(b: int, q: int, w: bytearray, h: list[int]) -> tuple[bytearray, list[int]]:
    """One surgery step of :func:`phi` on a history, in place: put the first
    edge (0, b) back in front of the matching ``(w, h)``, whose own first
    edge is (0, q) (q = 0 for the empty matching), and repair the picture.
    Edits ``w`` and ``h`` and returns them; a caller who keeps the pair
    passes copies.

    lo = b - 1.  Aligned (b = 1) and crossed (q >= lo): an opener and a
    closer of rank 0 come in at lo.  Nested (q < lo): the arcs still open
    from before q get the first edge (0, b) in front of them, so their
    closers in (q, lo) move one rank up, and the arcs opened in (q, lo) get
    q's arc too, so theirs move two; ``old`` and ``new`` count the open arcs
    of each kind.  q becomes an opener, and closers of ranks new + 1 and 0
    come in at lo.  The loop over (q, lo) keeps a walk Theta(n^2).
    """
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
    return w, h


def _phi_walk(code: Sequence[int]) -> tuple[bytearray, list[int]]:
    """The history of phi(psi(code)): :func:`_phi_hstep` folded over the
    code from last to first, each step's q being the entry after its b."""
    w, h = bytearray(), []
    q = 0
    for b in reversed(code):
        w, h = _phi_hstep(b, q, w, h)
        q = b
    return w, h


def phi(m: Matching) -> Matching:
    """First-edge-preserving rearrangement with nestings(phi(M)) = st_total(M).

    Reads the insertion code of ``m`` with the code read ``_sweep``, then
    walks it from last to first, one step per entry (see
    :func:`_phi_walk`).

    >>> phi(Matching.from_pairs([(1, 6), (2, 5), (3, 4)])).to_text()
    '(1,6),(2,3),(4,5)'
    """
    return Matching(_partners(*_phi_walk(_sweep(m.partner))))


def _phi_inv_hstep(r: int, w: bytearray, h: list[int]) -> tuple[int, int]:
    """One unwinding step of :func:`phi_inv` on the history of a matching,
    in place, the inverse of :func:`_phi_hstep`: given the end r of the
    first edge (0, r) of ``(w, h)``, undo the repair, strip the first edge
    and return (r, q), q being the end of the first edge left.  Edits ``w``
    and ``h``; a caller who keeps the pair passes copies.

    f = r - 1 is the fresh vertex.  Aligned (r = 1) and crossed (f an
    opener): f and r go, and q is the first closer of rank 0 from f on.
    Nested: walking left from f undoes the forward step's moves, one rank
    down or two, as ``new`` and ``old`` count back (``old`` two above the
    forward count, as the ranks it is compared with count the first edge
    and q's arc), until an opener is met with ``new`` at 0: that is q.  q
    becomes a closer of rank 0, and f and r go.
    """
    f = r - 1
    if w[f]:
        del w[f:r + 1], h[f:r + 1]
        return r, h.index(0, f) if h else 0
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
    return r, c


def _phi_inv_code(p: Sequence[int]) -> tuple[int, ...]:
    """The code of :func:`phi_inv` of the partner tuple ``p``: its history
    (:func:`_history`, which refuses a ``p`` that is no perfect matching),
    unwound from the outside by :func:`_phi_inv_hstep`, each step's r being
    the q of the step before."""
    w, h = _history(p)
    code: list[int] = []
    r = p[0] - 1 if p else 0
    while h:
        r, q = _phi_inv_hstep(r, w, h)
        code.append(r)
        r = q
    return tuple(code)


def phi_inv(m: Matching) -> Matching:
    """Exact two-sided inverse of :func:`phi`: unwind the code, then insert it.

    >>> phi_inv(Matching.from_pairs([(1, 6), (2, 3), (4, 5)])).to_text()
    '(1,6),(2,5),(3,4)'
    """
    return Matching(_partner_from_code(_check_code(_phi_inv_code(m.partner))))


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
    return Matching(_partners(*_phi_walk(insertion_code(path).b)))


def big_phi_inv(m: Matching) -> WedgePath:
    """Inverse of :func:`big_phi`: psi_inv after phi_inv."""
    if m.n == 0:
        raise InvalidMatchingError("the empty matching has no path preimage")
    return path_from_code(InsertionCode(_phi_inv_code(m.partner)))
