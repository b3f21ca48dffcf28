"""Exhaustive generators, distribution tables, and the verification harness.

Everything here is exact integer combinatorics at desk scale: both object
families of size n have (2n-1)!! members, generated as streams with O(n)
memory per object.  ``verify_all`` replays every claimed identity over the
full families and reports per-claim tallies with verbatim counterexamples.
"""

from __future__ import annotations

import itertools
import os
import signal
import time
from collections import Counter, deque
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import Pool
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from .bijections import (
    InsertionCode,
    _check_code,
    _partner_from_code,
    _phi_inv_code,
    _phi_inv_partner,
    _phi_inv_step,
    _phi_step,
    _phi_walk,
    path_from_code,
)
from .errors import InvalidMatchingError, OverCapError
from .matching import (
    Matching, _arc_counts, _block_end, _blocks, _first_stacking, _stacking, _sweep
)
from .paths import (
    WedgePath, _cut_step, _cuts, _final_south_run, _reversed_south_positions, _steps
)

__all__ = [
    "CLAIMS",
    "ClaimResult",
    "DEFAULT_MAX_N",
    "DistributionTable",
    "VerificationReport",
    "all_matchings",
    "all_paths",
    "distribution",
    "double_factorial",
    "verify_all",
    "verify_ladder",
]

DEFAULT_MAX_N = 7


def _require_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")


def _require_within_cap(n: int, max_n: int | None) -> None:
    _require_size(n)
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if n > cap:
        raise OverCapError(f"size {n} exceeds the enumeration cap {cap}")


def double_factorial(n: int) -> int:
    """(2n-1)!! = 1 * 3 * 5 * ... * (2n-1), the size of both families.

    >>> [double_factorial(n) for n in range(8)]
    [1, 1, 3, 15, 105, 945, 10395, 135135]
    """
    if n < 0:
        raise ValueError(f"size must be non-negative, got {n}")
    out = 1
    for i in range(1, n + 1):
        out *= 2 * i - 1
    return out


# -- streams -----------------------------------------------------------------
#
# A path of size n is its heights a_i in [-(i-1), i-1], i = 1..n, and a
# matching its insertion code b_i in [1, 2(n-i)+1]; each stream is the
# product of its ranges, lexicographic.  The height ranges also cut the
# harness's cells and nest in its code tree, which counts the distribution
# tables.


def _heights(i: int) -> range:
    """The range of a path's height a_i."""
    return range(-(i - 1), i)


def _cells(n: int) -> list[tuple[int, ...]]:
    """The cells of size n, the unit of work of every run: the path stream
    cut by its heights a_1..a_{min(4, n-3)} (a_1 has a single value), in
    stream order.  A size up to 5 is one cell, prefix (); n = 6 has 15
    cells and every later size 105, so the pool starts at n = 6."""
    depth = min(4, n - 3) if n > 5 else 0
    return list(itertools.product(*map(_heights, range(1, depth + 1))))


def all_paths(n: int) -> Iterator[WedgePath]:
    """All wedge paths with n east steps, lexicographic in their heights."""
    _require_size(n)
    return map(WedgePath, itertools.product(*map(_heights, range(1, n + 1))))


def all_matchings(n: int) -> Iterator[Matching]:
    """All matchings on [2n], lexicographic in their insertion codes; each
    is checked once, in Matching."""
    _require_size(n)
    codes = itertools.product(*[range(1, 2 * (n - i) + 2) for i in range(1, n + 1)])
    return (Matching(_partner_from_code(b)) for b in codes)


# -- distribution tables ------------------------------------------------------

# The statistics a distribution table counts, each as the values of a node's
# children (see _Facts).
_CHILD_STATISTICS: dict[str, Callable[[_Facts], Iterable[int]]] = {
    "north_steps": lambda f: f.child_north,
    "nestings": lambda f: map(f.arcs[1].__add__, f.closed),
    "crossings": lambda f: map(f.arcs[0].__add__, f.opened),
    "st_total": lambda f: f.child_st,
}
STATISTICS = tuple(_CHILD_STATISTICS)


@dataclass(frozen=True)
class DistributionTable:
    """Exact counts of one statistic over all objects of one size."""

    n: int
    statistic: str
    counts: dict[int, int]

    def __post_init__(self) -> None:
        total = sum(self.counts.values())
        expected = double_factorial(self.n)
        if total != expected:
            raise ValueError(f"counts sum to {total}, expected (2n-1)!! = {expected}")

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())

    def to_text(self) -> str:
        """One aligned row, e.g. ``"0:2 1:1"``."""
        return " ".join(f"{k}:{v}" for k, v in self.items())

    def to_csv(self) -> str:
        lines = ["k,count"] + [f"{k},{v}" for k, v in self.items()]
        return "\n".join(lines) + "\n"

    def to_json_value(self) -> dict:
        return {
            "n": self.n,
            "statistic": self.statistic,
            "counts": {str(k): v for k, v in self.items()},
        }


def distribution(n: int, statistic: str, max_n: int | None = None) -> DistributionTable:
    """Exact distribution of a statistic over all objects of size n.

    Each node of depth n-1 of the code tree gives the values of all its
    2n-1 children, the records, one per path, at once (see ``_Facts``), so
    the walk stops at depth n-1 and builds, checks or sweeps no matching.
    Only ``st_total`` inserts a code: each node's, for its first edge.
    Every matching of size n is the insertion image of exactly one path.

    >>> distribution(2, "nestings").to_text()
    '0:2 1:1'
    """
    _require_within_cap(n, max_n)
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {', '.join(STATISTICS)}")
    values, counts = _CHILD_STATISTICS[statistic], Counter()
    # The nodes of depth n-1: the root, or the records of the tree of size n-1.
    for parent in _code_tree(n - 1) if n > 1 else [_Facts((), None)]:
        if len(parent.b) == n - 1:
            counts.update(values(parent))
    return DistributionTable(n=n, statistic=statistic, counts=dict(counts))


# -- verification harness ------------------------------------------------------


class _once:
    """``functools.cached_property`` without the lock it takes before
    Python 3.12: computed on first read and stored on the instance, whose
    attribute then shadows it."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Facts:
    """One node of the code tree, with the values the claims and statistics
    read.

    The node of depth k stands for the first k east steps of a streamed
    path.  It holds its code ``b`` = (a_k + k, ..., a_1 + 1), the parent's
    code with b_1 in front, its ``parent`` (None at the root, whose code is
    empty) and, at a record (a leaf, depth n), its path's ``heights`` (else
    None).  Every other field is computed on first read, once, so a node
    computes only what its readers read.  Four are one step on the parent's
    value: ``image``, the offset list of phi(psi(b)) (see ``_phi_step``),
    one surgery step with b_1 on a copy of the parent's image, as the step
    edits its list in place and the node's siblings read it too;
    ``cuts``, the cut stack of the first k east steps (0 and the splits of
    :meth:`WedgePath.components` below k), one cut step with b_1 on a copy
    of the parent's stack; and ``opened`` and ``closed``, the gap columns
    of ``m``, one column step each with b_1 on the parent's (see
    ``_opened_step``), so no node reads ``m`` for them.  Three are the parent's plus one step that depends only
    on the parent and b_1, so a node of depth n-1 gives the values of all
    its children b_1 = 1..2k+1, its records, without building them:
    ``north``, the path's north steps, plus the new rise b_1 - c - 1 if
    positive, c the parent's b_1 (``child_north``); ``arcs``, the
    (crossings, nestings) of ``m``, plus the parent's column entries at the
    gap b_1 - 1, where the new first edge (1, b_1 + 1) ends, the arcs it
    crosses and those it nests over; and ``st``, the stacking total of
    ``m``, plus b_1 - u if the parent's first edge (1, u) has u < b_1, when
    the two first edges nest and [u + 1, b_1 + 1] holds b_1 - u endpoints of
    later edges (``child_st``).  The rest are ``m = psi(b)``, whether ``m``
    is a perfect matching of [2n], ``nm = phi(m)``, the code read of ``m``
    (or why the sweep refuses ``m``), the nestings of ``nm`` (or why the
    arc count refuses ``nm``), ``phi_inv(nm)`` (or why the unwinding
    refuses ``nm``), and whether one unwinding step on a copy of the image
    gives back the parent's.  The node checks compare a node's values with its
    parent's or an ancestor's, and read only the first block end and first
    stacking value of ``m``, so a passing run sweeps no record whole for
    its path components, image blocks or stacking formula.
    """

    def __init__(
        self, b: tuple[int, ...], parent: _Facts | None, heights: tuple[int, ...] | None = None
    ) -> None:
        self.b, self.parent, self.heights = b, parent, heights

    @_once
    def image(self) -> list[int]:
        return [] if self.parent is None else _phi_step(self.b[0], self.parent.image[:])

    @_once
    def cuts(self) -> list[int]:
        if self.parent is None:
            return []
        return _cut_step(list(self.parent.cuts), self.b[0], len(self.b))

    @_once
    def m(self) -> tuple[int, ...]:
        return _partner_from_code(self.b)

    @_once
    def perfect(self) -> bool:
        return len(self.m) == 2 * len(self.b) and _is_matching(self.m)

    @_once
    def nm(self) -> tuple[int, ...]:
        return tuple([v + x + 1 for v, x in enumerate(self.image)])

    @_once
    def code_back(self) -> tuple[int, ...] | str:
        return _unwound(lambda: _sweep(self.m))

    @_once
    def north(self) -> int:
        return 0 if self.parent is None else self.parent.child_north[self.b[0] - 1]

    @_once
    def arcs(self) -> tuple[int, int]:
        parent = self.parent
        if parent is None:
            return (0, 0)
        crossings, nestings = parent.arcs
        gap = self.b[0] - 1
        return (crossings + parent.opened[gap], nestings + parent.closed[gap])

    @_once
    def opened(self) -> list[int]:
        return [0] if self.parent is None else _opened_step(self.parent.opened, self.b[0])

    @_once
    def closed(self) -> list[int]:
        return [0] if self.parent is None else _closed_step(self.parent.closed, self.b[0])

    @_once
    def st(self) -> int:
        return 0 if self.parent is None else self.parent.child_st[self.b[0] - 1]

    @_once
    def child_north(self) -> list[int]:
        return _rises(self.north, self.b[0] + 1 if self.b else 1, 2 * len(self.b) + 1)

    @_once
    def child_st(self) -> list[int]:
        return _rises(self.st, self.m[0] if self.b else 1, 2 * len(self.b) + 1)

    @_once
    def image_nestings(self) -> int | str:
        arcs = _unwound(lambda: _arc_counts(self.nm))
        return f"not counted: {arcs}" if isinstance(arcs, str) else arcs[1]

    @_once
    def back(self) -> tuple[int, ...] | str:
        return _unwound(lambda: _phi_inv_partner(self.nm))

    @_once
    def unwinds(self) -> bool:
        """One unwinding step gives back b_1 and the parent's image.  It
        unwinds a copy, as the step edits its list in place and the node's
        children read the image after it."""
        try:
            step = _phi_inv_step(self.image[:])
        except InvalidMatchingError:
            return False
        return step == (self.b[0], self.parent.image)

    def ancestor(self, depth: int) -> _Facts:
        """The node of this one's chain at the given depth."""
        node = self
        for _ in range(len(self.b) - depth):
            node = node.parent
        return node

    def name(self, names_image: bool) -> str:
        """The counterexample's name: the path, or its insertion image."""
        return f"M={_partner_text(self.m)}" if names_image else f"P={_steps(self.heights)}"


def _rises(base: int, flat: int, count: int) -> list[int]:
    """base + max(b_1 - flat, 0) for b_1 = 1..count, as two runs, if 0 <= flat <= count."""
    return [base] * flat + [*range(base + 1, base + count - flat + 1)]


# The gap columns of a node's m, one entry per gap t = 0..2k, the one right
# after vertex t: the arcs (l, r) open across it, l <= t < r, and those
# closed before it, r <= t.  A child puts its first edge (1, b_1 + 1) in
# front of its parent's m, so the parent's vertices u < b_1 move to u + 1
# and the rest to u + 2: each child column is the parent's, shifted, with
# the new edge counted where it is open or closed.  The new edge ends in
# the parent's gap b_1 - 1, where it crosses the arcs open and nests over
# the arcs closed.
_plus_one = (1).__add__


def _opened_step(column: list[int], b1: int) -> list[int]:
    """The child b_1's open column from its parent's."""
    return [0, *map(_plus_one, column[:b1]), *column[b1 - 1 :]]


def _closed_step(column: list[int], b1: int) -> list[int]:
    """The child b_1's closed column from its parent's."""
    return [0, *column[:b1], *map(_plus_one, column[b1 - 1 :])]


def _unwound(unwind: Callable[[], tuple[int, ...]]) -> tuple[int, ...] | str:
    """``unwind()``, or why it refuses its input, so that an image or an
    ``m`` that a fault made no matching fails the claims that unwind or
    sweep it instead of the run."""
    try:
        return unwind()
    except ValueError as error:
        return str(error)


def _partner_text(p: tuple[int, ...]) -> str:
    """A partner tuple as its matching's text, or raw if it is no matching."""
    return str(Matching(p)) if _is_matching(p) else f"partners{p}"


def _code_tree(n: int, prefix: tuple[int, ...] = ()) -> Iterator[_Facts]:
    """Every node of depths 1..n on the chains of the paths whose heights
    start with ``prefix``, each once, a parent before its children; the
    leaves are the paths' records, in stream order.

    The code of a node's first n-1 east steps is its code without b_1, so
    the walk goes depth-first through the nested height ranges: the node of
    depth i + 1 is made once for each value of a_{i+1} under the node of
    depth i, and its children follow it.  A node holds only its code, its
    parent and a record's heights; its image, phi(psi(b)), is one step with
    b_1 on its parent's, folded when a reader first asks for it.  The cells
    of a size partition its records, and each also yields the nodes of
    the depths its prefix fixes, which other cells share: their checks are
    pure, so repeating them changes no report."""
    ranges = [range(a, a + 1) for a in prefix]
    ranges += map(_heights, range(len(prefix) + 1, n + 1))
    heights = [0] * n
    # chain[i] is the node of depth i whose children levels[i] runs through.
    chain = [_Facts((), None)]
    levels = [iter(ranges[0])]
    while levels:
        i = len(levels) - 1
        parent = chain[i]
        for a in levels[i]:
            heights[i] = a
            if i + 1 == n:
                yield _Facts((a + n,) + parent.b, parent, tuple(heights))
                continue
            node = _Facts((a + i + 1,) + parent.b, parent)
            yield node
            chain.append(node)
            levels.append(iter(ranges[i + 1]))
            break
        else:
            levels.pop()
            chain.pop()


# Per-object checks: None on a pass, else the counterexample detail.  They run
# the public maps' kernels on the facts' tuples; objects only write the detail.


def _code_text(b: tuple[int, ...]) -> str:
    """A code as its path's text, or raw if it is no insertion code."""
    try:
        return str(path_from_code(InsertionCode(b)))
    except ValueError:
        return f"code{b}"


def _came_back(back: tuple[int, ...] | str, text: Callable[[tuple[int, ...]], str]) -> str:
    """A failed round trip's detail: what came back, or why unwinding refused."""
    return f"does not unwind: {back}" if isinstance(back, str) else f"comes back as {text(back)}"


def _round_trip_psi(f: _Facts) -> str | None:
    back = f.code_back
    return None if back == f.b else _came_back(back, _code_text)


def _round_trip_big_phi(f: _Facts) -> str | None:
    back = f.back if isinstance(f.back, str) else _unwound(lambda: _sweep(f.back))
    return None if back == f.b else _came_back(back, _code_text)


def _lemma1(f: _Facts) -> str | None:
    stacking = _unwound(lambda: _stacking(f.m))
    per_index_ok = stacking == [max(f.b[i - 1] - f.b[i] - 1, 0) for i in range(1, len(f.b))]
    # North steps and the stacking total take one step (_rises): hold st to the sweep's too.
    if per_index_ok and f.st == f.north == sum(stacking):
        return None
    return f"north={f.north} stacking={f.st} indexwise_ok={per_index_ok}"


def _theorem1(f: _Facts) -> str | None:
    ne = f.image_nestings
    return None if ne == f.north else f"north={f.north} nestings={ne}"


def _proposition_a(f: _Facts) -> str | None:
    mate = f.nm[0]
    run = _final_south_run(f.heights)
    return None if mate == run + 1 else f"south_run={run} partner_of_1={mate}"


def _component_sizes(f: _Facts) -> tuple[list[int], list[int]]:
    """The path's component sizes, read backwards, and the image's block sizes."""
    cuts = _cuts(f.heights)
    path_sizes = [hi - lo for lo, hi in zip(cuts, cuts[1:])][::-1]
    return path_sizes, [len(block) // 2 for _, block in _blocks(f.nm)]


def _piecewise(m: tuple[int, ...]) -> tuple[int, ...]:
    """phi's kernel on each block of ``m``, put back in place: the block's
    code read, walked.  The code is range-checked first, as an entry out of
    range would index past the walk's list."""
    out: list[int] = []
    for s, block in _blocks(m):
        out += [v + s for v in _phi_walk(_check_code(_sweep(block)))]
    return tuple(out)


def _proposition_b(f: _Facts) -> str | None:
    path_sizes, image_sizes = _component_sizes(f)
    piecewise = _unwound(lambda: _piecewise(f.m))
    if path_sizes == image_sizes and piecewise == f.nm:
        return None
    shown = f"not walked: {piecewise}" if isinstance(piecewise, str) else _partner_text(piecewise)
    return (
        f"path_sizes(rev)={path_sizes} image_sizes={image_sizes} "
        f"piecewise={shown} global={_partner_text(f.nm)}"
    )


def _dyck_proposition(f: _Facts) -> str | None:
    if f.north:
        return None
    nm = f.nm
    ne = f.image_nestings
    lefts = {v for v, w in enumerate(nm, start=1) if v < w}
    expected = _reversed_south_positions(f.heights)
    if ne == 0 and lefts == expected and nm == f.m:
        return None
    return (
        f"nestings={ne} lefts={sorted(lefts)} "
        f"expected={sorted(expected)} fixed={nm == f.m}"
    )


def _round_trip_psi_inv(f: _Facts) -> str | None:
    code = f.code_back
    if isinstance(code, str):
        return _came_back(code, _partner_text)
    back = _unwound(lambda: _partner_from_code(_check_code(code)))
    return None if back == f.m else _came_back(back, _partner_text)


def _round_trip_phi(f: _Facts) -> str | None:
    return None if f.back == f.m else _came_back(f.back, _partner_text)


def _round_trip_phi_inv(f: _Facts) -> str | None:
    back = _unwound(lambda: _phi_walk(_check_code(_phi_inv_code(f.m))))
    return None if back == f.m else _came_back(back, _partner_text)


def _theorem2(f: _Facts) -> str | None:
    st = f.st
    ne = f.image_nestings
    same_first = f.nm[0] == f.m[0]
    if ne == st and same_first:
        return None
    return f"stacking={st} nestings={ne} first_edge_kept={same_first}"


# Node checks: the step of a claim's induction on the first edge, run at every
# node of the code tree against values its walk already holds; True on a pass.
# If a claim's check passes at every node of depths 1..n of the size's tree,
# its per-object check above passes on every record, so a passing size needs
# only the node checks.  Once any test fails, the size is rerun with every
# per-object check on every record, and its report comes from that pass.


def _reads_back(f: _Facts) -> bool:
    """round_trip_psi_inv: the code read of ``m`` gives back b, so
    psi(psi_inv(m)) = psi(b) = m with no second insertion."""
    return f.code_back == f.b


def _unwinds_to_parent(f: _Facts) -> bool:
    """round_trip_phi: one unwinding step of the image gives back b_1 and the
    parent's image.  Along the whole chain, phi_inv(nm) then unwinds to b,
    and inserting b gives ``m``."""
    return f.unwinds


def _big_phi_node(f: _Facts) -> bool:
    """round_trip_big_phi: as round_trip_phi, and the code read of ``m``,
    which phi_inv(nm) then equals, gives back b."""
    return f.unwinds and f.code_back == f.b


def _is_matching(p: Sequence[int]) -> bool:
    """``p`` lists a fixed-point-free involution of 1..len(p).
    A plain loop: it beats both a generator under ``all()`` and passes of
    ``min``/``max``/``map`` at the sizes the harness walks."""
    stop = len(p) + 1
    for v, w in enumerate(p, 1):
        if not (1 <= w < stop and w != v and p[w - 1] == v):
            return False
    return True


def _is_offset_matching(d: Sequence[int]) -> bool:
    """``d`` is the offset list of a fixed-point-free involution of
    0..len(d) - 1: each v has a mate w = v + d[v] != v in range, and
    d[w] = -d[v] leads back to v."""
    stop = len(d)
    for v, x in enumerate(d):
        w = v + x
        if not (0 <= w < stop and x and d[w] == -x):
            return False
    return True


def _unwinds_a_matching(f: _Facts) -> bool:
    """round_trip_phi_inv: the image is a matching that unwinds to the
    parent's, as for round_trip_phi, and a record's ``m`` is a matching of
    its size.  The induction runs over the whole tree, not one chain: if
    every node of depths 1..k passes, the images of depth k are (2k-1)!!
    distinct matchings, hence all of them, and each one unwinds to the code
    the walk built it with.  A record's ``m`` is one of them, so phi_inv(m)
    is that code, and phi walks it back to ``m``."""
    if not (f.unwinds and _is_offset_matching(f.image)):
        return False
    return f.heights is None or f.perfect


def _stacks_on_parent(f: _Facts) -> bool:
    """lemma1: the code read of ``m`` gives back b, so ``m`` is psi(b), the
    parent's ``m`` with the edge (1, b_1 + 1) put in front, and its
    stacking values are its first one followed by the parent's.  That first
    one must be max(b_1 - b_2 - 1, 0), so along the chain they are the
    code-difference formula, index by index.  The stacking total carried
    from the parent adds that first value, so along the chain it is their
    sum, and a record compares it with its north steps."""
    b = f.b
    first = max(b[0] - b[1] - 1, 0) if len(b) > 1 else 0
    return (
        f.code_back == b
        and _first_stacking(f.m) == first
        and f.st == f.parent.st + first
        and (f.heights is None or f.st == f.north)
    )


def _piecewise_node(f: _Facts) -> bool:
    """proposition_b: the image's first block ends where the first block
    of ``m`` does, at s, and that block ``m[:s]`` reads back as the leading
    code b[:s/2], so phi's kernel on it walks b[:s/2].  An irreducible
    ``m`` is that block, and its walk is the image; the image is then one
    block, and the path one component.  A reducible ``m`` is its first
    block followed by the ancestor s/2 edges up, shifted by s, so its other
    block ends are the ancestor's, shifted; the image is the walk of
    b[:s/2], which is then one block, followed by the ancestor's image; and
    the path's cut stack is the ancestor's with the ancestor's depth on
    top.  Along the chain, the path's component sizes, read backwards, and
    the image's block sizes are then both s/2 followed by the ancestor's."""
    m = f.m
    s = _block_end(m, 0)
    if not s or _block_end(f.nm, 0) != s:
        return False
    if f.code_back[: s // 2] != f.b[: s // 2]:
        return False
    if s == len(m):
        return len(f.nm) == s and f.cuts == [0]
    a = f.ancestor(len(f.b) - s // 2)
    # Offsets need no shift: the walk of b[:s/2] as offsets, then a's.
    head = [w - v for v, w in enumerate(_phi_walk(f.b[: s // 2]), 1)]
    return (
        f.cuts == [*a.cuts, len(a.b)]
        and m[s:] == tuple([v + s for v in a.m])
        and f.image == head + a.image
    )


# Whole-stream checks: (values tested, failure details).


def _cardinality(n: int, tables: dict) -> tuple[int, list[str]]:
    count, expected = tables["paths"], double_factorial(n)
    return count, [] if count == expected else [
        f"stream yielded {count} objects, expected {expected}"
    ]


def _perfect_images(n: int, tables: dict) -> tuple[int, list[str]]:
    perfect, expected = tables["matchings"], double_factorial(n)
    count, images = perfect[True], perfect.total()
    return images, [] if count == expected else [
        f"{count} of {images} images are matchings of [{2 * n}], expected {expected}"
    ]


def _equidistributed(n: int, tables: dict) -> tuple[int, list[str]]:
    (left, a), (right, b) = tables.items()
    keys = sorted(set(a) | set(b))
    return len(keys), [
        f"k={k}: {left}={a.get(k, 0)} {right}={b.get(k, 0)}"
        for k in keys
        if a.get(k, 0) != b.get(k, 0)
    ]


@dataclass(frozen=True)
class Claim:
    """One claimed identity, replayed over all objects of a size.

    A claim with ``tables`` is a whole-stream claim: ``tables`` names the
    tables, counted on the records, that ``check(n, tables)`` compares
    (``"paths"``, the records; ``"matchings"``, whether each record's ``m``
    is a perfect matching; or a statistic's values), and ``check`` returns
    the number of values tested and the failure details.

    A claim without ``tables`` is checked object by object, on one facts
    record per path, walked cell by cell (``_cells``) on any worker count:
    the path and its insertion image, and the images are the matching
    stream's tuples, each once.  ``check`` gets the record and
    returns None on a pass or the counterexample detail on a failure, so
    detail text is built only for failures, and ``tested`` counts the
    records.  ``names_image`` makes a counterexample name the image
    (``M=``) instead of the path (``P=``).  Such a claim may also have a
    ``node`` check, one step of its induction on the first edge (see the
    node checks above); a passing size tests the claim by that alone, and
    ``check`` runs only when a failed size is rerun in full.
    """

    label: str
    check: Callable
    description: str
    node: Callable[[_Facts], bool] | None = None
    tables: tuple[str, ...] = ()
    names_image: bool = False


# Descriptions state what is replayed over the full streams.
_REGISTRY = (
    Claim(
        "cardinality_paths",
        _cardinality,
        "the path stream yields exactly (2n-1)!! objects",
        tables=("paths",),
    ),
    Claim(
        "cardinality_matchings",
        _perfect_images,
        "exactly (2n-1)!! insertion images are perfect matchings of [2n]",
        tables=("matchings",),
    ),
    Claim(
        "round_trip_psi",
        _round_trip_psi,
        "decoding undoes the insertion map on every path",
    ),
    Claim(
        "round_trip_psi_inv",
        _round_trip_psi_inv,
        "the insertion map undoes decoding on every matching",
        _reads_back,
        names_image=True,
    ),
    Claim(
        "round_trip_phi",
        _round_trip_phi,
        "the inverse rearrangement undoes the rearrangement",
        _unwinds_to_parent,
        names_image=True,
    ),
    Claim(
        "round_trip_phi_inv",
        _round_trip_phi_inv,
        "the rearrangement undoes the inverse rearrangement",
        _unwinds_a_matching,
        names_image=True,
    ),
    Claim(
        "round_trip_big_phi",
        _round_trip_big_phi,
        "the full inverse undoes the full bijection on every path",
        _big_phi_node,
    ),
    Claim(
        "lemma1",
        _lemma1,
        "north steps equal the insertion image's stacking statistic, "
        "indexwise per the code-difference formula",
        _stacks_on_parent,
    ),
    Claim(
        "theorem2",
        _theorem2,
        "the rearrangement turns the stacking statistic into the "
        "nesting count and keeps the first edge in place",
        names_image=True,
    ),
    Claim(
        "theorem1",
        _theorem1,
        "the full bijection sends the north-step count to the nesting count",
    ),
    Claim(
        "proposition_a",
        _proposition_a,
        "the final south run k pairs vertex 1 with k+1 in the image",
    ),
    Claim(
        "proposition_b",
        _proposition_b,
        "path components, read backwards, match the image's "
        "components, and the rearrangement acts componentwise",
        _piecewise_node,
    ),
    Claim(
        "dyck_proposition",
        _dyck_proposition,
        "north-free paths map to nesting-free matchings whose "
        "left endpoints read off the reversed steps",
    ),
    Claim(
        "distribution_north_nestings",
        _equidistributed,
        "north steps and nestings are equidistributed",
        tables=("north_steps", "nestings"),
    ),
    Claim(
        "distribution_nestings_crossings",
        _equidistributed,
        "nestings and crossings are equidistributed",
        tables=("nestings", "crossings"),
    ),
)
_CLAIMS_BY_LABEL = {claim.label: claim for claim in _REGISTRY}

# The claim registry as label -> description.
CLAIMS: dict[str, str] = {claim.label: claim.description for claim in _REGISTRY}


@dataclass(frozen=True)
class ClaimResult:
    label: str
    tested: int
    failed: int
    counterexamples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.failed == 0


@dataclass(frozen=True)
class VerificationReport:
    """Per-claim tallies for one size, plus wall time.

    The text and JSON renderings are byte-for-byte reproducible for a given
    (n, format version); the wall time is reported separately and is not
    part of the reproducible payload.
    """

    n: int
    claims: tuple[ClaimResult, ...]
    elapsed: float
    format_version: ClassVar[int] = 1

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def failures(self) -> int:
        return sum(c.failed for c in self.claims)

    def to_text(self) -> str:
        width = max(len(c.label) for c in self.claims)
        lines = [f"verification n={self.n} (format {self.format_version})"]
        for c in self.claims:
            lines.append(f"  {c.label:<{width}}  tested {c.tested:>8}  failed {c.failed}")
            for ce in c.counterexamples:
                lines.append(f"    counterexample: {ce}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json_value(self) -> dict:
        return {
            "format_version": self.format_version,
            "n": self.n,
            "passed": self.passed,
            "claims": {
                c.label: {
                    "tested": c.tested,
                    "failed": c.failed,
                    "counterexamples": list(c.counterexamples),
                }
                for c in self.claims
            },
        }


@dataclass(frozen=True)
class _Cell:
    """One unit of work: the paths whose first heights are ``prefix``, one
    of ``_cells(n)``.  Every run walks a size as those cells, on any worker
    count; from n = 6, where a size has more than one, a pool runs them.  A
    cell walks the nodes on its paths' chains for the claims ``labels``
    names: it counts its records and, on them, the tables its whole-stream
    claims compare, and tests each per-object claim by its node checks, or
    by its per-object check at the records if it has none; with ``full``
    set, every record runs each per-object claim's check instead."""

    n: int
    prefix: tuple[int, ...]
    labels: tuple[str, ...]
    limit: int
    full: bool = False


def _run_cell(cell: _Cell) -> tuple[int, dict[str, list], dict[str, Counter]] | None:
    """Worker body: the cell's object count, [failed, examples] per
    per-object claim label and a Counter per record table its claims read,
    as plain values, so the result can cross a process boundary.  Without
    ``full``, the first failed test ends the cell with None."""
    claims = [_CLAIMS_BY_LABEL[label] for label in cell.labels]
    per_object = [c for c in claims if not c.tables]
    nodes = [] if cell.full else [c.node for c in per_object if c.node is not None]
    checks = [
        (c.label, c.names_image, c.check) for c in per_object if cell.full or c.node is None
    ]
    failures: dict[str, list] = {c.label: [0, []] for c in per_object}
    read = {name for c in claims for name in c.tables}
    counters = {name: Counter() for name in ("matchings", *STATISTICS) if name in read}
    perfect = counters.get("matchings")
    statistics = [(_CHILD_STATISTICS[name], counters[name]) for name in STATISTICS if name in read]
    count = 0
    for f in _code_tree(cell.n, cell.prefix):
        for node in nodes:
            if not node(f):
                return None
        if f.heights is None:
            continue
        count += 1
        if f.b[0] == 1:
            # The first of its parent's children: the cell holds them all.
            for values, counter in statistics:
                counter.update(values(f.parent))
        if perfect is not None:
            perfect[f.perfect] += 1
        for label, names_image, check in checks:
            detail = check(f)
            if detail is not None:
                if not cell.full:
                    return None
                slot = failures[label]
                slot[0] += 1
                if len(slot[1]) < cell.limit:
                    slot[1].append(f"{f.name(names_image)}: {detail}")
    return count, failures, counters


def _windowed(pool, window: int, func, cells) -> Iterator:
    """``func`` over ``cells`` on ``pool``, as ``map`` gives it: results in
    order, with at most ``window`` cells handed to the pool and not yet
    yielded, so a pass that stops early leaves at most that many behind."""
    pending: deque = deque()
    for cell in cells:
        if len(pending) == window:
            yield pending.popleft().get()
        pending.append(pool.apply_async(func, (cell,)))
    while pending:
        yield pending.popleft().get()


def _verify_size(n: int, selected: list[str], limit: int, run) -> VerificationReport:
    """Replay the selected claims over all objects of size n, as its
    ``_cells``.  Each pass is one lazy stream of the cells' results in
    stream order, from ``run``: ``map`` in this process, or ``_windowed``
    on the pool if there is one (n >= 6)."""
    started = time.perf_counter()
    chosen = [claim for claim in _REGISTRY if claim.label in selected]
    labels = tuple(claim.label for claim in chosen)
    cells = [_Cell(n, prefix, labels, limit) for prefix in _cells(n)]
    results = []
    for result in run(_run_cell, cells):
        if result is None:
            # A failed test anywhere ends this pass and reruns every cell with
            # every claim's per-object check on every record, and the report
            # comes from that pass alone.
            results = run(_run_cell, [replace(cell, full=True) for cell in cells])
            break
        results.append(result)

    tables: dict = {"paths": 0}
    failed: Counter = Counter()
    examples: dict[str, list[str]] = {claim.label: [] for claim in chosen}
    for count, failures, counters in results:
        tables["paths"] += count
        for name, counter in counters.items():
            tables.setdefault(name, Counter()).update(counter)
        for label, (cell_failed, cell_examples) in failures.items():
            failed[label] += cell_failed
            examples[label].extend(cell_examples[: limit - len(examples[label])])

    outcomes = []
    for claim in chosen:
        if claim.tables:
            tested, details = claim.check(n, {name: tables[name] for name in claim.tables})
            outcome = ClaimResult(claim.label, tested, len(details), tuple(details[:limit]))
        else:
            outcome = ClaimResult(
                claim.label, tables["paths"], failed[claim.label], tuple(examples[claim.label])
            )
        outcomes.append(outcome)
    elapsed = time.perf_counter() - started
    return VerificationReport(n=n, claims=tuple(outcomes), elapsed=elapsed)


def _verify_sizes(
    first: int,
    last: int,
    max_n: int | None,
    workers: int,
    counterexample_limit: int,
    claims: Iterable[str] | None,
) -> Iterator[VerificationReport]:
    """Check the arguments once, then yield the report of each size
    first..last as it finishes.  With k > 1 workers, one process pool of
    k processes, started at the first size of more than one cell, runs the
    cells of that size and every later one, and this process merges their
    results.  The pool is terminated however the generator ends."""
    _require_within_cap(last, max_n)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if counterexample_limit < 0:
        raise ValueError(
            f"counterexample limit must not be negative, got {counterexample_limit}"
        )
    workers = min(workers, os.cpu_count() or 1)
    if claims is None:
        selected = list(CLAIMS)
    else:
        selected = list(claims)
        unknown = [c for c in selected if c not in CLAIMS]
        if unknown:
            raise ValueError(
                f"unknown claim labels {unknown}; choose from {', '.join(CLAIMS)}"
            )
        if not selected:
            raise ValueError(f"no claims selected; choose from {', '.join(CLAIMS)}")
    with ExitStack() as stack:
        run = map
        for n in range(first, last + 1):
            if run is map and workers > 1 and len(_cells(n)) > 1:
                # The pool's processes ignore Ctrl-C, so only this one
                # reports the interrupt.
                pool = stack.enter_context(
                    Pool(
                        workers,
                        initializer=signal.signal,
                        initargs=(signal.SIGINT, signal.SIG_IGN),
                    )
                )
                # Two cells a process: each finds its next cell queued, and
                # a failed first pass leaves at most this many behind it.
                run = partial(_windowed, pool, 2 * workers)
            yield _verify_size(n, selected, counterexample_limit, run)


def verify_all(
    n: int,
    *,
    max_n: int | None = None,
    workers: int = 1,
    counterexample_limit: int = 10,
    claims: Iterable[str] | None = None,
) -> VerificationReport:
    """Replay every claim exhaustively over all objects of size n.

    ``claims`` selects a subset of labels from :data:`CLAIMS`; by default
    everything runs, and an empty selection is rejected.  Every run walks
    the path stream as the size's cells.  ``workers`` = k > 1 runs them on
    a pool of k processes, if the size has more than one cell (n >= 6);
    otherwise this process walks them all.  The report is identical for
    any worker count because the cells are the same and are merged in
    stream order.
    Counterexamples are collected up to ``counterexample_limit`` per claim;
    failures beyond that are only counted.  ``workers`` must be at least 1
    and is capped at the CPU count; ``counterexample_limit`` must not be
    negative.
    """
    (report,) = _verify_sizes(n, n, max_n, workers, counterexample_limit, claims)
    return report


def verify_ladder(
    n: int,
    *,
    max_n: int | None = None,
    workers: int = 1,
    counterexample_limit: int = 10,
    claims: Iterable[str] | None = None,
) -> Iterator[VerificationReport]:
    """:func:`verify_all` for each size 1..n, yielding each report as it
    finishes; the arguments are checked before any size runs, and one
    process pool of ``workers`` processes, started at the first size that
    uses it, runs the cells of every size from there on."""
    return _verify_sizes(1, n, max_n, workers, counterexample_limit, claims)
