"""Perfect matchings on [2n] and their arc statistics.

A matching is stored as an involution table: ``partner[v - 1]`` is the
vertex matched to ``v``.  Vertices are numbered 1..2n from left to right,
and the derived edge list is kept sorted by left endpoint.  All values are
immutable; every operation returns fresh objects.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidMatchingError, ParseError

__all__ = ["Edge", "Matching", "concatenate"]


class Edge(NamedTuple):
    """An arc between two vertices, normalized so ``left < right``."""

    left: int
    right: int


# Matched against the text with all whitespace removed.
_PAIR_TEXT = re.compile(r"\((\d+),(\d+)\)")
_MATCHING_TEXT = re.compile(r"\(\d+,\d+\)(?:,\(\d+,\d+\))*")


@dataclass(frozen=True)
class Matching:
    """A perfect matching on [2n], held as a fixed-point-free involution.

    ``partner`` has length 2n and maps each vertex (1-based) to its mate:
    ``partner[v - 1]`` is the vertex matched to ``v``.  The empty matching
    (n = 0) is accepted and has all statistics equal to zero.
    """

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "partner", _check_partner(tuple(self.partner)))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], n: int | None = None) -> Matching:
        """Build a matching from vertex pairs, normalizing each to left < right.

        >>> Matching.from_pairs([(1, 3), (2, 7), (4, 6), (5, 8), (9, 10)]).n
        5
        """
        pair_list = [tuple(p) for p in pairs]
        if n is None:
            n = len(pair_list)
        if len(pair_list) != n:
            raise InvalidMatchingError(f"expected {n} pairs, got {len(pair_list)}")
        table = [0] * (2 * n)
        for pair in pair_list:
            if len(pair) != 2:
                raise InvalidMatchingError(f"not a vertex pair: {pair!r}")
            a, b = pair
            for v in (a, b):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InvalidMatchingError(f"vertex is not an integer: {v!r}")
                if not 1 <= v <= 2 * n:
                    raise InvalidMatchingError(f"vertex {v} out of range 1..{2 * n}")
            if a == b:
                raise InvalidMatchingError(f"pair ({a},{b}) repeats vertex {a}")
            for v in (a, b):
                if table[v - 1] != 0:
                    raise InvalidMatchingError(f"vertex {v} used twice")
            table[a - 1], table[b - 1] = b, a
        return cls(tuple(table))

    @classmethod
    def from_text(cls, text: str) -> Matching:
        """Parse the comma-separated pair form, e.g. ``"(1,3),(2,7)"``.

        Whitespace is ignored anywhere.  Raises :class:`ParseError` when the
        text does not scan and :class:`InvalidMatchingError` when the pairs
        do not form a matching.
        """
        stripped = re.sub(r"\s+", "", text)
        if stripped and not _MATCHING_TEXT.fullmatch(stripped):
            raise ParseError(f"malformed matching text: {text!r}")
        return cls.from_pairs((int(a), int(b)) for a, b in _PAIR_TEXT.findall(stripped))

    @classmethod
    def from_json_value(cls, value: object) -> Matching:
        """Build from the JSON array-of-pairs form, e.g. ``[[1, 3], [2, 4]]``."""
        if not isinstance(value, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in value
        ):
            raise ParseError(f"expected a JSON array of vertex pairs, got {value!r}")
        return cls.from_pairs([(p[0], p[1]) for p in value])

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.partner) // 2

    def partner_of(self, v: int) -> int:
        if not 1 <= v <= 2 * self.n:
            raise ValueError(f"vertex {v} out of range 1..{2 * self.n}")
        return self.partner[v - 1]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Edges sorted by left endpoint (ascending, hence e_1, ..., e_n)."""
        return tuple(
            Edge(v, p)
            for v, p in enumerate(self.partner, start=1)
            if v < p
        )

    @property
    def first_edge(self) -> Edge:
        if self.n == 0:
            raise ValueError("the empty matching has no edges")
        return self.edges[0]

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        """Canonical text form: pairs sorted by left endpoint, no spaces.

        >>> Matching.from_pairs([(3, 1), (2, 4)]).to_text()
        '(1,3),(2,4)'
        """
        return ",".join(f"({a},{b})" for a, b in self.edges)

    def to_json_value(self) -> list[list[int]]:
        return [[a, b] for a, b in self.edges]

    # -- arc statistics ----------------------------------------------------

    @cached_property
    def _relation_counts(self) -> tuple[int, int, int]:
        return _arc_counts(self.partner)

    def crossings(self) -> int:
        """Number of crossing pairs of edges."""
        return self._relation_counts[0]

    def nestings(self) -> int:
        """Number of nesting pairs of edges.

        >>> Matching.from_pairs([(1, 3), (2, 7), (4, 6), (5, 8), (9, 10)]).nestings()
        1
        """
        return self._relation_counts[1]

    def alignments(self) -> int:
        """Number of aligned pairs of edges."""
        return self._relation_counts[2]

    def st_component(self, i: int) -> int:
        """Stacking contribution of the consecutive edge pair (e_i, e_{i+1}).

        When e_i = (a, b) and e_{i+1} = (c, d) are nested, this counts the
        endpoints of later edges e_k (k > i) lying in the closed window
        [d, b]; both endpoints of such an edge count.  The result is zero
        when the pair is crossed or aligned, and at least one when nested
        (d itself always qualifies).
        """
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"index {i} out of range 1..{self.n - 1}")
        edges = self.edges
        a, b = edges[i - 1]
        c, d = edges[i]
        if not (a < c < d < b):
            return 0
        return sum(d <= v <= b for edge in edges[i:] for v in edge)

    def st_total(self) -> int:
        """Total stacking statistic: sum of st_component over i = 1..n-1.

        >>> Matching.from_pairs([(1, 6), (2, 5), (3, 4)]).st_total()
        2
        """
        return sum(_stacking(self.partner))

    # -- components --------------------------------------------------------

    def irreducible_components(self) -> list[tuple[int, Matching]]:
        """The finest split of [2n] into consecutive self-matched blocks.

        Returns ``(offset, component)`` pairs in left-to-right order; each
        component is renumbered to start at vertex 1, and concatenating the
        components reproduces this matching.
        """
        return [(start, Matching(block)) for start, block in _blocks(self.partner)]


def concatenate(parts: Iterable[Matching]) -> Matching:
    """Place matchings side by side on a common vertex line.

    Inverse of :meth:`Matching.irreducible_components` (up to the finest
    re-splitting): concatenating the components of M reproduces M.
    """
    table: list[int] = []
    for part in parts:
        offset = len(table)
        table.extend(p + offset for p in part.partner)
    return Matching(tuple(table))


def _check_partner(table: tuple[int, ...]) -> tuple[int, ...]:
    """Return ``table`` if it is a fixed-point-free involution of 1..len."""
    size = len(table)
    if size % 2 != 0:
        raise InvalidMatchingError(f"partner table has odd length {size}")
    for v1, p in enumerate(table, start=1):
        if not isinstance(p, int) or isinstance(p, bool):
            raise InvalidMatchingError(f"partner of {v1} is not an integer: {p!r}")
        if not 1 <= p <= size:
            raise InvalidMatchingError(f"vertex {p} out of range 1..{size}")
        if p == v1:
            raise InvalidMatchingError(f"vertex {v1} is matched to itself")
        if table[p - 1] != v1:
            raise InvalidMatchingError(f"partner table is not an involution at vertex {v1}")
    return table


def _closes_unopened(partner: Sequence[int]) -> InvalidMatchingError:
    """The error of a left-to-right sweep that meets a vertex v with a mate
    w < v while no arc is open: ``partner`` is then no matching."""
    return InvalidMatchingError(f"partner table closes an arc it never opened: {tuple(partner)}")


def _arc_counts(partner: tuple[int, ...]) -> tuple[int, int, int]:
    """(crossings, nestings, alignments) in one left-to-right sweep.

    ``open_rights`` holds, sorted, the right endpoints of the arcs opened
    so far and not yet closed.  An arc (v, w) opening at v crosses each
    open arc that closes before w and nests under each one that closes
    after w.
    """
    n = len(partner) // 2
    cr = ne = 0
    open_rights: list[int] = []
    try:
        for v, w in enumerate(partner, start=1):
            if v < w:
                k = bisect_left(open_rights, w)
                cr += k
                ne += len(open_rights) - k
                open_rights.insert(k, w)
            else:
                # Every other open arc closes after v, so v is the least.
                del open_rights[0]
    except IndexError:
        raise _closes_unopened(partner) from None
    return cr, ne, n * (n - 1) // 2 - cr - ne


def _stacking(partner: tuple[int, ...]) -> list[int]:
    """``st_component(i)`` for i = 1..n-1, in one sweep.

    The sweep meets consecutive left endpoints a < c with mates b and d.
    The pair is nested exactly when d < b.  Of the window [d, b] it then
    counts d and every vertex strictly between d and b, except those
    whose mate lies left of a (their edge comes before e_i); b belongs to
    e_i and is not counted.  Those excepted vertices are the right
    endpoints in (d, b) of the arcs still open when c is reached, as the
    only left endpoint in [a, c) is a; the sweep keeps them sorted, as
    :func:`_arc_counts` does.
    """
    values: list[int] = []
    b = 0
    open_rights: list[int] = []
    try:
        for c, d in enumerate(partner, start=1):
            if c > d:
                del open_rights[0]
                continue
            k = bisect_left(open_rights, d)
            if b:
                values.append(b - d - (bisect_left(open_rights, b) - k) if d < b else 0)
            open_rights.insert(k, d)
            b = d
    except IndexError:
        raise _closes_unopened(partner) from None
    return values


def _first_stacking(partner: Sequence[int]) -> int:
    """``st_component(1)`` read off vertices 1 and 2 (n >= 1): the first
    edges (1, b) and (2, d) nest when 2 < d < b, and the window [d, b] then
    holds b - d endpoints of edges after the first: all its vertices but b."""
    b, d = partner[0], partner[1]
    return b - d if 2 < d < b else 0


def _sweep(partner: tuple[int, ...]) -> tuple[int, ...]:
    """The insertion code of ``partner``, in one left-to-right sweep: the
    one code read, which ``psi_inv``, ``phi`` and the harness run.

    Insertion step i connects the i-th left endpoint v to its mate w, at
    position b_i among the vertices still free (v at 0).  The vertices of
    (v, w) taken by earlier steps are the right endpoints before w of the
    arcs open at v, so b_i = w - v - k, where w enters ``open_rights`` at
    slot k.
    """
    code: list[int] = []
    open_rights: list[int] = []
    try:
        for v, w in enumerate(partner, start=1):
            if v > w:
                del open_rights[0]
                continue
            k = bisect_left(open_rights, w)
            code.append(w - v - k)
            open_rights.insert(k, w)
    except IndexError:
        raise _closes_unopened(partner) from None
    return tuple(code)


def _block_end(partner: Sequence[int], start: int) -> int:
    """The vertex that ends the irreducible block of ``partner`` opening
    right after vertex ``start``: the first vertex past ``start`` by which
    every arc opened past ``start`` closes, or 0 if no vertex is.  It reads
    only the block's own vertices, and shifting them all by s shifts the
    answer by s."""
    reach = start
    for v in range(start + 1, len(partner) + 1):
        w = partner[v - 1]
        if w > reach:
            reach = w
        elif reach == v:
            return v
    return 0


def _blocks(partner: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """The irreducible blocks as (offset, partner tuple renumbered from 1):
    the fold of :func:`_block_end` from vertex 0."""
    blocks = []
    start = 0
    while end := _block_end(partner, start):
        blocks.append((start, tuple([u - start for u in partner[start:end]])))
        start = end
    return blocks
