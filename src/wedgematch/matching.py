"""Perfect matchings on [2n] and their arc statistics.

A matching is stored as an involution table: ``partner[v - 1]`` is the
vertex matched to ``v``.  Vertices are numbered 1..2n from left to right,
and the derived edge list is kept sorted by left endpoint.  All values are
immutable; every operation returns fresh objects.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InvalidMatchingError, ParseError

__all__ = [
    "Edge",
    "Matching",
    "PairRelation",
    "classify_pair",
    "concatenate",
]


class PairRelation(enum.Enum):
    """The three mutually exclusive relations of two arcs."""

    CROSSING = "crossing"
    NESTING = "nesting"
    ALIGNMENT = "alignment"


class Edge(NamedTuple):
    """An arc between two vertices, normalized so ``left < right``."""

    left: int
    right: int


def classify_pair(e: Edge, f: Edge) -> PairRelation:
    """Classify two distinct edges as crossing, nesting, or alignment.

    With the edges ordered so that ``e.left < f.left``, the pair crosses
    when ``e.left < f.left < e.right < f.right``, nests when
    ``e.left < f.left < f.right < e.right``, and aligns otherwise.

    >>> classify_pair(Edge(2, 7), Edge(4, 6))
    <PairRelation.NESTING: 'nesting'>
    >>> classify_pair(Edge(1, 3), Edge(2, 7))
    <PairRelation.CROSSING: 'crossing'>
    >>> classify_pair(Edge(1, 3), Edge(9, 10))
    <PairRelation.ALIGNMENT: 'alignment'>
    """
    if e == f:
        raise ValueError(f"cannot classify an edge against itself: {e}")
    if e.left > f.left:
        e, f = f, e
    if e.left < f.left < e.right < f.right:
        return PairRelation.CROSSING
    if e.left < f.left < f.right < e.right:
        return PairRelation.NESTING
    return PairRelation.ALIGNMENT


_PAIR_TEXT = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


@dataclass(frozen=True)
class Matching:
    """A perfect matching on [2n], held as a fixed-point-free involution.

    ``partner`` has length 2n and maps each vertex (1-based) to its mate:
    ``partner[v - 1]`` is the vertex matched to ``v``.  The empty matching
    (n = 0) is accepted and has all statistics equal to zero.
    """

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(self.partner)
        object.__setattr__(self, "partner", table)
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
                raise InvalidMatchingError(
                    f"partner table is not an involution at vertex {v1}"
                )

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
        pairs = [(int(a), int(b)) for a, b in _PAIR_TEXT.findall(stripped)]
        if _PAIR_TEXT.sub("", stripped).strip(",") != "":
            raise ParseError(f"malformed matching text: {text!r}")
        if not pairs and stripped != "":
            raise ParseError(f"malformed matching text: {text!r}")
        return cls.from_pairs(pairs)

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
        """(crossings, nestings, alignments) in one left-to-right sweep.

        ``open_rights`` holds, sorted, the right endpoints of the arcs
        opened so far and not yet closed.  An arc (v, w) opening at v
        crosses each open arc that closes before w and nests under each
        one that closes after w.
        """
        n = self.n
        cr = ne = 0
        open_rights: list[int] = []
        for v, w in enumerate(self.partner, start=1):
            if v < w:
                k = bisect_left(open_rights, w)
                cr += k
                ne += len(open_rights) - k
                open_rights.insert(k, w)
            else:
                # Every other open arc closes after v, so v is the least.
                del open_rights[0]
        return cr, ne, n * (n - 1) // 2 - cr - ne

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

    def nestings_below(self, e: Edge) -> int:
        """Count edges nested strictly below ``e``."""
        a, b = e
        if not (1 <= a <= 2 * self.n) or self.partner[a - 1] != b or a >= b:
            raise ValueError(f"edge {e} is not in this matching")
        return sum(1 for c, d in self.edges if a < c < d < b)

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
        return sum(
            1
            for edge in edges[i:]
            for v in edge
            if d <= v <= b
        )

    def st_total(self) -> int:
        """Total stacking statistic: sum of st_component over i = 1..n-1.

        Computed in one sweep over consecutive left endpoints a < c with
        mates b and d.  The pair is nested exactly when d < b.  Of the
        window [d, b] it then counts d and every vertex strictly between d
        and b, except those whose mate lies left of a (their edge comes
        before e_i); b belongs to e_i and is not counted.

        >>> Matching.from_pairs([(1, 6), (2, 5), (3, 4)]).st_total()
        2
        """
        partner = self.partner
        total = 0
        a = b = 0
        for c, d in enumerate(partner, start=1):
            if c > d:
                continue
            if d < b:
                total += b - d - sum(1 for p in partner[d : b - 1] if p < a)
            a, b = c, d
        return total

    # -- components --------------------------------------------------------

    def irreducible_components(self) -> list[tuple[int, Matching]]:
        """The finest split of [2n] into consecutive self-matched blocks.

        Returns ``(offset, component)`` pairs in left-to-right order; each
        component is renumbered to start at vertex 1, and concatenating the
        components reproduces this matching.
        """
        components: list[tuple[int, Matching]] = []
        start = 0
        reach = 0
        for v in range(1, 2 * self.n + 1):
            reach = max(reach, self.partner[v - 1])
            if reach == v:
                block = tuple(p - start for p in self.partner[start:v])
                components.append((start, Matching(block)))
                start = v
        return components

    def is_irreducible(self) -> bool:
        return self.n > 0 and len(self.irreducible_components()) == 1


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
