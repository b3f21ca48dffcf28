"""Partially directed paths confined to the symmetric wedge |y| <= x.

A path starts at the origin, uses unit east/north/south steps, never
reverses a vertical run (self-avoidance), stays inside the wedge, and ends
on the line y = -x after n east steps.  The canonical form is the height
sequence a_1..a_n of the east steps; the step string is a derived view.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidPathError, ParseError

__all__ = ["WedgePath", "concatenate_paths"]

# A step string: whole, and as maximal runs of one letter.
_STEP_TEXT = re.compile(r"[ENS]+")
_STEP_RUN = re.compile(r"E+|N+|S+")


@dataclass(frozen=True)
class WedgePath:
    """A wedge-confined path, canonically the heights of its east steps.

    The heights satisfy -(i-1) <= a_i <= i-1 (forcing a_1 = 0); the step
    sequence runs a monotone vertical segment to each height, then an east
    step, and finally descends from a_n to -n on the line x = n.

    >>> WedgePath((0, -1)).to_steps()
    'ESES'
    >>> WedgePath((0, 1)).north_steps()
    1
    """

    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        heights = tuple(self.heights)
        object.__setattr__(self, "heights", heights)
        if not heights:
            raise InvalidPathError("a wedge path needs at least one east step")
        for i, a in enumerate(heights, start=1):
            if not isinstance(a, int) or isinstance(a, bool):
                raise InvalidPathError(f"height at east step {i} is not an integer: {a!r}")
            if not -(i - 1) <= a <= i - 1:
                raise InvalidPathError(
                    f"height {a} at east step {i} is outside [{-(i - 1)}, {i - 1}]"
                )

    # -- construction ------------------------------------------------------

    @classmethod
    def parse_steps(cls, text: str) -> WedgePath:
        """Parse a step string over {E, N, S}, e.g. ``"ESESS"``.

        The walk must stay inside |y| <= x, never place an N next to an S,
        and end exactly at (n, -n) where n is the number of E characters.

        >>> WedgePath.parse_steps("ENESSS").heights
        (0, 1)
        """
        if not text:
            raise ParseError("empty step string")
        if not _STEP_TEXT.fullmatch(text):
            bad = sorted(set(text) - {"E", "N", "S"})
            raise ParseError(f"step string may only contain E, N, S; found {bad!r}")
        x = y = 0
        heights: list[int] = []
        for run in _STEP_RUN.finditer(text):
            start, end = run.span()
            ch, length = text[start], end - start
            if ch == "E":
                heights += [y] * length
                x += length
                continue
            if start and text[start - 1] != "E":
                raise InvalidPathError(f"vertical run reverses at step {start + 1}")
            # Step t of the run reaches y + sign * t, inside the wedge for
            # t <= x - sign * y.
            sign = 1 if ch == "N" else -1
            inside = x - sign * y
            if length > inside:
                raise InvalidPathError(
                    f"step {start + inside + 1} leaves the wedge: "
                    f"reaches ({x},{y + sign * (inside + 1)})"
                )
            y += sign * length
        n = len(heights)
        if n == 0 or (x, y) != (n, -n):
            raise InvalidPathError(
                f"path ends at ({x},{y}) instead of ({n},{-n}) on y = -x"
            )
        return cls(tuple(heights))

    @classmethod
    def from_height_text(cls, text: str) -> WedgePath:
        """Parse the comma-separated height form, e.g. ``"0,-1,0"``."""
        try:
            heights = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ParseError(f"malformed height list: {text!r}") from None
        return cls(heights)

    @classmethod
    def from_json_value(cls, value: object) -> WedgePath:
        """Build from the JSON array-of-heights form, e.g. ``[0, -1, 0]``."""
        if not isinstance(value, list):
            raise ParseError(f"expected a JSON array of heights, got {value!r}")
        return cls(tuple(value))

    # -- views -------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of east steps."""
        return len(self.heights)

    def to_steps(self) -> str:
        """The derived step string (canonical text form)."""
        return _steps(self.heights)

    def to_height_text(self) -> str:
        return ",".join(str(a) for a in self.heights)

    def to_json_value(self) -> list[int]:
        return list(self.heights)

    def points(self) -> list[tuple[int, int]]:
        """Lattice points visited, in order, starting at the origin."""
        pts = [(0, 0)]
        x = y = 0
        for ch in self.to_steps():
            if ch == "E":
                x += 1
            elif ch == "N":
                y += 1
            else:
                y -= 1
            pts.append((x, y))
        return pts

    def __str__(self) -> str:
        return self.to_steps()

    # -- statistics --------------------------------------------------------

    def north_steps(self) -> int:
        """Total rise: the sum of a_{i+1} - a_i over ascents."""
        return _north_steps(self.heights)

    def south_steps(self) -> int:
        a = self.heights
        inner = sum(c - b for c, b in zip(a, a[1:]) if b < c)
        return inner + self.final_south_run()

    def east_steps(self) -> int:
        return self.n

    def final_south_run(self) -> int:
        """Number of south steps on the line x = n (always >= 1)."""
        return _final_south_run(self.heights)

    def is_dyck(self) -> bool:
        """True when the path has no north steps (weakly decreasing heights)."""
        return self.north_steps() == 0

    def reversed_south_positions(self) -> set[int]:
        """For a Dyck path with steps s_1..s_2n: {i : s_{2n+1-i} is south}.

        These are exactly the left endpoints of the matching the path maps
        to.  Raises for non-Dyck paths (step count != 2n).
        """
        return _reversed_south_positions(self.heights)

    # -- components --------------------------------------------------------

    def components(self) -> list[WedgePath]:
        """The finest split at returns to y = -x, each piece re-based.

        A split after east step k requires the path to pass through
        (k, -k), i.e. a_{k+1} = -k, and the translated suffix to satisfy
        the wedge bound a_{k+j} + k <= j - 1 for all remaining j.
        """
        a = self.heights
        cuts = _cuts(a)
        return [
            WedgePath(tuple(h + lo for h in a[lo:hi]))
            for lo, hi in zip(cuts, cuts[1:])
        ]


def _steps(a: Sequence[int]) -> str:
    """:meth:`WedgePath.to_steps` of the heights ``a``; the harness runs the
    height kernels below, which the WedgePath views wrap, on bare tuples."""
    out: list[str] = []
    y = 0
    for h in a:
        out += [("N" if h > y else "S") * abs(h - y), "E"]
        y = h
    return "".join(out) + "S" * (y + len(a))


def _north_steps(a: Sequence[int]) -> int:
    return sum(b - c for c, b in zip(a, a[1:]) if b > c)


def _final_south_run(a: Sequence[int]) -> int:
    return a[-1] + len(a)


def _reversed_south_positions(a: Sequence[int]) -> set[int]:
    steps = _steps(a)
    total = 2 * len(a)
    if len(steps) != total:
        raise ValueError(
            f"path has {len(steps)} steps, not {total}; "
            "only Dyck paths can be read backwards this way"
        )
    return {total + 1 - j for j, ch in enumerate(steps, start=1) if ch == "S"}


def _cut_step(cuts: list[int], b1: int, k: int) -> list[int]:
    """The cut stack of a path's first k east steps from that of its first
    k - 1, where b1 = a_k + k; the list is changed in place and returned.

    The cut stack of heights a_1..a_k is 0 and the east steps after which
    :meth:`WedgePath.components` splits them, in increasing order.  In
    0-based indices the split after j needs a[j] = -j and a[i] - i <= -2j
    for all i >= j.  So the new height a[k-1] = b1 - k keeps exactly the
    splits j with 2j <= 2k - 1 - b1, a prefix of the stack, and adds the
    split k - 1 (0 at k = 1) when it lies on y = -x, that is, b1 = 1.
    """
    bound = 2 * k - 1 - b1
    while cuts and 2 * cuts[-1] > bound:
        cuts.pop()
    if b1 == 1:
        cuts.append(k - 1)
    return cuts


def _cuts(a: Sequence[int]) -> list[int]:
    """0, the east steps k after which :meth:`WedgePath.components` splits
    the heights ``a``, and n, in increasing order: the fold of
    :func:`_cut_step` over the heights, in O(n) as each split enters the
    stack once."""
    cuts: list[int] = []
    for k, h in enumerate(a, start=1):
        cuts = _cut_step(cuts, h + k, k)
    return cuts + [len(a)]


def concatenate_paths(pieces: Iterable[WedgePath]) -> WedgePath:
    """Chain paths end to start along y = -x; inverse of :meth:`components`."""
    heights: list[int] = []
    for piece in pieces:
        offset = len(heights)
        heights.extend(h - offset for h in piece.heights)
    return WedgePath(tuple(heights))
