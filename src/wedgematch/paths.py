"""Partially directed paths confined to the symmetric wedge |y| <= x.

A path starts at the origin, uses unit east/north/south steps, never
reverses a vertical run (self-avoidance), stays inside the wedge, and ends
on the line y = -x after n east steps.  The canonical form is the height
sequence a_1..a_n of the east steps; the step string is a derived view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidPathError, ParseError

__all__ = ["WedgePath", "concatenate_paths"]


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
        bad = set(text) - {"E", "N", "S"}
        if bad:
            raise ParseError(
                f"step string may only contain E, N, S; found {sorted(bad)!r}"
            )
        x = y = 0
        heights: list[int] = []
        for i, (ch, prev) in enumerate(zip(text, " " + text), start=1):
            if ch == "E":
                heights.append(y)
                x += 1
            elif ch == "N":
                if prev == "S":
                    raise InvalidPathError(f"vertical run reverses at step {i}")
                y += 1
            else:
                if prev == "N":
                    raise InvalidPathError(f"vertical run reverses at step {i}")
                y -= 1
            if abs(y) > x:
                raise InvalidPathError(
                    f"step {i} leaves the wedge: reaches ({x},{y})"
                )
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
        out: list[str] = []
        y = 0
        for a in self.heights:
            out.append(("N" if a > y else "S") * abs(a - y))
            out.append("E")
            y = a
        out.append("S" * (y + self.n))
        return "".join(out)

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
        a = self.heights
        return sum(b - c for c, b in zip(a, a[1:]) if b > c)

    def south_steps(self) -> int:
        a = self.heights
        inner = sum(c - b for c, b in zip(a, a[1:]) if b < c)
        return inner + self.final_south_run()

    def east_steps(self) -> int:
        return self.n

    def final_south_run(self) -> int:
        """Number of south steps on the line x = n (always >= 1)."""
        return self.heights[-1] + self.n

    def is_dyck(self) -> bool:
        """True when the path has no north steps (weakly decreasing heights)."""
        return self.north_steps() == 0

    def reversed_south_positions(self) -> set[int]:
        """For a Dyck path with steps s_1..s_2n: {i : s_{2n+1-i} is south}.

        These are exactly the left endpoints of the matching the path maps
        to.  Raises for non-Dyck paths (step count != 2n).
        """
        steps = self.to_steps()
        if len(steps) != 2 * self.n:
            raise ValueError(
                f"path has {len(steps)} steps, not {2 * self.n}; "
                "only Dyck paths can be read backwards this way"
            )
        total = 2 * self.n
        return {total + 1 - j for j, ch in enumerate(steps, start=1) if ch == "S"}

    # -- components --------------------------------------------------------

    def components(self) -> list[WedgePath]:
        """The finest split at returns to y = -x, each piece re-based.

        A split after east step k requires the path to pass through
        (k, -k), i.e. a_{k+1} = -k, and the translated suffix to satisfy
        the wedge bound a_{k+j} + k <= j - 1 for all remaining j.
        """
        a = self.heights
        n = self.n
        cuts = [0]
        for k in range(1, n):
            if a[k] != -k:
                continue
            if all(a[k + j - 1] + k <= j - 1 for j in range(1, n - k + 1)):
                cuts.append(k)
        cuts.append(n)
        return [
            WedgePath(tuple(h + lo for h in a[lo:hi]))
            for lo, hi in zip(cuts, cuts[1:])
        ]


def concatenate_paths(pieces: Iterable[WedgePath]) -> WedgePath:
    """Chain paths end to start along y = -x; inverse of :meth:`components`."""
    heights: list[int] = []
    for piece in pieces:
        offset = len(heights)
        heights.extend(h - offset for h in piece.heights)
    return WedgePath(tuple(heights))
