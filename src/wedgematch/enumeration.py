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
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from multiprocessing import Pool
from typing import Callable, ClassVar, Iterable, Iterator

from .bijections import (
    InsertionCode,
    _code_from_heights,
    _code_from_partner,
    _partner_from_code,
    _phi_inv_code,
    _phi_inv_partner,
    _phi_of_code,
    _phi_partner,
    path_from_code,
)
from .errors import OverCapError
from .matching import Matching, _arc_counts, _blocks, _check_partner, _st_total, _stacking
from .paths import WedgePath

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


def _require_within_cap(n: int, max_n: int | None) -> None:
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
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
# Both families of size n are products of per-coordinate ranges, i = 1..n:
# a path is its heights a_i in [-(i-1), i-1], a matching its insertion code
# b_i in [1, 2(n-i)+1].  Per family: the range of coordinate i, the object
# built from all n coordinates (a matching as its partner tuple, checked as
# Matching checks it), and how many leading coordinates one cell of the
# verification harness fixes (a_1 has a single value, so a path cell fixes
# four).

_FAMILIES: dict[str, tuple[Callable[[int, int], range], Callable, int]] = {
    "paths": (lambda n, i: range(-(i - 1), i), WedgePath, 4),
    "matchings": (lambda n, i: range(1, 2 * (n - i) + 2),
                  lambda b: _check_partner(_partner_from_code(b)), 2),
}


def _objects(
    family: str, n: int, prefix: tuple[int, ...] = ()
) -> Iterator[tuple[tuple[int, ...], object]]:
    """(coordinates, object) for every object of the family whose
    coordinates start with ``prefix``, lexicographic in the rest."""
    coordinate_range, build, _ = _FAMILIES[family]
    ranges = [range(c, c + 1) for c in prefix]
    ranges += [coordinate_range(n, i) for i in range(len(prefix) + 1, n + 1)]
    for coordinates in itertools.product(*ranges):
        yield coordinates, build(coordinates)


def _cells(family: str, n: int) -> list[tuple[int, ...]]:
    """Partition of the family by its leading coordinates, in stream order."""
    coordinate_range, _, depth = _FAMILIES[family]
    ranges = [coordinate_range(n, i) for i in range(1, min(depth, n) + 1)]
    return list(itertools.product(*ranges))


def all_paths(n: int) -> Iterator[WedgePath]:
    """All wedge paths with n east steps, lexicographic in their heights."""
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
    for _, path in _objects("paths", n):
        yield path


def all_matchings(n: int) -> Iterator[Matching]:
    """All matchings on [2n], lexicographic in their insertion codes."""
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
    for _, partner in _objects("matchings", n):
        yield Matching(partner)


# -- distribution tables ------------------------------------------------------

# Each statistic with the family it is counted over.
_STATISTICS: dict[str, tuple[str, Callable]] = {
    "north_steps": ("paths", WedgePath.north_steps),
    "nestings": ("matchings", lambda partner: _arc_counts(partner)[1]),
    "crossings": ("matchings", lambda partner: _arc_counts(partner)[0]),
    "st_total": ("matchings", _st_total),
}
STATISTICS = tuple(_STATISTICS)


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
            raise ValueError(
                f"counts sum to {total}, expected (2n-1)!! = {expected}"
            )

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

    >>> distribution(2, "nestings").to_text()
    '0:2 1:1'
    """
    _require_within_cap(n, max_n)
    if statistic not in _STATISTICS:
        raise ValueError(
            f"unknown statistic {statistic!r}; choose from {', '.join(STATISTICS)}"
        )
    family, fn = _STATISTICS[statistic]
    counts = Counter(fn(obj) for _, obj in _objects(family, n))
    return DistributionTable(n=n, statistic=statistic, counts=dict(counts))


# -- verification harness ------------------------------------------------------


class _PathFacts:
    """A streamed path and the values its claims read, each computed once:
    the code ``b`` and the partner tuples of ``psi`` and ``big_phi`` of it."""

    def __init__(self, heights: tuple[int, ...], path: WedgePath) -> None:
        self.path = path
        self.north = path.north_steps()
        self.b = _code_from_heights(heights)
        self.m = _partner_from_code(self.b)
        self.nm = _phi_of_code(self.b)

    def __str__(self) -> str:
        return f"P={self.path.to_steps()}"


class _MatchingFacts:
    """A streamed partner tuple with its insertion code; phi of it on first use."""

    def __init__(self, code: tuple[int, ...], m: tuple[int, ...]) -> None:
        self.code = code
        self.m = m

    @cached_property
    def fm(self) -> tuple[int, ...]:
        return _phi_of_code(self.code)

    def __str__(self) -> str:
        return f"M={Matching(self.m)}"


# The facts of each family, built from a streamed (coordinates, object).
_FACTS = {"paths": _PathFacts, "matchings": _MatchingFacts}

# Per-object checks: None on a pass, else the counterexample detail.  They run
# the public maps' kernels on the facts' tuples; objects only write the detail.


def _round_trip_psi(f: _PathFacts) -> str | None:
    back = _code_from_partner(f.m)
    return None if back == f.b else f"comes back as {path_from_code(InsertionCode(back))}"


def _round_trip_big_phi(f: _PathFacts) -> str | None:
    back = _code_from_partner(_phi_inv_partner(f.nm))
    return None if back == f.b else f"comes back as {path_from_code(InsertionCode(back))}"


def _lemma1(f: _PathFacts) -> str | None:
    b = f.b
    per_index_ok = _stacking(f.m) == [max(b[i - 1] - b[i] - 1, 0) for i in range(1, len(b))]
    st = _st_total(f.m)
    if st == f.north and per_index_ok:
        return None
    return f"north={f.north} stacking={st} indexwise_ok={per_index_ok}"


def _theorem1(f: _PathFacts) -> str | None:
    ne = _arc_counts(f.nm)[1]
    return None if ne == f.north else f"north={f.north} nestings={ne}"


def _proposition_a(f: _PathFacts) -> str | None:
    mate = f.nm[0]
    run = f.path.final_south_run()
    return None if mate == run + 1 else f"south_run={run} partner_of_1={mate}"


def _proposition_b(f: _PathFacts) -> str | None:
    path_sizes = [c.n for c in f.path.components()][::-1]
    image_sizes = [len(block) // 2 for _, block in _blocks(f.nm)]
    piecewise = tuple(v + s for s, block in _blocks(f.m) for v in _phi_partner(block))
    if path_sizes == image_sizes and piecewise == f.nm:
        return None
    return (
        f"path_sizes(rev)={path_sizes} image_sizes={image_sizes} "
        f"piecewise={Matching(piecewise)} global={Matching(f.nm)}"
    )


def _dyck_proposition(f: _PathFacts) -> str | None:
    if not f.path.is_dyck():
        return None
    nm = f.nm
    ne = _arc_counts(nm)[1]
    lefts = {v for v, w in enumerate(nm, start=1) if v < w}
    expected = f.path.reversed_south_positions()
    if ne == 0 and lefts == expected and nm == f.m:
        return None
    return (
        f"nestings={ne} lefts={sorted(lefts)} "
        f"expected={sorted(expected)} fixed={nm == f.m}"
    )


def _round_trip_psi_inv(f: _MatchingFacts) -> str | None:
    back = _partner_from_code(_code_from_partner(f.m))
    return None if back == f.m else f"comes back as {Matching(back)}"


def _round_trip_phi(f: _MatchingFacts) -> str | None:
    back = _phi_inv_partner(f.fm)
    return None if back == f.m else f"comes back as {Matching(back)}"


def _round_trip_phi_inv(f: _MatchingFacts) -> str | None:
    back = _phi_of_code(_phi_inv_code(f.m))
    return None if back == f.m else f"comes back as {Matching(back)}"


def _theorem2(f: _MatchingFacts) -> str | None:
    st = _st_total(f.m)
    ne = _arc_counts(f.fm)[1]
    same_first = f.fm[0] == f.m[0]
    if ne == st and same_first:
        return None
    return f"stacking={st} nestings={ne} first_edge_kept={same_first}"


# Whole-stream checks: (values tested, failure details).


def _cardinality(n: int, tables: dict) -> tuple[int, list[str]]:
    (count,) = tables.values()
    expected = double_factorial(n)
    if count == expected:
        return count, []
    return count, [f"stream yielded {count} objects, expected {expected}"]


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

    A claim whose ``family`` is ``"paths"`` or ``"matchings"`` is checked
    object by object: ``check`` gets the object's shared facts and returns
    None on a pass or the counterexample detail on a failure, so detail
    text is built only for failures.  Otherwise ``family`` names the
    whole-stream tables the claim compares (``"paths"``/``"matchings"``
    for a stream's object count, a statistic name for its distribution),
    and ``check(n, tables)`` returns the number of values tested and the
    failure details.
    """

    label: str
    family: str | tuple[str, ...]
    check: Callable
    description: str


# Descriptions state what is replayed over the full streams.
_REGISTRY = (
    Claim(
        "cardinality_paths",
        ("paths",),
        _cardinality,
        "the path stream yields exactly (2n-1)!! objects",
    ),
    Claim(
        "cardinality_matchings",
        ("matchings",),
        _cardinality,
        "the matching stream yields exactly (2n-1)!! objects",
    ),
    Claim(
        "round_trip_psi",
        "paths",
        _round_trip_psi,
        "decoding undoes the insertion map on every path",
    ),
    Claim(
        "round_trip_psi_inv",
        "matchings",
        _round_trip_psi_inv,
        "the insertion map undoes decoding on every matching",
    ),
    Claim(
        "round_trip_phi",
        "matchings",
        _round_trip_phi,
        "the inverse rearrangement undoes the rearrangement",
    ),
    Claim(
        "round_trip_phi_inv",
        "matchings",
        _round_trip_phi_inv,
        "the rearrangement undoes the inverse rearrangement",
    ),
    Claim(
        "round_trip_big_phi",
        "paths",
        _round_trip_big_phi,
        "the full inverse undoes the full bijection on every path",
    ),
    Claim(
        "lemma1",
        "paths",
        _lemma1,
        "north steps equal the insertion image's stacking statistic, "
        "indexwise per the code-difference formula",
    ),
    Claim(
        "theorem2",
        "matchings",
        _theorem2,
        "the rearrangement turns the stacking statistic into the "
        "nesting count and keeps the first edge in place",
    ),
    Claim(
        "theorem1",
        "paths",
        _theorem1,
        "the full bijection sends the north-step count to the nesting count",
    ),
    Claim(
        "proposition_a",
        "paths",
        _proposition_a,
        "the final south run k pairs vertex 1 with k+1 in the image",
    ),
    Claim(
        "proposition_b",
        "paths",
        _proposition_b,
        "path components, read backwards, match the image's "
        "components, and the rearrangement acts componentwise",
    ),
    Claim(
        "dyck_proposition",
        "paths",
        _dyck_proposition,
        "north-free paths map to nesting-free matchings whose "
        "left endpoints read off the reversed steps",
    ),
    Claim(
        "distribution_north_nestings",
        ("north_steps", "nestings"),
        _equidistributed,
        "north steps and nestings are equidistributed",
    ),
    Claim(
        "distribution_nestings_crossings",
        ("nestings", "crossings"),
        _equidistributed,
        "nestings and crossings are equidistributed",
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
    """One unit of work: the objects of one family whose first coordinates
    are ``prefix``, the per-object claims replayed over them and the
    statistics counted over them."""

    n: int
    family: str
    prefix: tuple[int, ...]
    labels: tuple[str, ...]
    statistics: tuple[str, ...]
    limit: int


def _run_cell(cell: _Cell) -> tuple[int, dict[str, list], dict[str, Counter]]:
    """Worker body: the cell's object count, [failed, examples] per claim
    label, and a Counter per statistic.  Plain values, so the result can
    cross a process boundary."""
    checks = [(label, _CLAIMS_BY_LABEL[label].check) for label in cell.labels]
    failures: dict[str, list] = {label: [0, []] for label in cell.labels}
    counters = {name: Counter() for name in cell.statistics}
    statistics = [(_STATISTICS[name][1], counters[name]) for name in cell.statistics]

    facts = _FACTS[cell.family]
    count = 0
    for coordinates, obj in _objects(cell.family, cell.n, cell.prefix):
        count += 1
        for fn, counter in statistics:
            counter[fn(obj)] += 1
        if not checks:
            continue
        f = facts(coordinates, obj)
        for label, check in checks:
            detail = check(f)
            if detail is not None:
                slot = failures[label]
                slot[0] += 1
                if len(slot[1]) < cell.limit:
                    slot[1].append(f"{f}: {detail}")
    return count, failures, counters


def _verify_size(n: int, selected: list[str], limit: int, pool) -> VerificationReport:
    """Replay the selected claims over all objects of size n."""
    started = time.perf_counter()
    chosen = [claim for claim in _REGISTRY if claim.label in selected]
    tables_read = {
        name for claim in chosen if isinstance(claim.family, tuple) for name in claim.family
    }
    cells = []
    for family in _FAMILIES:
        labels = tuple(claim.label for claim in chosen if claim.family == family)
        statistics = tuple(
            name
            for name, (counted_over, _) in _STATISTICS.items()
            if counted_over == family and name in tables_read
        )
        if labels or statistics or family in tables_read:
            cells += [
                _Cell(n, family, prefix, labels, statistics, limit)
                for prefix in _cells(family, n)
            ]

    if pool is not None and len(cells) > 1:
        results = pool.map(_run_cell, cells)
    else:
        results = [_run_cell(cell) for cell in cells]

    tables: dict = {"paths": 0, "matchings": 0}
    failed: Counter = Counter()
    examples: dict[str, list[str]] = {claim.label: [] for claim in chosen}
    for cell, (count, failures, counters) in zip(cells, results):
        tables[cell.family] += count
        for label, (cell_failed, cell_examples) in failures.items():
            failed[label] += cell_failed
            examples[label].extend(cell_examples[: limit - len(examples[label])])
        for name, counter in counters.items():
            tables.setdefault(name, Counter()).update(counter)

    outcomes = []
    for claim in chosen:
        if isinstance(claim.family, tuple):
            tested, details = claim.check(n, {name: tables[name] for name in claim.family})
            outcome = ClaimResult(claim.label, tested, len(details), tuple(details[:limit]))
        else:
            outcome = ClaimResult(
                claim.label,
                tables[claim.family],
                failed[claim.label],
                tuple(examples[claim.label]),
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
    first..last as it finishes.  With more than one worker, one process
    pool serves every size."""
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
    # Workers ignore Ctrl-C, so only this process reports the interrupt.
    with (
        Pool(workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
        if workers > 1
        else nullcontext()
    ) as pool:
        for n in range(first, last + 1):
            yield _verify_size(n, selected, counterexample_limit, pool)


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
    everything runs, and an empty selection is rejected.  ``workers`` > 1
    fans the stream cells out over a process pool; the report is identical
    for any worker count because the cells are merged in a fixed order.
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
    process pool serves every size."""
    return _verify_sizes(1, n, max_n, workers, counterexample_limit, claims)
