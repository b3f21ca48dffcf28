"""Exhaustive generators, distribution tables, and the verification harness.

Everything here is exact integer combinatorics at desk scale: both object
families of size n have (2n-1)!! members, generated as streams with O(n)
memory per object.  ``verify_all`` replays every claimed identity over the
full families and reports per-claim tallies with verbatim counterexamples.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator

from .bijections import insertion_code, phi, phi_inv, psi, psi_inv
from .errors import OverCapError
from .matching import Matching, concatenate
from .paths import WedgePath

__all__ = [
    "CLAIMS",
    "ClaimResult",
    "DEFAULT_MAX_N",
    "DistributionTable",
    "ENV_MAX_N",
    "VerificationReport",
    "all_matchings",
    "all_paths",
    "distribution",
    "double_factorial",
    "resolve_cap",
    "verify_all",
]

DEFAULT_MAX_N = 7
ENV_MAX_N = "WEDGEMATCH_MAX_N"
REPORT_FORMAT_VERSION = 1


def resolve_cap(max_n: int | None = None) -> int:
    """The enumeration cap: explicit argument, else $WEDGEMATCH_MAX_N, else 7."""
    if max_n is not None:
        return max_n
    env = os.environ.get(ENV_MAX_N)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_MAX_N} must be an integer, got {env!r}") from None
    return DEFAULT_MAX_N


def _require_within_cap(n: int, max_n: int | None) -> None:
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
    cap = resolve_cap(max_n)
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


def all_paths(n: int) -> Iterator[WedgePath]:
    """All wedge paths with n east steps, lexicographic in their heights."""
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
    ranges = [range(-(i - 1), i) for i in range(1, n + 1)]
    for heights in itertools.product(*ranges):
        yield WedgePath(heights)


def all_matchings(n: int) -> Iterator[Matching]:
    """All matchings on [2n], lexicographic in successive partner choices."""
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")
    yield from _matchings_with_forced_choices(n, ())


def _matchings_with_forced_choices(n: int, forced: tuple[int, ...]) -> Iterator[Matching]:
    """Enumerate matchings whose first partner choices match ``forced``.

    Choice i is the rank of the chosen partner among the free vertices
    strictly right of the least free one, exactly the coordinate system of
    the insertion code.  One partner table is filled in place; every vertex
    is overwritten before each leaf, so nothing is undone on the way back.
    """
    table = [0] * (2 * n)

    def rec(free: tuple[int, ...], depth: int) -> Iterator[Matching]:
        if not free:
            yield Matching(tuple(table))
            return
        first = free[0]
        if depth < len(forced):
            choices: Iterable[int] = (forced[depth],)
        else:
            choices = range(1, len(free))
        for j in choices:
            mate = free[j]
            table[first - 1], table[mate - 1] = mate, first
            yield from rec(free[1:j] + free[j + 1 :], depth + 1)

    yield from rec(tuple(range(1, 2 * n + 1)), 0)


def _paths_with_prefix(n: int, prefix: tuple[int, ...]) -> Iterator[WedgePath]:
    """Paths whose heights start with (0, *prefix), lexicographic in the rest."""
    fixed = [range(0, 1)] + [range(a, a + 1) for a in prefix]
    rest = [range(-(i - 1), i) for i in range(len(prefix) + 2, n + 1)]
    for heights in itertools.product(*fixed, *rest):
        yield WedgePath(heights)


def _path_cells(n: int) -> list[tuple[int, ...]]:
    """Partition of the height space by the a_2..a_4 prefix."""
    if n == 1:
        return [()]
    ranges = [range(-(i - 1), i) for i in range(2, min(4, n) + 1)]
    return [tuple(c) for c in itertools.product(*ranges)]


def _matching_cells(n: int) -> list[tuple[int, ...]]:
    """Partition of the matching stream by its first two partner choices."""
    depth = min(2, n)
    ranges = [range(1, 2 * (n + 1 - i) - 1 + 1) for i in range(1, depth + 1)]
    return [tuple(c) for c in itertools.product(*ranges)]


# -- distribution tables ------------------------------------------------------

_PATH_STATISTICS: dict[str, Callable[[WedgePath], int]] = {
    "north_steps": WedgePath.north_steps,
}
_MATCHING_STATISTICS: dict[str, Callable[[Matching], int]] = {
    "nestings": Matching.nestings,
    "crossings": Matching.crossings,
    "st_total": Matching.st_total,
}
STATISTICS = tuple(_PATH_STATISTICS) + tuple(_MATCHING_STATISTICS)


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
    if statistic in _PATH_STATISTICS:
        fn = _PATH_STATISTICS[statistic]
        counts = Counter(fn(p) for p in all_paths(n))
    elif statistic in _MATCHING_STATISTICS:
        fn = _MATCHING_STATISTICS[statistic]
        counts = Counter(fn(m) for m in all_matchings(n))
    else:
        raise ValueError(
            f"unknown statistic {statistic!r}; choose from {', '.join(STATISTICS)}"
        )
    return DistributionTable(n=n, statistic=statistic, counts=dict(counts))


# -- verification harness ------------------------------------------------------

# Claim registry.  Descriptions state what is replayed over the full streams.
CLAIMS: dict[str, str] = {
    "cardinality_paths": "the path stream yields exactly (2n-1)!! objects",
    "cardinality_matchings": "the matching stream yields exactly (2n-1)!! objects",
    "round_trip_psi": "decoding undoes the insertion map on every path",
    "round_trip_psi_inv": "the insertion map undoes decoding on every matching",
    "round_trip_phi": "the inverse rearrangement undoes the rearrangement",
    "round_trip_phi_inv": "the rearrangement undoes the inverse rearrangement",
    "round_trip_big_phi": "the full inverse undoes the full bijection on every path",
    "lemma1": "north steps equal the insertion image's stacking statistic, "
    "indexwise per the code-difference formula",
    "theorem2": "the rearrangement turns the stacking statistic into the "
    "nesting count and keeps the first edge in place",
    "theorem1": "the full bijection sends the north-step count to the nesting count",
    "proposition_a": "the final south run k pairs vertex 1 with k+1 in the image",
    "proposition_b": "path components, read backwards, match the image's "
    "components, and the rearrangement acts componentwise",
    "dyck_proposition": "north-free paths map to nesting-free matchings whose "
    "left endpoints read off the reversed steps",
    "distribution_north_nestings": "north steps and nestings are equidistributed",
    "distribution_nestings_crossings": "nestings and crossings are equidistributed",
}

_PATH_CLAIMS = (
    "round_trip_psi",
    "round_trip_big_phi",
    "lemma1",
    "theorem1",
    "proposition_a",
    "proposition_b",
    "dyck_proposition",
)
_MATCHING_CLAIMS = (
    "round_trip_psi_inv",
    "round_trip_phi",
    "round_trip_phi_inv",
    "theorem2",
)
_DISTRIBUTION_CLAIMS = ("distribution_north_nestings", "distribution_nestings_crossings")


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
    format_version: int = REPORT_FORMAT_VERSION

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


class _Tally:
    """Mutable per-cell accumulator for one claim."""

    __slots__ = ("tested", "failed", "examples", "limit")

    def __init__(self, limit: int) -> None:
        self.tested = 0
        self.failed = 0
        self.examples: list[str] = []
        self.limit = limit


def _eval_path_claims(
    path: WedgePath,
    tallies: dict[str, _Tally],
    counters: dict[str, Counter],
) -> None:
    north = path.north_steps()
    if "north_steps" in counters:
        counters["north_steps"][north] += 1
    if not tallies:
        return
    m = psi(path)
    nm = phi(m)

    def add(label: str, ok: bool, detail: str = "") -> None:
        t = tallies.get(label)
        if t is None:
            return
        t.tested += 1
        if not ok:
            t.failed += 1
            if len(t.examples) < t.limit:
                t.examples.append(f"P={path.to_steps()}: {detail}")

    if "round_trip_psi" in tallies:
        back = psi_inv(m)
        add("round_trip_psi", back == path, f"comes back as {back.to_steps()}")
    if "round_trip_big_phi" in tallies:
        back = psi_inv(phi_inv(nm))
        add("round_trip_big_phi", back == path, f"comes back as {back.to_steps()}")
    if "lemma1" in tallies:
        b = insertion_code(path).b
        per_index_ok = all(
            m.st_component(i) == max(b[i - 1] - b[i] - 1, 0)
            for i in range(1, path.n)
        )
        st = m.st_total()
        add(
            "lemma1",
            st == north and per_index_ok,
            f"north={north} stacking={st} indexwise_ok={per_index_ok}",
        )
    if "theorem1" in tallies:
        ne = nm.nestings()
        add("theorem1", ne == north, f"north={north} nestings={ne}")
    if "proposition_a" in tallies:
        mate = nm.partner_of(1)
        run = path.final_south_run()
        add("proposition_a", mate == run + 1, f"south_run={run} partner_of_1={mate}")
    if "proposition_b" in tallies:
        path_sizes = [c.n for c in path.components()][::-1]
        image_sizes = [c.n for _, c in nm.irreducible_components()]
        piecewise = concatenate(phi(c) for _, c in m.irreducible_components())
        add(
            "proposition_b",
            path_sizes == image_sizes and piecewise == nm,
            f"path_sizes(rev)={path_sizes} image_sizes={image_sizes} "
            f"piecewise={piecewise.to_text()} global={nm.to_text()}",
        )
    if "dyck_proposition" in tallies:
        if path.is_dyck():
            lefts = {a for a, _ in nm.edges}
            expected = path.reversed_south_positions()
            ok = nm.nestings() == 0 and lefts == expected and nm == m
            add(
                "dyck_proposition",
                ok,
                f"nestings={nm.nestings()} lefts={sorted(lefts)} "
                f"expected={sorted(expected)} fixed={nm == m}",
            )
        else:
            add("dyck_proposition", True)


def _eval_matching_claims(
    m: Matching,
    tallies: dict[str, _Tally],
    counters: dict[str, Counter],
) -> None:
    for stat in ("nestings", "crossings", "st_total"):
        if stat in counters:
            counters[stat][_MATCHING_STATISTICS[stat](m)] += 1
    if not tallies:
        return

    def add(label: str, ok: bool, detail: str = "") -> None:
        t = tallies.get(label)
        if t is None:
            return
        t.tested += 1
        if not ok:
            t.failed += 1
            if len(t.examples) < t.limit:
                t.examples.append(f"M={m.to_text()}: {detail}")

    if "round_trip_psi_inv" in tallies:
        back = psi(psi_inv(m))
        add("round_trip_psi_inv", back == m, f"comes back as {back.to_text()}")
    fm = phi(m) if ("round_trip_phi" in tallies or "theorem2" in tallies) else None
    if "round_trip_phi" in tallies:
        back = phi_inv(fm)
        add("round_trip_phi", back == m, f"comes back as {back.to_text()}")
    if "round_trip_phi_inv" in tallies:
        back = phi(phi_inv(m))
        add("round_trip_phi_inv", back == m, f"comes back as {back.to_text()}")
    if "theorem2" in tallies:
        st = m.st_total()
        ne = fm.nestings()
        same_first = m.n == 0 or fm.first_edge == m.first_edge
        add(
            "theorem2",
            ne == st and same_first,
            f"stacking={st} nestings={ne} first_edge_kept={same_first}",
        )


def _run_cell(task: tuple) -> tuple[dict, dict]:
    """Worker body: replay the selected claims over one stream cell.

    Returns plain dicts so the result can cross a process boundary.
    """
    n, kind, prefix, labels, limit, want_dists = task
    tallies = {label: _Tally(limit) for label in labels}
    counters: dict[str, Counter] = {}
    if kind == "paths":
        if want_dists:
            counters["north_steps"] = Counter()
        count = 0
        for path in _paths_with_prefix(n, prefix):
            count += 1
            _eval_path_claims(path, tallies, counters)
    else:
        if want_dists:
            counters.update(
                nestings=Counter(), crossings=Counter(), st_total=Counter()
            )
        count = 0
        for m in _matchings_with_forced_choices(n, prefix):
            count += 1
            _eval_matching_claims(m, tallies, counters)
    out = {
        label: (t.tested, t.failed, tuple(t.examples)) for label, t in tallies.items()
    }
    out["__count__"] = (count, 0, ())
    return out, {k: dict(v) for k, v in counters.items()}


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
    everything runs.  ``workers`` > 1 fans the stream cells out over a
    process pool; the report is identical for any worker count because the
    cells are merged in a fixed order.  Counterexamples are collected up to
    ``counterexample_limit`` per claim; failures beyond that are only
    counted.  ``workers`` must be at least 1 and is capped at the CPU
    count; ``counterexample_limit`` must not be negative.
    """
    _require_within_cap(n, max_n)
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
    started = time.perf_counter()

    want_dists = any(label in selected for label in _DISTRIBUTION_CLAIMS)
    path_labels = tuple(c for c in _PATH_CLAIMS if c in selected)
    matching_labels = tuple(c for c in _MATCHING_CLAIMS if c in selected)
    need_paths = bool(path_labels) or want_dists or "cardinality_paths" in selected
    need_matchings = (
        bool(matching_labels) or want_dists or "cardinality_matchings" in selected
    )

    tasks = []
    if need_paths:
        for prefix in _path_cells(n):
            tasks.append((n, "paths", prefix, path_labels, counterexample_limit, want_dists))
    if need_matchings:
        for prefix in _matching_cells(n):
            tasks.append(
                (n, "matchings", prefix, matching_labels, counterexample_limit, want_dists)
            )

    if workers > 1 and len(tasks) > 1:
        with Pool(workers) as pool:
            results = pool.map(_run_cell, tasks)
    else:
        results = [_run_cell(task) for task in tasks]

    merged: dict[str, list] = {
        label: [0, 0, []] for label in tuple(CLAIMS) if label in selected
    }
    counts = {"paths": 0, "matchings": 0}
    dists: dict[str, Counter] = {}
    for task, (tally, counters) in zip(tasks, results):
        kind = task[1]
        counts[kind] += tally.pop("__count__")[0]
        for label, (tested, failed, examples) in tally.items():
            slot = merged[label]
            slot[0] += tested
            slot[1] += failed
            if len(slot[2]) < counterexample_limit:
                slot[2].extend(examples[: counterexample_limit - len(slot[2])])
        for stat, counter in counters.items():
            dists.setdefault(stat, Counter()).update(counter)

    expected = double_factorial(n)
    results_by_label: dict[str, ClaimResult] = {}
    for kind, label in (("paths", "cardinality_paths"), ("matchings", "cardinality_matchings")):
        if label in selected:
            count = counts[kind]
            ok = count == expected
            results_by_label[label] = ClaimResult(
                label=label,
                tested=count,
                failed=0 if ok else 1,
                counterexamples=()
                if ok
                else (f"stream yielded {count} objects, expected {expected}",),
            )
    for label, (left, right) in {
        "distribution_north_nestings": ("north_steps", "nestings"),
        "distribution_nestings_crossings": ("nestings", "crossings"),
    }.items():
        if label not in selected:
            continue
        a, b = dists.get(left, Counter()), dists.get(right, Counter())
        keys = sorted(set(a) | set(b))
        bad = [k for k in keys if a.get(k, 0) != b.get(k, 0)]
        results_by_label[label] = ClaimResult(
            label=label,
            tested=len(keys),
            failed=len(bad),
            counterexamples=tuple(
                f"k={k}: {left}={a.get(k, 0)} {right}={b.get(k, 0)}"
                for k in bad[:counterexample_limit]
            ),
        )
    for label in path_labels + matching_labels:
        tested, failed, examples = merged[label]
        results_by_label[label] = ClaimResult(
            label=label,
            tested=tested,
            failed=failed,
            counterexamples=tuple(examples[:counterexample_limit]),
        )

    ordered = tuple(results_by_label[label] for label in CLAIMS if label in results_by_label)
    elapsed = time.perf_counter() - started
    return VerificationReport(n=n, claims=ordered, elapsed=elapsed)
