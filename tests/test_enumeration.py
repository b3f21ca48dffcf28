"""Generators, distribution tables, and the verification harness."""

import itertools

import pytest

from wedgematch import (
    DistributionTable,
    Matching,
    OverCapError,
    all_matchings,
    all_paths,
    distribution,
    double_factorial,
    verify_all,
)
from wedgematch.enumeration import (
    CLAIMS,
    ClaimResult,
    VerificationReport,
    resolve_cap,
)

# Frozen by an independent brute-force enumeration (raw pairing recursion
# plus raw pair scans, no package code).
NESTING_ROWS = {
    1: {0: 1},
    2: {0: 2, 1: 1},
    3: {0: 5, 1: 6, 2: 3, 3: 1},
    4: {0: 14, 1: 28, 2: 28, 3: 20, 4: 10, 5: 4, 6: 1},
    5: {0: 42, 1: 120, 2: 180, 3: 195, 4: 165, 5: 117, 6: 70, 7: 35, 8: 15, 9: 5, 10: 1},
}


def raw_matchings(n):
    """Independent enumeration: pair the least element with every choice."""

    def rec(free):
        if not free:
            yield ()
            return
        first = free[0]
        for j in range(1, len(free)):
            for sub in rec(free[1:j] + free[j + 1 :]):
                yield ((first, free[j]),) + sub

    yield from rec(tuple(range(1, 2 * n + 1)))


def raw_nestings(pairs):
    return sum(
        1
        for (a, b), (c, d) in itertools.combinations(sorted(pairs), 2)
        if a < c < d < b
    )


# -- counting ---------------------------------------------------------------


def test_double_factorial_values():
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(4) == 105
    assert double_factorial(7) == 135135
    with pytest.raises(ValueError):
        double_factorial(-1)


def test_all_paths_small():
    assert [p.heights for p in all_paths(2)] == [(0, -1), (0, 0), (0, 1)]


def test_all_matchings_small():
    assert [m.to_text() for m in all_matchings(2)] == [
        "(1,2),(3,4)",
        "(1,3),(2,4)",
        "(1,4),(2,3)",
    ]


@pytest.mark.parametrize("n", range(1, 5))
def test_streams_match_independent_enumeration(n):
    ours = {m.partner for m in all_matchings(n)}
    theirs = {
        Matching.from_pairs(pairs).partner for pairs in raw_matchings(n)
    }
    assert ours == theirs
    assert len(ours) == double_factorial(n)
    assert len({p.heights for p in all_paths(n)}) == double_factorial(n)


def test_streams_reject_nonpositive_size():
    with pytest.raises(ValueError):
        next(all_paths(0))
    with pytest.raises(ValueError):
        next(all_matchings(0))


# -- distributions -------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 5))
def test_nesting_distribution_frozen(n):
    assert distribution(n, "nestings").counts == NESTING_ROWS[n]


@pytest.mark.parametrize("statistic", ["north_steps", "crossings", "st_total"])
@pytest.mark.parametrize("n", range(1, 5))
def test_all_statistics_equidistributed(n, statistic):
    assert distribution(n, statistic).counts == NESTING_ROWS[n]


def test_distribution_against_raw_oracle():
    from collections import Counter

    raw = Counter(raw_nestings(pairs) for pairs in raw_matchings(4))
    assert distribution(4, "nestings").counts == dict(raw)


def test_distribution_formats():
    table = distribution(2, "nestings")
    assert table.to_text() == "0:2 1:1"
    assert table.to_csv() == "k,count\n0,2\n1,1\n"
    assert table.to_json_value() == {
        "n": 2,
        "statistic": "nestings",
        "counts": {"0": 2, "1": 1},
    }


def test_distribution_unknown_statistic():
    with pytest.raises(ValueError, match="unknown statistic"):
        distribution(3, "flux")


def test_distribution_table_validates_total():
    with pytest.raises(ValueError, match="counts sum"):
        DistributionTable(n=2, statistic="nestings", counts={0: 1})


# -- enumeration cap --------------------------------------------------------------


def test_cap_default_and_override(monkeypatch):
    monkeypatch.delenv("WEDGEMATCH_MAX_N", raising=False)
    assert resolve_cap() == 7
    assert resolve_cap(3) == 3
    monkeypatch.setenv("WEDGEMATCH_MAX_N", "5")
    assert resolve_cap() == 5
    assert resolve_cap(9) == 9
    monkeypatch.setenv("WEDGEMATCH_MAX_N", "many")
    with pytest.raises(ValueError):
        resolve_cap()


def test_over_cap_errors(monkeypatch):
    monkeypatch.delenv("WEDGEMATCH_MAX_N", raising=False)
    with pytest.raises(OverCapError):
        distribution(8, "nestings")
    with pytest.raises(OverCapError):
        verify_all(8)
    with pytest.raises(OverCapError):
        verify_all(4, max_n=3)


# -- verification harness -----------------------------------------------------------


def test_verify_all_smallest_size():
    report = verify_all(1)
    assert report.passed
    assert {c.label for c in report.claims} == set(CLAIMS)


def test_verify_all_exhaustive_counts():
    report = verify_all(3)
    assert report.passed
    per_object = [
        c for c in report.claims if not c.label.startswith("distribution")
    ]
    assert all(c.tested == 15 for c in per_object)
    assert all(c.counterexamples == () for c in report.claims)


def test_verify_reports_identical_across_worker_counts():
    serial = verify_all(4, workers=1)
    parallel = verify_all(4, workers=3)
    assert serial.to_text() == parallel.to_text()
    assert serial.to_json_value() == parallel.to_json_value()


def test_verify_workers_capped_at_cpu_count(monkeypatch):
    import wedgematch.enumeration as enumeration

    def no_pool(*args, **kwargs):
        raise AssertionError("one CPU must not start a process pool")

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(enumeration, "Pool", no_pool)
    capped = verify_all(3, workers=64)
    serial = verify_all(3, workers=1)
    assert capped.to_json_value() == serial.to_json_value()


def test_verify_claims_filter():
    report = verify_all(3, claims=["theorem1"])
    assert [c.label for c in report.claims] == ["theorem1"]
    assert report.claims[0].tested == 15
    with pytest.raises(ValueError, match="unknown claim labels"):
        verify_all(3, claims=["theorem9"])


def test_verify_report_reproducible():
    first = verify_all(2)
    second = verify_all(2)
    assert first.to_text() == second.to_text()
    assert first.to_json_value() == second.to_json_value()


def test_report_renders_failures():
    failing = ClaimResult(
        label="theorem1",
        tested=5,
        failed=2,
        counterexamples=("P=ES: north=0 nestings=1",),
    )
    report = VerificationReport(n=1, claims=(failing,), elapsed=0.1)
    assert not report.passed
    assert report.failures() == 2
    text = report.to_text()
    assert "counterexample: P=ES" in text
    assert text.endswith("result: FAIL\n")
    payload = report.to_json_value()
    assert payload["passed"] is False
    assert payload["claims"]["theorem1"]["failed"] == 2
