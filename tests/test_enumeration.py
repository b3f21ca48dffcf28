"""Generators, distribution tables, and the verification harness."""

import hashlib
import itertools
import json

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
    _cells,
    _objects,
    verify_ladder,
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


# sha256 of the streams' lines in order: to_steps() of every path,
# to_text() of every matching.  Pins the order, not just the sets (n=7,
# checked by hand: 80c27c5e99c7... / bb54521ff9c8...).
STREAM_DIGESTS = {
    1: ("7f40c8419c0797bd7b6e43466ec8654e2d651d66d27bb980af30d0217dfb007d",
        "82fb7f354fa62efa66d874e51717795aaa392ab0589d0879df06a643909610d8"),
    2: ("1e5f6e2fbcd2609eee641d350cc55a880f35445a7120c81dc03d7118f552cb62",
        "a581d257b47f53341afd89e150ba5d137fe0664f37ab82b0a1e89c8d1be4be8d"),
    3: ("81a17ca092ce9ff9e6869a9c4f5b9d3e630e089bb3fa785ec249fcd505771988",
        "89684ee3dda5e0e1138fdd243d557698e0af10266eaa79916055e7e89a6f15de"),
    4: ("eee2870b3816a41b182c842b51c835d43775578235205efab3ba06255e9c72a2",
        "77b5b11d5ef379fb8ee27d57c8e42f9ac422e60f094790e09372a4f76a52f8cb"),
    5: ("a6f6c3394986f850a52ca35b64823b7c1c67cc9dd64614692aee536b1f15c1f8",
        "668c2f128a81da316e64b86c1139612d9b83dbdd5703dea34d765c92ac136b0c"),
    6: ("b0d27e89e700fb52ed62e04bdaf3365aabcd5584a4c97af903d0ab44fdbe24f7",
        "10db2ec37afb38b5a0d4bf728215a4460d07d42e1e6f36ddf0a66af1825142e6"),
}


@pytest.mark.parametrize("n", sorted(STREAM_DIGESTS))
def test_stream_golden_digest(n):
    paths, matchings = hashlib.sha256(), hashlib.sha256()
    for p in all_paths(n):
        paths.update((p.to_steps() + "\n").encode())
    for m in all_matchings(n):
        matchings.update((m.to_text() + "\n").encode())
    assert (paths.hexdigest(), matchings.hexdigest()) == STREAM_DIGESTS[n]


# The cells of each family at n = 1, 2, 3, 4, 5, 6: paths fix a_1..a_4,
# matchings b_1 and b_2, so the counts are 1, 3, 15, then 105, and 1, then
# (2n-1)(2n-3).  The partition keeps reports independent of the worker count.
CELL_COUNTS = {
    "paths": [1, 3, 15, 105, 105, 105],
    "matchings": [1, 3, 15, 35, 63, 99],
}


@pytest.mark.parametrize("family", sorted(CELL_COUNTS))
@pytest.mark.parametrize("n", range(1, 7))
def test_cells_partition_the_stream(family, n):
    cells = _cells(family, n)
    assert len(cells) == CELL_COUNTS[family][n - 1]
    stream = [coordinates for coordinates, _ in _objects(family, n)]
    pieces = [
        coordinates for prefix in cells for coordinates, _ in _objects(family, n, prefix)
    ]
    assert pieces == stream


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


def test_over_cap_errors():
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


def test_verify_ladder_shares_one_pool(monkeypatch):
    import wedgematch.enumeration as enumeration

    real_pool = enumeration.Pool
    started = []

    def counting_pool(workers, **kwargs):
        started.append(workers)
        return real_pool(workers, **kwargs)

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(enumeration, "Pool", counting_pool)
    reports = [r.to_json_value() for r in verify_ladder(3, workers=2)]
    assert started == [2]
    assert reports == [verify_all(n).to_json_value() for n in (1, 2, 3)]


def test_verify_claims_filter():
    report = verify_all(3, claims=["theorem1"])
    assert [c.label for c in report.claims] == ["theorem1"]
    assert report.claims[0].tested == 15
    with pytest.raises(ValueError, match="unknown claim labels"):
        verify_all(3, claims=["theorem9"])


def test_verify_rejects_empty_claim_selection():
    with pytest.raises(ValueError, match="no claims selected; choose from cardinality"):
        verify_all(2, claims=[])
    with pytest.raises(ValueError, match="no claims selected"):
        next(verify_ladder(2, claims=()))


# sha256 of json.dumps(verify_all(n).to_json_value()) on one worker: the
# whole reproducible payload, every claim's tallies and order included.
VERIFY_PAYLOAD_DIGESTS = {
    1: "3c25ca76e29054f1aef2c6a0a5a9469d9691909af52bd29501390801135cfc7f",
    2: "5c8a717fe9e594e41a9d9a1394b185600f88bc37357ca6633d2d3b5740a1a126",
    3: "21f7efa7e4058f9c6fdadc6bc8d1d803ea2cb0348090f5ede93ac4f56f7b422e",
    4: "3c73a91b5cf89bb109029a7031f61ef98c2dde624f0d87e8b708ba8dec98414b",
    5: "421f61ada44e04daa198b616d70f5157fedf836d9918927709f1162a0be7fcf8",
}


@pytest.mark.parametrize("n", sorted(VERIFY_PAYLOAD_DIGESTS))
def test_verify_payload_golden_digest(n):
    payload = json.dumps(verify_all(n, workers=1).to_json_value())
    assert hashlib.sha256(payload.encode()).hexdigest() == VERIFY_PAYLOAD_DIGESTS[n]


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


# -- failure path ---------------------------------------------------------------------

# Tallies and counterexamples of verify_all(2) with the bijection and
# statistics broken as in test_verify_reports_failures_verbatim; claims not
# listed pass on all 3 objects (2 keys for the distributions).
BROKEN_N2_FAILURES = {
    "round_trip_psi": [
        "P=ESES: comes back as EESS",
        "P=ENESSS: comes back as EESS",
    ],
    "round_trip_psi_inv": [
        "M=(1,2),(3,4): comes back as (1,3),(2,4)",
        "M=(1,4),(2,3): comes back as (1,3),(2,4)",
    ],
    "round_trip_big_phi": [
        "P=ESES: comes back as EESS",
        "P=ENESSS: comes back as EESS",
    ],
    "lemma1": [
        "P=ESES: north=0 stacking=1 indexwise_ok=True",
        "P=EESS: north=0 stacking=1 indexwise_ok=True",
        "P=ENESSS: north=1 stacking=2 indexwise_ok=True",
    ],
    "theorem2": [
        "M=(1,2),(3,4): stacking=1 nestings=0 first_edge_kept=True",
        "M=(1,3),(2,4): stacking=1 nestings=0 first_edge_kept=True",
        "M=(1,4),(2,3): stacking=2 nestings=1 first_edge_kept=True",
    ],
    "proposition_a": [
        "P=ESES: south_run=2 partner_of_1=2",
        "P=EESS: south_run=3 partner_of_1=3",
        "P=ENESSS: south_run=4 partner_of_1=4",
    ],
    "proposition_b": [
        "P=ESES: path_sizes(rev)=[] image_sizes=[1, 1] "
        "piecewise=(1,2),(3,4) global=(1,2),(3,4)",
        "P=EESS: path_sizes(rev)=[] image_sizes=[2] "
        "piecewise=(1,3),(2,4) global=(1,3),(2,4)",
        "P=ENESSS: path_sizes(rev)=[] image_sizes=[2] "
        "piecewise=(1,4),(2,3) global=(1,4),(2,3)",
    ],
    "dyck_proposition": [
        "P=ESES: nestings=0 lefts=[1, 3] expected=[] fixed=True",
        "P=EESS: nestings=0 lefts=[1, 2] expected=[] fixed=True",
    ],
}


def test_verify_reports_failures_verbatim(monkeypatch):
    import wedgematch.enumeration as enumeration
    from wedgematch import WedgePath

    # psi_inv and st_total are broken where the harness calls them, as
    # kernels on partner tuples; decoding returns the all-zero path's code.
    st_total = enumeration._st_total
    final_south_run = WedgePath.final_south_run
    monkeypatch.setattr(
        enumeration, "_code_from_partner", lambda p: tuple(range(len(p) // 2, 0, -1))
    )
    monkeypatch.setattr(enumeration, "_st_total", lambda p: st_total(p) + 1)
    monkeypatch.setattr(
        WedgePath, "final_south_run", lambda self: final_south_run(self) + 1
    )
    monkeypatch.setattr(WedgePath, "reversed_south_positions", lambda self: set())
    monkeypatch.setattr(WedgePath, "components", lambda self: [])

    claims = verify_all(2).to_json_value()["claims"]
    assert list(claims) == list(CLAIMS)
    for label, result in claims.items():
        examples = BROKEN_N2_FAILURES.get(label, [])
        tested = 2 if label.startswith("distribution") else 3
        assert result == {
            "tested": tested,
            "failed": len(examples),
            "counterexamples": examples,
        }, label
    limited = verify_all(2, counterexample_limit=1).to_json_value()["claims"]
    for label, result in limited.items():
        assert result["failed"] == claims[label]["failed"]
        assert result["counterexamples"] == claims[label]["counterexamples"][:1]


def test_verify_reports_phi_inv_failures_verbatim(monkeypatch):
    import wedgematch.enumeration as enumeration

    monkeypatch.setattr(enumeration, "_phi_inv_partner", lambda p: p)
    report = verify_all(
        3, claims=["round_trip_phi", "round_trip_big_phi"], counterexample_limit=3
    )
    assert report.to_json_value()["claims"] == {
        "round_trip_phi": {
            "tested": 15,
            "failed": 4,
            "counterexamples": [
                "M=(1,5),(2,3),(4,6): comes back as (1,5),(2,6),(3,4)",
                "M=(1,5),(2,6),(3,4): comes back as (1,5),(2,3),(4,6)",
                "M=(1,6),(2,3),(4,5): comes back as (1,6),(2,5),(3,4)",
            ],
        },
        "round_trip_big_phi": {
            "tested": 15,
            "failed": 4,
            "counterexamples": [
                "P=ESENNESSSS: comes back as ENEESSSS",
                "P=ESENNNESSSSS: comes back as ENENESSSSS",
                "P=ENEESSSS: comes back as ESENNESSSS",
            ],
        },
    }


def test_proposition_b_walks_components_against_the_table(monkeypatch):
    # The path facts read big_phi off the size n-1 table; proposition_b runs
    # phi's own kernel (code read plus walk) on every component.  Corrupt
    # only the table image of the code (5, 3, 1), to its unrearranged psi
    # image, and the walk must disagree with it.
    import wedgematch.enumeration as enumeration
    from wedgematch.bijections import _partner_from_code

    table_image = enumeration._phi_of_code

    def corrupted(code):
        if tuple(code) == (5, 3, 1):
            return _partner_from_code(code)
        return table_image(code)

    monkeypatch.setattr(enumeration, "_phi_of_code", corrupted)
    report = verify_all(3, claims=["proposition_b"])
    assert report.to_json_value()["claims"]["proposition_b"] == {
        "tested": 15,
        "failed": 1,
        "counterexamples": [
            "P=ENENESSSSS: path_sizes(rev)=[3] image_sizes=[3] "
            "piecewise=(1,6),(2,3),(4,5) global=(1,6),(2,5),(3,4)"
        ],
    }
