"""Generators, distribution tables, and the verification harness."""

import hashlib
import itertools
import json
import multiprocessing.pool
import random
from collections import Counter

import pytest
from payloads import passing_payload

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
from wedgematch.bijections import _code_from_heights, _partner_from_code
from wedgematch.enumeration import (
    CLAIMS,
    ClaimResult,
    VerificationReport,
    _cells,
    _code_tree,
    _run_cell,
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


# A size up to 5 is one cell, prefix (); n = 6 fixes the heights a_1..a_3,
# 15 cells, and from n = 7 on they fix a_1..a_4, 105 cells.  Only the path
# stream is cut into cells, and every run walks them, whatever the worker
# count, so reports do not depend on it.
CELL_COUNTS = [1, 1, 1, 1, 1, 15]


def _path_heights(n):
    """Every path's heights, in stream order: one product of the ranges
    [-(i-1), i-1]."""
    return itertools.product(*(range(-(i - 1), i) for i in range(1, n + 1)))


def _codes(n):
    """Every insertion code, in stream order: one product of the ranges
    [1, 2(n-i)+1]."""
    return itertools.product(*(range(1, 2 * (n - i) + 2) for i in range(1, n + 1)))


def _paths_under(n, prefix):
    """The heights of the path stream that start with ``prefix``, in order."""
    return [h for h in _path_heights(n) if h[: len(prefix)] == prefix]


@pytest.mark.parametrize("n", range(1, 7))
def test_cells_partition_the_stream(n):
    cells = _cells(n)
    assert len(cells) == CELL_COUNTS[n - 1]
    stream = [p.heights for p in all_paths(n)]
    assert stream == list(_path_heights(n))
    assert [h for prefix in cells for h in _paths_under(n, prefix)] == stream


@pytest.mark.parametrize("n", range(1, 7))
def test_path_codes_insert_to_the_matching_stream(n):
    # The harness checks both families' per-object claims on the path
    # stream: each path's insertion image must be one matching of the
    # matching stream, and each matching the image of exactly one path.
    images = [_partner_from_code(_code_from_heights(heights)) for heights in _path_heights(n)]
    matchings = [m.partner for m in all_matchings(n)]
    assert matchings == [_partner_from_code(b) for b in _codes(n)]
    assert sorted(images) == sorted(matchings)
    assert len(set(matchings)) == double_factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_cells_partition_the_code_tree(n):
    # The cells partition the records, the leaves of the tree.  Each node
    # above them is yielded, for its node checks, by every cell whose paths
    # pass through it, so by at least one.
    tree = [(f.b, f.heights is not None) for f in _code_tree(n)]
    pieces = [
        (f.b, f.heights is not None) for prefix in _cells(n) for f in _code_tree(n, prefix)
    ]
    assert set(pieces) == set(tree)
    assert sorted(piece for piece in pieces if piece[1]) == sorted(b for b in tree if b[1])
    assert len(set(tree)) == len(tree) == sum(double_factorial(k) for k in range(1, n + 1))
    assert [b for b, leaf in tree if leaf] == [
        _code_from_heights(heights) for heights in _path_heights(n)
    ]


def test_each_streamed_matching_is_checked_once(monkeypatch):
    # all_matchings builds each Matching from an unchecked insertion image,
    # so Matching's own check is the only one; distribution counts on the
    # code tree and checks no partner tuple.
    import wedgematch.matching as matching

    calls = Counter()
    check = matching._check_partner

    def counted(table):
        calls[table] += 1
        return check(table)

    monkeypatch.setattr(matching, "_check_partner", counted)
    assert sum(1 for _ in all_matchings(5)) == 945
    assert len(calls) == calls.total() == 945
    for statistic in ("nestings", "crossings", "st_total"):
        calls.clear()
        distribution(5, statistic)
        assert calls.total() == 0, statistic


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


def raw_crossings(pairs):
    return sum(
        1
        for (a, b), (c, d) in itertools.combinations(sorted(pairs), 2)
        if a < c < b < d
    )


def raw_st_total(pairs):
    """The stacking statistic by its definition: for consecutive edges
    (a, b), (c, d) with a < c < d < b, the endpoints of the edges from
    (c, d) on that lie in [d, b]."""
    edges = sorted(pairs)
    return sum(
        sum(d <= v <= b for edge in edges[i + 1 :] for v in edge)
        for i, ((a, b), (c, d)) in enumerate(zip(edges, edges[1:]))
        if a < c < d < b
    )


def raw_north_steps(n):
    """Every wedge path's north steps: the rises between consecutive heights
    a_i in [-(i-1), i-1]."""
    for heights in itertools.product(*(range(-i, i + 1) for i in range(n))):
        yield sum(max(y - x, 0) for x, y in zip(heights, heights[1:]))


def test_distribution_against_raw_oracle():
    for n in range(1, 6):
        pairs = list(raw_matchings(n))
        raw = {
            "north_steps": Counter(raw_north_steps(n)),
            "nestings": Counter(map(raw_nestings, pairs)),
            "crossings": Counter(map(raw_crossings, pairs)),
            "st_total": Counter(map(raw_st_total, pairs)),
        }
        for statistic, counts in raw.items():
            assert distribution(n, statistic).counts == dict(counts), (n, statistic)


@pytest.mark.parametrize("statistic", ["north_steps", "nestings", "crossings", "st_total"])
def test_a_distribution_builds_and_sweeps_no_object(monkeypatch, statistic):
    # distribution counts the values that the code tree's nodes of depth
    # n-1 give for their children, each one step from the node's own: it
    # builds no WedgePath or Matching, checks no partner tuple and sweeps
    # none for its arcs or stacking values.  Only the stacking table reads
    # a node's m, for its first edge: the others insert no code at all.
    import wedgematch.bijections as bijections
    import wedgematch.enumeration as enumeration
    import wedgematch.matching as matching
    from wedgematch import WedgePath

    def unreachable(*args):
        raise AssertionError("distribution built, checked, swept or inserted an object")

    for cls in (WedgePath, Matching):
        monkeypatch.setattr(cls, "__post_init__", unreachable)
    for module in (matching, enumeration):
        for name in ("_check_partner", "_arc_counts", "_stacking"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    if statistic != "st_total":
        for module in (bijections, enumeration):
            monkeypatch.setattr(module, "_partner_from_code", unreachable)
    assert distribution(5, statistic).counts == NESTING_ROWS[5]


@pytest.mark.parametrize("statistic", ["north_steps", "nestings", "crossings", "st_total"])
def test_a_distribution_builds_no_record(monkeypatch, statistic):
    # Each node of depth n-1 gives the statistic of its 2n-1 children, the
    # records, at once, so distribution(n, s) makes no node of depth n.  At
    # n = 1 that node is the root, which the code tree's walk never yields.
    import wedgematch.enumeration as enumeration

    expected = {n: dict(Counter(_record_values(n, statistic))) for n in range(1, 7)}
    depths = []
    init = enumeration._Facts.__init__

    def recording(self, b, *args):
        depths.append(len(b))
        init(self, b, *args)

    monkeypatch.setattr(enumeration._Facts, "__init__", recording)
    for n in range(1, 7):
        depths.clear()
        assert distribution(n, statistic).counts == expected[n]
        assert max(depths) == n - 1, n
    assert distribution(1, statistic).counts == {0: 1}


def test_the_smallest_verify_payload_is_pinned(capsys):
    # Size 1 is the one size whose records' parent is the root.
    from wedgematch.cli import main

    assert main(["verify", "1", "--json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert json.dumps(report) == json.dumps(passing_payload(1))


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


def test_verify_reports_identical_across_worker_counts(monkeypatch):
    # n=6 has 15 cells: two or three workers are a pool of that many processes.
    import wedgematch.enumeration as enumeration

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    serial = verify_all(6, workers=1)
    for workers in (2, 3):
        parallel = verify_all(6, workers=workers)
        assert serial.to_text() == parallel.to_text()
        assert serial.to_json_value() == parallel.to_json_value()


def test_verify_workers_capped_at_cpu_count(monkeypatch):
    import wedgematch.enumeration as enumeration

    def no_pool(*args, **kwargs):
        raise AssertionError("one CPU must not start a process pool")

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(enumeration, "Pool", no_pool)
    capped = verify_all(6, workers=64)
    serial = verify_all(6, workers=1)
    assert capped.to_json_value() == serial.to_json_value()


@pytest.mark.parametrize("workers", [2, 3])
def test_verify_ladder_starts_one_pool_where_it_pays(monkeypatch, workers):
    # Sizes up to 5 are one cell each and start no pool; the first size of
    # more than one cell, n=6, starts one pool of `workers` processes, while
    # this process only merges their results, and the later sizes share it.
    import wedgematch.enumeration as enumeration

    real_pool = enumeration.Pool
    started = []

    def counting_pool(processes, **kwargs):
        started.append(processes)
        return real_pool(processes, **kwargs)

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: workers)
    monkeypatch.setattr(enumeration, "Pool", counting_pool)
    reports = [r.to_json_value() for r in verify_ladder(5, workers=workers)]
    assert started == []
    assert reports == [verify_all(n).to_json_value() for n in range(1, 6)]
    reports = [r.to_json_value() for r in verify_ladder(6, workers=workers)]
    assert started == [workers]
    assert reports == [verify_all(n).to_json_value() for n in range(1, 7)]
    assert multiprocessing.active_children() == []


def test_a_ladder_closed_early_leaves_no_process(monkeypatch):
    # The pool starts at n=6; closing the ladder after that report, as a
    # caller that stops reading does, must terminate it.
    import wedgematch.enumeration as enumeration

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    ladder = verify_ladder(7, workers=2)
    for report in ladder:
        if report.n == 6:
            break
    assert len(multiprocessing.active_children()) == 2
    ladder.close()
    assert multiprocessing.active_children() == []


def _stalled_cell(cell):
    """A cell that never finishes, for the pool's processes to hang on."""
    import time

    time.sleep(60)


def test_an_interrupted_size_leaves_no_process(monkeypatch):
    # Ctrl-C while this process waits on the pool's results ends the run;
    # the pool must not outlive it.  The pool runs cells that never finish,
    # and the interrupt comes 0.2 s after it is handed the first, so it
    # cannot miss the wait.
    import os
    import signal
    import threading

    import wedgematch.enumeration as enumeration

    timers = []

    class InterruptedPool(multiprocessing.pool.Pool):
        def apply_async(self, func, args=(), *rest, **kwargs):
            if not timers:
                timers.append(threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT)))
                timers[-1].start()
            return super().apply_async(_stalled_cell, args, *rest, **kwargs)

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(enumeration, "Pool", InterruptedPool)
    with pytest.raises(KeyboardInterrupt):
        verify_all(6, workers=2)
    (timer,) = timers
    timer.join(timeout=5)
    assert not timer.is_alive()
    assert multiprocessing.active_children() == []


def test_verify_claims_filter():
    report = verify_all(3, claims=["theorem1"])
    assert [c.label for c in report.claims] == ["theorem1"]
    assert report.claims[0].tested == 15
    with pytest.raises(ValueError, match="unknown claim labels"):
        verify_all(3, claims=["theorem9"])
    # A bare string is one label, not its letters.
    with pytest.raises(ValueError, match="^claims must be labels, not the string 'lemma1'$"):
        verify_all(3, claims="lemma1")
    with pytest.raises(ValueError, match="^claims must be labels, not the string 'lemma1'$"):
        next(verify_ladder(3, claims="lemma1"))


def test_verify_rejects_empty_claim_selection():
    with pytest.raises(ValueError, match="no claims selected; choose from cardinality"):
        verify_all(2, claims=[])
    with pytest.raises(ValueError, match="no claims selected"):
        next(verify_ladder(2, claims=()))


# sha256 of json.dumps(report) for each size of a passing `verify --json`:
# sizes 1..9 as pinned from reviewed runs, and size 10 as predicted.
VERIFY_PAYLOAD_SHA256 = {
    1: "3c25ca76e29054f1aef2c6a0a5a9469d9691909af52bd29501390801135cfc7f",
    2: "5c8a717fe9e594e41a9d9a1394b185600f88bc37357ca6633d2d3b5740a1a126",
    3: "21f7efa7e4058f9c6fdadc6bc8d1d803ea2cb0348090f5ede93ac4f56f7b422e",
    4: "3c73a91b5cf89bb109029a7031f61ef98c2dde624f0d87e8b708ba8dec98414b",
    5: "421f61ada44e04daa198b616d70f5157fedf836d9918927709f1162a0be7fcf8",
    6: "9e101d1ed6fa88e8019afb2f7b1cb43ca405a7acdcabd00090c2059567a16f20",
    7: "42138086d5834314ac4f1e40c41477606d0aa6dd91e493c78c8c921456e42d59",
    8: "f3017a278965b15fcea451409d0e3ea9ab4bbded327ae4312b396bc0704df97e",
    9: "8e8db0d074746810898bbb77c43aa09d0f223a3b6176bafd51c1b1c79eb85eb4",
    10: "d0e8921bd16b1c69ef6696317c0ffd09240ec6a0fd351bba1f8ea4e20e671dd2",
}


def test_the_closed_form_gives_every_pinned_payload_digest():
    # A tripwire: the closed form every passing payload is compared with
    # must keep giving the digests pinned before it existed.
    for n, digest in VERIFY_PAYLOAD_SHA256.items():
        payload = json.dumps(passing_payload(n)).encode()
        assert hashlib.sha256(payload).hexdigest() == digest, n


@pytest.mark.parametrize("n", range(1, 7))
def test_verify_payload_golden_digest(n):
    # The whole reproducible payload, every claim's tallies and order
    # included, is the closed form of n.
    payload = json.dumps(verify_all(n, workers=1).to_json_value())
    assert payload == json.dumps(passing_payload(n))


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
        "piecewise=(1,3),(2,4) global=(1,4),(2,3)",
    ],
    "dyck_proposition": [
        "P=ESES: nestings=0 lefts=[1, 3] expected=[] fixed=True",
        "P=EESS: nestings=0 lefts=[1, 2] expected=[] fixed=True",
    ],
}


def test_verify_reports_failures_verbatim(monkeypatch):
    import wedgematch.enumeration as enumeration
    import wedgematch.paths as paths

    # psi_inv is broken where the harness calls it, in its code read of a
    # partner tuple: decoding returns the all-zero path's code.  The
    # record's stacking total is one too high, while its per-index stacking
    # values and its parent's total are right.  The height kernels behind
    # WedgePath.final_south_run, WedgePath.reversed_south_positions and
    # WedgePath.components answer one too many, no positions and no
    # components, where they are defined and where the harness imports them.
    st = enumeration._Facts.__dict__["st"].fn
    final_south_run = paths._final_south_run
    monkeypatch.setattr(enumeration, "_sweep", lambda p: tuple(range(len(p) // 2, 0, -1)))
    monkeypatch.setattr(
        enumeration._Facts, "st", property(lambda f: st(f) + (f.heights is not None))
    )
    for module in (paths, enumeration):
        monkeypatch.setattr(module, "_final_south_run", lambda a: final_south_run(a) + 1)
        monkeypatch.setattr(module, "_reversed_south_positions", lambda a: set())
        monkeypatch.setattr(module, "_cuts", lambda a: [])

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


def _offsets(p):
    """The offset list d[v] = p[v] - v of a 0-based partner list, the form
    the phi steps take and return.  The faults below name their triggers and
    wrong answers as partner lists, read more easily as matchings."""
    return [w - v for v, w in enumerate(p)]


def _unwind_insertion(d):
    """The insertion map's own unwinding step on an offset list: strip the
    first edge (0, r) and renumber, with no repair undone."""
    p = [v + x for v, x in enumerate(d)]
    r = p[0]
    return r, _offsets([v - 1 if v < r else v - 2 for j, v in enumerate(p) if j not in (0, r)])


def test_verify_reports_phi_inv_failures_verbatim(monkeypatch):
    import wedgematch.bijections as bijections
    import wedgematch.enumeration as enumeration

    # phi_inv's step and walk are broken where they are defined and where
    # the harness calls them: they unwind insertion instead of phi, so
    # phi_inv returns its input.  The node checks fail, so the size is rerun
    # with every claim's per-object check on every record.  Matching claims
    # run on each path's insertion image, so their counterexamples come in
    # path-stream order, not insertion-code order.
    from wedgematch.matching import _sweep

    def read_insertion(d):
        return _sweep(bijections._partners(d))

    monkeypatch.setattr(bijections, "_phi_inv_step", _unwind_insertion)
    monkeypatch.setattr(enumeration, "_phi_inv_step", _unwind_insertion)
    monkeypatch.setattr(bijections, "_phi_inv_code", read_insertion)
    monkeypatch.setattr(enumeration, "_phi_inv_code", read_insertion)
    report = verify_all(
        3, claims=["round_trip_phi", "round_trip_big_phi"], counterexample_limit=3
    )
    assert report.to_json_value()["claims"] == {
        "round_trip_phi": {
            "tested": 15,
            "failed": 4,
            "counterexamples": [
                "M=(1,5),(2,3),(4,6): comes back as (1,5),(2,6),(3,4)",
                "M=(1,6),(2,3),(4,5): comes back as (1,6),(2,5),(3,4)",
                "M=(1,5),(2,6),(3,4): comes back as (1,5),(2,3),(4,6)",
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


# A size-3 input for the failure tests: the code (5, 3, 1), its insertion
# image, the fully nested matching (1,6),(2,5),(3,4), and the step of the
# harness's phi fold that makes its image: 5 on the offset image of (3, 1).
CODE, NESTED = (5, 3, 1), (6, 5, 4, 3, 2, 1)
FOLD_STEP = (5, _offsets([3, 2, 1, 0]))


def _break_kernel(monkeypatch, kernel, trigger, wrong):
    """Give ``kernel`` the answer ``wrong(right answer)`` on the argument
    tuple ``trigger``, compared as the call passes it (a step kernel may
    change its list argument in place), where it is defined and wherever
    the harness's modules import it, as a fault in its source would."""
    import sys

    import wedgematch.bijections as bijections
    import wedgematch.enumeration as enumeration
    import wedgematch.matching as matching
    import wedgematch.paths as paths

    holders = [m for m in (enumeration, bijections, matching, paths) if hasattr(m, kernel)]
    right = getattr(holders[0], kernel)

    def faulty(*args):
        hit = args == trigger
        out = right(*args)
        return wrong(out) if hit else out

    for module in {*holders, sys.modules[right.__module__]}:
        monkeypatch.setattr(module, kernel, faulty)


def test_proposition_b_walks_components_against_the_table(monkeypatch):
    # The harness folds phi along the code tree, one surgery step per
    # depth.  At a reducible node, proposition_b walks phi's steps along
    # the first block's code, the leading code, and requires the image to
    # be that followed by the image of the ancestor that many edges up.
    # The fold and the walk share the step kernel, but the walk starts
    # afresh from the leading code, not from an ancestor's image.  Break the
    # step that puts the edge (1,2) in front of the image (1,4),(2,3), which
    # makes the image of the code (1, 3, 1), into a rearrangement with the
    # same block sizes, and that comparison must fail.
    _break_kernel(
        monkeypatch,
        "_phi_step",
        (1, _offsets([3, 2, 1, 0])),
        lambda d: _offsets([1, 0, 4, 5, 2, 3]),
    )
    report = verify_all(3, claims=["proposition_b"])
    assert report.to_json_value()["claims"]["proposition_b"] == {
        "tested": 15,
        "failed": 1,
        "counterexamples": [
            "P=ENESSSES: path_sizes(rev)=[1, 2] image_sizes=[1, 2] "
            "piecewise=(1,2),(3,6),(4,5) global=(1,2),(3,5),(4,6)"
        ],
    }


# Every kernel the claims call through the harness on a passing run, with a
# wrong answer for one input (see CODE above).  The code (3, 1) is the
# leading code of a reducible node of size 3, whose first block phi's walk
# makes.  The cut step that takes the path ESES to ESESES, whose three
# components the cut kernel behind WedgePath.components finds, drops the
# middle cut and keeps the last.  The first block end of NESTED is read
# where it is a record's m and where it is an image, and its arc counts
# where it is an image; as a record's m, its code read is broken, and its
# arc counts come from the gap columns of its parent's m, (1,4),(2,3), whose
# counts of arcs open across and closed before the gap NESTED's first edge
# ends in are broken, one by each column step, which takes the column from
# that of (1,2): [0, 1, 0] open, [0, 0, 1] closed.
# The children's north steps and stacking totals, which that parent gives
# as runs of rises from its own values 1 and 1, are broken at its first
# child.  The unwinding step and the first stacking value are read by node
# checks alone, which a fault in them fails while the rerun passes, so
# they are tested on their own below.
def _other_partner(p):
    aligned = tuple(v + 1 if v % 2 else v - 1 for v in range(1, len(p) + 1))
    return aligned if p != aligned else tuple(range(len(p), 0, -1))


def _other_code(b):
    return (1, 1, 1) if b != (1, 1, 1) else (2, 1, 1)


# name: (kernel, the arguments on which it answers wrongly, the wrong answer).
KERNEL_FAULTS = {
    "_partner_from_code": ("_partner_from_code", (CODE,), _other_partner),
    "_phi_step": ("_phi_step", FOLD_STEP, lambda d: _offsets([1, 0, 3, 2, 5, 4])),
    "_phi_walk": ("_phi_walk", ((3, 1),), lambda d: _offsets([1, 0, 3, 2])),
    "_arc_counts": ("_arc_counts", (NESTED,), lambda c: (c[0], c[1] + 1, c[2])),
    "_opened_step": ("_opened_step", ([0, 1, 0], 3), lambda gaps: [*gaps[:4], gaps[4] + 1]),
    "_closed_step": ("_closed_step", ([0, 0, 1], 3), lambda gaps: [*gaps[:4], gaps[4] + 1]),
    "_blocks": ("_block_end", (NESTED, 0), lambda end: end - 2),
    "_cuts": ("_cut_step", ([0, 1], 1, 3), lambda cuts: [0, 2]),
    "_rises": ("_rises", (1, 4, 5), lambda values: [values[0] + 1, *values[1:]]),
    "_sweep_code": ("_sweep", (NESTED,), _other_code),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_FAULTS))
def test_every_kernel_is_checked_by_some_claim(monkeypatch, kernel):
    _break_kernel(monkeypatch, *KERNEL_FAULTS[kernel])
    report = verify_all(3)
    assert not report.passed, kernel


def test_lemma1_sees_a_wrong_carried_step(monkeypatch):
    # North steps and stacking totals are carried by the same step, which a
    # fault then breaks alike: lemma1 must still fail, on the sweep's total.
    _break_kernel(monkeypatch, *KERNEL_FAULTS["_rises"])
    assert verify_all(3).to_json_value()["claims"]["lemma1"]["failed"] == 1


def test_lemma1s_node_check_reads_the_first_stacking_value(monkeypatch):
    # The carried stacking total takes its step from the parent's first
    # edge, so along a chain of m = psi(b) it adds the code-difference term
    # whatever m's stacking values are: only the first stacking value read
    # off m ties them to the formula.  A wrong read at NESTED fails lemma1's
    # node check there alone, and the rerun's full check, on the stacking
    # sweep, passes.
    import wedgematch.enumeration as enumeration

    _break_kernel(monkeypatch, "_first_stacking", (NESTED,), lambda st: st + 1)
    node = enumeration._CLAIMS_BY_LABEL["lemma1"].node
    assert [f.b for f in _code_tree(3) if not node(f)] == [CODE]
    passes = _record_passes(monkeypatch)
    assert verify_all(3, claims=["lemma1"]).passed
    assert passes == [[False, [()]], [False, [()]]]


def _random_partner(rng, n):
    order = list(range(1, 2 * n + 1))
    rng.shuffle(order)
    table = [0] * (2 * n)
    for a, b in zip(order[::2], order[1::2]):
        table[a - 1], table[b - 1] = b, a
    return tuple(table)


def _sweep_partners():
    """The empty matching, every matching of sizes 1..6, and 200 seeded
    random ones at each of n = 16, 64, 256 and 1024."""
    rng = random.Random(2008)
    return itertools.chain(
        [()],
        *([_partner_from_code(b) for b in _codes(n)] for n in range(1, 7)),
        (_random_partner(rng, n) for n in (16, 64, 256, 1024) for _ in range(200)),
    )


def _first_stacking_mismatch():
    """The first of the sweep partners, past the empty one, whose first
    stacking value as lemma1's node check reads it differs from the first
    value of the stacking sweep (0 at size 1), or None."""
    import wedgematch.matching as matching

    for p in _sweep_partners():
        if p and matching._first_stacking(p) != [*matching._stacking(p), 0][0]:
            return p
    return None


def _bad_code_read():
    """The first of the sweep partners whose code read is not an insertion
    code that inserts back to it, or None.  The insertion procedure, on a
    list of free vertices, shares no code with the sweep."""
    import wedgematch.matching as matching

    for p in _sweep_partners():
        code, n = matching._sweep(p), len(p) // 2
        in_range = len(code) == n and all(
            1 <= b <= 2 * (n - i) + 1 for i, b in enumerate(code, start=1)
        )
        if not (in_range and _partner_from_code(code) == p):
            return p
    return None


def test_sweep_equals_the_single_purpose_kernels():
    # lemma1's node check reads m's first stacking value off its first two
    # vertices; the stacking sweep behind Matching.st_component and
    # st_total, which lemma1's full check runs, must agree.
    assert _first_stacking_mismatch() is None


def test_sweep_code_inserts_back_to_its_matching():
    # The sweep's code read is the only one: psi_inv, phi and the harness
    # all run it.  The insertion oracle pins it.
    assert _bad_code_read() is None


# Wrong code reads of NESTED: another insertion code, and one whose first
# entry is out of range yet, as a list index, pops the same free vertex.
SWEEP_CODE_FAULTS = {
    "other_code": _other_code,
    "out_of_range": lambda b: (-1, *b[1:]),
}


@pytest.mark.parametrize("fault", sorted(SWEEP_CODE_FAULTS))
def test_insertion_oracle_sees_a_broken_code_read(monkeypatch, fault):
    _break_kernel(monkeypatch, "_sweep", (NESTED,), SWEEP_CODE_FAULTS[fault])
    assert _bad_code_read() == NESTED


# The single-purpose kernels the harness does not run on a passing run's
# records, each with a wrong answer on NESTED or on its path's heights
# (0, 1, 2): the first stacking read's or the carried values' differential
# test must see it.
PUBLIC_KERNEL_FAULTS = {
    "_stacking": ("_stacking", (NESTED,), lambda s: [s[0] + 1, *s[1:]]),
    "_north_steps": ("_north_steps", ((0, 1, 2),), lambda north: north + 1),
}


@pytest.mark.parametrize("kernel", ["_stacking"])
def test_sweep_differential_sees_a_broken_public_kernel(monkeypatch, kernel):
    _break_kernel(monkeypatch, *PUBLIC_KERNEL_FAULTS[kernel])
    assert _first_stacking_mismatch() == NESTED


def _code_tree_by_diff(n, prefix=()):
    """The oracle for the harness's walk: stream the paths as one product of
    their height ranges and, for each path, give (code, image, heights) for
    each depth after the first height that differs from the previous
    path's.  The image is phi's own walk of the code, not a fold along the
    tree, so the oracle does not read the walk's lazy images."""
    from wedgematch.bijections import _phi_walk

    codes = [()] * (n + 1)
    previous = ()
    for heights in _paths_under(n, prefix):
        k = next((i for i, (x, y) in enumerate(zip(heights, previous)) if x != y), 0)
        for i in range(k, n):
            b = codes[i + 1] = (heights[i] + i + 1,) + codes[i]
            yield b, _phi_walk(b), heights if i + 1 == n else None
        previous = heights


def _walked(nodes):
    return [(f.b, f.image, f.heights) for f in nodes]


@pytest.mark.parametrize("n", range(1, 7))
def test_code_tree_walk_equals_the_product_diff(n):
    # The depth-first walk over nested height ranges yields the nodes, their
    # images and the records' heights in the order the product-and-diff walk
    # does: for the whole stream, and for each cell of n=6.
    for prefix in [()] + [prefix for prefix in _cells(n) if prefix]:
        assert _walked(_code_tree(n, prefix)) == list(_code_tree_by_diff(n, prefix)), prefix


# Facts the node checks carry from a node's parent or ancestor, each pinned
# on every node of sizes 1..6 and on seeded random paths and codes.


def _cuts_by_sweep(a):
    """The cut kernel before it was a fold of its step: in 0-based indices
    the split after k needs a[i] - i <= -2k for all i >= k, with equality
    at i = k, which one right-to-left sweep of the largest a[i] - i keeps."""
    n = len(a)
    cuts, top = [n], -2 * n
    for k in range(n - 1, 0, -1):
        top = max(top, a[k] - k)
        if a[k] == -k and top == -2 * k:
            cuts.append(k)
    return [0, *cuts[::-1]]


def _random_heights(rng, n):
    """A seeded random path of n east steps, mostly near the line y = -x,
    where it splits into components."""
    heights = []
    for i in range(1, n + 1):
        above = rng.randrange(min(rng.choice((3, 3, 3, 12)), 2 * i - 1))
        heights.append(above - (i - 1))
    return tuple(heights)


def _random_codes():
    """Random paths at n = 16, 64, 256 and 1024, as their codes."""
    rng = random.Random(2008)
    counts = {16: 40, 64: 20, 256: 8, 1024: 2}
    return [
        _code_from_heights(_random_heights(rng, n)) for n, k in counts.items() for _ in range(k)
    ]


def test_carried_cuts_are_the_cuts_of_the_height_prefix():
    # A node's cut stack is one cut step on a copy of its parent's: with
    # the node's depth on top it is the cut list of the node's heights.
    from wedgematch.paths import _cut_step, _cuts

    for n in range(1, 7):
        for f in _code_tree(n):
            k = len(f.b)
            prefix = tuple(f.b[k - i] - i for i in range(1, k + 1))
            assert f.cuts + [k] == _cuts(prefix) == _cuts_by_sweep(prefix), f.b
    for b in _random_codes():
        a = [bi - (len(b) - i) for i, bi in enumerate(b)][::-1]
        cuts = []
        for k in range(1, len(a) + 1):
            cuts = _cut_step(list(cuts), a[k - 1] + k, k)
            assert cuts + [k] == _cuts_by_sweep(a[:k]), (len(a), k)


def _ends(p):
    """The vertices where the last open arc closes: the block ends, by the
    count of open arcs, kept as the oracle of _block_end."""
    ends, depth = [], 0
    for v, w in enumerate(p, start=1):
        depth += 1 if v < w else -1
        if not depth:
            ends.append(v)
    return ends


def _stacking_case(b, parent_ends):
    """Where the first edge (1, b_1 + 1) lands on the parent: next to the
    vertex 1 (b_1 = 1), right after a block of the parent, or elsewhere."""
    if b[0] == 1:
        return "b1_is_1"
    return "b1_minus_1_ends_a_parent_block" if b[0] - 1 in parent_ends else "inside_a_block"


def _code_pairs():
    """(code, parent code) for every node of depths 2..6 and each prefix of
    depth 2 or more of the random codes."""
    for n in range(2, 7):
        for f in _code_tree(n):
            if f.heights is not None:
                yield f.b, f.b[1:]
    for b in _random_codes():
        for k in (2, 3, len(b) // 2, len(b)):
            yield b[-k:], b[-k + 1 :]


@pytest.mark.parametrize(
    "case", ["b1_is_1", "b1_minus_1_ends_a_parent_block", "inside_a_block"]
)
def test_child_stacking_is_one_value_then_the_parents(case):
    # st_component(i) reads only the edges from e_i on, and the first edge
    # is no later edge of any window, so the child's stacking values are
    # st_component(1), which lemma1's node check reads off the first two
    # vertices, followed by the parent's.  The cases where the new edge
    # closes next to vertex 1 or right after a parent block are pinned apart
    # from the rest.
    from wedgematch.matching import _first_stacking, _stacking

    seen = 0
    for b, parent_b in _code_pairs():
        m, parent_m = _partner_from_code(b), _partner_from_code(parent_b)
        if _stacking_case(b, _ends(parent_m)) != case:
            continue
        seen += 1
        stacking = _stacking(m)
        assert stacking[1:] == _stacking(parent_m), b
        assert stacking[0] == Matching(m).st_component(1) == _first_stacking(m), b
    assert seen > 100


def _carry_case(f):
    """Where a node's first edge (1, b_1 + 1) ends on its parent's m: next
    to the vertex 1 (b_1 = 1), past the parent's last vertex (b_1 = 2k - 1
    at depth k, the last gap), right after another parent block, or
    elsewhere."""
    b1, k = f.b[0], len(f.b)
    if b1 == 1:
        return "b1_is_1"
    if b1 == 2 * k - 1:
        return "last_gap"
    return "b1_minus_1_ends_a_parent_block" if b1 - 1 in _ends(f.parent.m) else "inside_a_block"


def _carry_nodes(n=7):
    """Every node of sizes 1..n, then every node of the random codes'
    chains, folded one depth at a time from the root.  A chain node lets
    its parent go once its own values and gap columns are carried, as its
    child reads only those, so a chain of 1024 holds two nodes, not every
    ancestor's tables."""
    from wedgematch.enumeration import _Facts

    yield from _code_tree(n)
    for b in _random_codes():
        f = _Facts((), None)
        for k in range(1, len(b) + 1):
            f = _Facts(b[-k:], f)
            yield f
            f.arcs, f.st, f.north, f.opened, f.closed
            f.parent = None


def _heights(b):
    """The heights a_1..a_k of the path whose code is b."""
    return tuple(b[len(b) - i] - i for i in range(1, len(b) + 1))


def _kernel_statistics(b):
    """The (crossings, nestings), stacking total and north steps of the
    node with code b, from the single-purpose kernels on its m and path."""
    import wedgematch.matching as matching
    import wedgematch.paths as paths

    m = _partner_from_code(b)
    return (
        matching._arc_counts(m)[:2],
        sum(matching._stacking(m)),
        paths._north_steps(_heights(b)),
    )


def _carry_mismatch(n=7, case=None):
    """The m of the first of the carry nodes, in the given case or in any,
    whose carried (crossings, nestings), stacking total and north steps
    differ from the single-purpose kernels' on m and its path, or None; and
    the number of nodes compared."""
    seen = 0
    for f in _carry_nodes(n):
        if case is not None and _carry_case(f) != case:
            continue
        seen += 1
        if (f.arcs, f.st, f.north) != _kernel_statistics(f.b):
            return f.m, seen
    return None, seen


@pytest.mark.parametrize(
    "case", ["b1_is_1", "b1_minus_1_ends_a_parent_block", "last_gap", "inside_a_block"]
)
def test_carried_arcs_and_stacking_total_equal_the_sweeps(case):
    # A node's arc counts are its parent's plus two counts of the parent's
    # gap table, its stacking total the parent's plus one value read off the
    # parent's first edge, and its north steps the parent's plus its last
    # rise: on every node of sizes 1..7 and along seeded random chains up to
    # n=1024, they equal what the kernels behind Matching.crossings(),
    # nestings(), st_total() and WedgePath.north_steps() give.  The cases
    # where the new edge closes next to vertex 1, right after a parent
    # block or past the parent's last vertex are pinned apart from the rest.
    mismatch, seen = _carry_mismatch(case=case)
    assert mismatch is None
    assert seen > 1000


def _gap_columns(m):
    """The arcs open across and closed before each gap t = 0..len(m), the
    one right after vertex t, counted off m's endpoints: an arc (l, r) is
    open across t when l <= t < r and closed before it when r <= t."""
    closed = [*itertools.accumulate([v > w for v, w in enumerate(m, start=1)], initial=0)]
    return [t - 2 * c for t, c in enumerate(closed)], closed


def _column_mismatch(n=7):
    """The m of the first of the carry nodes whose carried gap columns
    differ from the count of its endpoints, or None; and the number of
    nodes compared."""
    seen = 0
    for f in _carry_nodes(n):
        seen += 1
        if (f.opened, f.closed) != _gap_columns(f.m):
            return f.m, seen
    return None, seen


def test_carried_gap_columns_count_the_endpoints_of_m():
    # A node's gap columns are one step from its parent's, which no node
    # reads m for: on every node of sizes 1..7 and along seeded random
    # chains up to n=1024, they equal the count of m's left and right
    # endpoints up to each gap.
    mismatch, seen = _column_mismatch()
    assert mismatch is None
    assert seen > 100_000


@pytest.mark.parametrize("kernel", ["_opened_step", "_closed_step"])
def test_column_differential_sees_a_broken_step(monkeypatch, kernel):
    _break_kernel(monkeypatch, *KERNEL_FAULTS[kernel])
    assert _column_mismatch(n=3)[0] == (4, 3, 2, 1)


@pytest.mark.parametrize("kernel", ["_arc_counts", "_north_steps", "_stacking"])
def test_carry_differential_sees_a_broken_public_kernel(monkeypatch, kernel):
    # The carried values stand in for the single-purpose kernels on every
    # record: a wrong answer of any of them on NESTED or its path must show.
    faults = {"_arc_counts": KERNEL_FAULTS["_arc_counts"], **PUBLIC_KERNEL_FAULTS}
    _break_kernel(monkeypatch, *faults[kernel])
    assert _carry_mismatch(n=3)[0] == NESTED


def _parent_cases(parent):
    """The children b_1 of a node pinned apart, by case: next to the vertex
    1, at and right after the end u of the node's first edge (1, u), and
    past the node's last vertex, the last gap."""
    cases = {"b1_is_1": 1, "last_gap": 2 * len(parent.b) + 1}
    if parent.b:
        u = parent.m[0]
        cases.update(b1_is_u=u, b1_is_u_plus_1=u + 1)
    return cases


def _record_values(n, statistic):
    """The statistic on every record of size n, from the kernels."""
    index = ("crossings", "nestings", "st_total", "north_steps").index(statistic)
    for f in _code_tree(n):
        if f.heights is not None:
            arcs, st, north = _kernel_statistics(f.b)
            yield (*arcs, st, north)[index]


@pytest.mark.parametrize("case", ["b1_is_1", "b1_is_u", "b1_is_u_plus_1", "last_gap"])
def test_a_parent_gives_its_records_statistics(case):
    # A node of depth n-1 gives the statistics of all its 2n-1 children,
    # the records of size n, in one loop each: on every such node of sizes
    # 1..7, the root included, its values equal what the kernels behind
    # WedgePath.north_steps(), Matching.crossings(), nestings() and
    # st_total() give on the child.  The children next to vertex 1, at and
    # right after the end of the node's first edge, and in the last gap are
    # pinned apart.
    from wedgematch.enumeration import _CHILD_STATISTICS, _Facts

    seen = 0
    for parent in [_Facts((), None), *_code_tree(6)]:
        values = {s: list(rule(parent)) for s, rule in _CHILD_STATISTICS.items()}
        assert {len(v) for v in values.values()} == {2 * len(parent.b) + 1}, parent.b
        b1 = _parent_cases(parent).get(case)
        if b1 is None:
            continue
        seen += 1
        got = [values[s][b1 - 1] for s in ("crossings", "nestings", "st_total", "north_steps")]
        arcs, st, north = _kernel_statistics((b1, *parent.b))
        assert got == [*arcs, st, north], (b1, parent.b)
    assert seen > 10_000


def test_block_end_is_the_step_of_the_block_split():
    # _blocks is the fold of _block_end; each block end must also be where
    # the count of open arcs drops to 0, from each block's start, and no
    # block opens at the last one.  Shifting the vertices after a block
    # shifts their ends.
    from wedgematch.matching import _block_end, _blocks

    for p in _sweep_partners():
        ends = _ends(p)
        starts = [0, *ends]
        assert [_block_end(p, start) for start in starts] == [*ends, 0], p
        assert [start + len(block) for start, block in _blocks(p)] == ends, p
        if ends:
            s = ends[0]
            rest = tuple([v - s for v in p[s:]])
            assert [s + _block_end(rest, e - s) for e in ends[:-1]] == ends[1:], p


# The claims the harness checks node by node along the code tree, and those
# of them whose induction runs over the whole tree rather than one chain.
NODE_CHECKED = (
    "round_trip_psi_inv",
    "lemma1",
    "round_trip_phi",
    "round_trip_phi_inv",
    "round_trip_big_phi",
    "proposition_b",
)
WHOLE_TREE = ("round_trip_phi_inv",)


def _full_report(monkeypatch, n, claims=None):
    """verify_all(n, claims=claims) with every claim's per-object check run
    on every record."""
    import dataclasses

    import wedgematch.enumeration as enumeration

    with monkeypatch.context() as patch:
        patch.setattr(
            enumeration,
            "_CLAIMS_BY_LABEL",
            {c.label: dataclasses.replace(c, node=None) for c in enumeration._REGISTRY},
        )
        return verify_all(n, claims=claims).to_json_value()


# Faults for the differential test, as (kernel, trigger, wrong answer): none,
# then kernels broken at a record of size 3, at depth 2 only, in the first
# block end of NESTED (named for the fold the full check runs) and of
# (1,4),(2,3) at depth 2, in the code read, in the first stacking value
# (of (1,4),(2,3) at depth 2, and of the fully nested matching of size 4,
# whose later values are its ancestors' first), the cut step dropping a
# middle cut at a record, dropping the cut of (1,2),(3,4) at depth 2 and adding one to the
# irreducible (1,4),(2,3), the carried north steps and stacking total of a
# record, a surgery step that
# answers an image two vertices too long, an insertion that
# keeps the first block of (1,2),(3,4),(5,6) but not the rest, one that
# keeps every block end of (1,2),(3,5),(4,6) but not the last block, one
# that keeps the block ends and last block of (1,4),(2,3),(5,6) but not the
# first block, whose code is then no longer the leading code, and an
# unwinding step whose "parent" is no matching, yet one surgery step takes
# it back to its input.
DIFFERENTIAL_FAULTS = {
    "none": None,
    "_phi_step": KERNEL_FAULTS["_phi_step"],
    "_phi_step_depth_2": ("_phi_step", (3, _offsets([1, 0])), lambda d: _offsets([1, 0, 3, 2])),
    "_phi_inv_step": (
        "_phi_inv_step",
        (_offsets([v - 1 for v in NESTED]),),
        lambda step: (1, step[1]),
    ),
    "_phi_inv_step_depth_2": (
        "_phi_inv_step",
        (_offsets([3, 2, 1, 0]),),
        lambda step: (1, step[1]),
    ),
    "_blocks": KERNEL_FAULTS["_blocks"],
    "_block_end_depth_2": ("_block_end", ((4, 3, 2, 1), 0), lambda end: 0),
    "_sweep_code": KERNEL_FAULTS["_sweep_code"],
    "_sweep_code_depth_2": ("_sweep", ((4, 3, 2, 1),), lambda b: (1, 1)),
    "_first_stacking": ("_first_stacking", (tuple(range(8, 0, -1)),), lambda st: st + 1),
    "_first_stacking_depth_2": ("_first_stacking", ((4, 3, 2, 1),), lambda st: st + 1),
    "_cuts": KERNEL_FAULTS["_cuts"],
    "_cut_step_depth_2": ("_cut_step", ([0], 1, 2), lambda cuts: [0]),
    "_cut_step_irreducible": ("_cut_step", ([0], 3, 2), lambda cuts: [0, 1]),
    "_rises": KERNEL_FAULTS["_rises"],
    # The partners 7 and 6 appended at vertices 6 and 7 are the offsets 1, -1.
    "_phi_step_longer": ("_phi_step", FOLD_STEP, lambda d: [*d, 1, -1]),
    "_partner_from_code": ("_partner_from_code", ((1, 1, 1),), lambda p: (2, 1, 5, 6, 3, 4)),
    "_partner_from_code_last_block": (
        "_partner_from_code",
        ((1, 2, 1),),
        lambda p: (2, 1, 6, 5, 4, 3),
    ),
    "_partner_from_code_first_block": (
        "_partner_from_code",
        ((3, 1, 1),),
        lambda p: (3, 4, 1, 2, 6, 5),
    ),
    "_phi_inv_step_not_a_matching": (
        "_phi_inv_step",
        (_offsets([5, 6, 4, 7, 2, 0, 1, 3]),),
        lambda step: (step[0], _offsets([1, 4, 4, 5, 0, 0])),
    ),
}


@pytest.mark.parametrize("fault", sorted(DIFFERENTIAL_FAULTS))
def test_node_checks_imply_the_full_checks(monkeypatch, fault):
    # On every record, a claim whose node checks pass along the record's
    # chain, with none failing above the records anywhere, passes its full
    # per-object check; a whole-tree claim passes it on every record if its
    # node checks pass at every node.  And the report is the one the full
    # checks give.
    import wedgematch.enumeration as enumeration

    spec = DIFFERENTIAL_FAULTS[fault]
    if spec is not None:
        _break_kernel(monkeypatch, *spec)
    for n in range(1, 7 if spec is None else 5):
        nodes = list(_code_tree(n))
        for label in NODE_CHECKED:
            claim = enumeration._CLAIMS_BY_LABEL[label]
            passed = {id(f): claim.node(f) for f in nodes}
            if label in WHOLE_TREE:
                if all(passed.values()):
                    for f in nodes:
                        assert f.heights is None or claim.check(f) is None, (fault, label, f.b)
                continue
            if not all(passed[id(f)] for f in nodes if f.heights is None):
                continue
            for f in nodes:
                if f.heights is None:
                    continue
                chain = [f.ancestor(depth) for depth in range(1, n + 1)]
                if all(passed[id(a)] for a in chain):
                    assert claim.check(f) is None, (fault, label, f.b)
        if spec is not None:
            assert verify_all(n).to_json_value() == _full_report(monkeypatch, n), (fault, n)


@pytest.mark.parametrize("fault", ["_phi_step_depth_2"])
def test_a_fault_above_the_records_fails_the_top_size(monkeypatch, fault):
    # The fault fires at depth 2 only, so round_trip_phi's node check passes
    # at every record of size 4; its failures at depth 2 must still fail
    # verify_all(4), through the full checks they send it to.
    import wedgematch.enumeration as enumeration

    _break_kernel(monkeypatch, *DIFFERENTIAL_FAULTS[fault])
    node = enumeration._CLAIMS_BY_LABEL["round_trip_phi"].node
    assert all(node(f) for f in _code_tree(4) if f.heights is not None)
    full = _full_report(monkeypatch, 4)["claims"]
    claims = verify_all(4, claims=NODE_CHECKED).to_json_value()["claims"]
    assert claims["round_trip_phi"]["failed"] > 0
    assert claims == {label: full[label] for label in NODE_CHECKED}


# For each wrong unwinding step, the size it is run at: 3 for the record
# whose image is NESTED, 4 for the node of depth 2 whose image is
# (1,4),(2,3).
UNWINDING_STEP_FAULTS = {"_phi_inv_step": 3, "_phi_inv_step_depth_2": 4}


@pytest.mark.parametrize("fault", sorted(UNWINDING_STEP_FAULTS))
def test_the_unwinding_step_is_read_by_the_node_checks_alone(monkeypatch, fault):
    # The walk behind phi_inv unwinds in history form and calls no step, so
    # a wrong unwinding step fails round_trip_phi's node check only at the
    # node whose image it unwinds wrongly.  The rerun's full checks unwind
    # with the correct walk, so they all pass, and the report is the
    # passing one.
    import wedgematch.enumeration as enumeration

    _break_kernel(monkeypatch, *DIFFERENTIAL_FAULTS[fault])
    n = UNWINDING_STEP_FAULTS[fault]
    trigger = DIFFERENTIAL_FAULTS[fault][1][0]
    node = enumeration._CLAIMS_BY_LABEL["round_trip_phi"].node
    assert [f.image for f in _code_tree(n) if not node(f)] == [trigger]
    passes = _record_passes(monkeypatch)
    assert verify_all(n).to_json_value() == passing_payload(n)
    assert passes == [[False, [()]], [False, [()]]]


def test_the_unwinding_walk_is_read_by_the_full_checks_alone(monkeypatch):
    # A passing run unwinds each image with the step alone and calls the
    # walk behind phi_inv nowhere; the differential tests of the walks
    # against the step folds (tests/test_bijections.py) tie the two.  The
    # full checks, which a failing node check sends a size to, unwind with
    # the walk, so a wrong code for NESTED fails the three round trips at
    # the records that unwind it: the one whose image is NESTED, and the
    # one whose m is.
    _break_kernel(monkeypatch, "_phi_inv_code", (_offsets([v - 1 for v in NESTED]),), _other_code)
    assert verify_all(3).passed
    full = _full_report(monkeypatch, 3)["claims"]
    back = "comes back as (1,2),(3,4),(5,6)"
    failed = {label: c["counterexamples"] for label, c in full.items() if c["failed"]}
    assert failed == {
        "round_trip_phi": [f"M=(1,6),(2,3),(4,5): {back}"],
        "round_trip_phi_inv": [f"M=(1,6),(2,5),(3,4): {back}"],
        "round_trip_big_phi": ["P=ESENNNESSSSS: comes back as ESESES"],
    }


def _pooled_cell(cell):
    """_run_cell under a name of its own, which the pool can send while the
    harness's name for it is patched: a function crosses to the pool's
    processes as its name."""
    return _run_cell(cell)


def _record_passes(monkeypatch):
    """Record each pass of the harness over a size's cells as [pooled,
    prefixes]: whether it ran on the process pool, and the prefixes of the
    cells it handed out, in order.  A pass starts at the size's first cell;
    this process hands a cell out by calling _run_cell on it, and the pool
    is handed one by each call of its apply_async."""
    import wedgematch.enumeration as enumeration

    passes = []

    def hand_out(pooled, cell):
        if cell.prefix == _cells(cell.n)[0]:
            passes.append([pooled, []])
        passes[-1][1].append(cell.prefix)

    def recording(cell):
        hand_out(False, cell)
        return _run_cell(cell)

    class RecordingPool(multiprocessing.pool.Pool):
        def apply_async(self, func, args=(), *rest, **kwargs):
            hand_out(True, *args)
            return super().apply_async(_pooled_cell, args, *rest, **kwargs)

    monkeypatch.setattr(enumeration, "_run_cell", recording)
    monkeypatch.setattr(enumeration, "Pool", RecordingPool)
    return passes


def test_a_passing_size_decides_in_one_pass(monkeypatch):
    # A passing size tests each node-checked claim by its node checks alone,
    # in one pass over the cells: its per-object check never runs.
    import dataclasses

    import wedgematch.enumeration as enumeration

    def unreachable(f):
        raise AssertionError(f"a passing size ran a full check at {f.b}")

    monkeypatch.setattr(
        enumeration,
        "_CLAIMS_BY_LABEL",
        {
            c.label: c if c.node is None else dataclasses.replace(c, check=unreachable)
            for c in enumeration._REGISTRY
        },
    )
    passes = _record_passes(monkeypatch)
    payload = json.dumps(verify_all(5).to_json_value())
    assert payload == json.dumps(passing_payload(5))
    assert passes == [[False, [()]]]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the pool's workers inherit the broken kernel only when forked",
)
def test_a_failing_size_reruns_on_the_process_pool(monkeypatch):
    # Each fault breaks the harness's fold, not phi's own walk, at one node
    # of depth 3, the depth n=6's cells fix: (5, 3, 1), in the last of the 15
    # cells, (4, 3, 1), in the one before, or (1, 1, 1), in the first.  So
    # that cell alone fails a node check, round_trip_phi's.
    # The size must then be rerun in full on the pool as well, and the two
    # round trips that unwind the image report as their full checks do (on
    # one worker too, as the node/full differential test requires).  The
    # first pass hands the pool no more than the failing cell and the
    # cells queued behind it, four for two processes: cells 0-3 when the
    # first cell fails.
    import wedgematch.enumeration as enumeration

    step = enumeration._phi_step
    claims = ("round_trip_phi", "round_trip_big_phi")
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    for b1, parent, wrong, failing in (
        (5, [3, 2, 1, 0], [1, 0, 3, 2, 5, 4], 14),
        (4, [3, 2, 1, 0], [1, 0, 3, 2, 5, 4], 13),
        (1, [1, 0, 3, 2], [3, 2, 1, 0, 5, 4], 0),
    ):

        def faulty(*args, trigger=(b1, _offsets(parent)), wrong=_offsets(wrong)):
            hit = args == trigger
            image = step(*args)
            return wrong if hit else image

        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_phi_step", faulty)
            cells = [enumeration._Cell(6, prefix, claims, 10) for prefix in _cells(6)]
            assert [i for i, c in enumerate(cells) if enumeration._run_cell(c) is None] == [
                failing
            ]
            passes = _record_passes(patch)
            parallel = verify_all(6, workers=2, claims=claims).to_json_value()
            assert passes == [[True, _cells(6)[: failing + 4]], [True, _cells(6)]], b1
            assert not parallel["passed"]
            assert parallel == _full_report(patch, 6, claims)


def test_one_and_two_workers_run_the_same_cells(monkeypatch):
    # Every run walks a size as its _cells, in stream order, whatever the
    # worker count: one cell, prefix (), up to n=5, and 15 at n=6.  One
    # worker runs every cell in this process, and two run n=6 on the pool.
    # A passing size runs its cells once.
    import wedgematch.enumeration as enumeration

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    passes = _record_passes(monkeypatch)
    for workers in (1, 2):
        for n in (5, 6):
            passes.clear()
            payload = json.dumps(verify_all(n, workers=workers).to_json_value())
            assert payload == json.dumps(passing_payload(n))
            assert passes == [[workers > 1 and n > 5, _cells(n)]], (workers, n)
    # A failing size's first pass stops at its first failing cell, the 11th,
    # whose paths start a_2 = 1, and its rerun runs every cell again.
    _break_kernel(monkeypatch, *DIFFERENTIAL_FAULTS["_phi_step_depth_2"])
    passes.clear()
    assert not verify_all(6, claims=["round_trip_phi"]).passed
    assert passes == [[False, _cells(6)[:11]], [False, _cells(6)]]


# sha256 of json.dumps(verify_all(6).to_json_value()) under the fault
# DIFFERENTIAL_FAULTS["_phi_step_depth_2"]: 5,855 bytes.
FAILING_PAYLOAD_SHA256 = "6f4ebbede53999ec5218e8579c0e861a49eab1f919fad927ab338be21e4a2c71"


@pytest.mark.parametrize(
    "workers",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the pool's workers inherit the broken kernel only when forked",
            ),
        ),
    ],
)
def test_a_failing_multi_cell_payload_is_pinned(monkeypatch, workers):
    # The fault fails every path through one node of depth 2, a third of
    # n=6: the five cells whose paths start a_2 = 1.  The whole payload
    # then pins how their counterexamples merge, in stream order, on one
    # worker and on the pool alike.  The walks behind phi and phi_inv call
    # no step, so the full checks that read them, proposition_b's block walk
    # and round_trip_phi_inv's, see the wrong images as wrong, or not at
    # all.
    import wedgematch.enumeration as enumeration

    _break_kernel(monkeypatch, *DIFFERENTIAL_FAULTS["_phi_step_depth_2"])
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    report = verify_all(6, workers=workers).to_json_value()
    failed = {label: c["failed"] for label, c in report["claims"].items() if c["failed"]}
    assert failed == {
        "round_trip_phi": 3465,
        "round_trip_big_phi": 3465,
        "theorem2": 2772,
        "theorem1": 2772,
        "proposition_b": 3465,
    }
    payload = json.dumps(report).encode()
    assert len(payload) == 5855
    assert hashlib.sha256(payload).hexdigest() == FAILING_PAYLOAD_SHA256


def _merge(results, limit):
    """The cells' results in order, merged as the harness merges them."""
    count, failures, counters = 0, {}, {}
    for cell_count, cell_failures, cell_counters in results:
        count += cell_count
        for label, (failed, examples) in cell_failures.items():
            slot = failures.setdefault(label, [0, []])
            slot[0] += failed
            slot[1].extend(examples[: limit - len(slot[1])])
        for name, counter in cell_counters.items():
            counters.setdefault(name, Counter()).update(counter)
    return count, failures, counters


@pytest.mark.parametrize("fault", ["none", "_phi_step_depth_2", "_cuts"])
@pytest.mark.parametrize("full", [False, True])
def test_one_cell_equals_the_merge_of_the_pool_cells(monkeypatch, fault, full):
    # The whole stream as one cell gives what its pool cells give, merged in
    # order: the same count, failures, counterexamples and counters.  The
    # first pass compares only whether some cell failed a test.
    import wedgematch.enumeration as enumeration

    spec = DIFFERENTIAL_FAULTS[fault]
    if spec is not None:
        _break_kernel(monkeypatch, *spec)
    labels = tuple(enumeration.CLAIMS)
    limit = 3
    for n in range(1, 7):
        def run(prefix):
            return enumeration._run_cell(enumeration._Cell(n, prefix, labels, limit, full))

        whole = run(())
        pieces = [run(prefix) for prefix in _cells(n)]
        assert (whole is None) == (None in pieces), (fault, n)
        if whole is not None:
            assert whole == _merge(pieces, limit), (fault, n)


# Wrong answers that are no matching: the insertion image of the code
# (1, 1, 1), and the phi image made by the step that puts the edge (1,2) in
# front of (1,2),(3,4).  In both, the node's image still unwinds one step
# to its parent's.
NOT_A_MATCHING = {
    "_partner_from_code": (((1, 1, 1),), lambda p: (2, 1, 4, 1, 6, 5)),
    "_phi_step": ((1, _offsets([1, 0, 3, 2])), lambda d: _offsets([1, 1, 3, 2, 5, 4])),
}


def _is_matching_by_generator(p, base):
    """The generator form ``_is_matching`` replaced, kept as its oracle."""
    size = len(p)
    return all(
        base <= w < size + base and w != v and p[w - base] == v for v, w in enumerate(p, base)
    )


@pytest.mark.parametrize("base", [0, 1])
def test_is_matching_equals_the_generator(base):
    # Every tuple of length up to 6 over the values -2..len+1: negative
    # values must fail the range test, not wrap around as indexes.  Base 1
    # is a partner tuple, for _is_matching; base 0 is a 0-based partner
    # list, given as offsets and converted as the harness converts its
    # images before it tests them, which then meets every zero offset and
    # offsets up to two past either end.
    from wedgematch.bijections import _partners
    from wedgematch.enumeration import _is_matching

    for size in range(7):
        for p in itertools.product(range(-2, size + 2), repeat=size):
            if base:
                assert _is_matching(p) == _is_matching_by_generator(p, 1), p
            else:
                assert _is_matching(_partners(_offsets(p))) == _is_matching_by_generator(p, 0), p
    # The harness's images are offset lists.
    assert _is_matching(_partners([1, -1])) and not _is_matching(_partners(_offsets([-1, 0])))


@pytest.mark.parametrize("kernel", sorted(NOT_A_MATCHING))
def test_phi_inv_node_check_requires_matchings(monkeypatch, kernel):
    # round_trip_phi_inv's induction runs over the whole tree and counts the
    # images of each depth, so its node check must see that the image and a
    # record's m are matchings: here one step of unwinding alone passes.
    import wedgematch.enumeration as enumeration

    _break_kernel(monkeypatch, kernel, *NOT_A_MATCHING[kernel])
    node = enumeration._CLAIMS_BY_LABEL["round_trip_phi_inv"].node
    nodes = list(_code_tree(3))
    (record,) = [f for f in nodes if f.b == (1, 1, 1)]
    assert record.unwinds and not node(record)
    assert all(node(f) for f in nodes if f is not record)


def test_a_bad_image_is_reported_not_raised(monkeypatch, capsys):
    # The insertion image of (1, 1, 1) is no matching, which the walk behind
    # phi_inv refuses.  Counterexamples print such a partner tuple as raw
    # text instead of raising on it, so the report fails and the command
    # exits 1, the code for a failed claim, not 3, the code for bad input.
    from wedgematch.cli import main

    _break_kernel(monkeypatch, "_partner_from_code", *NOT_A_MATCHING["_partner_from_code"])
    claims = verify_all(3).to_json_value()["claims"]
    assert {label for label, result in claims.items() if result["failed"]} == {
        "cardinality_matchings",
        "round_trip_phi_inv",
        "dyck_proposition",
    }
    assert claims["round_trip_phi_inv"]["counterexamples"] == [
        "M=partners(2, 1, 4, 1, 6, 5): does not unwind: "
        "offset list is no perfect matching at vertex 3"
    ]
    assert main(["verify", "3"]) == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_an_image_the_arc_count_refuses_is_reported_not_raised(monkeypatch, capsys):
    # The surgery step that puts the edge (1,2) in front of (1,2) answers
    # [-1, 0, 3, 2], whose image (0, 1, 4, 3) closes vertex 1 while no arc
    # is open.  The arc count refuses it as no matching, and the claims
    # that count its nestings report the refusal, each run alone too.
    # round_trip_phi_inv walks each record's m both ways and calls no step,
    # so it passes.  So the command exits 1, the code for a failed claim,
    # not 3, the code for bad input, with nothing on stderr.
    from wedgematch.cli import main

    _break_kernel(
        monkeypatch, "_phi_step", (1, _offsets([1, 0])), lambda d: _offsets([-1, 0, 3, 2])
    )
    claims = verify_all(2).to_json_value()["claims"]
    assert {label for label, result in claims.items() if result["failed"]} == {
        "round_trip_phi",
        "round_trip_big_phi",
        "theorem2",
        "theorem1",
        "proposition_a",
        "proposition_b",
        "dyck_proposition",
    }
    refusal = "not counted: partner table closes an arc it never opened: (0, 1, 4, 3)"
    assert claims["theorem1"]["counterexamples"] == [f"P=ESES: north=0 nestings={refusal}"]
    assert claims["theorem2"]["counterexamples"] == [
        f"M=(1,2),(3,4): stacking=0 nestings={refusal} first_edge_kept=False"
    ]
    assert claims["dyck_proposition"]["counterexamples"][0].startswith(
        f"P=ESES: nestings={refusal} "
    )
    for label in ("theorem1", "theorem2", "dyck_proposition"):
        assert not verify_all(2, claims=[label]).passed, label
    assert main(["verify", "2", "--json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)[-1]["passed"] is False
    assert err == ""


def test_a_bad_code_read_is_reported_not_raised(monkeypatch, capsys):
    # The code read of (1,4),(2,3) comes back with the entry 0, or 9, which
    # no insertion code has.  Counterexamples print such a code raw instead
    # of raising on it, and the insertion that round_trip_psi_inv runs, and
    # the phi walk that proposition_b's full check runs on each block, such
    # as the irreducible (1,4),(2,3) or the first block of
    # (1,4),(2,3),(5,6), range-check the code first: 9 would index past
    # both of their lists.  proposition_b's node check walks the leading
    # code of the node itself.  So the command reports the failed claims
    # and exits 1, not 2, the code for bad usage, with nothing on stderr
    # (the JSON form writes no elapsed times there).
    from wedgematch.cli import main

    for entry in (0, 9):
        with monkeypatch.context() as patch:
            _break_kernel(patch, "_sweep", ((4, 3, 2, 1),), lambda b: (entry, 1))
            claims = verify_all(2).to_json_value()["claims"]
            assert {label for label, result in claims.items() if result["failed"]} == {
                "round_trip_psi",
                "round_trip_psi_inv",
                "round_trip_big_phi",
                "proposition_b",
            }, entry
            assert claims["round_trip_psi"]["counterexamples"] == [
                f"P=ENESSS: comes back as code({entry}, 1)"
            ]
            assert claims["round_trip_psi_inv"]["counterexamples"] == [
                f"M=(1,4),(2,3): does not unwind: code entry {entry} at position 1 is outside 1..3"
            ]
            for n in ("2", "3"):
                assert main(["verify", n, "--json"]) == 1, (entry, n)
                out, err = capsys.readouterr()
                assert json.loads(out)[-1]["passed"] is False
                assert err == "", (entry, n)


def test_a_code_read_of_no_matching_is_reported_not_raised(monkeypatch, capsys):
    # The insertion image (3, 1, 1, 2, 6, 5) of (1, 1, 1) closes vertex 3
    # while no arc is open.  The sweeps that read it, the code read among
    # them, refuse it as no matching instead of failing on their lists of
    # open arcs, and the claims that read its code report the refusal, each
    # run alone too.  So the command exits 1, the code for a failed claim,
    # with nothing on stderr.
    from wedgematch.cli import main

    doctored = (3, 1, 1, 2, 6, 5)
    _break_kernel(monkeypatch, "_partner_from_code", ((1, 1, 1),), lambda p: doctored)
    claims = verify_all(3).to_json_value()["claims"]
    failed = {label for label, result in claims.items() if result["failed"]}
    assert failed == {
        "cardinality_matchings",
        "round_trip_psi",
        "round_trip_psi_inv",
        "round_trip_phi_inv",
        "round_trip_big_phi",
        "lemma1",
        "theorem2",
        "proposition_b",
        "dyck_proposition",
    }
    refusal = f"does not unwind: partner table closes an arc it never opened: {doctored}"
    assert claims["round_trip_psi"]["counterexamples"] == [f"P=ESESES: {refusal}"]
    assert claims["round_trip_psi_inv"]["counterexamples"] == [f"M=partners{doctored}: {refusal}"]
    for label in failed:
        assert not verify_all(3, claims=[label]).passed, label
    assert main(["verify", "3", "--json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)[-1]["passed"] is False
    assert err == ""


def test_an_image_that_does_not_unwind_is_reported_not_raised(monkeypatch, capsys):
    # The surgery step that puts the edge (1,3) in front of (1,2) answers
    # the non-matching [2, 2, 0, 0], which the unwinding step refuses as
    # corrupted input, and the walk behind phi_inv as no perfect matching.
    # The claims that unwind it report the walk's refusal as a failure;
    # round_trip_phi_inv walks each record's m both ways and calls no step,
    # so it passes.  So the command exits 1, the code for a failed claim,
    # not 3, the code for bad input.
    from wedgematch.cli import main

    _break_kernel(
        monkeypatch, "_phi_step", (2, _offsets([1, 0])), lambda d: _offsets([2, 2, 0, 0])
    )
    claims = verify_all(2).to_json_value()["claims"]
    assert {label for label, result in claims.items() if result["failed"]} == {
        "round_trip_phi",
        "round_trip_big_phi",
        "theorem2",
        "theorem1",
        "proposition_b",
        "dyck_proposition",
    }
    refusal = "does not unwind: offset list is no perfect matching at vertex 2"
    assert claims["round_trip_phi"]["counterexamples"] == [f"M=(1,3),(2,4): {refusal}"]
    assert claims["round_trip_big_phi"]["counterexamples"] == [f"P=EESS: {refusal}"]
    for label in ("round_trip_phi", "round_trip_big_phi"):
        assert not verify_all(2, claims=[label]).passed, label
    assert main(["verify", "2"]) == 1
    out, err = capsys.readouterr()
    assert "result: FAIL" in out
    assert "error" not in err


@pytest.mark.parametrize(
    "workers",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the pool's workers inherit the broken kernel only when forked",
            ),
        ),
    ],
)
def test_cardinality_matchings_counts_perfect_images(monkeypatch, workers):
    # cardinality_matchings counts the records whose m is a perfect matching
    # of [2n], not the records: with one image broken, it fails alone.  The
    # broken code (1, 1, 1, 2, 1, 1) has heights 0, -1, -1, -3, -4, -5, in
    # the second of the 15 cells of n=6, which a pool's process runs.
    import wedgematch.enumeration as enumeration

    _break_kernel(
        monkeypatch, "_partner_from_code", ((1, 1, 1, 2, 1, 1),), lambda p: (p[1],) + p[1:]
    )
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    report = verify_all(6, workers=workers, claims=["cardinality_matchings"])
    assert report.to_json_value()["claims"] == {
        "cardinality_matchings": {
            "tested": 10395,
            "failed": 1,
            "counterexamples": ["10394 of 10395 images are matchings of [12], expected 10395"],
        }
    }


@pytest.mark.parametrize(
    "workers",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the pool's workers inherit the patched classes only when forked",
            ),
        ),
    ],
)
def test_a_passing_run_builds_no_objects(monkeypatch, workers):
    # verify walks heights and codes only: a passing run builds no
    # WedgePath, Matching or InsertionCode, on one worker or on the pool.
    import wedgematch.enumeration as enumeration
    from wedgematch import InsertionCode, WedgePath

    def unreachable(self):
        raise AssertionError(f"a passing run built a {type(self).__name__}")

    for cls in (WedgePath, Matching, InsertionCode):
        monkeypatch.setattr(cls, "__post_init__", unreachable)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    payload = json.dumps(verify_all(6, workers=workers).to_json_value())
    assert payload == json.dumps(passing_payload(6))


@pytest.mark.parametrize(
    "workers",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the pool's workers inherit the patched kernels only when forked",
            ),
        ),
    ],
)
def test_a_passing_run_sweeps_no_record_whole(monkeypatch, workers):
    # proposition_b's and lemma1's node checks read values carried from the
    # parent or an ancestor, and m's first block end and first stacking
    # value: a passing run splits no path or image whole into components and
    # runs no stacking sweep.
    import wedgematch.enumeration as enumeration
    import wedgematch.matching as matching
    import wedgematch.paths as paths

    def unreachable(*args):
        raise AssertionError("a passing run swept a record whole")

    for module, name in [
        (enumeration, "_component_sizes"),
        (enumeration, "_blocks"),
        (matching, "_blocks"),
        (enumeration, "_cuts"),
        (paths, "_cuts"),
        (enumeration, "_stacking"),
        (matching, "_stacking"),
    ]:
        monkeypatch.setattr(module, name, unreachable)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    payload = json.dumps(verify_all(6, workers=workers).to_json_value())
    assert payload == json.dumps(passing_payload(6))


# The claims none of whose checks, node checks or tables read a node's image.
IMAGE_FREE = (
    "cardinality_paths",
    "cardinality_matchings",
    "distribution_north_nestings",
    "distribution_nestings_crossings",
    "round_trip_psi",
    "round_trip_psi_inv",
    "lemma1",
)


@pytest.mark.parametrize(
    "claims", [[label] for label in IMAGE_FREE] + [None], ids=[*IMAGE_FREE, "all"]
)
def test_the_fold_runs_once_per_node_and_only_when_read(monkeypatch, claims):
    # A node's image is one phi step on its parent's, folded when first
    # read: a passing verify_all(6) folds no step for a claim that reads no
    # image, and one per node its cells walk for the full claim set.  Only
    # the harness's own fold is counted, not the walks of phi's kernel.
    import wedgematch.enumeration as enumeration

    step = enumeration._phi_step
    calls = []

    def counting(b1, p):
        calls.append(b1)
        return step(b1, p)

    monkeypatch.setattr(enumeration, "_phi_step", counting)
    assert verify_all(6, claims=claims).passed
    assert len(calls) == (0 if claims else CELL_NODES_6)


# The nodes n=6's 15 cells walk: every node of depths 1..6, 11,464, and again
# the nodes of the depths their prefixes fix that more than one cell shares,
# the depth-1 node 14 more times and each of the 3 of depth 2 4 more times.
CELL_NODES_6 = 1 + 3 + 15 + 105 + 945 + 10_395 + 14 + 3 * 4
assert CELL_NODES_6 == 11_490


# The claims whose node checks read m's code at every node.
CODE_READ_AT_NODES = ("round_trip_psi_inv", "round_trip_big_phi", "lemma1", "proposition_b")


@pytest.mark.parametrize("claims", [[label] for label in CLAIMS] + [None], ids=[*CLAIMS, "all"])
def test_the_code_read_runs_once_per_node_and_only_when_read(monkeypatch, claims):
    # m's code read is one field of its node: a passing verify_all(6) reads
    # it once at every node its cells walk for a claim whose node check
    # reads it, once at every record for round_trip_psi, whose per-object
    # check reads it, and never for the rest.  Only the harness's own reads
    # are counted, not those inside phi's and psi_inv's kernels.
    import wedgematch.enumeration as enumeration

    sweep = enumeration._sweep
    calls = []

    def counting(p):
        calls.append(p)
        return sweep(p)

    monkeypatch.setattr(enumeration, "_sweep", counting)
    assert verify_all(6, claims=claims).passed
    nodes, records = CELL_NODES_6, 10_395
    if claims is None or claims[0] in CODE_READ_AT_NODES:
        assert len(calls) == nodes
    else:
        assert len(calls) == (records if claims == ["round_trip_psi"] else 0)


@pytest.mark.parametrize("fault", ["none", "_phi_step_depth_2"])
def test_a_claim_alone_reports_as_in_the_full_run(monkeypatch, fault):
    # Each claim selection computes only the fields its claims read, so a
    # claim run alone must report exactly its entry of the full run: on a
    # passing run, and under a fault that sends the full run to its rerun.
    spec = DIFFERENTIAL_FAULTS[fault]
    if spec is not None:
        _break_kernel(monkeypatch, *spec)
    for n in range(1, 7):
        full = verify_all(n).to_json_value()["claims"]
        for label in CLAIMS:
            alone = verify_all(n, claims=[label]).to_json_value()["claims"]
            assert alone == {label: full[label]}, (fault, n, label)
