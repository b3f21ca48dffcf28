"""Span tracer and the per-layer probes of the traced run.

Spans are recorded only from the benchmark's own files, around calls into
the public functions of each wedgematch module (enumeration, bijections,
matching, paths, cli, render).  A span that wraps a batch of calls carries
the batch size as its count, so per-call figures are batch self time
divided by count and the tracer adds one span per batch, not per call.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from pathlib import Path
from time import perf_counter

import oracles

# Sizes and sample counts of the probes.  Fixed, so that a traced run of any
# workload measures the same layer calls.
FAMILY_N = 6  # bijections over whole families: 10395 objects each
SCALING_SIZES = (16, 64, 256)
SCALING_REPEATS = {16: 9, 64: 5, 256: 3}
STREAM_N = 7  # enumeration streams, 135135 objects each
SAMPLE_N = 7  # matching and path statistics on a seeded sample
SAMPLE_COUNT = 2000
LARGE_N = 256
LARGE_COUNT = 3
TEXT_N = 64  # Matching.from_text at a typical convert size
TEXT_COUNT = 300
LADDER_N = 5  # `verify 5 --json`: the verify workloads and the pool probe
LADDER_PASSES = 3
CLAIM_N = 6  # per-claim verify_all runs
MATCHING_STATS = ("nestings", "crossings", "alignments", "st_total")


class Tracer:
    """Keeps spans (name, start, end, parent index, count) in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, count: int = 1):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, count])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def self_times(self) -> list[tuple[str, float, int]]:
        """(name, self seconds, count) per span; children run inside parents."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (name, end - start - covered[i], count)
            for i, (name, start, end, _, count) in enumerate(self.spans)
        ]

    def per_call(self, name: str) -> tuple[float, int]:
        """Self seconds per counted call of ``name``, and the call count."""
        total = calls = 0
        for span_name, seconds, count in self.self_times():
            if span_name == name:
                total += seconds
                calls += count
        return (total / calls if calls else float("nan")), calls

    def median(self, name: str) -> tuple[float, int]:
        """Median duration of the spans called ``name``, and how many there were."""
        durations = [end - start for n, start, end, _, _ in self.spans if n == name]
        return statistics.median(durations), len(durations)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "count")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    _null = contextlib.nullcontext()

    def span(self, name: str, count: int = 1):
        return self._null


class Calls:
    """Runs CLI commands in-process and sums the time spent inside them."""

    def __init__(self, main, tracer) -> None:
        self.main = main
        self.tracer = tracer
        self.seconds = 0.0

    def __call__(self, name: str, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        start = perf_counter()
        try:
            with self.tracer.span(name), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = self.main(argv)
        finally:
            self.seconds += perf_counter() - start
        return rc, out.getvalue()


def ladder_argv(workers: int, sizes: int) -> list[str]:
    """`verify <sizes> --json`, with a pool when workers > 1."""
    argv = ["verify", str(sizes), "--json"]
    return argv + ["--workers", str(workers)] if workers > 1 else argv


# -- probes ---------------------------------------------------------------------
# Each probe times a batch of public calls and checks the results against the
# oracles, appending a description of every mismatch to ``errors``.


def probe_bijections(wm, tracer, rng, errors: list[str]) -> None:
    paths = list(wm.all_paths(FAMILY_N))
    matchings = list(wm.all_matchings(FAMILY_N))
    with tracer.span("bijections.psi", len(paths)):
        images = [wm.psi(p) for p in paths]
    with tracer.span("bijections.psi_inv", len(images)):
        back = [wm.psi_inv(m) for m in images]
    if back != paths:
        errors.append(f"psi_inv(psi(P)) != P for some path of size {FAMILY_N}")
    with tracer.span("bijections.phi", len(matchings)):
        images = [wm.phi(m) for m in matchings]
    with tracer.span("bijections.phi_inv", len(images)):
        back = [wm.phi_inv(m) for m in images]
    if back != matchings:
        errors.append(f"phi_inv(phi(M)) != M for some matching of size {FAMILY_N}")
    for n in SCALING_SIZES:
        m = wm.Matching(oracles.random_partner_table(rng, n))
        for _ in range(SCALING_REPEATS[n]):
            with tracer.span(f"bijections.phi.n{n}"):
                image = wm.phi(m)
            with tracer.span(f"bijections.phi_inv.n{n}"):
                back = wm.phi_inv(image)
            if back != m:
                errors.append(f"phi_inv(phi(M)) != M at n={n}")


def _check_stats(tables, values: dict[str, list[int]], n: int, errors: list[str]) -> None:
    pairs_total = n * (n - 1) // 2
    for i, table in enumerate(tables):
        pairs = sorted((v, p) for v, p in enumerate(table, start=1) if v < p)
        cr, ne = oracles.crossings_and_nestings(pairs)
        got = {stat: values[stat][i] for stat in MATCHING_STATS}
        if (got["crossings"], got["nestings"]) != (cr, ne) or (
            got["crossings"] + got["nestings"] + got["alignments"] != pairs_total
        ):
            errors.append(f"arc statistics {got} wrong for {oracles.pairs_text(table)}")
            return


def probe_matching(wm, tracer, rng, errors: list[str]) -> None:
    for n, count, label in ((SAMPLE_N, SAMPLE_COUNT, "n7"), (LARGE_N, LARGE_COUNT, "n256")):
        tables = [oracles.random_partner_table(rng, n) for _ in range(count)]
        values = {}
        for stat in MATCHING_STATS:
            # fresh objects per statistic, so each pays for its own edge list
            fresh = [wm.Matching(t) for t in tables]
            with tracer.span(f"matching.{stat}.{label}", count):
                values[stat] = [getattr(m, stat)() for m in fresh]
        _check_stats(tables, values, n, errors)
        if n == SAMPLE_N:
            with tracer.span("matching.construct.n7", count):
                built = [wm.Matching(t) for t in tables]
            if [m.partner for m in built] != tables:
                errors.append("Matching(partner) changed its partner table")
    tables = [oracles.random_partner_table(rng, TEXT_N) for _ in range(TEXT_COUNT)]
    texts = [oracles.pairs_text(t) for t in tables]
    with tracer.span(f"matching.from_text.n{TEXT_N}", len(texts)):
        parsed = [wm.Matching.from_text(t) for t in texts]
    if [m.partner for m in parsed] != tables:
        errors.append(f"Matching.from_text misread a matching of size {TEXT_N}")


def probe_paths(wm, tracer, rng, errors: list[str]) -> None:
    heights = [tuple(oracles.random_heights(rng, SAMPLE_N)) for _ in range(SAMPLE_COUNT)]
    steps = [oracles.steps_from_heights(list(h)) for h in heights]
    with tracer.span("paths.construct.n7", len(heights)):
        paths = [wm.WedgePath(h) for h in heights]
    with tracer.span("paths.parse_steps.n7", len(steps)):
        parsed = [wm.WedgePath.parse_steps(s) for s in steps]
    if [p.heights for p in parsed] != heights:
        errors.append("WedgePath.parse_steps misread a step string")
    with tracer.span("paths.north_steps.n7", len(paths)):
        north = [p.north_steps() for p in paths]
    if north != [oracles.north_steps(list(h)) for h in heights]:
        errors.append("WedgePath.north_steps disagrees with the height rises")
    with tracer.span("paths.components.n7", len(paths)):
        parts = [p.components() for p in paths]
    if any(sum(c.n for c in cs) != SAMPLE_N for cs in parts):
        errors.append("WedgePath.components lost east steps")


def probe_enumeration(wm, tracer, errors: list[str]) -> int:
    """Streams and per-claim verification; returns the claims' tested total."""
    expected = oracles.double_factorial(STREAM_N)
    for name, stream in (("all_paths", wm.all_paths), ("all_matchings", wm.all_matchings)):
        with tracer.span(f"enumeration.{name}", expected):
            count = sum(1 for _ in stream(STREAM_N))
        if count != expected:
            errors.append(f"{name}({STREAM_N}) yielded {count}, expected {expected}")
    tested = 0
    for label in wm.CLAIMS:
        with tracer.span(f"enumeration.claim.{label}"):
            report = wm.verify_all(CLAIM_N, claims=[label])
        if not report.passed:
            errors.append(f"claim {label} fails at n={CLAIM_N}")
        tested += sum(c.tested for c in report.claims)
    with tracer.span(f"enumeration.verify_all.n{CLAIM_N}"):
        report = wm.verify_all(CLAIM_N)
    error = oracles.check_report(report.to_json_value())
    if error:
        errors.append(error)
    return tested


def probe_ladder(main, tracer, workers: int, errors: list[str]) -> float:
    """Fastest of LADDER_PASSES `verify LADDER_N --json` ladders with `workers` workers."""
    times = []
    for _ in range(LADDER_PASSES):
        calls = Calls(main, tracer)
        with tracer.span(f"enumeration.ladder.w{workers}"):
            rc, out = calls("cli.verify", ladder_argv(workers, LADDER_N))
        error = f"verify exited with {rc}" if rc else oracles.check_verify_payload(out, LADDER_N)
        if error:
            errors.append(error)
        times.append(calls.seconds)
    return min(times)


def probe_render(wm, tracer, rng, errors: list[str]) -> None:
    for _ in range(LARGE_COUNT):
        m = wm.Matching(oracles.random_partner_table(rng, LARGE_N))
        with tracer.span("render.render_svg.n256"):
            svg = wm.render_svg(m)
        error = oracles.check_svg(svg, LARGE_N)
        if error:
            errors.append(error)


def replay_convert(wm, tracer, steps: str, matching_text: str) -> float:
    """The library calls behind one convert request, without the CLI; seconds."""
    start = perf_counter()
    with tracer.span("paths.parse_steps"):
        path = wm.WedgePath.parse_steps(steps)
    with tracer.span("bijections.big_phi"):
        image = wm.big_phi(path)
    with tracer.span("matching.to_text"):
        image.to_text()
    with tracer.span("matching.from_text"):
        m = wm.Matching.from_text(matching_text)
    with tracer.span("bijections.big_phi_inv"):
        back = wm.big_phi_inv(m)
    with tracer.span("paths.to_steps"):
        back.to_steps()
    with tracer.span("matching.from_text"):
        m = wm.Matching.from_text(matching_text)
    for stat in MATCHING_STATS:
        with tracer.span(f"matching.{stat}"):
            getattr(m, stat)()
    with tracer.span("matching.from_text"):
        m = wm.Matching.from_text(matching_text)
    with tracer.span("render.render_svg"):
        wm.render_svg(m)
    return perf_counter() - start
