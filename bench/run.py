"""The wedgematch benchmark: four closed-loop workloads, one client each.

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and bench/NOTES.md for why each exists):

  verify      `wedgematch verify 5 --json`: all 15 claims over sizes 1..5
  verify-par  the same ladder with `--workers 2`
  census      `wedgematch enumerate 6 <stat> --json` for four statistics
  convert     one seeded random wedge path per request through
              `convert --to-matching`, `convert --to-path`, `stats --json`
              and `render --format svg`

Commands run in-process through `wedgematch.cli.main`; the program is
imported from `src/` of the checkout and nothing is installed.  Every output
is checked against pinned digests or independent closed forms (bench/oracles.py).

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
replays the workload with spans around every layer call, runs the layer
probes of bench/layers.py and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import oracles
from layers import Calls, NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"

SETUP_INTERPRETERS = 11
LADDER_OBJECTS = 2 * sum(oracles.double_factorial(n) for n in range(1, layers.LADDER_N + 1))
CENSUS_N = 6
MIN_PASSES = 2
CENSUS_STATS = ("north_steps", "nestings", "crossings", "st_total")
# Convert sizes: fifteen over 16..256 edges and one of 1024 (1/16 of the
# requests).  The median lands inside the run of 48s and the 90th percentile
# inside the 256 slot, above which only the 1024 requests rank.
CONVERT_CYCLE = (16, 20, 24, 28, 32, 40, 48, 48, 48, 64, 80, 112, 160, 224, 256, 1024)
CONVERT_CYCLES = 3
CONVERT_PROBE_SIZES = tuple(n for n in CONVERT_CYCLE if n <= 256)


@dataclass
class Outcome:
    seconds: float  # time inside the program's calls
    objects: int  # objects completed; 0 when the request failed
    error: str | None = None
    wrong: bool = False  # a call answered wrongly (rather than raising)


# -- workloads --------------------------------------------------------------------


class Verify:
    name = "verify"
    workers = 1

    @property
    def first_call(self) -> list[str]:
        return layers.ladder_argv(self.workers, sizes=1)

    def requests(self, rng) -> list:
        return [None]

    def call(self, calls: Calls, _item) -> tuple[int, str]:
        return calls("cli.verify", layers.ladder_argv(self.workers, layers.LADDER_N))

    def check(self, _item, result) -> tuple[int, str | None]:
        rc, out = result
        if rc:
            return 0, f"verify exited with {rc}"
        return LADDER_OBJECTS, oracles.check_verify_payload(out, layers.LADDER_N)


class VerifyPar(Verify):
    name = "verify-par"
    workers = 2


class Census:
    name = "census"
    workers = 1
    first_call = ["enumerate", "1", "nestings", "--json"]

    def __init__(self) -> None:
        self.expected = oracles.census_expected(CENSUS_N)

    def requests(self, rng) -> list:
        return [None]

    def call(self, calls: Calls, _item) -> dict:
        return {
            stat: calls("cli.enumerate", ["enumerate", str(CENSUS_N), stat, "--json"])
            for stat in CENSUS_STATS
        }

    def check(self, _item, out: dict) -> tuple[int, str | None]:
        for stat, (rc, text) in out.items():
            if rc:
                return 0, f"enumerate {stat} exited with {rc}"
            error = oracles.check_census_table(text, CENSUS_N, stat, self.expected[stat])
            if error:
                return 0, error
        return len(CENSUS_STATS) * oracles.double_factorial(CENSUS_N), None


class Convert:
    name = "convert"
    workers = 1
    first_call = ["convert", "--to-matching", "ES"]

    def requests(self, rng) -> list:
        sizes = list(CONVERT_CYCLE) * CONVERT_CYCLES
        rng.shuffle(sizes)
        return [self.item(rng, n) for n in sizes]

    @staticmethod
    def item(rng, n: int) -> tuple[list[int], str]:
        heights = oracles.random_heights(rng, n)
        return heights, oracles.steps_from_heights(heights)

    def call(self, calls: Calls, item) -> dict:
        _, steps = item
        out = {}
        out["to_matching"] = calls("cli.convert", ["convert", "--to-matching", steps])
        if out["to_matching"][0]:
            return out
        text = out["to_matching"][1].strip()
        out["to_path"] = calls("cli.convert", ["convert", "--to-path", text])
        out["stats"] = calls("cli.stats", ["stats", "--json", text])
        out["render"] = calls("cli.render", ["render", "--format", "svg", text])
        return out

    def check(self, item, out: dict) -> tuple[int, str | None]:
        heights, steps = item
        n = len(heights)
        for step, (rc, _) in out.items():
            if rc:
                return 0, f"{step} exited with {rc} at n={n}"
        pairs = oracles.parse_pairs(out["to_matching"][1], n)
        if pairs is None:
            return 0, f"convert --to-matching gave no perfect matching at n={n}"
        if out["to_path"][1].strip() != steps:
            return 0, f"convert does not round-trip at n={n}"
        try:
            stats = json.loads(out["stats"][1])
        except ValueError:
            return 0, f"stats --json printed no JSON at n={n}"
        north = oracles.north_steps(heights)
        cr, ne = oracles.crossings_and_nestings(pairs)
        if stats["nestings"] != north or (stats["crossings"], stats["nestings"]) != (cr, ne):
            return 0, f"stats {stats} disagree with north={north} cr={cr} ne={ne} at n={n}"
        return 2, oracles.check_svg(out["render"][1], n)


WORKLOADS = {w.name: w for w in (Verify, VerifyPar, Census, Convert)}


# -- running ----------------------------------------------------------------------


def import_program() -> types.SimpleNamespace:
    """The wedgematch API from this checkout's src/, or exit nonzero."""
    if not (SRC / "wedgematch" / "__init__.py").is_file():
        sys.exit(f"error: no wedgematch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wedgematch
    from wedgematch import cli, render

    if Path(wedgematch.__file__).resolve().parent != (SRC / "wedgematch").resolve():
        sys.exit(f"error: imported wedgematch from {wedgematch.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{name: getattr(wedgematch, name) for name in wedgematch.__all__},
        main=cli.main,
        render_svg=render.render_svg,
    )


_SETUP_CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from wedgematch.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[2:])
print("ready", rc, flush=True)
"""


def time_setup(argv: list[str]) -> float:
    """Seconds from starting a fresh interpreter to its first completed call."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as child:
        line = child.stdout.readline()
        seconds = perf_counter() - start
        try:
            _, err = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    if line.split() != ["ready", "0"] or child.returncode:
        raise RuntimeError(f"setup call {argv} failed: {line!r} {err.strip()[-300:]}")
    return seconds


def run_request(workload, item, main, tracer) -> Outcome:
    calls = Calls(main, tracer)
    with tracer.span(f"request.{workload.name}"):
        try:
            result = workload.call(calls, item)
        except (Exception, SystemExit) as exc:  # a crash is a failed request, not a stop
            return Outcome(calls.seconds, 0, f"{type(exc).__name__}: {str(exc)[:200]}")
    objects, error = workload.check(item, result)
    return Outcome(calls.seconds, 0 if error else objects, error, wrong=error is not None)


def run_passes(workload, items: list, seconds: float, main, between) -> tuple[list[Outcome], int]:
    """Closed-loop passes over the same requests; each keeps its fastest pass.

    Passes go on while the next one fits in ``seconds``, and there are at
    least ``MIN_PASSES``.  Slow spells of a shared host last seconds,
    so the fastest of passes spread over the run is far steadier than any one
    pass.  A failed request is not repeated; it keeps its first outcome.
    ``between()`` runs before each pass after the first, inside the time.
    """
    start = perf_counter()
    best = [run_request(workload, item, main, NullTracer()) for item in items]
    passes = 1
    last = perf_counter() - start
    while passes < MIN_PASSES or perf_counter() - start + last <= seconds:
        between()
        began = perf_counter()
        for i, item in enumerate(items):
            if best[i].error is None:
                outcome = run_request(workload, item, main, NullTracer())
                if outcome.error is not None or outcome.seconds < best[i].seconds:
                    best[i] = outcome
        passes += 1
        last = perf_counter() - began
    return best, passes


def warm_up(workload, main) -> None:
    rc, _ = Calls(main, NullTracer())("warm-up", workload.first_call)
    if rc:
        raise RuntimeError(f"warm-up call {workload.first_call} exited with {rc}")


def percentile_ms(outcomes: list[Outcome], q: float) -> float:
    """Nearest-rank percentile; a failed request ranks above every completed one.

    Should the rank land on a failed request, the slowest request time is given.
    """
    ranked = sorted(o.seconds if o.error is None else math.inf for o in outcomes)
    value = ranked[math.ceil(q * len(ranked)) - 1]
    if value == math.inf:
        value = max(o.seconds for o in outcomes)
    return value * 1e3


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, with a pool, `workers` times its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024  # ru_maxrss is in KiB on Linux


def measured_run(workload, wm, args) -> tuple[dict, list[Outcome]]:
    warm_up(workload, wm.main)
    items = workload.requests(random.Random(args.seed))
    setup: list[float] = []

    def measure_setup() -> None:  # spread over the run, so no one slow spell sets it
        setup.append(time_setup(workload.first_call))

    outcomes, passes = run_passes(workload, items, args.seconds, wm.main, measure_setup)
    while len(setup) < SETUP_INTERPRETERS:
        measure_setup()
    print(f"{len(items)} requests, fastest of {passes} passes each")
    busy = sum(o.seconds for o in outcomes)
    count = len(outcomes)
    metrics = {
        "objects_per_s": (sum(o.objects for o in outcomes) / busy, "1/s", count),
        "request_p50_ms": (percentile_ms(outcomes, 0.5), "ms", count),
        "request_p90_ms": (percentile_ms(outcomes, 0.9), "ms", count),
        "peak_rss_mb": (peak_rss_mb(workload.workers), "MB", 1),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    failed = sum(1 for o in outcomes if o.error)
    metrics_shown = dict(metrics, failed_ratio=(failed / count, "1", count))
    return metrics_shown, outcomes


def traced_run(workload, wm, args) -> tuple[dict, list[Outcome], list[str]]:
    rng = random.Random(args.seed)
    tracer = Tracer()
    errors: list[str] = []
    warm_up(workload, wm.main)
    untraced, traced = [], []
    for item in workload.requests(rng):  # each request untraced, then traced
        untraced.append(run_request(workload, item, wm.main, NullTracer()))
        traced.append(run_request(workload, item, wm.main, tracer))
    untraced_s = sum(o.seconds for o in untraced)
    traced_s = sum(o.seconds for o in traced)
    request_s = layer_s = 0.0
    for name, seconds, _ in tracer.self_times():
        if name.startswith("request."):
            request_s += seconds
        else:
            layer_s += seconds
    overhead_s = traced_s - untraced_s
    adds_up = abs(layer_s - untraced_s) <= abs(overhead_s) + 0.02 * untraced_s

    ladders = {}
    if isinstance(workload, Verify):
        ladders[workload.workers] = untraced_s  # the untraced request is that ladder
    for workers in (1, 2):
        if workers not in ladders:
            ladders[workers] = layers.probe_ladder(wm.main, tracer, workers, errors)
    layers.probe_bijections(wm, tracer, rng, errors)
    layers.probe_matching(wm, tracer, rng, errors)
    layers.probe_paths(wm, tracer, rng, errors)
    tested = layers.probe_enumeration(wm, tracer, errors)
    layers.probe_render(wm, tracer, rng, errors)
    cli_self = probe_cli(wm, tracer, rng, errors)

    def us(name: str) -> tuple[float, str, int]:
        seconds, calls = tracer.per_call(name)
        return seconds * 1e6, "us", calls

    def ms(name: str) -> tuple[float, str, int]:
        seconds, spans = tracer.median(name)
        return seconds * 1e3, "ms", spans

    metrics: dict[str, tuple] = {}
    for fn in ("phi", "phi_inv", "psi", "psi_inv"):
        metrics[f"bijections.{fn}.us_per_call"] = us(f"bijections.{fn}")
    for fn in ("phi", "phi_inv"):
        for n in layers.SCALING_SIZES:
            metrics[f"bijections.{fn}.ms.n{n}"] = ms(f"bijections.{fn}.n{n}")
    for stat in layers.MATCHING_STATS:
        for label in ("n7", "n256"):
            metrics[f"matching.{stat}.us_per_call.{label}"] = us(f"matching.{stat}.{label}")
    metrics["matching.construct.us"] = us("matching.construct.n7")
    metrics["matching.from_text.us"] = us(f"matching.from_text.n{layers.TEXT_N}")
    for name in ("all_paths", "all_matchings"):
        metrics[f"enumeration.{name}.us_per_obj"] = us(f"enumeration.{name}")
    claims_s = 0.0
    for label in wm.CLAIMS:
        seconds, _ = tracer.median(f"enumeration.claim.{label}")
        claims_s += seconds
        metrics[f"enumeration.claim.{label}.s"] = (seconds, "s", 1)
    full_s, _ = tracer.median(f"enumeration.verify_all.n{layers.CLAIM_N}")
    metrics["enumeration.claims.sum_over_full"] = (claims_s / full_s, "ratio", len(wm.CLAIMS))
    metrics["enumeration.pool.efficiency"] = (ladders[1] / (2 * ladders[2]), "ratio", 2)
    for name in ("construct", "parse_steps", "north_steps", "components"):
        metrics[f"paths.{name}.us"] = us(f"paths.{name}.n7")
    metrics["cli.self_ms"] = cli_self
    metrics["render.render_svg.ms.n256"] = ms("render.render_svg.n256")
    metrics["objects.count"] = (sum(o.objects for o in traced), "count", len(traced))
    metrics["claims.tested"] = (tested, "count", len(wm.CLAIMS))
    metrics["requests.failed"] = (sum(1 for o in traced if o.error), "count", len(traced))
    metrics["trace.overhead_ratio"] = (overhead_s / untraced_s, "ratio", len(traced))
    metrics["trace.unattributed_ratio"] = ((traced_s - layer_s) / traced_s, "ratio", len(traced))
    metrics["trace.adds_up"] = (int(adds_up), "count", 1)
    print(f"trace: untraced {untraced_s:.4f}s traced {traced_s:.4f}s "
          f"overhead {overhead_s:+.4f}s layer self-time {layer_s:.4f}s "
          f"request self-time {request_s:.4f}s adds-up={adds_up}")
    tracer.dump(TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json")
    return metrics, untraced + traced, errors


def probe_cli(wm, tracer, rng, errors: list[str]) -> tuple[float, str, int]:
    """CLI share of a convert request: CLI time minus the same library calls."""
    workload = Convert()
    gaps = []
    for n in CONVERT_PROBE_SIZES:
        item = workload.item(rng, n)
        calls = Calls(wm.main, tracer)
        with tracer.span("request.cli-probe"):
            out = workload.call(calls, item)
        _, error = workload.check(item, out)
        if error:
            errors.append(error)
            continue
        with tracer.span("replay.convert"):
            direct = layers.replay_convert(wm, tracer, item[1], out["to_matching"][1].strip())
        gaps.append(calls.seconds - direct)
    return (statistics.median(gaps) * 1e3 if gaps else 0.0), "ms", len(gaps)


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wm = import_program()
    workload = WORKLOADS[args.workload]()
    if args.trace:
        shown, outcomes, errors = traced_run(workload, wm, args)
    else:
        shown, outcomes = measured_run(workload, wm, args)
        errors = []
    declared = declared_metrics(bool(args.trace))
    missing = set(declared) - set(shown)
    if missing:
        sys.exit(f"error: metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")

    wrong = [o.error for o in outcomes if o.wrong] + errors
    failed = [o.error for o in outcomes if o.error]
    for message in sorted(set(failed + errors))[:10]:
        print(f"FAILED: {message}", file=sys.stderr)
    if wrong:
        print(f"WRONG OUTPUT in {len(wrong)} checks", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"python {sys.version.split()[0]}")
    for name, (value, unit, samples) in shown.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} samples={samples}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failed) + len(errors),
        "metrics": {name: {"value": shown[name][0], "unit": shown[name][1]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
