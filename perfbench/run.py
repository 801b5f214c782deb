"""pafg benchmark: named workloads through the whole pipeline, with every
output checked.

    python3 perfbench/run.py --workload evm --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

One process, one thread, a closed loop: each iteration runs the pipeline
once on the same seeded input set and the next starts when it ends, for
--seconds seconds (at least one iteration). --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced iterations
and reports the per-layer metrics. Timings are in reference-host seconds:
wall time scaled by a host probe taken around each iteration (see
host_probe). The last line of standard output is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 only when every check passed. See perfbench/README.md.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

_UNITS = {
    "samples_per_s": "samples/s",
    "token_stores": "tokens",
    "bmr_bytes": "bytes",
    "pafg_bytes": "bytes",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
    "fire_ratio": "ratio",
    "overhead_ratio": "ratio",
    "us_per_firing": "us",
    "s_per_step": "s",
}


def unit_of(name):
    parts = name.split(".")
    for part in parts:
        if part in _UNITS:
            return _UNITS[part]
    return "s" if any(part.endswith("_s") for part in parts) else "count"


# The speed of one process on a shared host swings by up to 2x over
# minutes, in wall and CPU time alike, far past any useful regression bound.
# So every timing is reported in reference-host seconds: wall time scaled by
# REF_PROBE_S / probe, where probe is host_probe() taken right before and
# right after the iteration (their mean). REF_PROBE_S is the probe on the
# reference host (a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11, in its
# slow phase). The host's phases slow integer arithmetic, object-heavy code
# and ring-buffer traffic by different shares, and the pipeline mixes all
# three, so the probe is a blend of three loops.
REF_PROBE_S = 0.020


def _integer_loop():
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFF
    return perf_counter() - t0


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, x):
        return self.a * x + self.b


def _object_loop():
    t0 = perf_counter()
    cells = [_Cell(i, i + 1) for i in range(64)]
    table, queue = {}, []
    for i in range(60_000):
        value = cells[i & 63].step(i)
        table[i & 1023] = value
        queue.append(value)
        if len(queue) > 256:
            queue.clear()
    return perf_counter() - t0


class _Ring:
    __slots__ = ("slots", "capacity", "wptr", "rptr")

    def __init__(self, capacity):
        self.slots = [0] * capacity
        self.capacity = capacity
        self.wptr = self.rptr = 0

    def population(self):
        return self.wptr - self.rptr

    def free(self):
        return self.capacity - self.wptr + self.rptr

    def write(self, token):
        self.slots[self.wptr % self.capacity] = token
        self.wptr += 1

    def read(self):
        token = self.slots[self.rptr % self.capacity]
        self.rptr += 1
        return token


class _Gain:
    __slots__ = ("gain", "src", "dst")

    def __init__(self, gain, src, dst):
        self.gain, self.src, self.dst = gain, src, dst

    def rates(self):
        return {"in": 1}, {"out": 1}

    def invoke(self, inputs):
        return {"out": [x * self.gain for x in inputs["in"]]}


def _dataflow_loop(tokens=3_000):
    """A source, three rate-1 gains and a sink over four rings, swept like
    a dataflow scheduler. A fixed copy here, not pafg's runtime."""
    t0 = perf_counter()
    rings = [_Ring(4096) for _ in range(4)]
    stages = [_Gain(i + 1, rings[i], rings[i + 1]) for i in range(3)]
    fed = drained = 0
    while drained < tokens:
        if fed < tokens and rings[0].free() > 0:
            rings[0].write(fed)
            fed += 1
        for stage in stages:
            consume, produce = stage.rates()
            if stage.src.population() < consume["in"] or stage.dst.free() < produce["out"]:
                continue
            outputs = stage.invoke({"in": [stage.src.read() for _ in range(consume["in"])]})
            for token in outputs["out"]:
                stage.dst.write(token)
        if rings[-1].population() > 0:
            rings[-1].read()
            drained += 1
    return perf_counter() - t0


def host_probe(reps=3):
    """Seconds of a fixed pure-Python probe: the geometric mean of the
    median times of an integer loop, an object loop and a dataflow loop
    (about 20 ms each on the reference host). It runs no pafg code, so no
    change to the program moves it."""
    loops = (_integer_loop, _object_loop, _dataflow_loop)
    times = [[] for _ in loops]
    for _ in range(reps):
        for loop, samples in zip(loops, times):
            samples.append(loop())
    return math.prod(statistics.median(t) for t in times) ** (1 / len(loops))


def to_reference(figures, scale):
    """The figures with every timing (unit s or us) multiplied by scale."""
    return {k: v * scale if unit_of(k) in ("s", "us") else v for k, v in figures.items()}


def tail(values, higher_is_better):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=higher_is_better)
    rank = n - 10  # 1-based; ten samples lie beyond it
    return math.floor(100 * rank / n), ordered[rank - 1]


class Result:
    def __init__(self):
        self.attempted = 0
        self.errors = []
        self.metrics = {}
        self.samples = {}  # metric -> per-iteration values, for the table
        self.notes = []

    @property
    def failed(self):
        return len(self.errors)

    def fail(self, what, exc):
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)


def measure(workload, seed, seconds, trace, spans_path=None):
    # Imported here because main() first puts the checkout's src/ on the path.
    from pafg import default_library
    from pipeline import (
        EXACT_KEYS,
        ROOT_SPAN,
        TRACE_PATCHES,
        CheckFailed,
        cli_cross_check,
        layer_metrics,
        run_iteration,
    )
    from spans import NullTracer, Tracer, analyze_iteration

    result = Result()
    lib = default_library()
    inputs = workload.make_inputs(seed)
    untraced = NullTracer()
    tracer = Tracer(TRACE_PATCHES) if trace else None
    plan = (untraced, tracer) if trace else (untraced,)
    records, traced_records, layers = [], [], []
    probes = [host_probe()]  # one between every two iterations
    wall_pipeline_s = []

    start = perf_counter()
    while result.attempted == 0 or perf_counter() - start < seconds:
        for t in plan:
            result.attempted += 1
            number = result.attempted
            gc.collect()
            record = layer = None
            try:
                with t.iteration(number):
                    record = run_iteration(workload, inputs, lib, t)
                first = records[0] if records else record
                changed = [k for k in EXACT_KEYS if record[k] != first[k]]
                if changed:
                    raise CheckFailed(f"counters changed between iterations: {changed}")
                if t is tracer:
                    root, spans, aggs, per_layer, problems = analyze_iteration(
                        tracer, number, ROOT_SPAN
                    )
                    if problems:
                        raise CheckFailed("trace: " + "; ".join(problems[:5]))
                    layer = layer_metrics(record, spans, aggs, per_layer)
            except Exception as exc:  # counted in error_rate, run continues
                result.fail(f"iteration {number}", exc)
                record = None
            probes.append(host_probe())
            if record is None:
                continue
            scale = REF_PROBE_S / statistics.fmean(probes[-2:])
            if t is tracer:
                layers.append(to_reference(layer, scale))
                traced_records.append(to_reference(record, scale))
            else:
                wall_pipeline_s.append(record["pipeline_s"])
                records.append(to_reference(record, scale))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result.attempted += 1
    try:
        failures = cli_cross_check(workload, seed, lib)
        if failures:
            raise CheckFailed("; ".join(failures))
        result.notes.append("CLI cross-check: sink_tokens, token_stores, bmr_bytes equal")
    except Exception as exc:  # counted in error_rate
        result.fail("CLI cross-check", exc)
    result.notes.append(
        f"host probe: median {statistics.median(probes):.6f} s of {len(probes)} "
        f"(reference {REF_PROBE_S} s); timings are wall time x reference / probe"
    )
    if wall_pipeline_s:
        result.notes.append(
            f"wall-clock pipeline_s: median {statistics.median(wall_pipeline_s):.6f} s"
        )

    if trace and spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.export()) + "\n", encoding="utf-8")
        result.notes.append(f"spans written to {spans_path.relative_to(ROOT)}")

    if not records or (trace and not layers):
        return result
    if trace:
        for key in layers[0]:
            result.samples[key] = [m[key] for m in layers]
        result.samples["host.probe_s"] = probes
        result.metrics = {k: statistics.median(v) for k, v in result.samples.items()}
        result.metrics["trace.overhead_ratio"] = (
            statistics.median(r["pipeline_s"] for r in traced_records)
            / statistics.median(r["pipeline_s"] for r in records)
            - 1
        )
        return result
    for form in ("direct", "optimized"):
        result.samples[f"samples_per_s.{form}"] = [r["samples"] / r[f"run_s.{form}"] for r in records]
    for key in ("setup_s", "pipeline_s"):
        result.samples[key] = [r[key] for r in records]
    result.metrics = {k: statistics.median(v) for k, v in result.samples.items()}
    for form in ("direct", "optimized"):
        result.metrics[f"token_stores.{form}"] = records[0][f"token_stores.{form}"]
        result.metrics[f"bmr_bytes.{form}"] = records[0][f"bmr_bytes.{form}"]
    result.metrics["peak_rss_mb"] = peak_rss_mb
    return result


def print_report(name, seed, trace, result):
    print(f"# pafg benchmark: workload={name} seed={seed} trace={trace}")
    for key in sorted(result.metrics):
        unit = unit_of(key)
        line = f"{key:34s} {result.metrics[key]:>18.9g} {unit}"
        values = result.samples.get(key)
        if values is not None and unit in ("s", "samples/s"):
            t = tail(values, higher_is_better=unit == "samples/s")
            line += f"   median of n={len(values)}"
            line += f", p{t[0]}={t[1]:.9g}" if t else ", no tail percentile (n<11)"
        print(line)
    rate = result.failed / result.attempted if result.attempted else 1.0
    print(f"{'error_rate':34s} {rate:>18.9g} ratio   {result.failed} of {result.attempted} failed")
    for note in result.notes:
        print(f"# {note}")
    for error in result.errors:
        print(f"# FAILED {error}")


def _import_package():
    """Put the checkout's src/ first on the path; None or a reason why
    the package cannot be benchmarked from this checkout."""
    init = SRC / "pafg" / "__init__.py"
    if not init.is_file():
        return f"no pafg sources at {init.relative_to(ROOT)}; run from a full checkout"
    sys.path.insert(0, str(SRC))
    import pafg

    if Path(pafg.__file__).resolve() != init.resolve():
        return f"imported pafg from {pafg.__file__}, not from this checkout"
    return None


def self_test():
    """Tiny sizes: every named metric present, no failures, and identical
    counters for a repeated seed."""
    from workloads import TINY_WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["unit"] != unit_of(m["name"]):
            print(f"FAIL BENCHMARK.json: {m['name']} has unit {m['unit']!r}, "
                  f"the benchmark reports {unit_of(m['name'])!r}")
            ok = False
    for name, workload in TINY_WORKLOADS.items():
        for trace in (0, 1):
            first = measure(workload, 1, 0, trace)
            second = measure(workload, 1, 0, trace)
            problems = first.errors + second.errors
            for result in (first, second):
                missing = expected[trace] - set(result.metrics)
                extra = set(result.metrics) - expected[trace]
                if missing or extra:
                    problems.append(f"missing {sorted(missing)}, unexpected {sorted(extra)}")
            counters = [
                k for k in first.metrics
                if unit_of(k) in ("count", "tokens", "bytes")
                and first.metrics[k] != second.metrics.get(k)
            ]
            if counters:
                problems.append(f"counters differ for a repeated seed: {counters}")
            ok = ok and not problems
            status = "PASS" if not problems else "FAIL"
            print(f"{status} {name} trace={trace}: {len(first.metrics)} metrics")
            for problem in problems:
                print(f"  {problem}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="smoke-test every workload at tiny sizes")
    args = parser.parse_args(argv)

    reason = _import_package()
    if reason is not None:
        print(f"perfbench: {reason}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS or args.seed is None:
        parser.error(f"--workload ({', '.join(WORKLOADS)}) and --seed are required")
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, spans_path)
    print_report(args.workload, args.seed, args.trace, result)
    ok = result.failed == 0 and bool(result.metrics)
    print(json.dumps({
        "correct": ok,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(result.metrics.items())},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
