"""One benchmark iteration through the whole pafg pipeline, its output
checks, the per-layer figures of a traced iteration, and the cross-check
against the `pafg bench` command.

Pipeline: apps build -> derive -> adjacency pass -> candidate search ->
passivize fixpoint -> BMR -> serialize/parse round trip -> IR validation ->
instantiate both forms -> run both forms -> output checks.
"""

import io
import json
from contextlib import redirect_stdout
from time import perf_counter

import pafg.runtime as runtime_module
import pafg.transform as transform_module
from pafg.cli import cli_main
from pafg.formats import parse_pafg, serialize_pafg
from pafg.graph import DirectedGraph
from pafg.ir import CoordinatedPafg, Pafg, check_abc, check_association, validate_coordinated
from pafg.runtime import compare_streams, instantiate
from pafg.transform import (
    compute_bmr,
    derive_direct_pafg,
    estimate_copy_count,
    find_candidates,
    passivize_fixpoint,
)
from spans import NullTracer

FORMS = ("direct", "optimized")
ROOT_SPAN = "bench.iteration"

# (owner, attribute, span name, aggregated?) wrapped during a traced
# iteration: calls the library makes internally, on objects it creates
# itself, so they cannot be wrapped per instance from outside.
TRACE_PATCHES = (
    (DirectedGraph, "__post_init__", "graph.construct", True),
    (DirectedGraph, "in_edges", "graph.in_edges", True),
    (DirectedGraph, "out_edges", "graph.out_edges", True),
    (DirectedGraph, "pred", "graph.pred", True),
    (DirectedGraph, "succ", "graph.succ", True),
    (Pafg, "__post_init__", "ir.pafg_check", True),
    (CoordinatedPafg, "__post_init__", "ir.coordination_check", True),
    (transform_module, "find_candidates", "transform.step_candidates", False),
    (transform_module, "passivize", "transform.step_passivize", False),
    (transform_module, "is_alternating", "ir.is_alternating", False),
    (runtime_module, "is_alternating", "ir.is_alternating", False),
    (runtime_module, "validate_coordinated", "ir.validate_coordinated", False),
)

# Counters that must repeat bit-for-bit across iterations of one input set.
EXACT_KEYS = tuple(
    f"{name}.{form}" for name in ("token_stores", "bmr_bytes", "sink_tokens") for form in FORMS
) + ("transform.steps",)


class CheckFailed(Exception):
    pass


def run_iteration(workload, inputs, lib, tracer):
    """Run the pipeline once and check every output. Returns the
    iteration's timings and counters; raises CheckFailed when a check
    fails."""
    span = tracer.span
    t0 = perf_counter()
    with span(ROOT_SPAN):
        with span("apps.build"):
            graph, source_data = workload.build(inputs)
        with span("transform.derive"):
            direct = derive_direct_pafg(graph, lib)
        with span("graph.adjacency"):
            g = direct.pafg.graph
            for v in g.vertices:
                g.pred(v)
                g.succ(v)
        with span("transform.find_candidates"):
            find_candidates(direct, lib)
        with span("transform.fixpoint"):
            optimized, log = passivize_fixpoint(direct, lib)
        with span("transform.bmr"):
            bmr = {form: compute_bmr(z).total_bytes for form, z in zip(FORMS, (direct, optimized))}
        with span("formats.serialize"):
            text = serialize_pafg(optimized)
        with span("formats.parse"):
            parsed = parse_pafg(text, lib=lib)
        with span("ir.validate"):
            validate_coordinated(parsed, lib)
            structure_ok = check_abc(parsed) and check_association(parsed.source, parsed.pafg)
        forms = {"direct": direct, "optimized": parsed}
        instances = {}
        for form, z in forms.items():
            with span(f"runtime.instantiate.{form}"):
                instances[form] = instantiate(z, lib, source_data)
        t_setup = perf_counter()

        target = workload.sink_target(inputs)
        stats = {}
        run_s = {}
        for form, instance in instances.items():
            tracer.instrument_instance(instance)
            with span(f"runtime.run.{form}"):
                r0 = perf_counter()
                stats[form] = instance.run(sink_token_target=target)
                run_s[form] = perf_counter() - r0

        with span("bench.check"):
            failures = _check(
                span, workload, inputs, forms, instances, stats, bmr, optimized, parsed,
                structure_ok, target,
            )
    t_end = perf_counter()
    if failures:
        raise CheckFailed("; ".join(failures))

    record = {
        "setup_s": t_setup - t0,
        "pipeline_s": t_end - t0,
        "samples": workload.samples(inputs),
        "transform.steps": len(log),
        "formats.pafg_bytes": len(text.encode("utf-8")),
    }
    for form, z in forms.items():
        record[f"run_s.{form}"] = run_s[form]
        record[f"token_stores.{form}"] = stats[form].token_stores
        record[f"bmr_bytes.{form}"] = stats[form].bmr_bytes
        record[f"sink_tokens.{form}"] = stats[form].sink_tokens
        record[f"graph.vertices.{form}"] = len(z.pafg.graph.vertices)
        record[f"graph.edges.{form}"] = len(z.pafg.graph.edges)
    return record


def _check(span, workload, inputs, forms, instances, stats, bmr, optimized, parsed,
           structure_ok, target):
    failures = []
    streams = {form: instance.sink_streams() for form, instance in instances.items()}
    with span("runtime.compare_streams"):
        equal, divergence = compare_streams(streams["direct"], streams["optimized"])
    if not equal:
        failures.append(f"direct and optimized sink streams diverge: {divergence}")
    with span("apps.oracle"):
        expected = workload.expected_sink(inputs)
    equal, divergence = compare_streams(streams["direct"], expected)
    if not equal:
        failures.append(f"sink stream differs from the oracle: {divergence}")
    if parsed != optimized:
        failures.append("parse_pafg(serialize_pafg(optimized)) != optimized")
    if not structure_ok:
        failures.append("optimized PAFG fails the adjacent-buffer or association check")
    with span("transform.copy_count"):
        produced = workload.production_counts(inputs)
        oracle_stores = {form: estimate_copy_count(z, produced) for form, z in forms.items()}
    for form in FORMS:
        s = stats[form]
        if s.sink_tokens != target:
            failures.append(f"{form}: {s.sink_tokens} sink tokens, expected {target}")
        if s.token_stores != oracle_stores[form]:
            failures.append(
                f"{form}: {s.token_stores} token stores, copy-count oracle says "
                f"{oracle_stores[form]}"
            )
        if s.bmr_bytes != bmr[form]:
            failures.append(f"{form}: run reports {s.bmr_bytes} BMR bytes, compute_bmr {bmr[form]}")
        left = {
            name: actor.remaining() for name, actor in instances[form].actors.items()
            if actor.is_source and actor.remaining()
        }
        if left:
            failures.append(f"{form}: sources not drained: {left}")
    return failures


def layer_metrics(record, spans, aggs, per_layer):
    """Per-layer figures of one traced iteration."""
    by_name = {}
    for s in spans.values():
        by_name.setdefault(s.name, []).append(s)

    def dur(name):
        return sum(s.duration for s in by_name.get(name, ()))

    m = {
        "apps.build_s": dur("apps.build"),
        "graph.adjacency_s": dur("graph.adjacency"),
        "ir.validate_s": dur("ir.validate"),
        "transform.derive_s": dur("transform.derive"),
        "transform.fixpoint_s": dur("transform.fixpoint"),
        "transform.steps": record["transform.steps"],
        "transform.find_candidates_s": dur("transform.find_candidates"),
        "transform.bmr_s": dur("transform.bmr"),
        "formats.serialize_s": dur("formats.serialize"),
        "formats.parse_s": dur("formats.parse"),
        "formats.pafg_bytes": record["formats.pafg_bytes"],
    }
    m["transform.s_per_step"] = m["transform.fixpoint_s"] / max(record["transform.steps"], 1)
    for form in FORMS:
        m[f"graph.vertices.{form}"] = record[f"graph.vertices.{form}"]
        m[f"graph.edges.{form}"] = record[f"graph.edges.{form}"]
        run = by_name[f"runtime.run.{form}"][0]
        under = [a for a in aggs if a.parent == run.id]

        def count(name):
            return sum(a.count for a in under if a.name == name)

        def total(prefix):
            return sum(a.total for a in under if a.name.startswith(prefix))

        attempts = count("actors.rates")
        firings = count("actors.invoke")
        m[f"runtime.instantiate_s.{form}"] = dur(f"runtime.instantiate.{form}")
        m[f"runtime.run_s.{form}"] = run.duration
        m[f"runtime.attempts.{form}"] = attempts
        m[f"runtime.firings.{form}"] = firings
        m[f"runtime.fire_ratio.{form}"] = firings / max(attempts, 1)
        m[f"runtime.us_per_firing.{form}"] = run.duration / max(firings, 1) * 1e6
        m[f"runtime.self_s.{form}"] = run.duration - run.child_s
        m[f"actors.invoke_s.{form}"] = total("actors.invoke")
        m[f"actors.self_s.{form}"] = total("actors.")
        m[f"kernels.reads.{form}"] = count("kernels.read")
        m[f"kernels.writes.{form}"] = count("kernels.write")
        m[f"kernels.probes.{form}"] = count("kernels.population") + count("kernels.writable")
        m[f"kernels.self_s.{form}"] = total("kernels.")
    for layer, self_s in per_layer.items():
        m[f"self_s.{layer}"] = self_s
    return m


def cli_cross_check(workload, seed, lib):
    """Run `pafg bench` in-process with the workload's seed and size and
    compare its counters with the benchmark pipeline's on the same inputs.
    Returns a list of failures."""
    args, shape, inputs = workload.cli_case(seed)
    ours = run_iteration(shape, inputs, lib, NullTracer())
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(args)
    text = out.getvalue()
    command = "pafg " + " ".join(args)
    if code != 0:
        return [f"{command} exited with {code}"]
    if "sink streams identical: True" not in text:
        return [f"{command} did not report identical sink streams"]
    lines = text.splitlines()
    start = lines.index("{")
    end = len(lines) - 1 - lines[::-1].index("}")
    payload = json.loads("\n".join(lines[start:end + 1]))
    failures = []
    for form in FORMS:
        for key in ("sink_tokens", "token_stores", "bmr_bytes"):
            if payload[form][key] != ours[f"{key}.{form}"]:
                failures.append(
                    f"{command}: {form} {key} = {payload[form][key]}, "
                    f"benchmark pipeline = {ours[f'{key}.{form}']}"
                )
    return failures
