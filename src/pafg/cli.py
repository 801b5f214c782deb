"""Command-line driver chaining parse -> derive -> passivize -> analyze ->
run over graph and PAFG files, plus the built-in benchmarks.

Exit codes: 0 success, 1 domain error (validation, transformation, or
runtime failure), 2 usage error.
"""

import argparse
import json
import sys
from pathlib import Path

from .actors import default_library
from .apps import (
    ForkCascadeConfig,
    build_evm_graph,
    build_fork_cascade,
    evm_source_data,
    fork_cascade_source_data,
    generate_evm_inputs,
)
from .dataflow import F64
from .errors import PafgError
from .formats import parse_graph, parse_pafg, read_samples, serialize_pafg, write_samples
from .ir import check_abc, is_alternating
from .runtime import compare_streams, instantiate
from .transform import compute_bmr, derive_direct_pafg, find_candidates, passivize_fixpoint


def count(text):
    """An int of at least 1, or a usage error."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pafg",
        description="Dataflow graph modeling with passive-buffer transformation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file")
    p.add_argument("graph")

    p = sub.add_parser("derive", help="derive the direct PAFG of a graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("candidates", help="list passivization candidates of a PAFG")
    p.add_argument("pafg")

    p = sub.add_parser("passivize", help="apply the passivization transformation")
    p.add_argument("pafg")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--auto", action="store_true", help="greedy, first candidate by name")
    group.add_argument("--blocks", help="comma-separated block names, applied in order")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("analyze", help="report BMR and structural checks for a PAFG")
    p.add_argument("pafg")

    p = sub.add_parser("run", help="execute a PAFG")
    p.add_argument("pafg")
    p.add_argument("--inputs", required=True, help="directory with <source>.txt sample files")
    p.add_argument("--outputs", required=True, help="directory for <sink>.txt sample files")
    stop = p.add_mutually_exclusive_group(required=True)
    stop.add_argument("--sink-tokens", type=count)
    stop.add_argument("--iterations", type=count)
    p.add_argument("--stats", help="write run statistics to this JSON file")

    p = sub.add_parser("bench", help="run a built-in benchmark, direct vs optimized")
    p.add_argument("app", choices=("evm", "forkcascade"))
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--windows", type=int, default=4, help="iterations to run")
    p.add_argument("--stats", help="write both stats records to this JSON file")
    return parser


def _load_pafg(path, lib):
    return parse_pafg(Path(path).read_text(encoding="utf-8"), lib=lib)


def cmd_validate(args, lib):
    parse_graph(Path(args.graph).read_text(encoding="utf-8"), lib=lib)
    print(f"{args.graph}: ok")
    return 0


def cmd_derive(args, lib):
    graph = parse_graph(Path(args.graph).read_text(encoding="utf-8"), lib=lib)
    z = derive_direct_pafg(graph, lib)
    Path(args.output).write_text(serialize_pafg(z), encoding="utf-8")
    print(f"{args.output}: {len(z.blocks)} blocks, {len(z.edges)} edges")
    return 0


def cmd_candidates(args, lib):
    z = _load_pafg(args.pafg, lib)
    for cand in find_candidates(z, lib):
        print(cand.block)
    return 0


def cmd_passivize(args, lib):
    z = _load_pafg(args.pafg, lib)
    blocks = None if args.auto else [b for b in args.blocks.split(",") if b]
    z, log = passivize_fixpoint(z, lib, blocks=blocks)
    for step in log:
        print(step.render())
    Path(args.output).write_text(serialize_pafg(z), encoding="utf-8")
    return 0


def cmd_analyze(args, lib):
    z = _load_pafg(args.pafg, lib)
    report = compute_bmr(z)
    for name in sorted(report.per_block):
        print(f"{name}: {report.per_block[name]} bytes")
    print(f"total BMR: {report.total_bytes} bytes")
    print(f"alternating: {is_alternating(z)}")
    print(f"abc: {check_abc(z)}")
    return 0


def cmd_run(args, lib):
    z = _load_pafg(args.pafg, lib)
    inputs_dir = Path(args.inputs)
    source_data = {}
    for name, spec in z.source.actors.items():
        declared = lib.declare(spec)
        if declared.is_source:
            token_type = declared.token_type or F64
            source_data[name] = read_samples(inputs_dir / f"{name}.txt", token_type)
    instance = instantiate(z, lib, source_data)
    stats = instance.run(
        sink_token_target=args.sink_tokens, max_iterations=args.iterations
    )
    outputs_dir = Path(args.outputs)
    outputs_dir.mkdir(parents=True, exist_ok=True)
    for sink, stream in instance.sink_streams().items():
        write_samples(outputs_dir / f"{sink}.txt", stream)
    payload = stats.as_dict()
    print(json.dumps(payload, indent=2))
    if args.stats:
        Path(args.stats).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


def _bench_pair(graph, lib, source_data, target):
    direct = derive_direct_pafg(graph, lib)
    optimized, log = passivize_fixpoint(direct, lib)
    runs = {}
    streams = {}
    for label, z in (("direct", direct), ("optimized", optimized)):
        instance = instantiate(z, lib, source_data)
        runs[label] = instance.run(sink_token_target=target)
        streams[label] = instance.sink_streams()
    equal, divergence = compare_streams(streams["direct"], streams["optimized"])
    if not equal:
        raise PafgError(f"direct and optimized sink streams diverge: {divergence}")
    return runs, log


def cmd_bench(args, lib):
    if args.app == "evm":
        cfg = generate_evm_inputs(args.seed, args.window, args.windows)
        graph = build_evm_graph(cfg)
        source_data = evm_source_data(cfg)
        target = len(cfg.window_lengths)
    else:
        cfg = ForkCascadeConfig(window_size=args.window, num_windows=args.windows)
        graph = build_fork_cascade(cfg)
        source_data = fork_cascade_source_data(cfg, seed=args.seed)
        target = cfg.window_size * cfg.num_windows
    runs, log = _bench_pair(graph, lib, source_data, target)
    for step in log:
        print(step.render())
    payload = {label: stats.as_dict() for label, stats in runs.items()}
    print(json.dumps(payload, indent=2))
    print("sink streams identical: True")
    if args.stats:
        Path(args.stats).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "derive": cmd_derive,
    "candidates": cmd_candidates,
    "passivize": cmd_passivize,
    "analyze": cmd_analyze,
    "run": cmd_run,
    "bench": cmd_bench,
}


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    lib = default_library()
    try:
        return _COMMANDS[args.command](args, lib)
    except (PafgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
