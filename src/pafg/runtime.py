"""Execution engine for alternating coordinated PAFGs.

The direct PAFG of a graph is its pure dataflow form, so one engine covers
both the original and the transformed program: active blocks are driven
through rates/ready/invoke, passive blocks are the buffers between them.
The scheduler is a round-robin sweep over the active blocks in block-name
order (a permutation can be supplied for determinacy experiments); a sweep
invokes every block that is enabled, i.e. whose input populations and
output space cover its current rates and whose ready() holds.
Instrumentation counts every token stored into passive-block memory.

The same engine is the equivalence harness: an active subgraph and its
passive replacement are two realizations of one stream mapping, checked by
running both PAFGs on the same source streams and comparing sink streams.
"""

import time
from dataclasses import dataclass

from .errors import (
    ContractViolationError,
    DeadlockError,
    KernelError,
    MissingImplementationError,
    RuntimeExecutionError,
    UnboundIoError,
)
from .ir import EdgeRef, PSSV, is_alternating, validate_coordinated
from .kernels import SimpleFifo
from .transform import compute_bmr


@dataclass
class ExecStats:
    sink_tokens: int
    token_stores: int
    wall_seconds: float
    throughput_sps: float
    bmr_bytes: int

    def as_dict(self):
        return {
            "sink_tokens": self.sink_tokens,
            "token_stores": self.token_stores,
            "wall_seconds": self.wall_seconds,
            "throughput_sps": self.throughput_sps,
            "bmr_bytes": self.bmr_bytes,
        }


class ExecutionInstance:
    """A coordinated PAFG with kernels allocated for its passive blocks,
    live actors for its active blocks, and every actor port bound to a
    kernel port."""

    def __init__(self, z, actors, kernels, in_bindings, out_bindings):
        self.z = z
        self.actors = actors
        self.kernels = kernels
        self.in_bindings = in_bindings
        self.out_bindings = out_bindings
        self.sinks = {
            name for name, actor in actors.items() if actor.kind == "snk"
        }

    def sink_streams(self):
        return {name: list(self.actors[name].collected) for name in sorted(self.sinks)}

    def population_snapshot(self):
        return {
            name: kernel.populations() for name, kernel in sorted(self.kernels.items())
        }

    def run(self, sink_token_target=None, max_iterations=None, order=None):
        """Sweep until the stop condition is met. With a sink-token target,
        a sweep that fires nothing first is a deadlock, and so is reaching
        max_iterations sweeps first; without one the run simply stops at
        quiescence or after max_iterations sweeps."""
        if order is None:
            order = sorted(self.actors)
        else:
            if set(order) != set(self.actors):
                raise RuntimeExecutionError("order must be a permutation of the active blocks")
        schedule = [self._station(name) for name in order]

        sink_tokens = 0
        sweeps = 0
        stores0 = self._total_stores()
        start = time.perf_counter()
        done = sink_token_target is not None and sink_tokens >= sink_token_target
        while not done:
            if max_iterations is not None and sweeps >= max_iterations:
                if sink_token_target is not None:
                    raise RuntimeExecutionError(
                        f"reached {max_iterations} sweeps after {sink_tokens} of "
                        f"{sink_token_target} sink tokens"
                    )
                break
            fired = False
            for station in schedule:
                consumed = self._try_fire(station)
                if consumed is None:
                    continue
                fired = True
                if station[0].kind == "snk":
                    sink_tokens += consumed
                    if sink_token_target is not None and sink_tokens >= sink_token_target:
                        done = True
                        break
            sweeps += 1
            if done:
                break
            if not fired:
                if sink_token_target is not None:
                    raise DeadlockError(
                        f"no block fired after {sink_tokens} of {sink_token_target} "
                        "sink tokens",
                        populations=self.population_snapshot(),
                    )
                break
        wall = time.perf_counter() - start
        stores = self._total_stores() - stores0
        throughput = sink_tokens / wall if wall > 0 else 0.0
        return ExecStats(
            sink_tokens=sink_tokens,
            token_stores=stores,
            wall_seconds=wall,
            throughput_sps=throughput,
            bmr_bytes=compute_bmr(self.z).total_bytes,
        )

    def _total_stores(self):
        return sum(k.stores for k in self.kernels.values())

    def _station(self, name):
        actor = self.actors[name]
        ins = [
            (port, self.kernels[kb], kp)
            for port, (kb, kp) in sorted(self.in_bindings[name].items())
        ]
        outs = [
            (port, self.kernels[kb], kp)
            for port, (kb, kp) in sorted(self.out_bindings[name].items())
        ]
        return (actor, ins, outs)

    def _try_fire(self, station):
        """Fire one block if enabled; returns tokens consumed or None."""
        actor, ins, outs = station
        consume, produce = actor.rates()
        for port, kernel, kport in ins:
            if kernel.population(kport) < consume.get(port, 0):
                return None
        for port, kernel, kport in outs:
            if kernel.writable(kport) < produce.get(port, 0):
                return None
        if not actor.ready():
            return None
        inputs = {}
        consumed = 0
        for port, kernel, kport in ins:
            n = consume.get(port, 0)
            inputs[port] = [kernel.read(kport) for _ in range(n)]
            consumed += n
        outputs = actor.invoke(inputs)
        for port, kernel, kport in outs:
            n = produce.get(port, 0)
            values = outputs.get(port, [])
            if len(values) != n:
                raise ContractViolationError(
                    f"{actor.name}.{port}: produced {len(values)} tokens, declared {n}"
                )
            for v in values:
                kernel.write(kport, v)
        extra = set(outputs) - {port for port, _, _ in outs}
        if any(outputs[p] for p in extra):
            raise ContractViolationError(
                f"{actor.name}: produced tokens on unbound port(s) {sorted(extra)}"
            )
        return consumed


def instantiate(z, lib, source_data):
    """Build an ExecutionInstance: allocate a kernel per passive block,
    create actors for active blocks, bind ports along the PAFG edges, and
    bind every source actor to its input stream."""
    if not is_alternating(z):
        raise RuntimeExecutionError("only alternating PAFGs are executable")
    validate_coordinated(z, lib)
    app = z.source

    kernels = {}
    actors = {}
    for name, block in z.pafg.blocks.items():
        if z.coord(name) == PSSV:
            if block.is_simple:
                kernels[name] = SimpleFifo(block.capacity)
            else:
                spec = app.actor(block.provenance.name)
                entry = lib.entry(spec.kind)
                if entry.passive_factory is None:
                    raise MissingImplementationError(
                        f"block {name!r}: kind {spec.kind!r} has no passive implementation"
                    )
                kernels[name] = lib.make_passive(spec, block.capacity)
        else:
            spec = app.actor(block.provenance.name)
            actors[name] = lib.make_active(spec)

    # Each application edge is realized either by its surviving simple
    # buffer or, if that buffer was absorbed, by a port of the passivized
    # endpoint's kernel.
    in_bindings = {name: {} for name in actors}
    out_bindings = {name: {} for name in actors}
    for e in app.edges.values():
        simple_name = EdgeRef(e.src, e.src_port, e.snk, e.snk_port).signature()
        if simple_name in kernels:
            producer_binding = (simple_name, "in")
            consumer_binding = (simple_name, "out")
        elif e.snk in kernels and e.src in kernels:
            raise RuntimeExecutionError(
                f"edge {e.signature()}: both endpoints are passive"
            )
        elif e.snk in kernels:
            producer_binding = (e.snk, e.snk_port)
            consumer_binding = None
        elif e.src in kernels:
            producer_binding = None
            consumer_binding = (e.src, e.src_port)
        else:
            # Edge fully absorbed with neither endpoint passive cannot
            # happen in a PAFG produced by this package's transforms.
            raise RuntimeExecutionError(f"edge {e.signature()} has no buffer in the PAFG")
        if producer_binding is not None and e.src in actors:
            out_bindings[e.src][e.src_port] = producer_binding
        if consumer_binding is not None and e.snk in actors:
            in_bindings[e.snk][e.snk_port] = consumer_binding

    for name, actor in actors.items():
        for port in actor.input_ports:
            if port not in in_bindings[name]:
                raise RuntimeExecutionError(f"input port {name}.{port} is unbound")
        for port in actor.output_ports:
            if port not in out_bindings[name]:
                raise RuntimeExecutionError(f"output port {name}.{port} is unbound")
        if actor.is_source:
            if name not in source_data:
                raise UnboundIoError(f"source actor {name!r} has no bound input data")
            actor.bind(source_data[name])
    unknown = set(source_data) - {n for n, a in actors.items() if a.is_source}
    if unknown:
        raise UnboundIoError(f"input data bound to non-source actor(s): {sorted(unknown)}")
    return ExecutionInstance(z, actors, kernels, in_bindings, out_bindings)


@dataclass
class StreamDivergence:
    sink: str
    index: int
    left: object
    right: object


def compare_streams(a, b):
    """Element-wise bit-exact comparison of two sink-stream maps. Returns
    (equal, first divergence or None); a length mismatch diverges at the
    first missing index."""
    if set(a) != set(b):
        raise RuntimeExecutionError(
            f"sink sets differ: {sorted(a)} vs {sorted(b)}"
        )
    for sink in sorted(a):
        left, right = a[sink], b[sink]
        for i in range(min(len(left), len(right))):
            if left[i] != right[i]:
                return False, StreamDivergence(sink, i, left[i], right[i])
        if len(left) != len(right):
            i = min(len(left), len(right))
            return False, StreamDivergence(
                sink, i,
                left[i] if i < len(left) else None,
                right[i] if i < len(right) else None,
            )
    return True, None


def check_mapping_equivalence(reference, candidate, lib, source_data):
    """Compare the stream mappings of two coordinated PAFGs, typically an
    active subgraph's direct PAFG and its passivized replacement, on the
    same finite source streams. Both run to quiescence on this engine.
    Returns compare_streams(reference sinks, candidate sinks); a run that
    stops while a source still has data to emit raises KernelError."""
    streams = []
    for label, z in (("reference", reference), ("candidate", candidate)):
        instance = instantiate(z, lib, source_data)
        instance.run()
        stalled = sorted(n for n, a in instance.actors.items() if a.is_source and a.ready())
        if stalled:
            raise KernelError(f"{label} run stalled with source data left in {stalled}")
        streams.append(instance.sink_streams())
    return compare_streams(*streams)
