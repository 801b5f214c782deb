"""Execution engine for alternating coordinated PAFGs.

The direct PAFG of a graph is its pure dataflow form, so one engine covers
both the original and the transformed program: active blocks are driven
through rates/ready/invoke, passive blocks are the buffers between them.
The scheduler is a round-robin sweep over the active blocks in data order
(see data_order; a permutation can be supplied for determinacy
experiments), so on an acyclic graph a sweep visits a block after the
blocks that feed it. A sweep visits each block once and fires it as many
times as it stays enabled, i.e. while its input populations and output
space cover its current rates and its ready() count is nonzero. The batch
size is computed from the populations and free spaces when the block is
visited and recomputed only when its rates change; another block's firing
can only add to a block's inputs or free its outputs, so every maximal run
makes the same firings and ends in the same state. Each call fires k times
at once: k is the least of that batch size, ready() and, for a sink, the
firings left to its target. The engine reads k bursts per input port with
one read_n, makes one invoke(inputs, k) call (invoke(inputs) when k is
1), checks that every output holds k times its declared rate and stores
it with one write_n. A run stopped early (by a sink-token target or a
sweep bound) leaves a prefix of each sink's complete stream, but how far
the other blocks got, and so its token-store count, depends on the
schedule.
Instrumentation counts every token stored into passive-block memory.

The same engine is the equivalence harness: an active subgraph and its
passive replacement are two realizations of one stream mapping, checked by
running both PAFGs on the same source streams and comparing sink streams.
"""

import time
from dataclasses import asdict, dataclass

from .errors import (
    ContractViolationError,
    DeadlockError,
    KernelError,
    RuntimeExecutionError,
    UnboundIoError,
)
from .ir import PSSV, is_alternating, validate_coordinated
from .kernels import PassiveKernel
from .transform import compute_bmr


@dataclass
class ExecStats:
    sink_tokens: int
    token_stores: int
    wall_seconds: float
    throughput_sps: float
    bmr_bytes: int

    def as_dict(self):
        return asdict(self)


class ExecutionInstance:
    """A coordinated PAFG with kernels allocated for its passive blocks,
    live actors for its active blocks, and every actor port bound to a
    kernel port."""

    def __init__(self, z, actors, kernels, in_bindings, out_bindings):
        self.z = z
        self.actors = actors
        self.order = data_order(z.source.graph, actors)
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
        """Sweep until the stop condition is met. A sweep visits the blocks
        in order, by default self.order (data order), and fires each one as
        many times as it stays enabled. With a sink-token target, a sweep
        that fires nothing first is a deadlock, and so is reaching
        max_iterations sweeps first; without one the run simply stops at
        quiescence or after max_iterations sweeps."""
        if order is None:
            order = self.order
        elif set(order) != set(self.actors):
            raise RuntimeExecutionError("order must be a permutation of the active blocks")
        # Bound methods are captured per run, after any per-object wrappers
        # have been installed on the live actors and kernels.
        stations = [self._compile_station(name) for name in order]

        target = sink_token_target
        sink_tokens = 0
        sweeps = 0
        stores0 = self._total_stores()
        start = time.perf_counter()
        done = target is not None and target <= 0
        while not done:
            if max_iterations is not None and sweeps >= max_iterations:
                if target is not None:
                    raise RuntimeExecutionError(
                        f"reached {max_iterations} sweeps after {sink_tokens} of "
                        f"{target} sink tokens"
                    )
                break
            fired = False
            for name, is_sink, _, rates, ready, invoke, ins, outs, bound in stations:
                table = rates()
                avail = _batch_size(table, ins, outs)
                while avail:
                    k = ready()
                    if not k:
                        break
                    if k > avail:
                        k = avail
                    consume, produce = table
                    if is_sink:
                        per_firing = sum(consume.get(port, 0) for port, *_ in ins)
                        if target is not None and per_firing:
                            # the fewest firings that reach the target
                            k = min(k, -(-(target - sink_tokens) // per_firing))
                    inputs = {}
                    for port, _, read_n, kport in ins:
                        inputs[port] = read_n(kport, consume.get(port, 0) * k)
                    outputs = invoke(inputs) if k == 1 else invoke(inputs, k)
                    for port, _, write_n, kport in outs:
                        values = outputs.get(port, ())
                        n = produce.get(port, 0) * k
                        if len(values) != n:
                            raise ContractViolationError(
                                f"{name}.{port}: produced {len(values)} tokens in {k} "
                                f"firing(s), declared {n}"
                            )
                        write_n(kport, values)
                    if not bound.issuperset(outputs):
                        _check_unbound(name, outputs, bound)
                    fired = True
                    if is_sink:
                        sink_tokens += k * per_firing
                        if target is not None and sink_tokens >= target:
                            done = True
                            break
                    new = rates()
                    if new is table or new == table:
                        avail -= k
                    else:
                        table = new
                        avail = _batch_size(new, ins, outs)
                if done:
                    break
            sweeps += 1
            if done:
                break
            if not fired:
                if target is not None:
                    blocked = {s[0]: _diagnose(s) for s in stations}
                    raise DeadlockError(
                        f"no block fired after {sink_tokens} of {target} sink tokens: "
                        + "; ".join(blocked.values()),
                        populations=self.population_snapshot(),
                        blocked=blocked,
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

    def _compile_station(self, name):
        """One block's row of the station table: (name, is_sink, is_source,
        rates, ready, invoke, input ports, output ports, bound output port
        names), where an input port is (port, population, read_n, kernel
        port) and an output port is (port, writable, write_n, kernel port),
        all as bound methods of the block's actor and kernels."""
        actor = self.actors[name]
        ins = tuple(
            (port, self.kernels[kb].population, self.kernels[kb].read_n, kp)
            for port, (kb, kp) in sorted(self.in_bindings[name].items())
        )
        outs = tuple(
            (port, self.kernels[kb].writable, self.kernels[kb].write_n, kp)
            for port, (kb, kp) in sorted(self.out_bindings[name].items())
        )
        return (
            name, actor.kind == "snk", actor.is_source,
            actor.rates, actor.ready, actor.invoke,
            ins, outs, frozenset(port for port, *_ in outs),
        )


def data_order(graph, blocks):
    """The vertices of graph in blocks, in reverse postorder of a depth-first
    search from each vertex and to each successor in name order: O(V + E),
    deterministic also on a cycle, and topological on an acyclic graph."""
    succ = {}  # successors in reverse name order, so the first is popped first
    for v, w in sorted(graph.edges, reverse=True):
        succ.setdefault(v, []).append(w)
    seen, finished = set(), []
    stack = sorted(graph.vertices, reverse=True)
    while stack:
        v = stack.pop()
        if isinstance(v, tuple):  # popped once every successor of v is done
            finished.append(v[0])
        elif v not in seen:
            seen.add(v)
            stack.append((v,))
            stack.extend(succ.get(v, ()))
    return [v for v in reversed(finished) if v in blocks]


def _batch_size(table, ins, outs):
    """Firings the current populations and free spaces admit under one rate
    table: the fewest whole bursts on any port with a nonzero rate, or 1
    when no port has one."""
    consume, produce = table
    k = None
    for port, population, _, kport in ins:
        n = consume.get(port, 0)
        if n:
            q = population(kport) // n
            if not q:
                return 0
            if k is None or q < k:
                k = q
    for port, writable, _, kport in outs:
        n = produce.get(port, 0)
        if n:
            q = writable(kport) // n
            if not q:
                return 0
            if k is None or q < k:
                k = q
    return 1 if k is None else k


def _check_unbound(name, outputs, bound):
    extra = sorted(p for p in outputs if p not in bound and outputs[p])
    if extra:
        raise ContractViolationError(f"{name}: produced tokens on unbound port(s) {extra}")


def _diagnose(station):
    """Why a block cannot fire: its first short port and the shortfall, or
    that a source has no data left."""
    name, _, is_source, rates, ready, _, ins, outs, _ = station
    if is_source and not ready():
        return f"{name} has no data left"
    consume, produce = rates()
    for port, population, _, kport in ins:
        need, have = consume.get(port, 0), population(kport)
        if have < need:
            return f"{name}.{port} needs {need}, has {have}"
    for port, writable, _, kport in outs:
        need, have = produce.get(port, 0), writable(kport)
        if have < need:
            return f"{name}.{port} needs space for {need}, has {have}"
    return f"{name} is not ready"


def instantiate(z, lib, source_data):
    """Build an ExecutionInstance: allocate a kernel per passive block,
    create actors for active blocks, bind ports along the PAFG edges, and
    bind every source actor to its input stream."""
    if not is_alternating(z):
        raise RuntimeExecutionError("only alternating PAFGs are executable")
    validate_coordinated(z, lib)

    kernels = {}
    actors = {}
    for name, block in z.pafg.blocks.items():
        if z.coord(name) != PSSV:
            actors[name] = lib.make_active(block.provenance)
        elif block.is_simple:
            kernels[name] = PassiveKernel(block.capacity)
        else:
            kernels[name] = lib.make_passive(block.provenance, block.capacity)

    # (input ports, output ports) of every block, active or passive: an
    # application edge may only touch ports its endpoints declare.
    declared = {name: (a.input_ports, a.output_ports) for name, a in actors.items()}
    declared.update((name, (k.write_ports, k.read_ports)) for name, k in kernels.items())

    # validate_coordinated checked association, so each application edge
    # runs through its surviving simple ring or, absorbed, joins its two
    # endpoints, which alternation makes one active and one passive.
    in_bindings = {name: {} for name in actors}
    out_bindings = {name: {} for name in actors}
    for e in z.source.edges.values():
        for block, port, side in ((e.src, e.src_port, 1), (e.snk, e.snk_port, 0)):
            if port not in declared[block][side]:
                raise RuntimeExecutionError(
                    f"edge {e.signature()}: {block}.{port} is not a declared port of {block}"
                )
        ring = e.signature()
        if ring in kernels:
            write = (ring, kernels[ring].write_ports[0])
            read = (ring, kernels[ring].read_ports[0])
        else:
            write, read = (e.snk, e.snk_port), (e.src, e.src_port)
        if e.src in actors:
            out_bindings[e.src][e.src_port] = write
        if e.snk in actors:
            in_bindings[e.snk][e.snk_port] = read

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
