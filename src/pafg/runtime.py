"""Execution engine for alternating PAFGs.

The direct PAFG of a graph is its pure dataflow form, so one engine covers
both the original and the transformed program: active blocks are driven
through rates/ready/invoke, passive blocks are the buffers between them.
instantiate builds the station table once, from the blocks and the block
connections the PAFG derives from them: a row per active block with its
actor and, per port in name order, the kernel bound to it and the position
of the kernel port there, resolved once, so a firing looks up no port
name. Rows hold objects, not bound methods, so wrappers installed on them
later are called, but only for methods the engine asks: rates() once per
visit and, after a firing, again only if the actor's class overrides
CfdfActor.rates; ready() only if the class overrides CfdfActor.ready.
run() sweeps the rows round-robin in data order (data_order; a
permutation can be supplied), so on an acyclic graph a block is visited
after the blocks that feed it, and fires each block while its input
populations and output space cover its current rates and ready() is
nonzero. Another block's firing only adds inputs or frees outputs, so
every maximal run makes the same firings. A call fires k times: k is the
least of the batch size those admit, ready() and, for a sink, the firings
left to its target, with one
read per input port, one invoke(inputs, k), a check that every output
holds k times its declared rate and one write per output. A run stopped
early (sink-token target or sweep bound) leaves a prefix of each sink's
stream, but its token-store count, which counts every token stored into
passive-block memory, depends on the schedule.
"""

import marshal
import struct
import time
from dataclasses import asdict, dataclass

from .dataflow import CfdfActor
from .errors import (
    ContractViolationError,
    DeadlockError,
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
    """A PAFG with kernels allocated for its passive blocks,
    live actors for its active blocks, and the station table that binds
    every actor port to a kernel port: a row (name, actor, is_sink, input
    ports, output ports, bound output port names, modal, bounded) per
    active block, where a port is (port name, kernel, position of the
    kernel port) and modal and bounded say whether the actor's class
    overrides CfdfActor.rates and CfdfActor.ready."""

    def __init__(self, z, actors, kernels, stations):
        self.actors = actors
        self.order = data_order(z.source, actors)
        self.kernels = kernels
        self.stations = stations
        self.bmr_bytes = compute_bmr(z).total_bytes

    def sink_streams(self):
        return {name: list(a.collected) for name, a in sorted(self.actors.items()) if a.is_sink}

    def run(self, sink_token_target=None, max_iterations=None, order=None):
        """Sweep the station table until the stop condition is met. A sweep
        visits the blocks in order, a permutation of them that defaults to
        self.order (data order), and fires each one as many times as it
        stays enabled. With a sink-token target, a sweep that fires nothing
        first is a deadlock, and so is reaching max_iterations sweeps first;
        without one the run simply stops at quiescence or after
        max_iterations sweeps. The next run carries on where this one
        stopped."""
        if order is None:
            order = self.order
        elif len(order) != len(self.actors) or set(order) != set(self.actors):
            raise RuntimeExecutionError("order must be a permutation of the active blocks")
        stations = [self.stations[name] for name in order]

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
            for name, actor, is_sink, ins, outs, bound, modal, bounded in stations:
                table = actor.rates()
                avail = _batch_size(table, ins, outs)
                while avail:
                    k = min(actor.ready(), avail) if bounded else avail
                    if not k:
                        break
                    consume, produce = table
                    if is_sink:
                        per_firing = sum(consume.get(port, 0) for port, *_ in ins)
                        if target is not None and per_firing:
                            # the fewest firings that reach the target
                            k = min(k, -(-(target - sink_tokens) // per_firing))
                    inputs = {}
                    for port, kernel, pos in ins:
                        inputs[port] = kernel.read(pos, consume.get(port, 0) * k)
                    outputs = actor.invoke(inputs, k)
                    for port, kernel, pos in outs:
                        values = outputs.get(port, ())
                        n = produce.get(port, 0) * k
                        if len(values) != n:
                            raise ContractViolationError(
                                f"{name}.{port}: produced {len(values)} tokens in {k} "
                                f"firing(s), declared {n}"
                            )
                        kernel.write(pos, values)
                    if not bound.issuperset(outputs):
                        _check_unbound(name, outputs, bound)
                    fired = True
                    if is_sink:
                        sink_tokens += k * per_firing
                        if target is not None and sink_tokens >= target:
                            done = True
                            break
                    if modal and (new := actor.rates()) is not table and new != table:
                        table = new
                        avail = _batch_size(new, ins, outs)
                    else:
                        avail -= k
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
                        populations={
                            block: {p: ring.population(i) for i, p in enumerate(ring.read_ports)}
                            for block, ring in sorted(self.kernels.items())
                        },
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
            bmr_bytes=self.bmr_bytes,
        )

    def _total_stores(self):
        return sum(k.stores for k in self.kernels.values())


def data_order(app_graph, blocks):
    """The actors of app_graph in blocks, in reverse postorder of a depth-
    first search from each actor and to each out-edge's sink in name order:
    O(V + E) apart from sorting an actor's successors when the search
    expands it, deterministic also on a cycle, topological if acyclic."""
    outs, seen, finished = app_graph.outs, set(), []
    stack = sorted(app_graph.actors, reverse=True)
    while stack:
        v = stack.pop()
        if isinstance(v, tuple):  # popped once every successor of v is done
            finished.append(v[0])
        elif v not in seen:
            seen.add(v)
            stack.append((v,))  # then its successors, the first by name on top
            if v in outs:
                stack += sorted([e.snk for e in outs[v]], reverse=True)
    return [v for v in reversed(finished) if v in blocks]


def _batch_size(table, ins, outs):
    """Firings the current populations and free spaces admit under one rate
    table: the fewest whole bursts on any port with a nonzero rate, or 1
    when no port has one."""
    consume, produce = table
    k = None
    for port, kernel, pos in ins:
        n = consume.get(port, 0)
        if n:
            q = kernel.population(pos) // n
            if not q:
                return 0
            if k is None or q < k:
                k = q
    for port, kernel, pos in outs:
        n = produce.get(port, 0)
        if n:
            q = kernel.writable(pos) // n
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
    name, actor, _, ins, outs, *_ = station
    if actor.is_source and not actor.ready():
        return f"{name} has no data left"
    consume, produce = actor.rates()
    for port, kernel, pos in ins:
        need, have = consume.get(port, 0), kernel.population(pos)
        if have < need:
            return f"{name}.{port} needs {need}, has {have}"
    for port, kernel, pos in outs:
        need, have = produce.get(port, 0), kernel.writable(pos)
        if have < need:
            return f"{name}.{port} needs space for {need}, has {have}"
    return f"{name} is not ready"


def instantiate(z, lib, source_data):
    """Build an ExecutionInstance: allocate a kernel per passive block,
    create actors for active blocks, bind ports along the PAFG edges into
    the station table, and bind every source actor to its input stream."""
    if not is_alternating(z):
        raise RuntimeExecutionError("only alternating PAFGs are executable")
    validate_coordinated(z, lib)

    kernels = {}
    actors = {}
    coord = z.coordination
    for name, block in z.blocks.items():
        if coord[name] != PSSV:
            actors[name] = lib.make_active(block.provenance)
        elif block.is_simple:
            kernels[name] = PassiveKernel(block.capacity)
        else:
            kernels[name] = lib.make_passive(block.provenance, block.capacity)

    # every PAFG is associated by construction, so each application edge
    # runs through its surviving simple ring or, absorbed, joins its two
    # endpoints, which alternation makes one active and one passive. Every
    # edge joins declared ports (lib.check_ports). Every actor's block gets
    # its bindings; a passive block's are only counted.
    app_actors = z.source.actors
    ins = {name: {} for name in app_actors}
    outs = {name: {} for name in app_actors}
    for e in z.source.edges.values():
        lib.check_ports(e, app_actors)
        ring = kernels.get(e.signature)
        if ring is not None:  # a simple ring has one port on each side
            write, read = (e.src_port, ring, 0), (e.snk_port, ring, 0)
        elif e.snk in kernels:  # an actor's output into a ring's write port
            ring = kernels[e.snk]
            write, read = (e.src_port, ring, ring.write_index(e.snk_port)), None
        else:  # a ring's read port into an actor's input
            ring = kernels[e.src]
            write, read = None, (e.snk_port, ring, ring.read_index(e.src_port))
        outs[e.src][e.src_port] = write
        ins[e.snk][e.snk_port] = read

    # every bound port is declared, so a port is unbound iff a count differs
    for name, bound_ins in ins.items():
        in_ports, out_ports, *_ = lib.declare(app_actors[name])
        bound_outs = outs[name]
        if len(bound_ins) != len(in_ports) or len(bound_outs) != len(out_ports):
            for port in in_ports:
                if port not in bound_ins:
                    raise RuntimeExecutionError(f"input port {name}.{port} is unbound")
            for port in out_ports:
                if port not in bound_outs:
                    raise RuntimeExecutionError(f"output port {name}.{port} is unbound")

    stations = {}
    for name, actor in actors.items():
        bound_ins, bound_outs = ins[name], outs[name]
        if actor.is_source:
            if name not in source_data:
                raise UnboundIoError(f"source actor {name!r} has no bound input data")
            actor.bind(source_data[name])
        # a block's ports are distinct, so sorting compares port names only
        cls = type(actor)
        stations[name] = (
            name, actor, actor.is_sink,
            tuple(sorted(bound_ins.values())), tuple(sorted(bound_outs.values())),
            frozenset(bound_outs),
            cls.rates is not CfdfActor.rates, cls.ready is not CfdfActor.ready,
        )
    unknown = set(source_data) - {n for n, a in actors.items() if a.is_source}
    if unknown:
        raise UnboundIoError(f"input data bound to non-source actor(s): {sorted(unknown)}")
    return ExecutionInstance(z, actors, kernels, stations)


@dataclass
class StreamDivergence:
    sink: str
    index: int
    left: object
    right: object


def _token_bits(token):
    """A token's type and value bits: the bytes marshal (format 2) writes,
    or, for a type marshal refuses (a float subclass such as
    numpy.float64), the type and the IEEE-754 bits or else the value."""
    try:
        return marshal.dumps(token, 2)
    except ValueError:
        return type(token), struct.pack("<d", token) if isinstance(token, float) else token


def _same_bits(left, right):
    """Whether marshal writes two token lists as the same bytes, in C."""
    try:
        return marshal.dumps(left, 2) == marshal.dumps(right, 2)
    except ValueError:
        return False


def compare_streams(a, b):
    """Element-wise bit-exact comparison of two sink-stream maps. Two tokens
    match when they have the same type and the same value bits (see
    _token_bits: a float's IEEE-754 bits, an int's value), so 0.0 and -0.0
    differ, 1 and 1.0 differ, and a NaN matches only the same NaN bits.
    Returns (equal, first divergence or None); a length mismatch diverges
    at the first missing index."""
    if set(a) != set(b):
        raise RuntimeExecutionError(f"sink sets differ: {sorted(a)} vs {sorted(b)}")
    for sink in sorted(a):
        left, right = a[sink], b[sink]
        # 4096 tokens at a time keep the byte strings small; a chunk that
        # differs is searched token by token
        for j in range(0, max(len(left), len(right)), 4096):
            if not _same_bits(left[j:j + 4096], right[j:j + 4096]):
                break
        else:
            continue
        for i, (x, y) in enumerate(zip(left[j:], right[j:]), j):
            if _token_bits(x) != _token_bits(y):
                return False, StreamDivergence(sink, i, x, y)
        if len(left) != len(right):
            i = min(len(left), len(right))
            return False, StreamDivergence(
                sink, i,
                left[i] if i < len(left) else None,
                right[i] if i < len(right) else None,
            )
    return True, None
