"""Application-graph layer: actors with a rates/ready/invoke contract, typed
FIFO edges, and the actor library that records which kinds also have a
passive (read/write) implementation and each kind's declaration: the ports,
rate tables and token type of its actor for a spec, read without building
one and checked once per spec and library.

An ApplicationGraph is a pure value of slotted records: ActorSpecs (kind
plus construction parameters, not live actor state) and DataflowEdges,
whose records it indexes per actor as ins and outs, the neighborhood that
every pass reads. Live actors are created from the library when a graph
is instantiated.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

from .errors import DuplicateEdgeError, DuplicateVertexError, ModelError, UnknownKindError
from .graph import check_edge

F64 = "f64"
I64 = "i64"
TOKEN_TYPES = (F64, I64)
TOKEN_BYTES = 8  # both token types are 8 bytes wide


def is_capacity(value):
    """True iff value is a valid buffer capacity: an int (not a bool) >= 1."""
    return isinstance(value, int) and type(value) is not bool and value >= 1  # bool is final


@dataclass(slots=True, unsafe_hash=True)
class DataflowEdge:
    """A single-producer single-consumer FIFO channel between actor ports.
    signature, "src.port->snk.port", is set once and takes no part in
    equality, hashing or repr."""

    src: str
    src_port: str
    snk: str
    snk_port: str
    capacity: int
    token_type: str = F64
    signature: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_capacity(self.capacity):
            raise ModelError(f"edge {self.key()}: capacity {self.capacity!r} is not an int >= 1")
        if self.token_type not in TOKEN_TYPES:
            raise ModelError(f"edge {self.key()}: unknown token type {self.token_type!r}")
        self.signature = f"{self.src}.{self.src_port}->{self.snk}.{self.snk_port}"

    def key(self):
        return (self.src, self.snk)


@dataclass(slots=True, unsafe_hash=True)
class ActorSpec:
    """An actor's name, kind and construction parameters. declaration and
    declared_by keep ActorLibrary.declare's result, outside equality and repr."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    declaration: tuple = field(default=None, init=False, repr=False, compare=False)
    declared_by: object = field(default=None, init=False, repr=False, compare=False)

    def __reduce__(self):  # a copy or pickle leaves the declaration behind
        return ActorSpec, (self.name, self.kind, self.params)


class CfdfActor:
    """Behavioral contract for actors: fixed per-port rates, a side-effect-
    free ready() count, and a batched invoke that consumes and produces
    exactly the declared counts of k firings. The engine fires k times in
    one call, where k is at most the firings the input populations and
    output space admit under the current rates and at most ready().

    Subclasses define input_ports/output_ports, the token function in
    invoke() and the rate table _RATES, which declaration_of reads; a kind
    with several modes is a ModalActor. The engine asks rates() again after
    a firing, and ready() at all, only of a class that overrides them, so a
    kind whose rates change overrides rates(). A source sets is_source and
    has bind(values); a sink sets is_sink and fills collected.
    """

    kind = None
    input_ports = ()
    output_ports = ()
    is_source = False
    is_sink = False

    def __init__(self, name):
        self.name = name

    # check(name, *args) raises ModelError for arguments the constructor rejects
    check = staticmethod(lambda name, *args: None)

    def rates(self):
        """(consumption, production) per port for the current mode."""
        return self._RATES

    def ready(self):
        """How many consecutive firings the actor's state allows under its
        current rate table; 0 means not ready. The default is unbounded; an
        actor that only knows single firings returns 1."""
        return math.inf

    def invoke(self, inputs, k=1):
        """Fire k times in one call: inputs holds, per input port, the
        declared count times k tokens in stream order; return the produced
        tokens per output port, the declared count times k each, and
        advance the actor's state. Results equal k single firings in turn."""
        raise NotImplementedError


# An actor's ports, every (consumption, production) table, its token type, if
# fixed, and whether it is a source
Declaration = namedtuple("Declaration",
                         "input_ports output_ports rate_tables token_type is_source",
                         defaults=(None, False))
ActorLibraryEntry = namedtuple("ActorLibraryEntry", "kind active_factory passive_factory declare")


def declaration_of(actor):
    """The Declaration an actor or actor class states: its ports, its
    _RATES, one table, or a dict of one table per mode, and is_source; an
    actor that states no _RATES is a ModelError that names its class."""
    rates = getattr(actor, "_RATES", None)
    if rates is None:
        cls = actor if isinstance(actor, type) else type(actor)
        raise ModelError(f"actor class {cls.__name__!r} states no _RATES")
    tables = tuple(rates.values()) if isinstance(rates, dict) else (rates,)
    return Declaration(actor.input_ports, actor.output_ports, tables, is_source=actor.is_source)


class ActorLibrary:
    """Registry of actor kinds. A kind is a buffer actor iff it has a
    passive implementation in addition to the mandatory active one."""

    def __init__(self):
        self._entries = {}

    def register(self, kind, active_factory, passive_factory=None, declare=None):
        """declare(spec) gives the kind's Declaration for spec, or raises
        ModelError for a bad or unknown parameter; by default it is the
        declaration_of a new actor."""
        if kind in self._entries:
            raise ModelError(f"actor kind {kind!r} already registered")
        if declare is None:
            def declare(spec):
                return declaration_of(active_factory(spec))
        self._entries[kind] = ActorLibraryEntry(kind, active_factory, passive_factory, declare)

    def entry(self, kind):
        try:
            return self._entries[kind]
        except KeyError:
            raise UnknownKindError(f"unknown actor kind {kind!r}") from None

    def has_kind(self, kind):
        return kind in self._entries

    def is_buffer_actor(self, kind):
        return self.entry(kind).passive_factory is not None

    def declare(self, spec):
        """spec's Declaration, checked once per spec and library: the first
        one is kept on the spec and returned again."""
        if spec.declared_by is not self:
            spec.declaration = self.entry(spec.kind).declare(spec)
            spec.declared_by = self
        return spec.declaration

    def check_ports(self, e, actors):
        """Raise ModelError unless edge e joins ports that its actors in
        actors declare and carries the token type its source fixes, if any."""
        src, snk = actors[e.src], actors[e.snk]  # each declared once (declare)
        src = src.declaration if src.declared_by is self else self.declare(src)
        snk = snk.declaration if snk.declared_by is self else self.declare(snk)
        if e.src_port not in src.output_ports:
            raise ModelError(f"{e.src}.{e.src_port} is not a declared port of {e.src}")
        if e.snk_port not in snk.input_ports:
            raise ModelError(f"{e.snk}.{e.snk_port} is not a declared port of {e.snk}")
        if src.token_type not in (None, e.token_type):
            raise ModelError(f"{e.src}.{e.src_port} emits {src.token_type} tokens, but "
                             f"the edge has type={e.token_type}")

    def make_active(self, spec):
        return self.entry(spec.kind).active_factory(spec)

    def make_passive(self, spec, capacity):
        entry = self.entry(spec.kind)
        if entry.passive_factory is None:
            raise UnknownKindError(f"actor kind {spec.kind!r} has no passive implementation")
        return entry.passive_factory(spec, capacity)


@dataclass(frozen=True)
class ApplicationGraph:
    """Directed graph of actor specs plus per-edge FIFO metadata. One pass
    per table checks keys, endpoints, ports bound twice and actors named
    like an edge's signature (its simple block's name in a PAFG), naming
    the first fault in table order, and indexes the edge records as ins and
    outs, not fields: per actor, its in- or out-edges in table order."""

    actors: dict
    edges: dict

    def __post_init__(self):
        actors, ins, outs, bound = self.actors, {}, {}, set()
        for key, a in actors.items():
            if key != a.name:
                raise ModelError(f"actor table key {key!r} does not match actor {a.name!r}")
        for key, e in self.edges.items():
            if key != e.key():
                raise ModelError(f"edge table key {key} does not match edge {e.key()}")
            if e.src == e.snk or e.src not in actors or e.snk not in actors:
                check_edge(actors, e.src, e.snk)
            if e.signature in actors:
                raise ModelError(f"actor {e.signature!r} has the block name of edge {e.signature}")
            for end in ((e.src, e.src_port, "out"), (e.snk, e.snk_port, "in")):
                if end in bound:
                    raise ModelError(f"port {end[0]}.{end[1]} bound to more than one edge")
                bound.add(end)
            outs.setdefault(e.src, []).append(e)
            ins.setdefault(e.snk, []).append(e)
        object.__setattr__(self, "ins", ins)
        object.__setattr__(self, "outs", outs)

    def actor(self, name):
        try:
            return self.actors[name]
        except KeyError:
            raise ModelError(f"unknown actor {name!r}") from None

    def edge(self, src, snk):
        try:
            return self.edges[(src, snk)]
        except KeyError:
            raise ModelError(f"unknown edge ({src!r}, {snk!r})") from None


class AppGraphBuilder:
    """Single-owner builder for ApplicationGraph values.

    Endpoints are written "actor.port", e.g. builder.edge("A.out", "B.in",
    capacity=16). actors and edges hold the records added so far, in order.
    """

    def __init__(self):
        self.actors = {}
        self.edges = {}

    def actor(self, name, kind, params=None, /, **kwargs):
        """Parameters come as a dict, keywords or both; any name is allowed."""
        if name in self.actors:
            raise DuplicateVertexError(f"vertex {name!r} already present")
        self.actors[name] = ActorSpec(name, kind, {**(params or {}), **kwargs})
        return self

    def edge(self, src_endpoint, snk_endpoint, capacity, token_type=F64):
        src, src_port = _split_endpoint(src_endpoint)
        snk, snk_port = _split_endpoint(snk_endpoint)
        if src == snk or src not in self.actors or snk not in self.actors:
            check_edge(self.actors, src, snk)
        if (src, snk) in self.edges:
            raise DuplicateEdgeError(f"edge ({src!r}, {snk!r}) already present")
        self.edges[src, snk] = DataflowEdge(src, src_port, snk, snk_port, capacity, token_type)
        return self

    def build(self):
        return ApplicationGraph(dict(self.actors), dict(self.edges))


def _split_endpoint(endpoint):
    actor, sep, port = endpoint.rpartition(".")
    if not sep or not actor or not port:
        raise ModelError(f"endpoint {endpoint!r} is not of the form actor.port")
    return actor, port
