"""Active (rates/ready/invoke) implementations of the built-in actor kinds and
the default library wiring them to their passive counterparts.

Buffer actors (fork, gain-fork, interleave) have both forms: each kind is
one BufferActor declaration, and its passive form is that actor's ring.
Everything else is computational. Sources and sinks carry the graph's
external I/O: a source is bound to a finite value stream before
execution, a sink collects what it consumes.

Every kind has one token function, its batched invoke(inputs, k): k
firings in one call, with the same results, in the same order and with
sums taken left to right, as k single firings. ready() caps k where the
actor's own state does: a source at its data left, var-src and avg at
the end of the current run of one mode.
"""

import math

from .dataflow import ActorLibrary, CfdfActor, F64, TOKEN_TYPES, is_capacity
from .errors import ModelError
from .kernels import PassiveKernel


class AlwaysReadyActor(CfdfActor):
    """A kind whose state never limits a batch: its firings are bounded
    only by its ports' populations and free space."""

    def ready(self):
        return math.inf


class ModalActor(CfdfActor):
    """A kind with several modes: _RATES maps each mode to its table."""

    def rates(self):
        return self._RATES[self.mode]

    def rate_tables(self):
        return tuple(self._RATES.values())


class SourceActor(CfdfActor):
    """Emits one token per firing from a bound finite stream."""

    kind = "src"
    input_ports = ()
    output_ports = ("out",)
    is_source = True
    _RATES = ({}, {"out": 1})

    def __init__(self, name, token_type=F64):
        super().__init__(name)
        if token_type not in TOKEN_TYPES:
            raise ModelError(f"{name}: bad token type {token_type!r}")
        self._values = []
        self._cursor = 0

    def bind(self, values):
        """Emit values from its start; a list is read, not copied."""
        self._values = values if isinstance(values, list) else list(values)
        self._cursor = 0

    def remaining(self):
        return len(self._values) - self._cursor

    def ready(self):
        return self.remaining()

    def _take(self, k):
        c = self._cursor
        self._cursor = c + k
        return self._values[c:c + k]

    def invoke(self, inputs, k=1):
        return {"out": self._take(k)}


class VarSourceActor(ModalActor, SourceActor):
    """Variable-window source: emits a window length on the control port,
    then that many samples one per firing on the data port.

    The bound stream is flat: N1, s1..sN1, N2, s1..sN2, ...
    """

    kind = "var-src"
    output_ports = ("len", "out")

    _RATES = {
        "emit-length": ({}, {"len": 1, "out": 0}),
        "emit-data": ({}, {"len": 0, "out": 1}),
    }

    def __init__(self, name):
        super().__init__(name)
        self._remaining = 0

    def initial_mode(self):
        return "emit-length"

    def bind(self, values):
        super().bind(values)
        self._remaining = 0
        self.mode = self.initial_mode()

    def ready(self):
        """One length firing, or the rest of the current window."""
        left = self.remaining()
        return min(left, 1 if self.mode == "emit-length" else self._remaining)

    def invoke(self, inputs, k=1):
        if self.mode == "emit-length":
            n = int(self._values[self._cursor])
            self._cursor += 1
            if n < 0:
                raise ModelError(f"{self.name}: negative window length {n}")
            self._remaining = n
            self.mode = "emit-data" if n > 0 else "emit-length"
            return {"len": [n], "out": []}
        self._remaining -= k
        if self._remaining == 0:
            self.mode = "emit-length"
        return {"len": [], "out": self._take(k)}


class SinkActor(AlwaysReadyActor):
    """Consumes one token per firing and records it."""

    kind = "snk"
    input_ports = ("in",)
    output_ports = ()
    _RATES = ({"in": 1}, {})

    def __init__(self, name):
        super().__init__(name)
        self.collected = []

    def invoke(self, inputs, k=1):
        self.collected += inputs["in"]
        return {}


class AccumulatorActor(AlwaysReadyActor):
    """Lightweight terminal consumer keeping a running sum."""

    kind = "acc"
    input_ports = ("in",)
    output_ports = ()
    _RATES = ({"in": 1}, {})

    def __init__(self, name):
        super().__init__(name)
        self.total = 0.0

    def invoke(self, inputs, k=1):
        total = self.total
        for t in inputs["in"]:
            total += t
        self.total = total
        return {}


class BufferActor(AlwaysReadyActor):
    """A buffer kind declared by its input ports, its fanout and an
    optional per-token op. Each firing takes one token from each input
    port, in declared port order, applies op to each, and emits that
    sequence on every output port out0..out{fanout-1}. passive(capacity)
    is the same buffer as a ring with the same ports and op."""

    def __init__(self, name, kind, input_ports, fanout, op=None):
        if not is_capacity(fanout):
            raise ModelError(f"{name}: {kind} fanout {fanout!r} is not an int >= 1")
        self.kind = kind
        self.input_ports = tuple(input_ports)
        self.output_ports = tuple(f"out{i}" for i in range(fanout))
        self.op = op
        self._RATES = (
            dict.fromkeys(self.input_ports, 1),
            dict.fromkeys(self.output_ports, len(self.input_ports)),
        )
        super().__init__(name)

    def invoke(self, inputs, k=1):
        ports = self.input_ports
        m = len(ports)
        if m == 1:
            seq = inputs[ports[0]]
        else:
            seq = [None] * (m * k)
            for j, port in enumerate(ports):
                seq[j::m] = inputs[port]
        if self.op is not None:
            seq = [self.op(t) for t in seq]
        return dict.fromkeys(self.output_ports, seq)

    def passive(self, capacity):
        return PassiveKernel(capacity, self.input_ports, self.output_ports, self.op)


class GainActor(AlwaysReadyActor):
    kind = "gain"
    input_ports = ("in",)
    output_ports = ("out",)
    _RATES = ({"in": 1}, {"out": 1})

    def __init__(self, name, k=1.0):
        super().__init__(name)
        self.k = k

    def invoke(self, inputs, k=1):
        gain = self.k
        return {"out": [gain * t for t in inputs["in"]]}


class ErrorMagnitudeActor(AlwaysReadyActor):
    """Squared error magnitude of one complex sample: consumes a (re, im)
    pair from each of two interleaved streams."""

    kind = "err-mag"
    input_ports = ("ref", "rec")
    output_ports = ("out",)

    _RATES = ({"ref": 2, "rec": 2}, {"out": 1})

    def invoke(self, inputs, k=1):
        ref, rec = inputs["ref"], inputs["rec"]
        dre = [a - b for a, b in zip(ref[0::2], rec[0::2])]
        dim = [a - b for a, b in zip(ref[1::2], rec[1::2])]
        return {"out": [x * x + y * y for x, y in zip(dre, dim)]}


class ReferenceMagnitudeActor(AlwaysReadyActor):
    """Squared magnitude of one complex sample from an interleaved stream."""

    kind = "ref-mag"
    input_ports = ("in",)
    output_ports = ("out",)

    _RATES = ({"in": 2}, {"out": 1})

    def invoke(self, inputs, k=1):
        seq = inputs["in"]
        return {"out": [re * re + im * im for re, im in zip(seq[0::2], seq[1::2])]}


class WindowAverageActor(ModalActor):
    """Windowed mean: reads a window length N from the control port, then
    accumulates N samples left to right and emits their mean."""

    kind = "avg"
    input_ports = ("len", "in")
    output_ports = ("out",)

    _RATES = {
        "read-length": ({"len": 1, "in": 0}, {"out": 0}),
        "accumulate": ({"len": 0, "in": 1}, {"out": 0}),
        "finish": ({"len": 0, "in": 1}, {"out": 1}),
    }

    def __init__(self, name):
        super().__init__(name)
        self._n = 0
        self._remaining = 0
        self._sum = 0.0

    def initial_mode(self):
        return "read-length"

    def ready(self):
        """The accumulate run up to the window's last sample, else one."""
        return self._remaining - 1 if self.mode == "accumulate" else 1

    def invoke(self, inputs, k=1):
        if self.mode == "read-length":
            n = int(inputs["len"][0])
            if n < 1:
                raise ModelError(f"{self.name}: window length must be >= 1, got {n}")
            self._n = n
            self._remaining = n
            self._sum = 0.0
            self.mode = "accumulate" if n > 1 else "finish"
            return {"out": []}
        total = self._sum
        for t in inputs["in"]:
            total += t
        self._sum = total
        self._remaining -= k
        if self.mode == "accumulate":
            self.mode = "accumulate" if self._remaining > 1 else "finish"
            return {"out": []}
        # finish: last sample of the window
        self.mode = "read-length"
        return {"out": [self._sum / self._n]}


class RmsRatioActor(AlwaysReadyActor):
    """sqrt(mean error power) / sqrt(mean reference power)."""

    kind = "rms-ratio"
    input_ports = ("e", "r")
    output_ports = ("out",)

    _RATES = ({"e": 1, "r": 1}, {"out": 1})

    def invoke(self, inputs, k=1):
        return {"out": [math.sqrt(e) / math.sqrt(r) for e, r in zip(inputs["e"], inputs["r"])]}


def _gain(spec):
    k = spec.param("k", 1.0)
    return lambda t: k * t


def _register_buffer(lib, kind, input_ports, fanout, make_op=None):
    """Register a buffer kind: its input ports, its default fanout and,
    if given, a function from the actor spec to the per-token op."""

    def active(spec):
        return BufferActor(
            spec.name, kind, input_ports, spec.param("fanout", fanout),
            None if make_op is None else make_op(spec),
        )

    lib.register(kind, active, lambda spec, capacity: active(spec).passive(capacity))


def default_library():
    lib = ActorLibrary()
    lib.register("src", lambda s: SourceActor(s.name, token_type=s.param("type", F64)))
    lib.register("var-src", lambda s: VarSourceActor(s.name))
    lib.register("snk", lambda s: SinkActor(s.name))
    lib.register("acc", lambda s: AccumulatorActor(s.name))
    lib.register("gain", lambda s: GainActor(s.name, k=s.param("k", 1.0)))
    _register_buffer(lib, "fork", ("in",), fanout=2)
    _register_buffer(lib, "gain-fork", ("in",), fanout=1, make_op=_gain)
    _register_buffer(lib, "interleave", ("re", "im"), fanout=1)
    lib.register("err-mag", lambda s: ErrorMagnitudeActor(s.name))
    lib.register("ref-mag", lambda s: ReferenceMagnitudeActor(s.name))
    lib.register("avg", lambda s: WindowAverageActor(s.name))
    lib.register("rms-ratio", lambda s: RmsRatioActor(s.name))
    return lib
