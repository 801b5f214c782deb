"""Active (rates/ready/invoke) implementations of the built-in actor kinds and
the default library wiring them to their passive counterparts.

Buffer actors (fork, gain-fork, interleave) have both forms: each kind is
one BufferActor declaration, and its passive form is that actor's ring.
Everything else is computational. Sources and sinks carry the graph's
external I/O: a source is bound to a finite value stream before
execution, a sink collects what it consumes.
"""

import math

from .dataflow import ActorLibrary, CfdfActor, F64, TOKEN_TYPES, is_capacity
from .errors import ModelError
from .kernels import PassiveKernel


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
        self._values = list(values)
        self._cursor = 0

    def remaining(self):
        return len(self._values) - self._cursor

    def ready(self):
        return self._cursor < len(self._values)

    def invoke(self, inputs):
        value = self._values[self._cursor]
        self._cursor += 1
        return {"out": [value]}


class VarSourceActor(SourceActor):
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

    def rates(self):
        return self._RATES[self.mode]

    def invoke(self, inputs):
        if self.mode == "emit-length":
            n = int(self._values[self._cursor])
            self._cursor += 1
            if n < 0:
                raise ModelError(f"{self.name}: negative window length {n}")
            self._remaining = n
            self.mode = "emit-data" if n > 0 else "emit-length"
            return {"len": [n], "out": []}
        value = self._values[self._cursor]
        self._cursor += 1
        self._remaining -= 1
        if self._remaining == 0:
            self.mode = "emit-length"
        return {"len": [], "out": [value]}


class SinkActor(CfdfActor):
    """Consumes one token per firing and records it."""

    kind = "snk"
    input_ports = ("in",)
    output_ports = ()
    _RATES = ({"in": 1}, {})

    def __init__(self, name):
        super().__init__(name)
        self.collected = []

    def invoke(self, inputs):
        self.collected.append(inputs["in"][0])
        return {}


class AccumulatorActor(CfdfActor):
    """Lightweight terminal consumer keeping a running sum."""

    kind = "acc"
    input_ports = ("in",)
    output_ports = ()
    _RATES = ({"in": 1}, {})

    def __init__(self, name):
        super().__init__(name)
        self.total = 0.0

    def invoke(self, inputs):
        self.total += inputs["in"][0]
        return {}


class BufferActor(CfdfActor):
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

    def invoke(self, inputs):
        seq = []
        for port in self.input_ports:
            seq += inputs[port]
        if self.op is not None:
            seq = [self.op(t) for t in seq]
        return dict.fromkeys(self.output_ports, seq)

    def passive(self, capacity):
        return PassiveKernel(capacity, self.input_ports, self.output_ports, self.op)


class GainActor(CfdfActor):
    kind = "gain"
    input_ports = ("in",)
    output_ports = ("out",)
    _RATES = ({"in": 1}, {"out": 1})

    def __init__(self, name, k=1.0):
        super().__init__(name)
        self.k = k

    def invoke(self, inputs):
        return {"out": [self.k * inputs["in"][0]]}


class ErrorMagnitudeActor(CfdfActor):
    """Squared error magnitude of one complex sample: consumes a (re, im)
    pair from each of two interleaved streams."""

    kind = "err-mag"
    input_ports = ("ref", "rec")
    output_ports = ("out",)

    _RATES = ({"ref": 2, "rec": 2}, {"out": 1})

    def invoke(self, inputs):
        ref_re, ref_im = inputs["ref"]
        rec_re, rec_im = inputs["rec"]
        dre = ref_re - rec_re
        dim = ref_im - rec_im
        return {"out": [dre * dre + dim * dim]}


class ReferenceMagnitudeActor(CfdfActor):
    """Squared magnitude of one complex sample from an interleaved stream."""

    kind = "ref-mag"
    input_ports = ("in",)
    output_ports = ("out",)

    _RATES = ({"in": 2}, {"out": 1})

    def invoke(self, inputs):
        re, im = inputs["in"]
        return {"out": [re * re + im * im]}


class WindowAverageActor(CfdfActor):
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

    def rates(self):
        return self._RATES[self.mode]

    def invoke(self, inputs):
        if self.mode == "read-length":
            n = int(inputs["len"][0])
            if n < 1:
                raise ModelError(f"{self.name}: window length must be >= 1, got {n}")
            self._n = n
            self._remaining = n
            self._sum = 0.0
            self.mode = "accumulate" if n > 1 else "finish"
            return {"out": []}
        self._sum += inputs["in"][0]
        self._remaining -= 1
        if self.mode == "accumulate":
            self.mode = "accumulate" if self._remaining > 1 else "finish"
            return {"out": []}
        # finish: last sample of the window
        self.mode = "read-length"
        return {"out": [self._sum / self._n]}


class RmsRatioActor(CfdfActor):
    """sqrt(mean error power) / sqrt(mean reference power)."""

    kind = "rms-ratio"
    input_ports = ("e", "r")
    output_ports = ("out",)

    _RATES = ({"e": 1, "r": 1}, {"out": 1})

    def invoke(self, inputs):
        return {"out": [math.sqrt(inputs["e"][0]) / math.sqrt(inputs["r"][0])]}


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
