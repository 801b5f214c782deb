"""Active (rates/ready/invoke) implementations of the built-in actor kinds and
the default library wiring them to their passive counterparts.

Buffer actors (fork, gain-fork, interleave) have both forms; everything
else is computational. Sources and sinks carry the graph's external I/O:
a source is bound to a finite value stream before execution, a sink
collects what it consumes.
"""

import math

from .dataflow import ActorLibrary, CfdfActor, F64, I64
from .errors import ModelError
from .kernels import GainFork, PassiveFork, PassiveInterleave


class SourceActor(CfdfActor):
    """Emits one token per firing from a bound finite stream."""

    kind = "src"
    input_ports = ()
    output_ports = ("out",)
    is_source = True
    _RATES = ({}, {"out": 1})

    def __init__(self, name, token_type=F64):
        super().__init__(name)
        if token_type not in (F64, I64):
            raise ModelError(f"{name}: bad token type {token_type!r}")
        self.token_type = token_type
        self._values = []
        self._cursor = 0

    def bind(self, values):
        self._values = list(values)
        self._cursor = 0

    def remaining(self):
        return len(self._values) - self._cursor

    def ready(self):
        return self._cursor < len(self._values)

    def rates(self):
        return self._RATES

    def invoke(self, inputs):
        value = self._values[self._cursor]
        self._cursor += 1
        return {"out": [value]}


class VarSourceActor(CfdfActor):
    """Variable-window source: emits a window length on the control port,
    then that many samples one per firing on the data port.

    The bound stream is flat: N1, s1..sN1, N2, s1..sN2, ...
    """

    kind = "var-src"
    input_ports = ()
    output_ports = ("len", "out")
    is_source = True

    _RATES = {
        "emit-length": ({}, {"len": 1, "out": 0}),
        "emit-data": ({}, {"len": 0, "out": 1}),
    }

    def __init__(self, name):
        super().__init__(name)
        self._values = []
        self._cursor = 0
        self._remaining = 0

    def initial_mode(self):
        return "emit-length"

    def bind(self, values):
        self._values = list(values)
        self._cursor = 0
        self._remaining = 0
        self.mode = "emit-length"

    def ready(self):
        return self._cursor < len(self._values)

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

    def rates(self):
        return self._RATES

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

    def rates(self):
        return self._RATES

    def invoke(self, inputs):
        self.total += inputs["in"][0]
        return {}


class ForkActor(CfdfActor):
    """Broadcast: copies the input token to each of its m outputs."""

    kind = "fork"

    def __init__(self, name, fanout=2):
        if fanout < 1:
            raise ModelError(f"{name}: fork fanout must be >= 1")
        self.fanout = fanout
        self.input_ports = ("in",)
        self.output_ports = tuple(f"out{i}" for i in range(fanout))
        self._rates = ({"in": 1}, {p: 1 for p in self.output_ports})
        super().__init__(name)

    def rates(self):
        return self._rates

    def invoke(self, inputs):
        t = inputs["in"][0]
        return {p: [t] for p in self.output_ports}


class GainActor(CfdfActor):
    kind = "gain"
    input_ports = ("in",)
    output_ports = ("out",)
    _RATES = ({"in": 1}, {"out": 1})

    def __init__(self, name, k=1.0):
        super().__init__(name)
        self.k = k

    def rates(self):
        return self._RATES

    def invoke(self, inputs):
        return {"out": [self.k * inputs["in"][0]]}


class GainForkActor(CfdfActor):
    """Fused constant multiply plus broadcast."""

    kind = "gain-fork"

    def __init__(self, name, k=1.0, fanout=1):
        if fanout < 1:
            raise ModelError(f"{name}: gain-fork fanout must be >= 1")
        self.k = k
        self.fanout = fanout
        self.input_ports = ("in",)
        self.output_ports = tuple(f"out{i}" for i in range(fanout))
        self._rates = ({"in": 1}, {p: 1 for p in self.output_ports})
        super().__init__(name)

    def rates(self):
        return self._rates

    def invoke(self, inputs):
        v = self.k * inputs["in"][0]
        return {p: [v] for p in self.output_ports}


class InterleaveActor(CfdfActor):
    """Pairs one token from "re" with one from "im" and emits them as two
    successive tokens on every output port."""

    kind = "interleave"
    input_ports = ("re", "im")

    def __init__(self, name, fanout=1):
        if fanout < 1:
            raise ModelError(f"{name}: interleave fanout must be >= 1")
        self.fanout = fanout
        self.output_ports = tuple(f"out{i}" for i in range(fanout))
        self._rates = ({"re": 1, "im": 1}, {p: 2 for p in self.output_ports})
        super().__init__(name)

    def rates(self):
        return self._rates

    def invoke(self, inputs):
        pair = [inputs["re"][0], inputs["im"][0]]
        return {p: list(pair) for p in self.output_ports}


class ErrorMagnitudeActor(CfdfActor):
    """Squared error magnitude of one complex sample: consumes a (re, im)
    pair from each of two interleaved streams."""

    kind = "err-mag"
    input_ports = ("ref", "rec")
    output_ports = ("out",)

    _RATES = ({"ref": 2, "rec": 2}, {"out": 1})

    def rates(self):
        return self._RATES

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

    def rates(self):
        return self._RATES

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

    def rates(self):
        return self._RATES

    def invoke(self, inputs):
        return {"out": [math.sqrt(inputs["e"][0]) / math.sqrt(inputs["r"][0])]}


def _passive_fork(spec, capacity):
    return PassiveFork(capacity, fanout=int(spec.param("fanout", 2)))


def _passive_gain_fork(spec, capacity):
    return GainFork(capacity, gain=spec.param("k", 1.0), fanout=int(spec.param("fanout", 1)))


def _passive_interleave(spec, capacity):
    return PassiveInterleave(capacity, read_fanout=int(spec.param("fanout", 1)))


def default_library():
    lib = ActorLibrary()
    lib.register("src", lambda s: SourceActor(s.name, token_type=s.param("type", F64)))
    lib.register("var-src", lambda s: VarSourceActor(s.name))
    lib.register("snk", lambda s: SinkActor(s.name))
    lib.register("acc", lambda s: AccumulatorActor(s.name))
    lib.register(
        "fork",
        lambda s: ForkActor(s.name, fanout=int(s.param("fanout", 2))),
        _passive_fork,
    )
    lib.register("gain", lambda s: GainActor(s.name, k=s.param("k", 1.0)))
    lib.register(
        "gain-fork",
        lambda s: GainForkActor(s.name, k=s.param("k", 1.0), fanout=int(s.param("fanout", 1))),
        _passive_gain_fork,
    )
    lib.register(
        "interleave",
        lambda s: InterleaveActor(s.name, fanout=int(s.param("fanout", 1))),
        _passive_interleave,
    )
    lib.register("err-mag", lambda s: ErrorMagnitudeActor(s.name))
    lib.register("ref-mag", lambda s: ReferenceMagnitudeActor(s.name))
    lib.register("avg", lambda s: WindowAverageActor(s.name))
    lib.register("rms-ratio", lambda s: RmsRatioActor(s.name))
    return lib
