"""Active (rates/ready/invoke) implementations of the built-in actor kinds and
the default library wiring them to their passive counterparts.

Each kind states its ports and rates once: in its class attributes (read
by declaration_of) or, for a buffer kind (fork, gain-fork, interleave), by
its input ports and fanout, with a BufferActor and a PassiveKernel as its
active and passive forms; every other kind is computational. It names its
parameters and their defaults once, where it is registered, and refuses
any other. Only var-src and avg have modes (ModalActor). A source
(is_source) emits a stream bound before execution, and a sink (is_sink)
collects what it consumes.

Every kind has one token function, its batched invoke(inputs, k): k
firings in one call, with the same results, in the same order and with
sums taken left to right, as k single firings. ready() caps k only where
the actor's own state does: a source at its data left, var-src and avg at
the end of the current run of one mode.
"""

import math

from .dataflow import ActorLibrary, CfdfActor, Declaration, F64, TOKEN_TYPES
from .dataflow import declaration_of, is_capacity
from .errors import ModelError
from .kernels import PassiveKernel


class ModalActor(CfdfActor):
    """A kind with several modes: self.mode, set by the kind, keys _RATES."""

    def rates(self):
        return self._RATES[self.mode]


def _window_length(name, value):
    """A window length token as an int: a whole number, which an f64 stream
    carries as a float such as 2.0; 2.5, nan and inf are refused."""
    if isinstance(value, int) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ModelError(f"{name}: window length {value!r} is not a whole number")


class SourceActor(CfdfActor):
    """Emits one token per firing from a bound finite stream."""

    kind = "src"
    input_ports = ()
    output_ports = ("out",)
    is_source = True
    _RATES = ({}, {"out": 1})

    def __init__(self, name, token_type=F64):
        super().__init__(name)
        self.check(name, token_type)
        self.bind([])

    @staticmethod
    def check(name, token_type=F64):
        if token_type not in TOKEN_TYPES:
            raise ModelError(f"{name}: bad token type {token_type!r}")

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

    def bind(self, values):
        super().bind(values)
        self._remaining = 0
        self.mode = "emit-length"

    def ready(self):
        """One length firing, or the rest of the current window."""
        left = self.remaining()
        return min(left, 1 if self.mode == "emit-length" else self._remaining)

    def invoke(self, inputs, k=1):
        if self.mode == "emit-length":
            n = _window_length(self.name, self._values[self._cursor])
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


class SinkActor(CfdfActor):
    """Consumes one token per firing and records it."""

    kind = "snk"
    input_ports = ("in",)
    output_ports = ()
    is_sink = True
    _RATES = ({"in": 1}, {})

    def __init__(self, name):
        super().__init__(name)
        self.collected = []

    def invoke(self, inputs, k=1):
        self.collected += inputs["in"]
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

    def invoke(self, inputs, k=1):
        total = self.total
        for t in inputs["in"]:
            total += t
        self.total = total
        return {}


class BufferActor(CfdfActor):
    """The active form of a buffer kind, built from its declaration and an
    optional per-token op. Each firing takes one token from each input
    port, in declared port order, applies op to each, and emits that
    sequence on every output port out0..out{fanout-1}."""

    def __init__(self, name, kind, declaration, op=None):
        self.kind = kind
        self.input_ports, self.output_ports, (self._RATES,), *_ = declaration
        self.op = op
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


class GainActor(CfdfActor):
    kind = "gain"
    input_ports = ("in",)
    output_ports = ("out",)
    _RATES = ({"in": 1}, {"out": 1})

    def __init__(self, name, k=1.0):
        super().__init__(name)
        self.check(name, k)
        self.k = k

    @staticmethod
    def check(name, k=1.0):
        if not isinstance(k, (int, float)) or isinstance(k, bool):
            raise ModelError(f"{name}: gain k {k!r} is not an int or float")

    def invoke(self, inputs, k=1):
        gain = self.k
        return {"out": [gain * t for t in inputs["in"]]}


class ErrorMagnitudeActor(CfdfActor):
    """Squared error magnitude of one complex sample: consumes a (re, im)
    pair from each of two interleaved streams. invoke makes one pass, with
    the same operations in the same order as separate lists of the re and
    im differences would, so every output is the same to the bit."""

    kind = "err-mag"
    input_ports = ("ref", "rec")
    output_ports = ("out",)

    _RATES = ({"ref": 2, "rec": 2}, {"out": 1})

    def invoke(self, inputs, k=1):
        ref, rec = iter(inputs["ref"]), iter(inputs["rec"])
        return {"out": [(a - c) * (a - c) + (b - d) * (b - d)
                        for a, b, c, d in zip(ref, ref, rec, rec)]}


class ReferenceMagnitudeActor(CfdfActor):
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
        self.mode = "read-length"
        self._n = 0
        self._remaining = 0
        self._sum = 0.0

    def ready(self):
        """The accumulate run up to the window's last sample, else one."""
        return self._remaining - 1 if self.mode == "accumulate" else 1

    def invoke(self, inputs, k=1):
        if self.mode == "read-length":
            n = _window_length(self.name, inputs["len"][0])
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


class RmsRatioActor(CfdfActor):
    """sqrt(mean error power) / sqrt(mean reference power)."""

    kind = "rms-ratio"
    input_ports = ("e", "r")
    output_ports = ("out",)

    _RATES = ({"e": 1, "r": 1}, {"out": 1})

    def invoke(self, inputs, k=1):
        return {"out": [math.sqrt(e) / math.sqrt(r) for e, r in zip(inputs["e"], inputs["r"])]}


def _gain(name, k):
    GainActor.check(name, k)
    return lambda t: k * t


def _args(spec, params):
    """spec's values of params, a kind's parameters and their defaults, in
    order; any other parameter is a ModelError that names the least one."""
    values = {**params, **spec.params}
    if len(values) > len(params):
        key = min(values.keys() - params)
        raise ModelError(f"{spec.name}: {spec.kind} takes no parameter {key!r}")
    return values.values()


def _register(lib, cls, **params):
    """Register a class kind that takes params, built as cls(name, *values)
    and declared by its class attributes once cls.check accepts values; a
    type parameter is the type of every token the kind emits."""
    declaration = declaration_of(cls)
    typed = {t: declaration._replace(token_type=t) for t in TOKEN_TYPES if "type" in params}

    def declare(spec):
        cls.check(spec.name, *_args(spec, params))
        return typed.get(spec.params.get("type", params.get("type")), declaration)

    lib.register(cls.kind, lambda s: cls(s.name, *_args(s, params)), declare=declare)


def _register_buffer(lib, kind, input_ports, fanout, make_op=lambda name: None, **params):
    """Register a buffer kind: its input ports, its default fanout, and
    make_op(name, *values), which vets params and returns the per-token op,
    if any. Actor and ring are built from parts(spec), one Declaration per fanout."""
    declarations = {}
    params = {"fanout": fanout, **params}

    def parts(spec):
        n, *values = _args(spec, params)
        if not is_capacity(n):  # before the lookup: True and 2.0 hash like 1 and 2
            raise ModelError(f"{spec.name}: {kind} fanout {n!r} is not an int >= 1")
        declaration = declarations.get(n)
        if declaration is None:
            outs = tuple(f"out{i}" for i in range(n))
            rates = (dict.fromkeys(input_ports, 1), dict.fromkeys(outs, len(input_ports)))
            declaration = declarations[n] = Declaration(input_ports, outs, (rates,))
        return declaration, make_op(spec.name, *values)

    def passive(spec, capacity):
        (ins, outs, *_), op = parts(spec)
        return PassiveKernel(capacity, ins, outs, op)

    lib.register(kind, lambda s: BufferActor(s.name, kind, *parts(s)), passive,
                 lambda s: parts(s)[0])


def default_library():
    lib = ActorLibrary()
    _register(lib, SourceActor, type=F64)
    _register(lib, GainActor, k=1.0)
    for cls in (VarSourceActor, SinkActor, AccumulatorActor, ErrorMagnitudeActor,
                ReferenceMagnitudeActor, WindowAverageActor, RmsRatioActor):
        _register(lib, cls)
    _register_buffer(lib, "fork", ("in",), fanout=2)
    _register_buffer(lib, "gain-fork", ("in",), fanout=1, make_op=_gain, k=1.0)
    _register_buffer(lib, "interleave", ("re", "im"), fanout=1)
    return lib
