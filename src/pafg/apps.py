"""Benchmark applications: the EVM measurement graph, a parameterizable
fork-cascade stress graph, the brute-force EVM oracle, and the seeded
generator for reproducible benchmark inputs.

EVM graph topology. SRC1 emits one window length N per iteration; the fork
FA broadcasts N to the two windowed averagers EA and RFA. SRC2/SRC3 feed
reference real/imaginary samples into the interleaver RFC, whose output
stream (re, im, re, im, ...) is consumed by both the error block E and the
reference-magnitude block RFM; SRC4/SRC5 feed the received signal through
RCC into E. E emits |ref - rec|^2 per complex sample and RFM |ref|^2; EA
and RFA average N of those, and RMS emits sqrt(avg_e)/sqrt(avg_r) to SNK.
The three buffer actors FA, RFC, and RCC are mutually non-adjacent, so all
three can be passivized, FA into an integer fork ring and the interleavers
into rings holding a full interleaved window. The sources are bound to the
config's own lists, not copies, and the oracle reads those component lists.
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate

from .dataflow import AppGraphBuilder, I64
from .errors import ModelError

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator with top-53-bit mantissa
    extraction, pinned here so benchmark inputs are reproducible."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state * LCG_MULTIPLIER + LCG_INCREMENT) & _MASK64
        return self.state

    def next_float(self):
        """Uniform in [0, 1) with 53 significant bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_sample(self):
        """Uniform in [-1, 1)."""
        return 2.0 * self.next_float() - 1.0

    def next_int(self, lo, hi):
        """Uniform-ish integer in [lo, hi] (modulo draw)."""
        return lo + self.next_u64() % (hi - lo + 1)


def _require_size(label, value, message):
    """A size is an int (not a bool, as for capacities) and >= 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{label} must be an int, got {value!r}")
    if value < 1:
        raise ModelError(message)


@dataclass
class EvmConfig:
    """One EVM benchmark run: per-iteration window lengths plus the four
    component sample streams (each sum(window_lengths) long)."""

    window_lengths: list
    ref_re: list = field(default_factory=list)
    ref_im: list = field(default_factory=list)
    rec_re: list = field(default_factory=list)
    rec_im: list = field(default_factory=list)

    def validate(self):
        if not self.window_lengths:
            raise ModelError("need at least one window length")
        for n in self.window_lengths:
            _require_size("window length", n, "window lengths must be >= 1")
        total = sum(self.window_lengths)
        for label in ("ref_re", "ref_im", "rec_re", "rec_im"):
            n = len(getattr(self, label))
            if n != total:
                raise ModelError(f"{label} has {n} samples, expected sum of windows = {total}")

    def capacity(self):
        # interleavers emit two tokens per firing, so data edges need >= 2
        return max(2, max(self.window_lengths))


def build_evm_graph(cfg):
    cfg.validate()
    cap = cfg.capacity()
    b = AppGraphBuilder()
    b.actor("SRC1", "src", type=I64)
    for name in ("SRC2", "SRC3", "SRC4", "SRC5"):
        b.actor(name, "src")
    b.actor("FA", "fork", fanout=2)
    b.actor("RFC", "interleave", fanout=2)
    b.actor("RCC", "interleave", fanout=1)
    b.actor("E", "err-mag")
    b.actor("RFM", "ref-mag")
    b.actor("EA", "avg")
    b.actor("RFA", "avg")
    b.actor("RMS", "rms-ratio")
    b.actor("SNK", "snk")

    b.edge("SRC1.out", "FA.in", capacity=1, token_type=I64)
    b.edge("FA.out0", "EA.len", capacity=1, token_type=I64)
    b.edge("FA.out1", "RFA.len", capacity=1, token_type=I64)
    b.edge("SRC2.out", "RFC.re", capacity=cap)
    b.edge("SRC3.out", "RFC.im", capacity=cap)
    b.edge("SRC4.out", "RCC.re", capacity=cap)
    b.edge("SRC5.out", "RCC.im", capacity=cap)
    b.edge("RFC.out0", "E.ref", capacity=cap)
    b.edge("RFC.out1", "RFM.in", capacity=cap)
    b.edge("RCC.out0", "E.rec", capacity=cap)
    b.edge("E.out", "EA.in", capacity=cap)
    b.edge("RFM.out", "RFA.in", capacity=cap)
    b.edge("EA.out", "RMS.e", capacity=cap)
    b.edge("RFA.out", "RMS.r", capacity=cap)
    b.edge("RMS.out", "SNK.in", capacity=cap)
    return b.build()


EVM_PASSIVIZATION_TARGETS = ("FA", "RFC", "RCC")


def evm_source_data(cfg):
    """cfg's own lists, bound without a copy: a source only slices them."""
    return {
        "SRC1": cfg.window_lengths,
        "SRC2": cfg.ref_re,
        "SRC3": cfg.ref_im,
        "SRC4": cfg.rec_re,
        "SRC5": cfg.rec_im,
    }


def evm_production_counts(cfg):
    """Tokens written per block over the whole run, for the copy-count
    analysis. Counting in the direct form: the interleavers store two
    tokens per sample on each output port, the fork one per consumer."""
    windows = len(cfg.window_lengths)
    samples = sum(cfg.window_lengths)
    return {
        "SRC1": windows,
        "FA": 2 * windows,
        "SRC2": samples,
        "SRC3": samples,
        "SRC4": samples,
        "SRC5": samples,
        "RFC": 4 * samples,
        "RCC": 2 * samples,
        "E": samples,
        "RFM": samples,
        "EA": windows,
        "RFA": windows,
        "RMS": windows,
        "SNK": 0,
    }


def _evm_ratio(ref_re, ref_im, rec_re, rec_im):
    """sqrt(mean |ref - rec|^2) / sqrt(mean |ref|^2) over the component lists,
    accumulated left to right (not by sum(), compensated from Python 3.12)."""
    n = len(ref_re)
    if n < 1:
        raise ModelError("need at least one sample")
    err_power = 0.0
    ref_power = 0.0
    for a, b, c, d in zip(ref_re, ref_im, rec_re, rec_im):
        dre = a - c
        dim = b - d
        err_power += dre * dre + dim * dim
        ref_power += a * a + b * b
    if ref_power == 0.0:
        raise ModelError("reference signal is identically zero")
    return math.sqrt(err_power / n) / math.sqrt(ref_power / n)


def evm_oracle(reference, received):
    """EVM of two complex lists, read as component lists; no graph path."""
    if len(reference) != len(received):
        raise ModelError("reference and received lengths differ")
    return _evm_ratio([z.real for z in reference], [z.imag for z in reference],
                      [z.real for z in received], [z.imag for z in received])


def evm_oracle_per_window(cfg):
    """One EVM per window, read from slices of cfg's component lists."""
    cfg.validate()
    ends = list(accumulate(cfg.window_lengths))
    streams = (cfg.ref_re, cfg.ref_im, cfg.rec_re, cfg.rec_im)
    return [_evm_ratio(*(s[i:j] for s in streams)) for i, j in zip([0, *ends], ends)]


def generate_evm_inputs(seed, max_length, num_windows):
    """Seeded random EVM inputs: window lengths uniform in 1..max_length,
    samples uniform in [-1, 1). Draw order is lengths, then ref_re,
    ref_im, rec_re, rec_im."""
    _require_size("max_length", max_length, f"window length must be >= 1, got {max_length}")
    _require_size("num_windows", num_windows, "need at least one window length")
    rng = Lcg(seed)
    lengths = [rng.next_int(1, max_length) for _ in range(num_windows)]
    total = sum(lengths)
    streams = [[rng.next_sample() for _ in range(total)] for _ in range(4)]
    return EvmConfig(lengths, *streams)


@dataclass
class ForkCascadeConfig:
    """Synthetic fork-heavy stream graph: a source feeds a chain of forks,
    each fanning out to the next pipeline stage and to a side consumer.
    Consecutive forks are separated by a unit-gain stage so that every
    fork stays simply surrounded as the earlier ones are passivized."""

    window_size: int
    num_forks: int = 6
    fanout: int = 2
    num_windows: int = 1

    def validate(self):
        _require_size("window_size", self.window_size, "window size must be >= 1")
        _require_size("num_forks", self.num_forks, "need at least one fork")
        _require_size("fanout", self.fanout, "fork fanout must be >= 1")
        _require_size("num_windows", self.num_windows, "need at least one window")


def build_fork_cascade(cfg):
    cfg.validate()
    w = cfg.window_size
    b = AppGraphBuilder()
    b.actor("SRC", "src")
    for i in range(1, cfg.num_forks + 1):
        b.actor(f"F{i}", "fork", fanout=cfg.fanout)
        for j in range(1, cfg.fanout):
            b.actor(f"ACC{i}_{j}", "acc")
        if i < cfg.num_forks:
            b.actor(f"G{i}", "gain", k=1.0)
    b.actor("SNK", "snk")

    b.edge("SRC.out", "F1.in", capacity=w)
    for i in range(1, cfg.num_forks + 1):
        if i < cfg.num_forks:
            b.edge(f"F{i}.out0", f"G{i}.in", capacity=w)
            b.edge(f"G{i}.out", f"F{i + 1}.in", capacity=w)
        else:
            b.edge(f"F{i}.out0", "SNK.in", capacity=w)
        for j in range(1, cfg.fanout):
            b.edge(f"F{i}.out{j}", f"ACC{i}_{j}.in", capacity=w)
    return b.build()


def fork_cascade_source_data(cfg, seed=1):
    rng = Lcg(seed)
    total = cfg.window_size * cfg.num_windows
    return {"SRC": [rng.next_sample() for _ in range(total)]}


def fork_cascade_production_counts(cfg):
    """Tokens written per block over the run, in the direct form."""
    tokens = cfg.window_size * cfg.num_windows
    counts = {"SRC": tokens, "SNK": 0}
    for i in range(1, cfg.num_forks + 1):
        counts[f"F{i}"] = cfg.fanout * tokens
        for j in range(1, cfg.fanout):
            counts[f"ACC{i}_{j}"] = 0
        if i < cfg.num_forks:
            counts[f"G{i}"] = tokens
    return counts
