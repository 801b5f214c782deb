"""The benchmark's workloads: seeded inputs, the graph they run on, and the
independent oracles their outputs are checked against.

Every workload has a seed-independent shape (window lengths, fork count,
capacities), so the work done, the token-store counts and the BMR are the
same for every seed; the seed chooses the sample values and, on `evm`, the
order of the windows.
"""

from dataclasses import dataclass

from pafg.apps import (
    EvmConfig,
    ForkCascadeConfig,
    Lcg,
    build_evm_graph,
    build_fork_cascade,
    evm_oracle_per_window,
    evm_production_counts,
    evm_source_data,
    fork_cascade_production_counts,
    fork_cascade_source_data,
    generate_evm_inputs,
)


def seeded_evm_config(seed, window_lengths):
    """EVM inputs over a fixed multiset of window lengths: the seed picks
    the window order (Fisher-Yates) and then the four component streams,
    drawn in the same order as generate_evm_inputs."""
    rng = Lcg(seed)
    lengths = list(window_lengths)
    for i in range(len(lengths) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        lengths[i], lengths[j] = lengths[j], lengths[i]
    total = sum(lengths)
    streams = [[rng.next_sample() for _ in range(total)] for _ in range(4)]
    return EvmConfig(lengths, *streams)


@dataclass(frozen=True)
class EvmWorkload:
    """The paper's EVM graph: multi-rate windowed averagers, a fork of
    window lengths and two interleavers that passivize into two-write-port
    rings."""

    window_lengths: tuple

    def make_inputs(self, seed):
        return seeded_evm_config(seed, self.window_lengths)

    def build(self, cfg):
        return build_evm_graph(cfg), evm_source_data(cfg)

    def samples(self, cfg):
        """Complex samples per run; one sample is one value on each of the
        four component streams."""
        return len(cfg.ref_re)

    def sink_target(self, cfg):
        return len(cfg.window_lengths)

    def expected_sink(self, cfg):
        return {"SNK": evm_oracle_per_window(cfg)}

    def production_counts(self, cfg):
        return evm_production_counts(cfg)

    def cli_case(self, seed):
        """Arguments of the `pafg bench` call with this seed and size, and
        the workload and inputs that reproduce what the CLI builds."""
        window, windows = max(self.window_lengths), len(self.window_lengths)
        args = ["bench", "evm", "--window", str(window), "--seed", str(seed),
                "--windows", str(windows)]
        return args, self, generate_evm_inputs(seed, window, windows)


@dataclass(frozen=True)
class ForkCascadeWorkload:
    """A source feeding a chain of forks separated by unit gains, each fork
    with side accumulators; every actor is rate-1."""

    window_size: int
    num_forks: int
    fanout: int = 2

    def make_inputs(self, seed):
        cfg = ForkCascadeConfig(self.window_size, self.num_forks, self.fanout)
        return cfg, fork_cascade_source_data(cfg, seed=seed)

    def build(self, inputs):
        cfg, source = inputs
        return build_fork_cascade(cfg), source

    def samples(self, inputs):
        return inputs[0].window_size * inputs[0].num_windows

    def sink_target(self, inputs):
        return self.samples(inputs)

    def expected_sink(self, inputs):
        return {"SNK": list(inputs[1]["SRC"])}

    def production_counts(self, inputs):
        return fork_cascade_production_counts(inputs[0])

    def cli_case(self, seed):
        # `pafg bench forkcascade` always builds the default fork count and
        # fanout, so the comparison uses that shape at this window size.
        default = ForkCascadeConfig(self.window_size)
        shape = ForkCascadeWorkload(self.window_size, default.num_forks, default.fanout)
        args = ["bench", "forkcascade", "--window", str(self.window_size),
                "--seed", str(seed), "--windows", "1"]
        return args, shape, shape.make_inputs(seed)


WORKLOADS = {
    "evm": EvmWorkload(window_lengths=(512, 1024, 1536, 2048, 2560, 3072, 3584, 4096)),
    "forkcascade": ForkCascadeWorkload(window_size=16384, num_forks=6),
    "fixpoint-wide": ForkCascadeWorkload(window_size=64, num_forks=150),
}

# Sizes for the smoke self-test: same shapes, a few hundred tokens each.
TINY_WORKLOADS = {
    "evm": EvmWorkload(window_lengths=(3, 17, 40, 64)),
    "forkcascade": ForkCascadeWorkload(window_size=64, num_forks=6),
    "fixpoint-wide": ForkCascadeWorkload(window_size=8, num_forks=12),
}
