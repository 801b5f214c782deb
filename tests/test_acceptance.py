"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them on success)."""

import random
import time
from fractions import Fraction

from graphgen import build_random_app_graph
from kahn_reference import COMPLETE, kahn_verdicts
from pafg.actors import default_library
from pafg.apps import (
    EVM_PASSIVIZATION_TARGETS,
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
from pafg.ir import ACTV, PSSV, check_abc, check_association, is_alternating, validate_coordinated
from pafg.kernels import PassiveKernel
from pafg.runtime import compare_streams, instantiate
from pafg.transform import (
    compute_bmr,
    derive_direct_pafg,
    estimate_copy_count,
    find_candidates,
    passivize,
    passivize_fixpoint,
)
from topologies import (
    fork_graph,
    gain_fork_graph,
    gain_then_fork_graph,
    interleave_graph,
    ten_plus_four_graph,
)
from transform_checks import assert_step_arithmetic

LIB = default_library()


class criterion:
    def __init__(self, num, label):
        self.num = num
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.start
        print(f"[criterion {self.num}] {self.label}: {status} ({elapsed:.2f}s)")
        return False


def test_criterion_1_construction_regression():
    with criterion(1, "direct PAFG construction regression"):
        g = ten_plus_four_graph()
        z = derive_direct_pafg(g, LIB)
        comps = [
            n
            for n, b in z.blocks.items()
            if not b.is_simple and not LIB.is_buffer_actor(b.kind)
        ]
        buffers = [
            n
            for n, b in z.blocks.items()
            if not b.is_simple and LIB.is_buffer_actor(b.kind)
        ]
        simple = [n for n, b in z.blocks.items() if b.is_simple]
        assert len(comps) == 10
        assert sorted(buffers) == ["J1", "J2", "J3", "J4"]
        assert len(simple) == 15
        assert len(z.graph.edges) == 30
        # coordination assignment: every actor block active, every simple
        # buffer passive
        assert all(z.coordination[n] == ACTV for n in comps + buffers)
        assert all(z.coordination[n] == PSSV for n in simple)
        assert is_alternating(z)
        assert check_association(g, z)


def test_criterion_2_transformation_regression():
    with criterion(2, "passivization transformation regression"):
        g = ten_plus_four_graph()
        z = derive_direct_pafg(g, LIB)
        candidates = {c.block for c in find_candidates(z, LIB)}
        # the buffer blocks are simply surrounded
        assert {"J1", "J2"} <= candidates
        # simple blocks never are: their neighbors are actor blocks
        for name, block in z.blocks.items():
            if block.is_simple:
                assert name not in candidates
                neighbors = z.graph.pred(name) | z.graph.succ(name)
                assert all(not z.block(x).is_simple for x in neighbors)
        for target in ("J1", "J2", "J3"):
            former = z.graph.pred(target) | z.graph.succ(target)
            z2, step = passivize(z, LIB, target)
            assert z2.coordination[target] == PSSV
            assert set(step.removed) == former
            assert not former & set(z2.blocks)
            assert is_alternating(z2)
            assert check_association(g, z2)
            assert_step_arithmetic(z, z2, step)
            z = z2
        assert len(z.blocks) == 20
        assert len(z.graph.edges) == 21


def test_criterion_3_stream_equivalence():
    with criterion(3, "direct/optimized stream equivalence vs oracle (100 EVM sets)"):
        for run in range(100):
            seed = 1000 + run
            windows = 1 + Lcg(seed).next_u64() % 2
            cfg = generate_evm_inputs(seed=seed, max_length=4096, num_windows=windows)
            graph = build_evm_graph(cfg)
            direct = derive_direct_pafg(graph, LIB)
            optimized, log = passivize_fixpoint(direct, LIB)
            assert {s.block for s in log} == set(EVM_PASSIVIZATION_TARGETS)
            streams = {}
            for label, z in (("direct", direct), ("optimized", optimized)):
                inst = instantiate(z, LIB, evm_source_data(cfg))
                inst.run(sink_token_target=len(cfg.window_lengths))
                streams[label] = inst.sink_streams()
            equal, div = compare_streams(streams["direct"], streams["optimized"])
            assert equal, f"seed {seed}: {div}"
            expected = evm_oracle_per_window(cfg)
            got = streams["direct"]["SNK"]
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert abs(a - b) <= 1e-12 * abs(b), f"seed {seed}: {a} vs {b}"


def _evm_analytic_reduction(graph):
    """Expected BMR savings from passivizing the three EVM buffer actors,
    computed straight from the application edges: each ring holds the
    summed capacities of the input buffers it absorbs, so the saving is
    the capacities of the absorbed output buffers."""
    targets = set(EVM_PASSIVIZATION_TARGETS)
    return 8 * sum(e.capacity for e in graph.edges.values() if e.src in targets)


def test_criterion_4_bmr_reduction():
    with criterion(4, "BMR reduction (EVM analytic, cascade ratio constancy)"):
        for w in (2, 7, 64, 1024, 4096):
            cfg = EvmConfig(
                window_lengths=[w],
                ref_re=[0.0] * w,
                ref_im=[0.0] * w,
                rec_re=[0.0] * w,
                rec_im=[0.0] * w,
            )
            graph = build_evm_graph(cfg)
            direct = derive_direct_pafg(graph, LIB)
            optimized, _ = passivize_fixpoint(direct, LIB)
            d = compute_bmr(direct).total_bytes
            o = compute_bmr(optimized).total_bytes
            assert o < d
            assert d - o == _evm_analytic_reduction(graph)
        ratios = set()
        for w in (16384, 32768, 65536, 131072, 262144):
            cfg = ForkCascadeConfig(window_size=w)
            graph = build_fork_cascade(cfg)
            direct = derive_direct_pafg(graph, LIB)
            optimized, log = passivize_fixpoint(direct, LIB)
            assert len(log) == cfg.num_forks
            d = compute_bmr(direct).total_bytes
            o = compute_bmr(optimized).total_bytes
            assert o < d
            ratios.add(Fraction(o, d))
        assert len(ratios) == 1


def test_criterion_5_copy_count_dominance():
    with criterion(5, "copy-count dominance, measured == predicted"):
        cfg = generate_evm_inputs(seed=77, max_length=64, num_windows=4)
        graph = build_evm_graph(cfg)
        direct = derive_direct_pafg(graph, LIB)
        optimized, _ = passivize_fixpoint(direct, LIB)
        counts = evm_production_counts(cfg)
        stats = {}
        for label, z in (("direct", direct), ("optimized", optimized)):
            inst = instantiate(z, LIB, evm_source_data(cfg))
            stats[label] = inst.run(sink_token_target=len(cfg.window_lengths))
            # wall-clock is reported for inspection, never asserted
            assert "wall_seconds" in stats[label].as_dict()
        assert stats["optimized"].token_stores < stats["direct"].token_stores
        assert stats["direct"].token_stores == estimate_copy_count(direct, counts)
        assert stats["optimized"].token_stores == estimate_copy_count(optimized, counts)

        ccfg = ForkCascadeConfig(window_size=32, num_windows=1)
        cgraph = build_fork_cascade(ccfg)
        cdirect = derive_direct_pafg(cgraph, LIB)
        coptimized, _ = passivize_fixpoint(cdirect, LIB)
        cstats = {}
        for label, z in (("direct", cdirect), ("optimized", coptimized)):
            inst = instantiate(z, LIB, fork_cascade_source_data(ccfg, seed=5))
            cstats[label] = inst.run(sink_token_target=ccfg.window_size)
        saving = cstats["direct"].token_stores - cstats["optimized"].token_stores
        assert saving == ccfg.num_forks * ccfg.fanout * ccfg.window_size
        ccounts = fork_cascade_production_counts(ccfg)
        assert cstats["direct"].token_stores == estimate_copy_count(cdirect, ccounts)
        assert cstats["optimized"].token_stores == estimate_copy_count(coptimized, ccounts)


def test_criterion_6_kernel_property_suites():
    with criterion(6, "ring-buffer invariants and mapping equivalence"):
        rng = random.Random(6000)
        fork = PassiveKernel(5, read_ports=("out0", "out1", "out2"))
        w = fork.write_index("in")
        ports = [fork.read_index(p) for p in fork.read_ports]
        written = []
        read_count = {p: 0 for p in ports}
        for step in range(10_000):
            choices = []
            if fork.writable(w) > 0:
                choices.append(None)
            choices.extend(p for p in ports if fork.population(p) > 0)
            op = rng.choice(choices)
            if op is None:
                value = rng.random()
                fork.write(w, [value])
                written.append(value)
            else:
                assert fork.read(op, 1) == [written[read_count[op]]]
                read_count[op] += 1
            assert 0 <= fork.wptr - min(fork.rptr) <= fork.capacity
            assert all(0 <= fork.population(p) <= fork.capacity for p in ports)

        def both_forms(graph):
            direct = derive_direct_pafg(graph, LIB)
            z, log = passivize_fixpoint(direct, LIB)
            assert log
            return direct, z

        stream = [rng.uniform(-100, 100) for _ in range(10_000)]
        fork_app = fork_graph(fanout=2, capacity=16)
        assert kahn_verdicts(fork_app, both_forms(fork_app), LIB, {"in": stream}) == [COMPLETE] * 2
        assert kahn_verdicts(
            gain_then_fork_graph(k=1.7, fanout=2, capacity=16),
            both_forms(gain_fork_graph(k=1.7, fanout=2, capacity=16)),
            LIB,
            {"in": stream},
        ) == [COMPLETE] * 2
        pairs = {
            "re": [rng.uniform(-1, 1) for _ in range(5000)],
            "im": [rng.uniform(-1, 1) for _ in range(5000)],
        }
        il_app = interleave_graph(fanout=2, capacity=16)
        assert kahn_verdicts(il_app, both_forms(il_app), LIB, pairs) == [COMPLETE] * 2


def test_criterion_7_ir_property_suites():
    with criterion(7, "derivation/passivization properties on 500 random graphs"):
        rng = random.Random(7000)
        for _ in range(500):
            g, _ = build_random_app_graph(rng, max_actors=20)
            z = derive_direct_pafg(g, LIB)
            assert is_alternating(z)
            assert check_association(g, z)
            validate_coordinated(z, LIB)
            for cand in find_candidates(z, LIB):
                z2, step = passivize(z, LIB, cand.block)
                assert is_alternating(z2)
                assert check_abc(z2)
                assert check_association(g, z2)
                assert_step_arithmetic(z, z2, step)
            fixed, _ = passivize_fixpoint(z, LIB)
            again, log = passivize_fixpoint(fixed, LIB)
            assert log == []
            assert again == fixed


def test_criterion_8_schedule_determinacy():
    with criterion(8, "sink streams invariant under sweep-order permutation"):
        rng = random.Random(8000)
        for _ in range(50):
            g, data = build_random_app_graph(rng, max_actors=16)
            z = derive_direct_pafg(g, LIB)
            optimized, _ = passivize_fixpoint(z, LIB)
            for target in (z, optimized):
                baseline = instantiate(target, LIB, data)
                baseline.run()
                names = sorted(baseline.actors)
                for _ in range(2):
                    order = list(names)
                    rng.shuffle(order)
                    inst = instantiate(target, LIB, data)
                    inst.run(order=order)
                    equal, div = compare_streams(
                        baseline.sink_streams(), inst.sink_streams()
                    )
                    assert equal, div
