import ast
import math
from pathlib import Path

import pytest

import pafg.apps
from pafg.actors import default_library
from pafg.apps import (
    EVM_PASSIVIZATION_TARGETS,
    EvmConfig,
    ForkCascadeConfig,
    Lcg,
    build_evm_graph,
    build_fork_cascade,
    evm_oracle,
    evm_oracle_per_window,
    evm_production_counts,
    evm_source_data,
    fork_cascade_production_counts,
    fork_cascade_source_data,
    generate_evm_inputs,
)
from pafg.errors import ModelError
from pafg.runtime import compare_streams, instantiate
from pafg.transform import (
    compute_bmr,
    derive_direct_pafg,
    estimate_copy_count,
    find_candidates,
    passivize_fixpoint,
)


@pytest.fixture(scope="module")
def lib():
    return default_library()


def test_lcg_reference_sequence():
    rng = Lcg(1)
    assert [rng.next_u64() for _ in range(3)] == [
        7806831264735756412,
        9396908728118811419,
        11960119808228829710,
    ]
    rng = Lcg(1)
    floats = [rng.next_float() for _ in range(3)]
    assert floats == [
        0.42320917087271326,
        0.5094074428837206,
        0.6483593939634306,
    ]
    assert all(0.0 <= f < 1.0 for f in floats)


def test_lcg_int_draw():
    rng = Lcg(7)
    assert [rng.next_int(1, 16) for _ in range(3)] == [11, 2, 13]


def test_evm_oracle_identical_streams():
    ref = [complex(0.5, -0.25), complex(1.0, 2.0)]
    assert evm_oracle(ref, list(ref)) == 0.0


def test_evm_oracle_error_equals_reference():
    ref = [complex(1, 0), complex(0, 1)]
    rec = [complex(0, 0), complex(0, 0)]
    assert evm_oracle(ref, rec) == 1.0


def test_evm_oracle_hand_value():
    # error power 1, reference power 4 -> sqrt(1)/sqrt(4)
    assert evm_oracle([complex(2, 0)], [complex(1, 0)]) == 0.5


def test_evm_oracle_rejects_zero_reference():
    # a length mismatch is refused first, then an empty input, then a zero reference
    with pytest.raises(ModelError, match="^reference signal is identically zero$"):
        evm_oracle([complex(0, 0), -0j], [complex(1, 0), 1j])
    with pytest.raises(ModelError, match="^need at least one sample$"):
        evm_oracle([], [])
    for reference, received in (([complex(1, 0)], []), ([], [0j]), ([0j, 0j], [0j])):
        with pytest.raises(ModelError, match="^reference and received lengths differ$"):
            evm_oracle(reference, received)


def complex_oracle_per_window(cfg):
    """The EVM oracle in its complex-number form: each sample boxed into
    complex objects, accumulated left to right, one window at a time."""
    out = []
    offset = 0
    for n in cfg.window_lengths:
        err_power = 0.0
        ref_power = 0.0
        for i in range(offset, offset + n):
            ref = complex(cfg.ref_re[i], cfg.ref_im[i])
            rec = complex(cfg.rec_re[i], cfg.rec_im[i])
            dre = ref.real - rec.real
            dim = ref.imag - rec.imag
            err_power += dre * dre + dim * dim
            ref_power += ref.real * ref.real + ref.imag * ref.imag
        out.append(math.sqrt(err_power / n) / math.sqrt(ref_power / n))
        offset += n
    return out


@pytest.mark.parametrize("seed, max_length, num_windows", [
    (0, 24, 5), (7, 64, 9), (13, 3, 12), (123, 24, 5), (2024, 1, 10), (99, 1, 1),
])
def test_evm_oracle_matches_complex_form_bit_exactly(seed, max_length, num_windows):
    cfg = generate_evm_inputs(seed, max_length, num_windows)
    expected = {"SNK": complex_oracle_per_window(cfg)}
    equal, divergence = compare_streams({"SNK": evm_oracle_per_window(cfg)}, expected)
    assert equal, divergence
    if max_length == 1:
        assert cfg.window_lengths == [1] * num_windows
    # evm_oracle over the whole run is the one-window case
    whole = EvmConfig([len(cfg.ref_re)], cfg.ref_re, cfg.ref_im, cfg.rec_re, cfg.rec_im)
    ref = [complex(a, b) for a, b in zip(cfg.ref_re, cfg.ref_im)]
    rec = [complex(a, b) for a, b in zip(cfg.rec_re, cfg.rec_im)]
    equal, divergence = compare_streams({"SNK": [evm_oracle(ref, rec)]},
                                        {"SNK": complex_oracle_per_window(whole)})
    assert equal, divergence


def test_evm_accumulates_left_to_right(lib):
    # Left to right, 1e8**2 absorbs every later term (the ulp of 1e16 is 2),
    # so both powers stay 1e16 and the ratio is exactly 1.0; a compensated
    # sum (math.fsum, or sum() from Python 3.12 on) gives 1.0000000000000375.
    cfg = EvmConfig(
        window_lengths=[1001],
        ref_re=[1e8] + [0.5] * 1000,
        ref_im=[0.0] * 1001,
        rec_re=[0.0] + [1.5] * 1000,
        rec_im=[0.0] * 1001,
    )
    assert evm_oracle_per_window(cfg) == [1.0]
    ref = [complex(a, b) for a, b in zip(cfg.ref_re, cfg.ref_im)]
    rec = [complex(a, b) for a, b in zip(cfg.rec_re, cfg.rec_im)]
    assert evm_oracle(ref, rec) == 1.0
    for optimized in (False, True):
        inst, _, _ = run_evm(cfg, lib, optimized=optimized)
        assert inst.sink_streams()["SNK"] == [1.0]


def test_evm_sources_read_the_config_lists_in_place(lib):
    cfg = generate_evm_inputs(seed=31, max_length=16, num_windows=4)
    fields = ("window_lengths", "ref_re", "ref_im", "rec_re", "rec_im")
    data = evm_source_data(cfg)
    for name, label in zip(("SRC1", "SRC2", "SRC3", "SRC4", "SRC5"), fields):
        assert data[name] is getattr(cfg, label)
    snapshot = [list(getattr(cfg, label)) for label in fields]
    for optimized in (False, True):
        inst, _, _ = run_evm(cfg, lib, optimized=optimized)
        assert inst.sink_streams()["SNK"] == evm_oracle_per_window(cfg)
    assert [getattr(cfg, label) for label in fields] == snapshot


def test_evm_oracle_imports_no_engine_module():
    tree = ast.parse(Path(pafg.apps.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    for module in imported:
        assert module.split(".")[-1] not in ("runtime", "actors", "kernels"), module


def run_evm(cfg, lib, optimized=False):
    graph = build_evm_graph(cfg)
    z = derive_direct_pafg(graph, lib)
    if optimized:
        z, _ = passivize_fixpoint(z, lib)
    inst = instantiate(z, lib, evm_source_data(cfg))
    stats = inst.run(sink_token_target=len(cfg.window_lengths))
    return inst, stats, z


def test_evm_single_window_emits_one_value(lib):
    cfg = EvmConfig(
        window_lengths=[4],
        ref_re=[1.0, 2.0, 3.0, 4.0],
        ref_im=[0.5, 0.5, 0.5, 0.5],
        rec_re=[1.0, 2.0, 3.0, 4.0],
        rec_im=[0.5, 0.5, 0.5, 0.5],
    )
    inst, stats, _ = run_evm(cfg, lib)
    assert stats.sink_tokens == 1
    assert inst.sink_streams()["SNK"] == [0.0]


def test_evm_total_mismatch_value(lib):
    cfg = EvmConfig(
        window_lengths=[1], ref_re=[1.0], ref_im=[0.0], rec_re=[0.0], rec_im=[0.0]
    )
    inst, _, _ = run_evm(cfg, lib)
    assert inst.sink_streams()["SNK"] == [1.0]


def test_evm_graph_matches_oracle_bit_exactly(lib):
    cfg = generate_evm_inputs(seed=123, max_length=24, num_windows=5)
    inst, _, _ = run_evm(cfg, lib)
    assert inst.sink_streams()["SNK"] == evm_oracle_per_window(cfg)


def test_evm_candidates_and_topology(lib):
    cfg = generate_evm_inputs(seed=5, max_length=8, num_windows=2)
    graph = build_evm_graph(cfg)
    assert len(graph.actors) == 14
    assert len(graph.edges) == 15
    z = derive_direct_pafg(graph, lib)
    names = [c.block for c in find_candidates(z, lib)]
    assert names == sorted(EVM_PASSIVIZATION_TARGETS)


def test_evm_direct_instance_uses_simple_fifos(lib):
    cfg = generate_evm_inputs(seed=5, max_length=8, num_windows=1)
    graph = build_evm_graph(cfg)
    z = derive_direct_pafg(graph, lib)
    inst = instantiate(z, lib, evm_source_data(cfg))
    fifos = [k for k in inst.kernels.values() if (k.write_ports, k.read_ports) == (("in",), ("out",))]
    assert len(fifos) == 15
    assert len(inst.kernels) == 15


def test_evm_passivized_kernels(lib):
    cfg = generate_evm_inputs(seed=5, max_length=8, num_windows=2)
    _, _, z = run_evm(cfg, lib, optimized=True)
    fa = z.block("FA")
    assert fa.capacity == 1 and z.source.edge("SRC1", "FA").token_type == "i64"
    cap = cfg.capacity()
    assert z.block("RFC").capacity == 2 * cap
    assert z.block("RCC").capacity == 2 * cap
    inst = instantiate(z, lib, evm_source_data(cfg))
    assert inst.kernels["FA"].read_ports == ("out0", "out1")
    assert inst.kernels["RFC"].write_ports == ("re", "im")


def test_evm_copy_counts_measured_equal_estimated(lib):
    cfg = generate_evm_inputs(seed=11, max_length=16, num_windows=3)
    counts = evm_production_counts(cfg)
    _, direct_stats, z_direct = run_evm(cfg, lib)
    _, opt_stats, z_opt = run_evm(cfg, lib, optimized=True)
    assert direct_stats.token_stores == estimate_copy_count(z_direct, counts)
    assert opt_stats.token_stores == estimate_copy_count(z_opt, counts)
    assert opt_stats.token_stores < direct_stats.token_stores
    windows = len(cfg.window_lengths)
    samples = sum(cfg.window_lengths)
    assert direct_stats.token_stores == 12 * samples + 6 * windows
    assert opt_stats.token_stores == 6 * samples + 4 * windows


def test_evm_config_validation():
    with pytest.raises(ModelError):
        EvmConfig(window_lengths=[]).validate()
    with pytest.raises(ModelError, match="^window lengths must be >= 1$"):
        EvmConfig(window_lengths=[0], ref_re=[], ref_im=[], rec_re=[], rec_im=[]).validate()
    with pytest.raises(ModelError):
        EvmConfig(
            window_lengths=[1], ref_re=[1.0], ref_im=[1.0], rec_re=[1.0], rec_im=[]
        ).validate()


@pytest.mark.parametrize("lengths, bad", [
    ([2.0, 1], "2.0"), ([1, 3.0], "3.0"), ([True, 1], "True"), (["2", 1], "'2'"),
])
def test_evm_config_refuses_window_lengths_that_are_not_ints(lengths, bad):
    cfg = EvmConfig(lengths, *([0.5] * 3 for _ in range(4)))
    message = f"^window length must be an int, got {bad}$"
    with pytest.raises(ModelError, match=message):
        cfg.validate()
    with pytest.raises(ModelError, match=message):
        build_evm_graph(cfg)
    with pytest.raises(ModelError, match=message):
        evm_oracle_per_window(cfg)


@pytest.mark.parametrize("max_length, num_windows, message", [
    (2.5, 3, "max_length must be an int, got 2.5"),
    (4, 2.0, "num_windows must be an int, got 2.0"),
    (0, 3, "window length must be >= 1, got 0"),
    (4, 0, "need at least one window length"),
])
def test_generated_inputs_refuse_bad_sizes(max_length, num_windows, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        generate_evm_inputs(1, max_length, num_windows)


def test_evm_oracle_per_window_refuses_windows_past_the_streams():
    cfg = EvmConfig([2, 2], [0.5] * 3, [0.5] * 3, [0.5] * 3, [0.5] * 3)
    with pytest.raises(ModelError, match="^ref_re has 3 samples, expected sum of windows = 4$"):
        evm_oracle_per_window(cfg)


@pytest.mark.parametrize(
    "field, message",
    [
        ("window_size", "window size must be >= 1"),
        ("num_forks", "need at least one fork"),
        ("fanout", "fork fanout must be >= 1"),
        ("num_windows", "need at least one window"),
    ],
)
def test_fork_cascade_config_validation(field, message):
    cfg = ForkCascadeConfig(window_size=4)
    setattr(cfg, field, 0)
    with pytest.raises(ModelError, match=f"^{message}$"):
        build_fork_cascade(cfg)


@pytest.mark.parametrize("field, value", [
    ("window_size", 64.0), ("num_forks", 2.5), ("fanout", 2.0), ("num_windows", 1.5),
    ("fanout", True), ("num_forks", None),
])
def test_fork_cascade_config_refuses_sizes_that_are_not_ints(field, value):
    cfg = ForkCascadeConfig(window_size=64)
    setattr(cfg, field, value)
    with pytest.raises(ModelError, match=rf"^{field} must be an int, got {value!r}$"):
        cfg.validate()
    with pytest.raises(ModelError, match=rf"^{field} must be an int, got {value!r}$"):
        build_fork_cascade(cfg)


def test_fork_cascade_topology(lib):
    cfg = ForkCascadeConfig(window_size=16)
    graph = build_fork_cascade(cfg)
    # 1 src + 6 forks + 5 gains + 6 accumulators + 1 sink
    assert len(graph.actors) == 19
    assert len(graph.edges) == 18
    z = derive_direct_pafg(graph, lib)
    names = [c.block for c in find_candidates(z, lib)]
    assert names == [f"F{i}" for i in range(1, 7)]
    opt, log = passivize_fixpoint(z, lib)
    assert [s.block for s in log] == names
    assert compute_bmr(z).total_bytes == 18 * 16 * 8
    assert compute_bmr(opt).total_bytes == 6 * 16 * 8


def test_fork_cascade_run_and_counts(lib):
    cfg = ForkCascadeConfig(window_size=8, num_forks=3, num_windows=2)
    graph = build_fork_cascade(cfg)
    z = derive_direct_pafg(graph, lib)
    opt, _ = passivize_fixpoint(z, lib)
    data = fork_cascade_source_data(cfg, seed=9)
    target = cfg.window_size * cfg.num_windows
    a = instantiate(z, lib, data)
    sa = a.run(sink_token_target=target)
    b = instantiate(opt, lib, data)
    sb = b.run(sink_token_target=target)
    equal, div = compare_streams(a.sink_streams(), b.sink_streams())
    assert equal, div
    counts = fork_cascade_production_counts(cfg)
    assert sa.token_stores == estimate_copy_count(z, counts)
    assert sb.token_stores == estimate_copy_count(opt, counts)
    # each passivized fork saves fanout x tokens
    tokens = cfg.window_size * cfg.num_windows
    assert sa.token_stores - sb.token_stores == cfg.num_forks * cfg.fanout * tokens


def test_fork_cascade_degenerate_fanout(lib):
    cfg = ForkCascadeConfig(window_size=4, num_forks=2, fanout=1, num_windows=1)
    graph = build_fork_cascade(cfg)
    z = derive_direct_pafg(graph, lib)
    opt, log = passivize_fixpoint(z, lib)
    assert [s.block for s in log] == ["F1", "F2"]
    counts = fork_cascade_production_counts(cfg)
    saving = estimate_copy_count(z, counts) - estimate_copy_count(opt, counts)
    assert saving == cfg.num_forks * cfg.window_size  # one store per token per fork


def test_generated_inputs_are_reproducible():
    a = generate_evm_inputs(seed=42, max_length=32, num_windows=4)
    b = generate_evm_inputs(seed=42, max_length=32, num_windows=4)
    assert a == b
    c = generate_evm_inputs(seed=43, max_length=32, num_windows=4)
    assert a != c
    assert all(-1.0 <= s < 1.0 for s in a.ref_re)
