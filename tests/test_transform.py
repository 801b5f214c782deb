import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from graphgen import build_random_app_graph
from pafg import transform
from pafg.actors import default_library
from pafg.apps import ForkCascadeConfig, build_evm_graph, build_fork_cascade, generate_evm_inputs
from pafg.dataflow import ActorSpec, AppGraphBuilder, CfdfActor
from pafg.formats import parse_graph, parse_pafg, serialize_graph, serialize_pafg
from pafg.errors import (
    DanglingProvenanceError,
    IrError,
    ModelError,
    NotACandidateError,
    ParseError,
    TransformError,
    UnknownKindError,
    UnresolvableRateError,
)
from pafg.ir import (
    ACTV,
    PSSV,
    Block,
    Pafg,
    check_abc,
    check_association,
    is_alternating,
)
from pafg.runtime import instantiate
from pafg.transform import (
    compute_bmr,
    derive_direct_pafg,
    estimate_copy_count,
    find_candidates,
    passivize,
    passivize_fixpoint,
)
from topologies import (
    chain_graph,
    fork_line_graph,
    fork_with_ports,
    gain_fork_cluster_graph,
    ten_plus_four_graph,
    unchecked_direct_pafg,
)
from transform_checks import assert_step_arithmetic, block_graph_candidate

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = str(Path(__file__).resolve().parent)


@pytest.fixture(scope="module")
def lib():
    return default_library()


def test_derive_chain(lib):
    z = derive_direct_pafg(chain_graph(), lib)
    assert len(z.blocks) == 5
    assert len(z.graph.edges) == 4
    assert is_alternating(z)
    assert z.coordination["A"] == ACTV
    assert z.coordination["A.out->B.in"] == PSSV
    simple = z.blocks["A.out->B.in"]
    assert simple.capacity == 100 and z.source.edge("A", "B").token_type == "f64"


def test_derive_single_actor(lib):
    g = AppGraphBuilder().actor("A", "src").build()
    z = derive_direct_pafg(g, lib)
    assert len(z.blocks) == 1
    assert not z.graph.edges
    assert z.coordination["A"] == ACTV


def test_derive_rejects_unknown_kind(lib):
    g = AppGraphBuilder().actor("A", "warp-core").build()
    with pytest.raises(UnknownKindError):
        derive_direct_pafg(g, lib)


class NoRates(CfdfActor):
    """A kind that overrides rates() but states no _RATES."""

    input_ports = ("in",)
    output_ports = ("out",)

    def rates(self):
        return {"in": 1}, {"out": 1}


def _with_no_rates_kind():
    """The default library plus the kind norates, a NoRates."""
    lib = default_library()
    lib.register("norates", lambda s: NoRates(s.name))
    return lib


def _source_into(kind, **params):
    """S -> X(kind) -> K."""
    return (AppGraphBuilder().actor("S", "src").actor("X", kind, **params).actor("K", "snk")
            .edge("S.out", "X.in", 4).edge("X.out", "K.in", 4))


@pytest.mark.parametrize("build, at, message", [
    (lambda: AppGraphBuilder().actor("S", "src", type="i64").actor("K", "snk")
     .edge("S.out", "K.in", 4), "edge S.out", "S.out emits i64 tokens, but the edge has type=f64"),
    (lambda: AppGraphBuilder().actor("S", "src", type="c64").actor("K", "snk")
     .edge("S.out", "K.in", 4), "actor S", "S: bad token type 'c64'"),
    (lambda: _source_into("gain", k="x"), "actor X", "X: gain k 'x' is not an int or float"),
    (lambda: AppGraphBuilder().actor("S", "src").actor("F", "fork").actor("K", "snk")
     .edge("S.out", "F.in", 4).edge("F.bogus", "K.in", 4), "edge F.bogus",
     "F.bogus is not a declared port of F"),
    (lambda: _source_into("norates"), "actor X", "actor class 'NoRates' states no _RATES"),
], ids=["i64-into-f64", "c64", "gain-k-x", "undeclared-port", "no-rates"])
def test_derive_refuses_what_parse_graph_refuses(build, at, message):
    # the file route and the Python route read a graph by one rule, so
    # derive_direct_pafg raises parse_graph's message without its line
    custom = _with_no_rates_kind()
    g = build().build()
    text = serialize_graph(g)
    with pytest.raises(ParseError) as parsed:
        parse_graph(text, lib=custom)
    with pytest.raises(ModelError) as derived:
        derive_direct_pafg(g, custom)
    assert str(derived.value) == message
    assert str(parsed.value) == f"line {parsed.value.line}: {message}"
    assert text.splitlines()[parsed.value.line - 1].startswith(f"{at} ")


@pytest.mark.parametrize("g, message", [
    (fork_with_ports(in_port="bogus"), "F.bogus is not a declared port of F"),
    (fork_with_ports(out_port="out7"), "F.out7 is not a declared port of F"),
    (fork_with_ports(token_type="i64"), "S.out emits f64 tokens, but the edge has type=i64"),
], ids=["bogus", "out7", "i64-out-of-f64"])
def test_one_port_rule_at_every_entry_point(lib, g, message):
    # lib.check_ports is the one port rule: derive, the parser (at the
    # edge's line), the rewrite of the block the edge touches and
    # instantiate, the last two on PAFGs built by hand in both forms
    direct = unchecked_direct_pafg(g)
    passivized = Pafg({n: Block(a, 4 if n == "F" else None) for n, a in g.actors.items()}, g)
    assert passivized.coordination["F"] == PSSV and is_alternating(passivized)
    for refuse in (lambda: derive_direct_pafg(g, lib),
                   lambda: passivize_fixpoint(direct, lib),
                   lambda: passivize_fixpoint(direct, lib, ["F"]),
                   lambda: instantiate(direct, lib, {"S": [1.0]}),
                   lambda: instantiate(passivized, lib, {"S": [1.0]})):
        with pytest.raises(ModelError) as refused:
            refuse()
        assert type(refused.value) is ModelError and str(refused.value) == message
    text = serialize_pafg(direct)
    with pytest.raises(ParseError) as parsed:
        parse_pafg(text, lib)
    assert str(parsed.value) == f"line {parsed.value.line}: {message}"
    line = text.splitlines()[parsed.value.line - 1]
    assert line.startswith("edge ") and message.split()[0] in line.split()


def test_fixpoint_refuses_a_kind_with_no_rates():
    # S -> F(fork) -> X(norates) -> K: F's ring is sized from X's rates
    g = (AppGraphBuilder().actor("S", "src").actor("F", "fork", fanout=1)
         .actor("X", "norates").actor("K", "snk")
         .edge("S.out", "F.in", 4).edge("F.out0", "X.in", 4).edge("X.out", "K.in", 4).build())
    with pytest.raises(ModelError, match="^actor class 'NoRates' states no _RATES$"):
        passivize_fixpoint(unchecked_direct_pafg(g), _with_no_rates_kind())


def test_derive_ten_plus_four(lib):
    z = derive_direct_pafg(ten_plus_four_graph(), lib)
    simple = [n for n, b in z.blocks.items() if b.is_simple]
    buffers = [n for n, b in z.blocks.items() if not b.is_simple and lib.is_buffer_actor(b.kind)]
    comps = [n for n, b in z.blocks.items() if not b.is_simple and not lib.is_buffer_actor(b.kind)]
    assert len(comps) == 10
    assert len(buffers) == 4
    assert len(simple) == 15
    assert len(z.graph.edges) == 30
    assert all(z.coordination[n] == PSSV for n in simple)
    assert all(z.coordination[n] == ACTV for n in buffers + comps)


def test_candidates_ten_plus_four(lib):
    z = derive_direct_pafg(ten_plus_four_graph(), lib)
    names = [c.block for c in find_candidates(z, lib)]
    assert names == ["J1", "J2", "J3", "J4"]
    # simple blocks are never simply surrounded (their neighbors are actor blocks)
    assert not any(z.blocks[n].is_simple for n in names)


def test_candidates_chain(lib):
    z = derive_direct_pafg(chain_graph(), lib)
    assert [c.block for c in find_candidates(z, lib)] == ["B"]


def test_no_candidates_without_buffer_actors(lib):
    g = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "gain")
        .edge("A.out", "B.in", capacity=4)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    assert find_candidates(z, lib) == []


def test_passivize_chain(lib):
    z = derive_direct_pafg(chain_graph(), lib)
    z2, step = passivize(z, lib, "B")
    assert set(z2.blocks) == {"A", "B", "C"}
    assert z2.graph.edges == {("A", "B"), ("B", "C")}
    assert z2.coordination["B"] == PSSV
    assert z2.blocks["B"].capacity == 100
    assert is_alternating(z2)
    assert check_association(chain_graph(), z2)
    assert step.block == "B" and len(step.removed) == 2
    assert_step_arithmetic(z, z2, step)


def test_passivize_gain_fork_cluster(lib):
    g = gain_fork_cluster_graph()
    z = derive_direct_pafg(g, lib)
    assert len(z.blocks) == 7
    z2, step = passivize(z, lib, "F")
    assert len(z2.blocks) == 4
    assert z2.graph.edges == {("G", "F"), ("F", "C1"), ("F", "C2")}
    assert z2.coordination["F"] == PSSV
    assert z2.coordination["G"] == ACTV
    assert_step_arithmetic(z, z2, step)


def test_passivize_ten_plus_four_sequence(lib):
    g = ten_plus_four_graph()
    z = derive_direct_pafg(g, lib)
    for name in ("J1", "J2", "J3"):
        z2, step = passivize(z, lib, name)
        assert_step_arithmetic(z, z2, step)
        assert is_alternating(z2)
        assert check_abc(z2)
        assert check_association(g, z2)
        z = z2
    assert [z.coordination[f"J{i}"] for i in (1, 2, 3)] == [PSSV, PSSV, PSSV]
    assert z.coordination["J4"] == ACTV
    # the three clusters are disjoint: 9 simple blocks removed, 6 remain
    simple = [n for n, b in z.blocks.items() if b.is_simple]
    assert len(simple) == 6
    assert len(z.blocks) == 20
    # J4 lost its candidacy when J3 became its direct passive predecessor
    assert [c.block for c in find_candidates(z, lib)] == []


def test_passivize_rejects_non_candidates(lib):
    z = derive_direct_pafg(ten_plus_four_graph(), lib)
    with pytest.raises(NotACandidateError):
        passivize(z, lib, "H2")  # computational
    with pytest.raises(NotACandidateError):
        passivize(z, lib, "H1.out->J1.in")  # simple block
    z2, _ = passivize(z, lib, "J3")
    with pytest.raises(NotACandidateError):
        passivize(z2, lib, "J4")  # neighbor is now a passive non-simple block
    with pytest.raises(NotACandidateError):
        passivize(z2, lib, "J3")  # already passive
    g = AppGraphBuilder().actor("F", "fork", fanout=1).actor("C", "snk")
    z3 = derive_direct_pafg(g.edge("F.out0", "C.in", capacity=4).build(), lib)
    with pytest.raises(NotACandidateError, match="block 'F' is an interface block"):
        passivize(z3, lib, "F")  # no producer


def test_fixpoint_auto_matches_manual_order(lib):
    g = ten_plus_four_graph()
    z = derive_direct_pafg(g, lib)
    z_auto, log = passivize_fixpoint(z, lib)
    assert [s.block for s in log] == ["J1", "J2", "J3"]
    z_manual, _ = passivize_fixpoint(z, lib, blocks=["J1", "J2", "J3"])
    assert z_auto == z_manual


def test_fixpoint_chain(lib):
    z = derive_direct_pafg(chain_graph(), lib)
    z2, log = passivize_fixpoint(z, lib)
    assert [s.block for s in log] == ["B"]
    assert find_candidates(z2, lib) == []


def test_fixpoint_identity_without_buffers(lib):
    g = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "snk")
        .edge("A.out", "B.in", capacity=4)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    z2, log = passivize_fixpoint(z, lib)
    assert log == []
    assert z2 == z


def test_fixpoint_idempotent(lib):
    z = derive_direct_pafg(ten_plus_four_graph(), lib)
    once, _ = passivize_fixpoint(z, lib)
    twice, log = passivize_fixpoint(once, lib)
    assert log == []
    assert twice == once


def reference_step(z, lib, name):
    """passivize(z, lib, name) where the block-graph rule accepts name,
    checked to remove the buffers that rule names; its refusal otherwise."""
    verdict = block_graph_candidate(z, lib, name)
    if isinstance(verdict, Exception):
        raise verdict
    z, step = passivize(z, lib, name)
    assert step.removed == sorted(verdict), name
    return z, step


def rescan_fixpoint(z, lib):
    """Reference fixpoint: search every block again after each step, by
    the block-graph rule, and passivize the first candidate by name."""
    log = []
    while True:
        names = [n for n in sorted(z.blocks)
                 if not isinstance(block_graph_candidate(z, lib, n), Exception)]
        if not names:
            return z, log
        z, step = reference_step(z, lib, names[0])
        log.append(step)


def sequential_passivize(z, lib, names):
    """Reference for a named list: each name in turn, checked by the
    block-graph rule on the PAFG the step before it gives."""
    log = []
    for name in names:
        z, step = reference_step(z, lib, name)
        log.append(step)
    return z, log


def named_outcome(run, z, lib, names):
    """The PAFG and step renders of a run, or its exception class and message."""
    try:
        result, log = run(z, lib, list(names))
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return result, [step.render() for step in log]


def test_named_fixpoint_matches_sequential_passivize(lib):
    # named lists of up to three names, repeats and unknown names included,
    # on each graph's direct PAFG and on two partly passivized ones, where a
    # block can have a passive neighbor before the list starts and an
    # earlier name can take another of its buffers. Every list of one or
    # two names is checked; a third name is added where the first two are
    # passivized, as the reference stops at the first name it refuses
    cfg = generate_evm_inputs(seed=3, max_length=8, num_windows=2)
    graphs = [ten_plus_four_graph(), chain_graph(), fork_line_graph(), build_evm_graph(cfg),
              build_fork_cascade(ForkCascadeConfig(window_size=8, num_forks=5))]
    seen = {"ok": 0, IrError: 0, NotACandidateError: 0, "taken": 0}
    for g in graphs:
        direct = derive_direct_pafg(g, lib)
        names = sorted(direct.blocks) + ["nope", "A.out->Z.in"]
        cands = [c.block for c in find_candidates(direct, lib)]
        ends = dict.fromkeys([cands[0], cands[-1]])  # the first and last candidate
        for z in [direct] + [passivize(direct, lib, name)[0] for name in ends]:
            lists = [()]
            while lists:
                picked = lists.pop()
                got = named_outcome(passivize_fixpoint, z, lib, picked)
                assert got == named_outcome(sequential_passivize, z, lib, picked), picked
                if isinstance(got[1], list):
                    seen["ok"] += 1
                else:
                    seen[got[0]] += 1
                    neighbor = got[1].split("'")[1]
                    seen["taken"] += got[1].startswith("neighbor") and neighbor in picked
                if len(picked) < 2 or len(picked) == 2 and isinstance(got[1], list):
                    lists += [picked + (name,) for name in names]
    # every outcome is reached, the neighbor an earlier name passivized too
    assert all(seen.values()), seen


def assert_fixpoint_matches_rescan(z, lib):
    """Compare passivize_fixpoint with the reference; return its step log."""
    ref, ref_log = rescan_fixpoint(z, lib)
    got, log = passivize_fixpoint(z, lib)
    assert [s.render() for s in log] == [s.render() for s in ref_log]
    assert got == ref
    return log


def test_fixpoint_matches_rescan_on_random_graphs(lib):
    # graphgen's plain graphs, then its modal ones (var-src, avg, ref-mag,
    # err-mag), 60 each from the same seed
    for modal in (False, True):
        rng = random.Random(515)
        skipped = 0
        for _ in range(60):
            g, _ = build_random_app_graph(rng, max_actors=16, modal=modal)
            z = derive_direct_pafg(g, lib)
            log = assert_fixpoint_matches_rescan(z, lib)
            if len(log) < len(find_candidates(z, lib)):
                skipped += 1  # a step disqualified a later entry of the initial list
        assert skipped > 0, modal


def test_fixpoint_matches_rescan_on_apps(lib, monkeypatch):
    calls = []
    built = []
    pafg_post_init = Pafg.__post_init__

    def counting_find_candidates(z, lib):
        calls.append(z)
        return find_candidates(z, lib)

    def counting_post_init(self):
        built.append(self)
        pafg_post_init(self)

    monkeypatch.setattr(transform, "find_candidates", counting_find_candidates)
    cfg = generate_evm_inputs(seed=3, max_length=8, num_windows=2)
    graphs = [build_evm_graph(cfg)] + [
        build_fork_cascade(ForkCascadeConfig(window_size=8, num_forks=n)) for n in (6, 50)
    ]
    for g in graphs:
        z = derive_direct_pafg(g, lib)
        log = assert_fixpoint_matches_rescan(z, lib)
        # count PAFG constructions in each fixpoint call alone: one
        # rewrite, which walks the names and makes no candidate search,
        # with blocks=None and with the same blocks named
        with monkeypatch.context() as m:
            m.setattr(Pafg, "__post_init__", counting_post_init)
            _, again = passivize_fixpoint(z, lib)
            assert log and len(built) == 1
            _, named = passivize_fixpoint(z, lib, [step.block for step in log])
        assert again == named == log
        assert calls == [] and len(built) == 2
        built.clear()


def test_candidacy_matches_the_block_graph_rule(lib):
    # find_candidates and the refusal of every single name against the
    # rule read off the rebuilt block graph, on each graph's direct PAFG
    # and on a half-passivized one read back from its file, where some
    # buffers are gone before the rewrite starts
    cfg = generate_evm_inputs(seed=3, max_length=8, num_windows=2)
    graphs = [build_evm_graph(cfg)] + [
        build_fork_cascade(ForkCascadeConfig(window_size=8, num_forks=n)) for n in (6, 50)]
    for modal in (False, True):
        rng = random.Random(515)
        graphs += [build_random_app_graph(rng, max_actors=16, modal=modal)[0] for _ in range(60)]
    no_producer = AppGraphBuilder().actor("F", "fork", fanout=1).actor("C", "snk")
    graphs.append(no_producer.edge("F.out0", "C.in", capacity=4).build())
    seen = Counter()
    for g in graphs:
        direct = derive_direct_pafg(g, lib)
        steps = [step.block for step in passivize_fixpoint(direct, lib)[1]]
        half = parse_pafg(serialize_pafg(passivize_fixpoint(direct, lib, steps[::2])[0]), lib)
        for z in (direct, half):
            names = sorted(z.blocks) + ["nope"]
            verdicts = {n: block_graph_candidate(z, lib, n) for n in names}
            expected = [(n, v) for n, v in verdicts.items() if not isinstance(v, Exception)]
            assert [(c.block, c.removed) for c in find_candidates(z, lib)] == expected
            for name, verdict in verdicts.items():
                got = named_outcome(passivize_fixpoint, z, lib, [name])
                if isinstance(verdict, Exception):
                    assert got == (type(verdict), str(verdict)), name
                    seen[re.sub("'[^']*'", "_", got[1])] += 1
                else:
                    removed = ",".join(sorted(verdict))
                    assert got[1][0].startswith(f"passivize {name} removed={removed} "), name
                    seen["candidate"] += 1
    # every refusal and a candidate are reached
    assert len(seen) == 6, seen


def test_non_alternating_input_is_rejected(lib):
    # the chain's direct PAFG beside a source D wired straight to a sink E,
    # without the simple buffer between them: B is still a candidate, so
    # only the alternation check can refuse it
    g = (
        AppGraphBuilder()
        .actor("A", "src")
        .actor("B", "fork", fanout=1)
        .actor("C", "snk")
        .actor("D", "src")
        .actor("E", "snk")
        .edge("A.out", "B.in", capacity=100)
        .edge("B.out0", "C.in", capacity=100)
        .edge("D.out", "E.in", capacity=100)
        .build()
    )
    z = derive_direct_pafg(g, lib)
    blocks = dict(z.blocks)
    del blocks["D.out->E.in"]
    bad = Pafg(blocks, g)
    assert ("D", "E") in bad.edges and not is_alternating(bad)
    assert [c.block for c in find_candidates(bad, lib)] == ["B"]
    with pytest.raises(TransformError, match="alternating PAFGs only"):
        passivize(bad, lib, "B")
    with pytest.raises(TransformError, match="alternating PAFGs only"):
        passivize_fixpoint(bad, lib)
    with pytest.raises(TransformError, match="alternating PAFGs only"):
        passivize_fixpoint(bad, lib, blocks=["B"])
    with pytest.raises(TransformError, match="alternating PAFGs only"):
        passivize_fixpoint(bad, lib, blocks=[])


def test_non_associated_input_is_rejected(lib):
    # the chain's direct PAFG with the fork's block standing for another
    # fork of the same name would be alternating with B still a candidate,
    # so the PAFG refuses it when it is built and passivize never sees it
    g = chain_graph()
    z = derive_direct_pafg(g, lib)
    blocks = dict(z.blocks, B=Block(ActorSpec("B", "fork", {"fanout": 2})))
    with pytest.raises(DanglingProvenanceError, match="block 'B': provenance"):
        Pafg(blocks, g)


REFUSED_BETWEEN_TWO_PASSIVE_BLOCKS = """
from pafg.actors import default_library
from pafg.errors import NotACandidateError
from pafg.transform import derive_direct_pafg, passivize, passivize_fixpoint
from topologies import fork_line_graph

lib = default_library()
z, log = passivize_fixpoint(derive_direct_pafg(fork_line_graph(), lib), lib)
assert [step.block for step in log] == ["F", "H"]
try:
    passivize(z, lib, "G")
except NotACandidateError as exc:
    print(exc)
"""


def test_refused_passivize_names_the_least_neighbor_by_name():
    # G's neighbours F and H are both passive; the message must not depend
    # on the order in which a set of strings iterates
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", REFUSED_BETWEEN_TWO_PASSIVE_BLOCKS],
            capture_output=True, text=True, encoding="utf-8", check=True,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=os.pathsep.join([str(SRC), TESTS])),
        )
        assert proc.stdout == "neighbor 'F' of 'G' is not a simple passive buffer\n", seed


def test_bmr_chain(lib):
    z = derive_direct_pafg(chain_graph(capacity=100), lib)
    assert compute_bmr(z).total_bytes == 1600  # 2 x 100 x 8
    z2, _ = passivize(z, lib, "B")
    assert compute_bmr(z2).total_bytes == 800  # single 100-token ring


def test_bmr_fork_cluster_reduction(lib):
    # fanout m = 2 with equal capacities: the cluster sheds m/(m+1) of its BMR
    g = gain_fork_cluster_graph(capacity=32)
    z = derive_direct_pafg(g, lib)
    before = compute_bmr(z).total_bytes
    z2, _ = passivize(z, lib, "F")
    after = compute_bmr(z2).total_bytes
    assert before == 3 * 32 * 8
    assert after == 32 * 8
    assert (before - after) * 3 == before * 2


def burst_graph():
    """S -> F(fork) -> R(ref-mag) and SNK, with a one-token input buffer:
    R reads two tokens per firing, more than the input buffer holds."""
    return (
        AppGraphBuilder()
        .actor("S", "src")
        .actor("F", "fork", fanout=2)
        .actor("R", "ref-mag")
        .actor("A", "acc")
        .actor("SNK", "snk")
        .edge("S.out", "F.in", capacity=1)
        .edge("F.out0", "R.in", capacity=2)
        .edge("F.out1", "SNK.in", capacity=2)
        .edge("R.out", "A.in", capacity=2)
        .build()
    )


def test_passivized_ring_holds_the_largest_burst(lib):
    # the summed input capacity, 1, would leave R waiting for a second
    # token that S cannot write: the ring is raised to R's burst of 2
    direct = derive_direct_pafg(burst_graph(), lib)
    optimized, (step,) = passivize_fixpoint(direct, lib)
    assert optimized.blocks["F"].capacity == 2
    assert step.raised_capacity == (1, 2)
    assert step.render().endswith(" capacity=2 raised_from=1")
    data = {"S": [1.0, 2.0, 3.0, 4.0]}
    runs = []
    for z in (direct, optimized):
        inst = instantiate(z, lib, data)
        assert inst.run(sink_token_target=4).sink_tokens == 4
        inst.run()
        runs.append((inst.sink_streams(), inst.actors["A"].total))
    assert runs[0] == runs[1] == ({"SNK": data["S"]}, 5.0 + 25.0)


def test_app_rings_keep_their_summed_capacity(lib):
    # every reader and writer of the EVM and fork-cascade rings already
    # fits the absorbed input buffers, so no ring is raised and BMR holds
    cfg = generate_evm_inputs(seed=3, max_length=64, num_windows=2)
    graphs = [build_evm_graph(cfg)] + [
        build_fork_cascade(ForkCascadeConfig(window_size=w, num_forks=6)) for w in (1, 64)
    ]
    for g in graphs:
        direct = derive_direct_pafg(g, lib)
        optimized, log = passivize_fixpoint(direct, lib)
        assert log and all(step.raised_capacity is None for step in log)
        for step in log:
            summed = sum(e.capacity for e in g.edges.values() if e.snk == step.block)
            assert optimized.blocks[step.block].capacity == summed
        absorbed_outputs = sum(
            e.capacity for e in g.edges.values() if e.src in {s.block for s in log}
        )
        saving = compute_bmr(direct).total_bytes - compute_bmr(optimized).total_bytes
        assert saving == 8 * absorbed_outputs


def test_estimate_copy_count_fork(lib):
    g = gain_fork_cluster_graph()
    z = derive_direct_pafg(g, lib)
    n = 50
    counts = {"G": n, "F": 2 * n, "C1": 0, "C2": 0}
    assert estimate_copy_count(z, counts) == 3 * n
    z2, _ = passivize(z, lib, "F")
    assert estimate_copy_count(z2, counts) == n


def test_estimate_copy_count_chain_identity(lib):
    # a fanout-1 buffer in a plain chain saves exactly its own stores
    z = derive_direct_pafg(chain_graph(), lib)
    counts = {"A": 7, "B": 7, "C": 0}
    assert estimate_copy_count(z, counts) == 14
    z2, _ = passivize(z, lib, "B")
    assert estimate_copy_count(z2, counts) == 7


def test_estimate_copy_count_missing_block(lib):
    z = derive_direct_pafg(chain_graph(), lib)
    with pytest.raises(UnresolvableRateError):
        estimate_copy_count(z, {"B": 5})


def test_random_graph_passivization_properties(lib):
    rng = random.Random(202)
    for _ in range(60):
        g, _ = build_random_app_graph(rng, max_actors=14)
        z = derive_direct_pafg(g, lib)
        for cand in find_candidates(z, lib):
            z2, step = passivize(z, lib, cand.block)
            assert is_alternating(z2)
            assert check_abc(z2)
            assert check_association(g, z2)
            assert_step_arithmetic(z, z2, step)
            # BMR monotonicity: when every removed buffer is at least the
            # ring capacity split across the removals, BMR strictly drops
            removed_caps = [z.blocks[n].capacity for n in step.removed]
            ring_cap = z2.blocks[cand.block].capacity
            if all(c >= ring_cap / len(removed_caps) for c in removed_caps):
                assert compute_bmr(z2).total_bytes < compute_bmr(z).total_bytes
        z_fix, _ = passivize_fixpoint(z, lib)
        z_again, log = passivize_fixpoint(z_fix, lib)
        assert log == [] and z_again == z_fix
