import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from pafg.cli import _build_parser, _bench_pair, cli_main, cmd_run
from pafg.actors import default_library
from pafg.dataflow import ActorLibrary
from pafg.errors import PafgError
from pafg.kernels import PassiveKernel
from pafg.formats import read_samples, serialize_graph, serialize_pafg, write_samples
from pafg.ir import ACTV
from pafg.transform import derive_direct_pafg, passivize_fixpoint
from topologies import (
    FORK_GRAPH,
    PASSIVE_GAIN_PAFG,
    chain_graph,
    fork_graph,
    interleave_ring_pafg,
    rename_block,
    ten_plus_four_graph,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.graph"
    path.write_text(serialize_graph(chain_graph()), encoding="utf-8")
    return path


def test_validate_ok(chain_file, capsys):
    assert cli_main(["validate", str(chain_file)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("actor A warp\n", encoding="utf-8")
    assert cli_main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_rejects_undeclared_port(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text(FORK_GRAPH.format(port="out7"), encoding="utf-8")
    assert cli_main(["validate", str(bad)]) == 1
    assert "error: line 7: F.out7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("actor A src kind=x", "src takes no parameter 'kind'"),
        ("actor A src name=x", "src takes no parameter 'name'"),
        ("actor A snk k=2 fanout=9", "snk takes no parameter 'fanout'"),
    ],
    ids=["kind", "name", "snk"],
)
def test_validate_rejects_a_parameter_the_kind_does_not_take(tmp_path, capsys, line, message):
    path = tmp_path / "param.graph"
    path.write_text(f"{line}\nactor B snk\n", encoding="utf-8")
    assert cli_main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: line 1: A: {message}\n")


def test_missing_file_is_domain_error(tmp_path):
    assert cli_main(["validate", str(tmp_path / "nope.graph")]) == 1


def test_module_entry_point_reports_errors(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pafg.cli", "validate", str(tmp_path / "nonexistent")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_usage_error_exit_code():
    assert cli_main(["passivize"]) == 2
    assert cli_main([]) == 2


def test_derive_analyze_chain(chain_file, tmp_path, capsys):
    pafg_file = tmp_path / "chain.pafg"
    assert cli_main(["derive", str(chain_file), "-o", str(pafg_file)]) == 0
    assert cli_main(["analyze", str(pafg_file)]) == 0
    out = capsys.readouterr().out
    assert "total BMR: 1600 bytes" in out
    assert "alternating: True" in out
    assert "abc: True" in out
    opt_file = tmp_path / "chain-opt.pafg"
    assert cli_main(["passivize", str(pafg_file), "--auto", "-o", str(opt_file)]) == 0
    assert capsys.readouterr().out == (
        "passivize B removed=A.out->B.in,B.out0->C.in added_edges=(A,B),(B,C)\n"
    )


def test_analyze_rejects_a_passive_computational_block(tmp_path, capsys):
    pafg_file = tmp_path / "gain.pafg"
    pafg_file.write_text(PASSIVE_GAIN_PAFG, encoding="utf-8")
    assert cli_main(["analyze", str(pafg_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: computational block 'G' must be coordinated actv\n"


def test_candidates_and_passivize(tmp_path, capsys):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text(serialize_graph(ten_plus_four_graph()), encoding="utf-8")
    pafg_file = tmp_path / "g.pafg"
    opt_file = tmp_path / "g-opt.pafg"
    assert cli_main(["derive", str(graph_file), "-o", str(pafg_file)]) == 0
    capsys.readouterr()
    assert cli_main(["candidates", str(pafg_file)]) == 0
    assert capsys.readouterr().out.split() == ["J1", "J2", "J3", "J4"]
    assert cli_main(["passivize", str(pafg_file), "--auto", "-o", str(opt_file)]) == 0
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.strip().splitlines()] == ["J1", "J2", "J3"]
    assert cli_main(["candidates", str(opt_file)]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_passivize_explicit_blocks(tmp_path, capsys):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text(serialize_graph(ten_plus_four_graph()), encoding="utf-8")
    pafg_file = tmp_path / "g.pafg"
    cli_main(["derive", str(graph_file), "-o", str(pafg_file)])
    out_file = tmp_path / "opt.pafg"
    assert cli_main(
        ["passivize", str(pafg_file), "--blocks", "J2,J1", "-o", str(out_file)]
    ) == 0
    assert cli_main(
        ["passivize", str(pafg_file), "--blocks", "H2", "-o", str(out_file)]
    ) == 1


# the fork graph the installed-command CI step derives and passivizes
CI_FORK_GRAPH = """actor A src
actor F fork fanout=2
actor B snk
actor C snk
edge A.out -> F.in capacity=4
edge F.out0 -> B.in capacity=4
edge F.out1 -> C.in capacity=4
"""


def test_passivize_named_fork_matches_auto(tmp_path, capsys):
    graph_file, pafg_file = tmp_path / "fork.graph", tmp_path / "fork.pafg"
    graph_file.write_text(CI_FORK_GRAPH, encoding="utf-8")
    assert cli_main(["derive", str(graph_file), "-o", str(pafg_file)]) == 0
    auto_file, named_file = tmp_path / "fork.opt.pafg", tmp_path / "fork.named.pafg"
    assert cli_main(["passivize", "--auto", str(pafg_file), "-o", str(auto_file)]) == 0
    assert cli_main(["passivize", "--blocks", "F", str(pafg_file), "-o", str(named_file)]) == 0
    assert named_file.read_bytes() == auto_file.read_bytes()
    capsys.readouterr()
    for blocks, message in [("F,F", "block 'F' is not active"),
                            ("F,A.out->F.in", "unknown block 'A.out->F.in'")]:
        out_file = tmp_path / "refused.pafg"
        assert cli_main(["passivize", "--blocks", blocks, str(pafg_file), "-o", str(out_file)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_file.exists()


def test_run_chain(chain_file, tmp_path, capsys):
    pafg_file = tmp_path / "chain.pafg"
    cli_main(["derive", str(chain_file), "-o", str(pafg_file)])
    inputs = tmp_path / "in"
    outputs = tmp_path / "out"
    inputs.mkdir()
    write_samples(inputs / "A.txt", [1.0, 2.0, 3.0])
    stats_file = tmp_path / "stats.json"
    code = cli_main(
        [
            "run",
            str(pafg_file),
            "--inputs",
            str(inputs),
            "--outputs",
            str(outputs),
            "--sink-tokens",
            "3",
            "--stats",
            str(stats_file),
        ]
    )
    assert code == 0
    assert read_samples(outputs / "C.txt") == [1.0, 2.0, 3.0]
    stats = json.loads(stats_file.read_text(encoding="utf-8"))
    assert set(stats) == {
        "sink_tokens",
        "token_stores",
        "wall_seconds",
        "throughput_sps",
        "bmr_bytes",
    }
    assert stats["sink_tokens"] == 3


def test_run_builds_each_active_actor_once(tmp_path):
    # pafg run finds the sources in the declarations, so the actors that
    # instantiate builds, one per active block, are the only ones built
    base, lib = default_library(), ActorLibrary()
    built = Counter()
    for kind in ("src", "fork", "snk"):
        e = base.entry(kind)
        lib.register(kind, lambda spec, make=e.active_factory: built.update([spec.name]) or make(spec),
                     e.passive_factory, e.declare)
    direct = derive_direct_pafg(fork_graph(), lib)
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_samples(inputs / "in.txt", [1.0, 2.0])
    for z in (direct, passivize_fixpoint(direct, lib)[0]):
        pafg_file = tmp_path / "fork.pafg"
        pafg_file.write_text(serialize_pafg(z), encoding="utf-8")
        args = _build_parser().parse_args(["run", str(pafg_file), "--inputs", str(inputs),
                                           "--outputs", str(tmp_path / "out"), "--sink-tokens", "4"])
        built.clear()
        assert cmd_run(args, lib) == 0
        assert built == Counter(n for n in z.source.actors if z.coordination[n] == ACTV)
        assert read_samples(tmp_path / "out" / "out1.txt") == [1.0, 2.0]
    assert sorted(built) == ["in", "out0", "out1"]  # the passive fork is a ring, not an actor


def _run_pafg_text(tmp_path, text):
    pafg_file = tmp_path / "bad.pafg"
    pafg_file.write_text(text, encoding="utf-8")
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_samples(inputs / "A.txt", [1.0])
    return cli_main(
        ["run", str(pafg_file), "--inputs", str(inputs), "--outputs", str(tmp_path / "out"),
         "--sink-tokens", "1"]
    )


def test_run_rejects_renamed_block(tmp_path, capsys):
    z = derive_direct_pafg(chain_graph(), default_library())
    code = _run_pafg_text(tmp_path, rename_block(serialize_pafg(z), "B", "BB"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: line") and "Traceback" not in err


def _without_block_c(text):
    # actor C and its edge stay; C's block, its simple block and their bedges go
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("block C ") and "B.out0->C.in" not in line
    )


def _bedge_b_to_a(text):
    return text.replace("bedge B -> C\n", "bedge B -> A\n")


@pytest.mark.parametrize(
    "auto, edit, message",
    [
        (False, _without_block_c, "error: actor 'C' has no block"),
        (True, _bedge_b_to_a, "error: line 10: bedge B -> A"),
    ],
    ids=["actor-without-block", "rerouted-bedge"],
)
def test_run_rejects_blocks_that_do_not_realize_the_graph(tmp_path, capsys, auto, edit, message):
    lib = default_library()
    z = derive_direct_pafg(chain_graph(), lib)
    if auto:
        z, _ = passivize_fixpoint(z, lib)
    code = _run_pafg_text(tmp_path, edit(serialize_pafg(z)))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(message) and "Traceback" not in err


RING_BELOW_WRITE_PORTS = (
    "error: passive block 'IL': a ring with 2 write ports needs capacity >= 2, got 1\n"
)


def test_analyze_rejects_a_ring_below_its_write_port_count(tmp_path, capsys):
    # a passive interleave's ring has 2 write ports, so capacity=1 is
    # refused when the file is read, naming the block
    pafg_file = tmp_path / "il.pafg"
    pafg_file.write_text(interleave_ring_pafg(capacity=1), encoding="utf-8")
    assert cli_main(["analyze", str(pafg_file)]) == 1
    assert capsys.readouterr() == ("", RING_BELOW_WRITE_PORTS)


def test_run_names_the_passive_block_whose_ring_cannot_be_built(tmp_path, capsys):
    assert _run_pafg_text(tmp_path, interleave_ring_pafg(capacity=1)) == 1
    assert capsys.readouterr() == ("", RING_BELOW_WRITE_PORTS)


@pytest.mark.parametrize("length", ["2.5", "nan", "inf"])
def test_run_refuses_a_window_length_that_is_not_whole(tmp_path, capsys, length):
    # pafg run reads var-src samples as f64, so a length can be any float
    graph = tmp_path / "win.graph"
    graph.write_text(
        "actor V var-src\nactor G gain\nactor A avg\nactor S snk\n"
        "edge V.len -> A.len capacity=4\nedge V.out -> G.in capacity=4\n"
        "edge G.out -> A.in capacity=4\nedge A.out -> S.in capacity=4\n", encoding="utf-8")
    assert cli_main(["derive", str(graph), "-o", str(tmp_path / "win.pafg")]) == 0
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "V.txt").write_text(f"{length}\n1\n2\n3\n", encoding="utf-8")
    capsys.readouterr()
    code = cli_main(["run", str(tmp_path / "win.pafg"), "--inputs", str(inputs),
                     "--outputs", str(tmp_path / "out"), "--iterations", "5"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: V: window length {float(length)!r} is not a whole number\n")


def test_run_requires_stop_condition(chain_file, tmp_path):
    pafg_file = tmp_path / "chain.pafg"
    cli_main(["derive", str(chain_file), "-o", str(pafg_file)])
    assert cli_main(
        ["run", str(pafg_file), "--inputs", "x", "--outputs", "y"]
    ) == 2


@pytest.mark.parametrize(
    "stop", [["--sink-tokens", "-3"], ["--sink-tokens", "0"], ["--iterations", "-1"],
             ["--iterations", "0"]],
    ids=["sink-tokens-negative", "sink-tokens-0", "iterations-negative", "iterations-0"],
)
def test_run_count_below_one_is_a_usage_error(chain_file, tmp_path, capsys, stop):
    pafg_file = tmp_path / "chain.pafg"
    cli_main(["derive", str(chain_file), "-o", str(pafg_file)])
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_samples(inputs / "A.txt", [1.0, 2.0])
    out = tmp_path / "out"
    code = cli_main(["run", str(pafg_file), "--inputs", str(inputs), "--outputs", str(out), *stop])
    assert code == 2
    assert f"argument {stop[0]}: must be >= 1, got {stop[1]}" in capsys.readouterr().err
    assert not out.exists()


def test_run_with_iteration_stop(chain_file, tmp_path):
    pafg_file = tmp_path / "chain.pafg"
    cli_main(["derive", str(chain_file), "-o", str(pafg_file)])
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_samples(inputs / "A.txt", [1.0, 2.0])
    code = cli_main(
        [
            "run",
            str(pafg_file),
            "--inputs",
            str(inputs),
            "--outputs",
            str(tmp_path / "out"),
            "--iterations",
            "50",
        ]
    )
    assert code == 0
    assert read_samples(tmp_path / "out" / "C.txt") == [1.0, 2.0]


def test_bench_evm(tmp_path, capsys):
    stats_file = tmp_path / "bench.json"
    code = cli_main(
        [
            "bench",
            "evm",
            "--window",
            "32",
            "--seed",
            "7",
            "--windows",
            "3",
            "--stats",
            str(stats_file),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sink streams identical: True" in out
    stats = json.loads(stats_file.read_text(encoding="utf-8"))
    assert set(stats) == {"direct", "optimized"}
    assert stats["direct"]["token_stores"] > stats["optimized"]["token_stores"]
    assert stats["direct"]["sink_tokens"] == stats["optimized"]["sink_tokens"] == 3


def test_bench_forkcascade(tmp_path, capsys):
    stats_file = tmp_path / "bench.json"
    code = cli_main(
        [
            "bench",
            "forkcascade",
            "--window",
            "16",
            "--windows",
            "1",
            "--stats",
            str(stats_file),
        ]
    )
    assert code == 0
    stats = json.loads(stats_file.read_text(encoding="utf-8"))
    assert stats["direct"]["bmr_bytes"] == 18 * 16 * 8
    assert stats["optimized"]["bmr_bytes"] == 6 * 16 * 8
    assert stats["direct"]["token_stores"] - stats["optimized"]["token_stores"] == 6 * 2 * 16


def test_bench_pair_raises_when_the_forms_diverge():
    # a fork ring that negates every token: both forms reach the target,
    # and the passivized one delivers other values
    default = default_library()
    lib = ActorLibrary()
    for kind in ("src", "snk"):
        lib.register(kind, default.entry(kind).active_factory)
    lib.register("fork", default.entry("fork").active_factory,
                 lambda spec, capacity: PassiveKernel(capacity, ("in",), ("out0", "out1"),
                                                      lambda t: -t))
    message = ("direct and optimized sink streams diverge: "
               "StreamDivergence(sink='out0', index=0, left=1.0, right=-1.0)")
    with pytest.raises(PafgError, match=re.escape(message)):
        _bench_pair(fork_graph(), lib, {"in": [1.0, 2.0, 3.0]}, 6)


def test_bench_evm_rejects_window_0(capsys):
    assert cli_main(["bench", "evm", "--window", "0"]) == 1
    assert capsys.readouterr().err == "error: window length must be >= 1, got 0\n"


README = Path(__file__).resolve().parent.parent / "README.md"
WALL_CLOCK = re.compile(r'("(?:wall_seconds|throughput_sps)": )[^,]*')


def test_readme_command_line_transcript_is_what_the_cli_prints(tmp_path, monkeypatch, capsys):
    """Replay the README's command-line block in a fresh directory: write
    the files its cat and printf lines show, run each pafg line, and
    compare what it prints with the lines below it, wall-clock values
    aside."""
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Command line\n\n```\n(.*?)```", text, re.S)
    steps = []  # (command, the lines shown after it)
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        elif line:
            steps[-1][1].append(line)
    monkeypatch.chdir(tmp_path)
    for command, shown in steps:
        words = shlex.split(command)
        if words[0] == "cat":
            Path(words[1]).write_text("\n".join(shown) + "\n", encoding="utf-8")
            continue
        if words[0] == "mkdir":  # mkdir <dirs> && printf '<text>' > <file>
            split = words.index("&&")
            for d in words[1:split]:
                Path(d).mkdir()
            Path(words[-1]).write_text(words[split + 2].replace("\\n", "\n"), encoding="utf-8")
            continue
        assert words[0] == "pafg"
        assert cli_main(words[1:]) == 0, command
        printed = capsys.readouterr().out.splitlines()
        assert [WALL_CLOCK.sub(r"\1_", ln) for ln in printed] == [
            WALL_CLOCK.sub(r"\1_", ln) for ln in shown
        ], command
