"""The benchmark's tiny-size smoke run, so a refactor that breaks its
per-object wrappers or module-global patches fails the test suite."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_test():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_run_counts_the_ring_calls():
    """The tracer wraps each kernel's read and write, the calls the engine
    moves every token through, so a traced run counts them on both forms."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "forkcascade",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if name.startswith(("kernels.reads.", "kernels.writes."))}
    assert len(counts) == 4 and all(v > 0 for v in counts.values()), counts


TRACED_TINY_FIXPOINT_WIDE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
assert run._import_package() is None
from workloads import TINY_WORKLOADS
result = run.measure(TINY_WORKLOADS["fixpoint-wide"], 1, 0, 1)
assert not result.errors, result.errors
print(json.dumps(result.metrics))
"""


def test_traced_run_asks_rates_once_per_visit():
    """Every actor of fixpoint-wide keeps CfdfActor's static rates() and
    fires on its first visit, so the engine asks rates() once per visit
    and the attempts counter equals the firings on both forms."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_TINY_FIXPOINT_WIDE, str(ROOT / "perfbench")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    for form in ("direct", "optimized"):
        firings = metrics[f"runtime.firings.{form}"]
        assert firings > 0 and metrics[f"runtime.attempts.{form}"] == firings, metrics
        assert metrics[f"runtime.fire_ratio.{form}"] == 1.0
