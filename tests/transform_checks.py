"""Checks on passivization results that only the tests make."""

from pafg.errors import TransformError
from pafg.ir import is_alternating


def assert_step_arithmetic(before, after, step):
    """Block/edge-count bookkeeping for one passivization step:
    |V_b| = |V_a| - |removed| and |E_b| = |E_a| - |E_r| + |added|."""
    va, vb = before.pafg.graph, after.pafg.graph
    removed = set(step.removed)
    e_r = {e for e in va.edges if e[0] in removed or e[1] in removed}
    if len(vb.vertices) != len(va.vertices) - len(removed):
        raise TransformError("vertex count arithmetic violated")
    if len(vb.edges) != len(va.edges) - len(e_r) + len(step.added_edges):
        raise TransformError("edge count arithmetic violated")
    if not is_alternating(after):
        raise TransformError("passivization produced a non-alternating PAFG")
