"""Dataflow modeling toolkit: application graphs, passive-active flowgraph
IR, the passivization transformation, and an instrumented execution engine."""

from .actors import default_library
from .dataflow import (
    ActorLibrary,
    ActorSpec,
    AppGraphBuilder,
    ApplicationGraph,
    CfdfActor,
    DataflowEdge,
    F64,
    I64,
)
from .graph import DirectedGraph
from .ir import (
    ACTV,
    Block,
    PSSV,
    Pafg,
    check_abc,
    is_alternating,
    validate_coordinated,
)
from .kernels import PassiveKernel
from .runtime import ExecStats, compare_streams, instantiate
from .transform import (
    BmrReport,
    compute_bmr,
    derive_direct_pafg,
    estimate_copy_count,
    find_candidates,
    passivize,
    passivize_fixpoint,
)

__all__ = [
    "ACTV",
    "ActorLibrary",
    "ActorSpec",
    "AppGraphBuilder",
    "ApplicationGraph",
    "Block",
    "BmrReport",
    "CfdfActor",
    "DataflowEdge",
    "DirectedGraph",
    "ExecStats",
    "F64",
    "I64",
    "PSSV",
    "Pafg",
    "PassiveKernel",
    "check_abc",
    "compare_streams",
    "compute_bmr",
    "default_library",
    "derive_direct_pafg",
    "estimate_copy_count",
    "find_candidates",
    "instantiate",
    "is_alternating",
    "passivize",
    "passivize_fixpoint",
    "validate_coordinated",
]
