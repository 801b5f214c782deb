"""Exception hierarchy shared across the package.

Every domain error derives from PafgError so drivers (CLI, benchmarks)
can separate modeling/runtime failures from genuine bugs.
"""


class PafgError(Exception):
    """Base class for all modeling, transformation, and runtime errors."""


class GraphError(PafgError):
    pass


class DuplicateVertexError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class UnknownVertexError(GraphError):
    pass


class ModelError(PafgError):
    """Malformed application graph, actor, or library usage."""


class UnknownPortError(ModelError):
    pass


class UnknownKindError(ModelError):
    pass


class ContractViolationError(ModelError):
    """An actor consumed or produced counts different from its declared rates."""


class IrError(PafgError):
    """Malformed PAFG, coordination function, or provenance."""


class DanglingProvenanceError(IrError):
    pass


class TransformError(PafgError):
    pass


class NotACandidateError(TransformError):
    pass


class UnresolvableRateError(TransformError):
    pass


class KernelError(PafgError):
    pass


class BufferFullError(KernelError):
    pass


class BufferEmptyError(KernelError):
    pass


class RuntimeExecutionError(PafgError):
    pass


class UnboundIoError(RuntimeExecutionError):
    pass


class DeadlockError(RuntimeExecutionError):
    """A sweep fired nothing before the stop target was reached.
    populations maps each kernel to its read-port populations; blocked maps
    each active block to why it cannot fire."""

    def __init__(self, message, populations=None, blocked=None):
        super().__init__(message)
        self.populations = populations or {}
        self.blocked = blocked or {}


class ParseError(PafgError):
    """Syntax or semantic error in a graph/PAFG/sample file, with line info."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
