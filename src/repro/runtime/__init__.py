"""The QIR runtime: interpret QIR programs against a simulator backend.

Paper, Section III-C: "A file that contains LLVM IR bytecode can be
executed directly with the lli tool [...] this can be overcome by
providing the missing definitions for the QIR extensions to LLVM.  The
resulting quantum runtime augments the classical LLVM runtime."

This package is that runtime, in Python: :class:`Interpreter` plays the
role of ``lli`` for the classical IR subset, and :mod:`~repro.runtime.intrinsics`
supplies the ``__quantum__qis__*`` / ``__quantum__rt__*`` definitions,
which mutate a :class:`~repro.sim.backend.SimulatorBackend` exactly the way
XANADU's Catalyst runtime drives the Lightning simulator (Example 5).

Qubit addressing follows Section IV-A: dynamic addresses are handles from
``qubit_allocate``; static addresses (``inttoptr`` constants) are mapped to
simulator slots either from the entry point's ``required_num_qubits``
attribute or *on the fly* when first touched.
"""

from repro.runtime.errors import (
    BackendFaultError,
    ERROR_CODES,
    ErrorContext,
    InvalidPointerError,
    OutputCorruptionError,
    PoolStartupError,
    QirRuntimeError,
    QubitAllocationError,
    SchedulerExhaustedError,
    StepLimitExceeded,
    TrapError,
    UnboundFunctionError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.runtime.values import (
    ArrayHandle,
    GlobalPtr,
    IntPtr,
    QubitPtr,
    ResultPtr,
    StackPtr,
)
from repro.runtime.qubit_manager import QubitManager
from repro.runtime.results import ResultStore
from repro.runtime.output import OutputRecord, OutputRecorder
from repro.runtime.interpreter import Interpreter
from repro.runtime.plan import (
    ExecutionPlan,
    PlanDecodeError,
    compile_plan,
    content_hash,
    plan_key,
)
from repro.runtime.plancache import PlanCache, default_cache_dir
from repro.runtime.dispatch import (
    Chunk,
    ChunkQueue,
    QueueStats,
    guided_chunks,
)
from repro.runtime.shots import ShotOutcome
from repro.runtime.pool import ProcessScheduler, SupervisionRecord
from repro.runtime.schedulers import SerialScheduler, get_scheduler
from repro.runtime.execute import (
    ExecutionResult,
    QirRuntime,
    ShotsResult,
    execute,
    run_shots,
)
from repro.runtime.session import QirSession

__all__ = [
    "BackendFaultError",
    "ERROR_CODES",
    "ErrorContext",
    "InvalidPointerError",
    "OutputCorruptionError",
    "PoolStartupError",
    "QirRuntimeError",
    "QubitAllocationError",
    "SchedulerExhaustedError",
    "StepLimitExceeded",
    "TrapError",
    "UnboundFunctionError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "ArrayHandle",
    "GlobalPtr",
    "IntPtr",
    "QubitPtr",
    "ResultPtr",
    "StackPtr",
    "QubitManager",
    "ResultStore",
    "OutputRecord",
    "OutputRecorder",
    "Interpreter",
    "ExecutionPlan",
    "PlanDecodeError",
    "PlanCache",
    "default_cache_dir",
    "compile_plan",
    "content_hash",
    "plan_key",
    "SerialScheduler",
    "ProcessScheduler",
    "ShotOutcome",
    "SupervisionRecord",
    "get_scheduler",
    "Chunk",
    "ChunkQueue",
    "QueueStats",
    "guided_chunks",
    "ExecutionResult",
    "ShotsResult",
    "QirRuntime",
    "QirSession",
    "execute",
    "run_shots",
]
