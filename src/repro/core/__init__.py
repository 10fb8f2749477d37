"""PanguLU core: 2D blocking (regular or structure-aware irregular),
pluggable block→rank placement (cyclic or cost-model) with static load
balancing, the task DAG, the numeric driver, block triangular solves and
the five-phase solver facade."""

from .blocking import (
    BlockMatrix,
    BlockSizeDecision,
    FactorArena,
    block_partition,
    block_size_decision,
    boundaries_from_block_size,
    choose_block_size,
)
from .dag import Task, TaskDAG, TaskType, build_dag, sync_free_array
from .mapping import (
    ProcessGrid,
    balance_loads,
    load_imbalance,
    task_weights,
)
from .placement import (
    CostModelPlacement,
    CyclicPlacement,
    PlacementPolicy,
    available_placements,
    get_placement,
    resolve_placement,
)
from .strategy import (
    BlockingStrategy,
    IrregularBlocking,
    RegularBlocking,
    get_blocking_strategy,
)
from .numeric import (
    NumericOptions,
    execute_task,
    factorize,
    resolve_plan_cache,
    task_features,
)
from .schur import extract_trailing, partial_factorize
from .solver import Factorization, PanguLU, SolverOptions
from .memory import MemoryReport, memory_report, per_process_bytes
from .tsolve import tsolve_sequential
from .tsolve_dag import TSolveDAG, TSolveTaskType, build_tsolve_dag

__all__ = [
    "BlockMatrix",
    "BlockSizeDecision",
    "FactorArena",
    "block_partition",
    "block_size_decision",
    "boundaries_from_block_size",
    "choose_block_size",
    "BlockingStrategy",
    "RegularBlocking",
    "IrregularBlocking",
    "get_blocking_strategy",
    "task_weights",
    "Task",
    "TaskDAG",
    "TaskType",
    "build_dag",
    "sync_free_array",
    "ProcessGrid",
    "balance_loads",
    "load_imbalance",
    "PlacementPolicy",
    "CyclicPlacement",
    "CostModelPlacement",
    "available_placements",
    "get_placement",
    "resolve_placement",
    "NumericOptions",
    "factorize",
    "execute_task",
    "resolve_plan_cache",
    "task_features",
    "partial_factorize",
    "extract_trailing",
    "PanguLU",
    "SolverOptions",
    "Factorization",
    "MemoryReport",
    "memory_report",
    "per_process_bytes",
    "TSolveDAG",
    "TSolveTaskType",
    "build_tsolve_dag",
    "tsolve_sequential",
]
