"""Physical query operators: the row iterator model and the batch path."""

from repro.engine.operators.aggregate import HashAggregateOp
from repro.engine.operators.base import PhysicalOperator
from repro.engine.operators.batch_ops import (
    BatchAggregateOp,
    BatchBridgeOp,
    BatchFilterOp,
    BatchHashJoinOp,
    BatchIndexProbeJoinOp,
    BatchNestedLoopJoinOp,
    BatchOperator,
    BatchProjectOp,
    BatchTableScanOp,
    BatchValuesOp,
)
from repro.engine.operators.exchange import ExchangeOp
from repro.engine.operators.filter import FilterOp, ProjectOp
from repro.engine.operators.fixpoint import (
    FixpointOp,
    LinearStep,
    RecursiveCell,
    RecursiveSourceOp,
)
from repro.engine.operators.joins import (
    BandJoinOp,
    CrossJoinOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    IndexProbeJoinOp,
    NestedLoopJoinOp,
    RangeProbeJoinOp,
)
from repro.engine.operators.misc import DistinctOp, LimitOp, SortOp, UnionOp
from repro.engine.operators.shared import (
    BatchSharedSourceOp,
    EffectSinkOp,
    MaterializedSourceOp,
)
from repro.engine.operators.scan import (
    IndexEqualityScanOp,
    IndexRangeScanOp,
    TableScanOp,
    ValuesOp,
)

__all__ = [
    "PhysicalOperator",
    "TableScanOp",
    "ValuesOp",
    "IndexEqualityScanOp",
    "IndexRangeScanOp",
    "FilterOp",
    "ProjectOp",
    "NestedLoopJoinOp",
    "HashJoinOp",
    "IndexNestedLoopJoinOp",
    "BandJoinOp",
    "RangeProbeJoinOp",
    "IndexProbeJoinOp",
    "CrossJoinOp",
    "ExchangeOp",
    "HashAggregateOp",
    "SortOp",
    "LimitOp",
    "DistinctOp",
    "UnionOp",
    "FixpointOp",
    "LinearStep",
    "RecursiveCell",
    "RecursiveSourceOp",
    "BatchOperator",
    "BatchTableScanOp",
    "BatchValuesOp",
    "BatchFilterOp",
    "BatchProjectOp",
    "BatchHashJoinOp",
    "BatchNestedLoopJoinOp",
    "BatchIndexProbeJoinOp",
    "BatchAggregateOp",
    "BatchBridgeOp",
    "MaterializedSourceOp",
    "BatchSharedSourceOp",
    "EffectSinkOp",
]
