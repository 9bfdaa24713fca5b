"""Online learners with repeated within-instance updates, plus a benchmark harness."""
from .bench import BenchmarkResult, CellSummary, emit, resolve_algorithms, run_benchmark
from .binary import BINARY_KINDS, BinaryLearner, make_binary
from .core import Learner, SparseVector, UpdateInfo
from .data import Dataset, load_dataset, normalize_labels, parse_sparse_text, parse_text, subsample
from .engine import (BoundReport, CountingMode, InstanceRecord, LoopConfig, RunStats,
                     check_norm_bound, process_instance, run_sequence, trace_records)
from .errors import (BoundAuditError, ConfigError, DataError, DimensionMismatchError,
                     NumericalDegeneracyError)
from .multiclass import MULTICLASS_KINDS, MulticlassLearner, make_multiclass
from .params import HyperParams
from .rng import Xoshiro256StarStar, permutation

__version__ = "0.1.0"

__all__ = [
    "BINARY_KINDS", "MULTICLASS_KINDS", "BenchmarkResult", "BinaryLearner",
    "BoundAuditError", "BoundReport", "CellSummary", "ConfigError", "CountingMode",
    "DataError", "Dataset", "DimensionMismatchError", "HyperParams", "InstanceRecord",
    "Learner", "LoopConfig", "MulticlassLearner", "NumericalDegeneracyError", "RunStats",
    "SparseVector", "UpdateInfo", "Xoshiro256StarStar",
    "check_norm_bound", "emit", "load_dataset", "make_binary", "make_multiclass",
    "normalize_labels", "parse_sparse_text", "parse_text", "permutation", "process_instance",
    "resolve_algorithms", "run_benchmark", "run_sequence", "subsample", "trace_records",
]
