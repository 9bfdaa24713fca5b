"""Online learners with repeated within-instance updates, plus a benchmark harness."""
import os

# One BLAS thread per process, set before the first import loads numpy. The
# learners' products are too small to give a second OpenBLAS thread work (d <= 54
# on every benchmark workload), yet each idle worker spins on a CPU; and past
# 10,000 elements OpenBLAS splits a ddot across its threads, which rounds the
# sum in another order, so the output bytes would depend on the core count.
# A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
