"""Instance-incremental learning with boundary-aware distillation.

Core pieces: a flat-parameter numpy classifier (network), fused-label +
noisy-input distillation (distill), scheduled teacher consolidation
(consolidation), drifting synthetic benchmarks and CSV ingestion (data),
the incremental protocol with four strategies (protocol), metrics and
report writers (metrics, reporting), and a CLI (cli). The package root
exports the names the README documents; everything else is imported from
its module.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig
from .metrics import MetricsRecord
from .protocol import PhaseResult, run_benchmark
