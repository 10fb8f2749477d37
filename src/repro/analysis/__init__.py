"""Experiment analysis helpers: GEMM density histograms (Fig. 4) and
report formatting/aggregation used by the benchmark harness."""

from .density import DENSITY_BIN_LABELS, gemm_density_histogram
from .gantt import render_gantt
from .report import describe_ordering, format_table, geometric_mean, speedup_summary

__all__ = [
    "gemm_density_histogram",
    "DENSITY_BIN_LABELS",
    "geometric_mean",
    "render_gantt",
    "format_table",
    "speedup_summary",
    "describe_ordering",
]
