"""Reporting helpers shared by the benchmark harness.

Plain-text table rendering (the benches print the same rows the paper's
tables/figures report), the geometric-mean speedup aggregation the
paper uses throughout its evaluation, and phase 1's ordering decision in
words.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["geometric_mean", "format_table", "speedup_summary", "describe_ordering"]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups).

    >>> geometric_mean([2.0, 8.0])
    4.0
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric mean of an empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned plain-text table."""
    def cell(v: object) -> str:
        if isinstance(v, float):
            return float_fmt.format(v)
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def speedup_summary(speedups: dict[str, float]) -> str:
    """One-line summary: geometric mean and range, paper style."""
    vals = list(speedups.values())
    gm = geometric_mean(vals)
    return (
        f"geomean {gm:.2f}x, range {min(vals):.2f}x – {max(vals):.2f}x "
        f"over {len(vals)} matrices"
    )


def describe_ordering(asked: str, kept: dict) -> str:
    """One line for a facade's ``ordering_kept`` record: the order phase 1
    kept, its ``nnz(L+U)`` and the input order's envelope bound.

    >>> print(describe_ordering("nd", {"ordering": "natural", "nnz_lu": 990108,
    ...                                "envelope_nnz_lu": 992798}))
    natural (nd passed the input order's envelope 992798): nnz(L+U) 990108
    """
    bound = kept["envelope_nnz_lu"]
    if bound is None:
        return f"{asked} (not checked): nnz(L+U) {kept['nnz_lu']}"
    if kept["ordering"] != asked:
        return (f"{kept['ordering']} ({asked} passed the input order's envelope "
                f"{bound}): nnz(L+U) {kept['nnz_lu']}")
    return f"{asked}: nnz(L+U) {kept['nnz_lu']} within the input order's envelope {bound}"
