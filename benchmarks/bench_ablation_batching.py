"""Extension ablation — batched panel solves (small-BLAS aggregation).

The paper's related work credits Sao et al. with aggregating small dense
BLAS calls into larger ones on GPUs.  The analogous optimisation here
amortises the per-step factor preparation (triangle extraction, SciPy
structure) across
all panel blocks of one elimination step.  This bench times per-block vs
batched panel solves on real block columns and reports the amortisation
factor.

The two batched wrappers live here, next to their only consumer (the
solver's task DAG schedules panel solves per block, so nothing in the
package calls them); the bench asserts they reproduce the per-block
kernels before it times them.
"""

from __future__ import annotations

import time

import numpy as np

from common import banner
from repro.analysis import format_table
from repro.kernels import (
    GESSM_VARIANTS,
    GETRF_VARIANTS,
    TSTRF_VARIANTS,
    Workspace,
    triangle,
)
from repro.kernels.gessm import panel_compiled
from repro.sparse import CSCMatrix, random_sparse
from repro.symbolic import symbolic_symmetric


def _batched(
    diag: CSCMatrix, blocks: list[CSCMatrix], ws: Workspace, version: str,
    *, lower: bool,
) -> None:
    """Solve every block of one block column (``lower``: ``L·Xᵢ = Bᵢ``)
    or block row (``Xᵢ·U = Bᵢ`` as ``Uᵀ·Xᵢᵀ = Bᵢᵀ``) in place.

    For the compiled variant (``G_V3``) the triangle of the diagonal
    block is extracted once and the right-hand sides — transposed for a
    block row — are concatenated into a single panel: one
    ``panel_compiled`` call instead of one per block.  Other versions
    loop over the per-block kernel.
    """
    if version != "G_V3":
        kernel = (GESSM_VARIANTS if lower else TSTRF_VARIANTS)[version]
        for b in blocks:
            kernel(diag, b, ws)
        return
    if not blocks:
        return
    coords, offset = [], 0
    for b in blocks:
        rows, cols = b.rows_cols() if lower else b.rows_cols()[::-1]
        coords.append((rows, cols + offset))
        offset += b.ncols if lower else b.nrows
    panel = np.zeros((diag.ncols, offset), dtype=diag.data.dtype)
    for b, at in zip(blocks, coords):
        panel[at] = b.data
    x = panel_compiled(triangle(diag, lower=lower, by_rows=True), panel)
    for b, at in zip(blocks, coords):
        b.data[...] = x[at]


def gessm_batched(diag, blocks, ws, *, version: str = "G_V3") -> None:
    _batched(diag, blocks, ws, version, lower=True)


def tstrf_batched(diag, blocks, ws, *, version: str = "G_V3") -> None:
    _batched(diag, blocks, ws, version, lower=False)


def _panel(n: int, h: int, width: int, count: int, seed: int):
    a = random_sparse(n, 0.06, seed=seed)
    f = symbolic_symmetric(a).filled
    ws = Workspace()
    diag = f.extract_submatrix(np.arange(h), range(h))
    GETRF_VARIANTS["C_V1"](diag, ws)
    u_blocks = [
        f.extract_submatrix(np.arange(h), range(h + i * width, h + (i + 1) * width))
        for i in range(count)
    ]
    l_blocks = [
        f.extract_submatrix(np.arange(h + i * width, h + (i + 1) * width), range(h))
        for i in range(count)
    ]
    return diag, u_blocks, l_blocks, ws


def _time(fn, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _assert_matches_per_block(batched_fn, variants, diag, blocks, ws) -> None:
    """Every version of a batched wrapper — the aggregated ``G_V3`` path
    and the looping fallbacks — reproduces the per-block ``C_V2`` kernel;
    an empty batch is a no-op."""
    batched_fn(diag, [], ws)
    for version in ("G_V3", "C_V2", "G_V1"):
        got = [b.copy() for b in blocks]
        batched_fn(diag, got, ws, version=version)
        for ref, out in zip(blocks, got):
            single = ref.copy()
            variants["C_V2"](diag, single, ws)
            np.testing.assert_allclose(
                out.to_dense(), single.to_dense(), atol=1e-9
            )


def test_ablation_batched_panels(benchmark):
    banner("Ablation — batched vs per-block panel solves (G_V3 path)")
    diag, u_blocks, l_blocks, ws = _panel(n=96, h=32, width=20, count=3, seed=21)
    _assert_matches_per_block(gessm_batched, GESSM_VARIANTS, diag, u_blocks, ws)
    _assert_matches_per_block(tstrf_batched, TSTRF_VARIANTS, diag, l_blocks, ws)
    rows = []
    for count in (2, 4, 8, 16):
        diag, u_blocks, l_blocks, ws = _panel(
            n=64 + count * 24, h=64, width=24, count=count, seed=31 + count
        )
        t_loop_g = _time(lambda: [
            GESSM_VARIANTS["G_V3"](diag, b.copy(), ws) for b in u_blocks
        ])
        t_batch_g = _time(lambda: gessm_batched(
            diag, [b.copy() for b in u_blocks], ws, version="G_V3"
        ))
        t_loop_t = _time(lambda: [
            TSTRF_VARIANTS["G_V3"](diag, b.copy(), ws) for b in l_blocks
        ])
        t_batch_t = _time(lambda: tstrf_batched(
            diag, [b.copy() for b in l_blocks], ws, version="G_V3"
        ))
        rows.append([
            count,
            t_loop_g * 1e3, t_batch_g * 1e3, t_loop_g / t_batch_g,
            t_loop_t * 1e3, t_batch_t * 1e3, t_loop_t / t_batch_t,
        ])
    print(format_table(
        ["blocks", "GESSM loop (ms)", "GESSM batch (ms)", "speedup",
         "TSTRF loop (ms)", "TSTRF batch (ms)", "speedup"],
        rows,
        float_fmt="{:.3f}",
    ))
    benchmark.pedantic(
        lambda: gessm_batched(
            *(lambda d, u, l, w: (d, [b.copy() for b in u], w))(
                *_panel(160, 64, 24, 4, 99)
            ),
            version="G_V3",
        ),
        rounds=3,
        iterations=1,
    )
    # amortisation grows with batch width and helps at the largest batch
    assert rows[-1][3] > 1.0 or rows[-1][6] > 1.0
