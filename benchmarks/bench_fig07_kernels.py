"""Fig. 7 — wall-clock performance of all 17 sparse kernel variants.

The paper sweeps the kernels over tens of thousands of sub-matrices and
plots execution time against nnz (panel kernels) or FLOPs (SSSSM),
showing that no variant dominates everywhere.  This bench runs the same
sweep at reduced scale — blocks cut from real symbolic fill across block
orders and densities — prints one series per variant, and asserts the
paper's headline observation: each kernel family has at least two
variants that are strictly best somewhere in the sweep.

Every variant is timed standalone here — the dense-mapped ones
(``IMAGE_VERSIONS``) build their own dense images, inversion of the
diagonal block included.  ``run_sweep(images=True)`` times them the way
the factorisation runs them instead: handed the images its panel cache
holds, whose one-off cost every task of an elimination step shares; that
is the sweep ``bench_fig08_selector.py`` fits the selector on.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import get_lapack_funcs

from common import banner
from repro.analysis import format_table
from repro.kernels import (
    GESSM_VARIANTS,
    GETRF_VARIANTS,
    SSSSM_VARIANTS,
    TSTRF_VARIANTS,
    KernelType,
    TaskFeatures,
    Workspace,
    gessm_flops,
    getrf_flops,
    ssssm_flops_structural,
    tstrf_flops,
)
from repro.kernels.base import (
    GETRF_SERIAL_ORDER,
    SERIAL_GEMM_WORK,
    box_image,
    triangle_inverse,
)
from repro.kernels.registry import IMAGE_VERSIONS
from repro.sparse import random_sparse
from repro.symbolic import symbolic_symmetric

WS = Workspace()
#: sweep points: random fill (densifies under factorisation — the dense
#: regimes) and banded matrices (stay sparse at any block order — the
#: regimes where the bin-search kernels win)
SWEEP = [
    ("random", 32, 0.02), ("random", 32, 0.1), ("random", 32, 0.3),
    ("random", 64, 0.02), ("random", 64, 0.08), ("random", 64, 0.25),
    ("random", 128, 0.01), ("random", 128, 0.05), ("random", 128, 0.15),
    ("random", 256, 0.01), ("random", 256, 0.04),
    ("random", 512, 0.06),  # large dense panels: the compiled regime
    # banded: block orders 52–256 around the default block sizes (47–104
    # on the repo benchmark's matrices), and 320–512 beyond them, where
    # the n³ of a dense image meets the nnz-proportional cost of the
    # sparse variants
    ("banded", 104, 2), ("banded", 208, 3), ("banded", 256, 2),
    ("banded", 320, 4), ("banded", 384, 3), ("banded", 512, 3),
    ("banded", 512, 8),
    ("banded", 640, 3), ("banded", 768, 3), ("banded", 768, 48),
    ("banded", 1024, 2), ("banded", 1024, 8), ("banded", 1024, 24),
    ("banded", 1024, 64),
]
#: the feature each family's Fig. 8 tree splits on
X_FEATURE = {"GETRF": "nnz_a", "GESSM": "nnz_b", "TSTRF": "nnz_b", "SSSSM": "flops"}


def _banded(n: int, band: int, seed: int = 1) -> "np.ndarray":
    rng = np.random.default_rng(seed + n + band)
    d = np.zeros((n, n))
    for k in range(-band, band + 1):
        idx = np.arange(max(0, -k), min(n, n - k))
        d[idx + k, idx] = rng.standard_normal(idx.size)
    d += np.eye(n) * (3 * band + 1)
    return d


def _blocks(kind: str, n: int, param: float, seed: int = 1):
    if kind == "random":
        a = random_sparse(n, param, seed=seed + n)
    else:
        from repro.sparse import CSCMatrix

        a = CSCMatrix.from_dense(_banded(n, int(param), seed))
    f = symbolic_symmetric(a).filled
    h = n // 2
    top, bot = np.arange(h), np.arange(h, n)
    return (
        f.extract_submatrix(top, range(h)),
        f.extract_submatrix(top, range(h, n)),
        f.extract_submatrix(bot, range(h)),
        f.extract_submatrix(bot, range(h, n)),
    )


def _time(fn, *operands, repeats: int = 2) -> float:
    best = np.inf
    for _ in range(repeats):
        fresh = [o.copy() for o in operands]
        t0 = time.perf_counter()
        fn(*fresh, WS)
        best = min(best, time.perf_counter() - t0)
    return best


def run_sweep(*, images: bool, repeats: int = 2):
    """Measure every variant on every sweep point.

    Returns ``{family: [(TaskFeatures, {variant: seconds})]}`` — the
    features as :func:`repro.core.numeric.task_features` would report
    them for the task.
    """
    out = {"GETRF": [], "GESSM": [], "TSTRF": [], "SSSSM": []}
    # the first threaded BLAS calls of a process stall for milliseconds
    # each while the pool's threads start; keep that out of the samples
    warm = np.ones((256, 256))
    for _ in range(64):
        warm @ warm

    def times(family, variants, target, call, handed):
        dense = IMAGE_VERSIONS.get(KernelType[family])
        return {
            v: _time(
                lambda blk, w: call(fn, blk, w, **(handed if v == dense else {})),
                target, repeats=repeats,
            )
            for v, fn in variants.items()
        }

    for kind, n, param in SWEEP:
        d, b, r, c = _blocks(kind, n, param)
        dfac = d.copy()
        GETRF_VARIANTS["G_V2"](dfac, WS)
        order = d.ncols
        out["GETRF"].append((
            TaskFeatures(nnz_a=d.nnz, flops=getrf_flops(d), n=order,
                         density=d.density),
            times("GETRF", GETRF_VARIANTS, d, lambda fn, blk, w: fn(blk, w), {}),
        ))
        out["GESSM"].append((
            TaskFeatures(nnz_a=d.nnz, nnz_b=b.nnz, flops=gessm_flops(d, b),
                         n=order, density=b.density),
            times("GESSM", GESSM_VARIANTS, b,
                  lambda fn, blk, w, **kw: fn(dfac, blk, w, **kw),
                  {"inv": triangle_inverse(dfac, lower=True)} if images else {}),
        ))
        out["TSTRF"].append((
            TaskFeatures(nnz_a=d.nnz, nnz_b=r.nnz, flops=tstrf_flops(d, r),
                         n=order, density=r.density),
            times("TSTRF", TSTRF_VARIANTS, r,
                  lambda fn, blk, w, **kw: fn(dfac, blk, w, **kw),
                  {"inv": triangle_inverse(dfac, lower=False)} if images else {}),
        ))
        out["SSSSM"].append((
            TaskFeatures(nnz_a=r.nnz, nnz_b=b.nnz,
                         flops=ssssm_flops_structural(r, b), n=order,
                         density=c.density),
            times("SSSSM", SSSSM_VARIANTS, c,
                  lambda fn, blk, w, **kw: fn(blk, r, b, w, **kw),
                  {"a_dense": box_image(r, 0), "b_dense": box_image(b, 1)}
                  if images else {}),
        ))
    return out


def test_fig07_kernel_sweep(benchmark):
    banner("Fig. 7 — kernel time vs nnz / FLOPs, all 17 variants")
    sweep = run_sweep(images=False)
    for family, samples in sweep.items():
        xlabel = "FLOPs" if family == "SSSSM" else "nnz"
        variants = list(samples[0][1])
        rows = []
        for feats, times in sorted(
            samples, key=lambda s: s[0].get(X_FEATURE[family])
        ):
            best = min(times, key=times.get)
            rows.append(
                [int(feats.get(X_FEATURE[family])), feats.n, feats.density]
                + [times[v] * 1e3 for v in variants] + [best]
            )
        print(f"\n{family} (times in ms):")
        print(format_table(
            [xlabel, "n", "density"] + variants + ["best"], rows,
            float_fmt="{:.3f}",
        ))
    benchmark.pedantic(
        lambda: _time(GETRF_VARIANTS["G_V1"], _blocks("random", 64, 0.05)[0]),
        rounds=3, iterations=1,
    )
    # the paper's point: no single variant wins everywhere
    for family, samples in sweep.items():
        winners = {min(t, key=t.get) for _, t in samples}
        print(f"{family}: fastest somewhere: {sorted(winners)}")
        assert len(winners) >= 2, f"{family}: one variant dominated the sweep"


def _cpu_per_wall(call, calls: int = 300) -> float:
    """Process CPU seconds per wall second over ``calls`` calls: ≈ 1 when
    BLAS keeps the work on the calling thread, ≈ the pool size when it
    threads it (the woken workers spin between calls)."""
    time.sleep(0.3)  # let the pool's workers spin down after earlier calls
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(calls):
        call()
    return (time.process_time() - cpu) / (time.perf_counter() - wall)


def _gemm_cpu_per_wall(m: int, n: int, k: int) -> float:
    a, b = np.ones((m, k)), np.ones((k, n))
    return _cpu_per_wall(lambda: a @ b)


def test_serial_gemm_work_is_below_the_blas_threading_threshold():
    """``serial_matmul`` relies on BLAS running a product of
    ``SERIAL_GEMM_WORK`` multiply-adds on the calling thread; a BLAS with
    a lower threshold fails here instead of silently threading every
    slab (``docs/trsm_threading.md``)."""
    banner("GEMM threading threshold of this BLAS vs SERIAL_GEMM_WORK")
    np.ones((4, 4)) @ np.ones((4, 4))  # start the pool
    k = 64
    n = SERIAL_GEMM_WORK // (k * k)
    at_limit = _gemm_cpu_per_wall(k, n, k)
    for factor in (1, 2, 4, 8):
        print(f"{k}×{factor * n}×{k} ({factor}× SERIAL_GEMM_WORK): "
              f"{_gemm_cpu_per_wall(k, factor * n, k):.2f} CPU s per wall s")
    assert at_limit < 1.3, at_limit


def test_getrf_serial_order_is_below_the_lapack_threading_threshold():
    """``dense_getrf`` calls LAPACK ``getrf`` only up to
    ``GETRF_SERIAL_ORDER``, trusting it to stay on the calling thread
    there; a LAPACK that threads smaller orders fails here instead of
    stalling every lane and rank (``docs/trsm_threading.md``)."""
    banner("getrf threading threshold of this LAPACK vs GETRF_SERIAL_ORDER")
    np.ones((4, 4)) @ np.ones((4, 4))  # start the pool
    rng = np.random.default_rng(0)

    def getrf_cpu_per_wall(n: int) -> float:
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        (getrf,) = get_lapack_funcs(("getrf",), (a,))
        return _cpu_per_wall(lambda: getrf(a))

    at_limit = getrf_cpu_per_wall(GETRF_SERIAL_ORDER)
    for n in (47, 104, GETRF_SERIAL_ORDER, 144, 176, 256):
        print(f"getrf, order {n}: {getrf_cpu_per_wall(n):.2f} CPU s per wall s")
    assert at_limit < 1.3, at_limit
