"""Design ablation — static time-slice load balancing (Section 4.2).

Not a numbered paper figure, but one of the three design components the
paper credits for scalability ("a static block mapping scheme to balance
the load").  This bench quantifies it: simulated 16- and 64-process
makespans and FLOP-imbalance with and without the balancer, across the 16
matrices.
"""

from __future__ import annotations

from dataclasses import replace

from common import banner, bench_matrices, prepared_pangulu
from repro.analysis import format_table, geometric_mean
from repro.core import CyclicPlacement, ProcessGrid, balance_loads, load_imbalance
from repro.runtime import A100_PLATFORM, simulate_pangulu

#: A compute-bound variant of the A100 platform: devices 100× slower with
#: unchanged absolute latencies, i.e. every task 100× heavier *relative to
#: fixed overheads and messages* — the regime of the paper's full-size
#: matrices, where per-process work (which the balancer equalises) rather
#: than the dependency chain bounds the makespan.
_COMPUTE_BOUND = replace(
    A100_PLATFORM,
    gpu=replace(A100_PLATFORM.gpu, flops_peak=A100_PLATFORM.gpu.flops_peak / 100,
                mem_bw=A100_PLATFORM.gpu.mem_bw / 100,
                launch_overhead=A100_PLATFORM.gpu.launch_overhead / 100),
    cpu=replace(A100_PLATFORM.cpu, flops_peak=A100_PLATFORM.cpu.flops_peak / 100,
                mem_bw=A100_PLATFORM.cpu.mem_bw / 100,
                launch_overhead=A100_PLATFORM.cpu.launch_overhead / 100),
    intra_latency=A100_PLATFORM.intra_latency / 100,
    inter_latency=A100_PLATFORM.inter_latency / 100,
    intra_bandwidth=A100_PLATFORM.intra_bandwidth * 100,
    inter_bandwidth=A100_PLATFORM.inter_bandwidth * 100,
)


def _one(name: str, nprocs: int, platform) -> tuple[float, float, float, float]:
    pg = prepared_pangulu(name)
    placement = CyclicPlacement(ProcessGrid.square(nprocs))
    raw = placement.assign(pg.dag)
    balanced = balance_loads(pg.dag, placement, raw)
    imb_raw = load_imbalance(pg.dag, raw, nprocs)
    imb_bal = load_imbalance(pg.dag, balanced, nprocs)
    t_raw = simulate_pangulu(
        pg.blocks, pg.dag, platform, nprocs, assignment=raw
    ).result.makespan
    t_bal = simulate_pangulu(
        pg.blocks, pg.dag, platform, nprocs, assignment=balanced
    ).result.makespan
    return imb_raw, imb_bal, t_raw, t_bal


def test_ablation_static_load_balancing(benchmark):
    banner("Ablation — static time-slice load balancing (16 procs)")
    rows = []
    speed_small, speed_big = {}, {}
    for name in bench_matrices():
        imb_raw, imb_bal, t_raw, t_bal = _one(name, 16, A100_PLATFORM)
        _, _, tc_raw, tc_bal = _one(name, 16, _COMPUTE_BOUND)
        speed_small[name] = t_raw / t_bal
        speed_big[name] = tc_raw / tc_bal
        rows.append([name, imb_raw, imb_bal, t_raw / t_bal, tc_raw / tc_bal])
    print(format_table(
        ["matrix", "imbalance raw", "imbalance bal.",
         "speedup (latency-bound)", "speedup (compute-bound)"],
        rows,
        float_fmt="{:.3f}",
    ))
    gm_small = geometric_mean(list(speed_small.values()))
    gm_big = geometric_mean(list(speed_big.values()))
    print(f"\ngeomean balancing speedup: latency-bound {gm_small:.3f}x, "
          f"compute-bound {gm_big:.3f}x")
    print("(the balancer optimises FLOP weights; its makespan value "
          "appears once tasks are compute-bound, as at the paper's scale)")
    benchmark.pedantic(
        lambda: _one(bench_matrices()[0], 16, A100_PLATFORM),
        rounds=1, iterations=1,
    )
    # the balancer never increases the FLOP imbalance…
    for r in rows:
        assert r[2] <= r[1] + 1e-9, r[0]
    # …and pays off in the compute-bound regime it was designed for
    assert gm_big > gm_small
    assert gm_big > 0.98
