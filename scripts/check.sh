#!/bin/sh
# Repo-wide check: project lint (always) + ruff (when available) + the
# size numbers ROADMAP tracks (code lines of core/ + runtime/, of
# src/repro/kernels, of all of src/repro, and option fields are ratchets)
# + one smoke-scale setup profile + the tier-1 test suite + the benchmark
# harness's own tests.
# This is what CI and `make check` run; keep it in sync with ROADMAP.md.
set -eu

cd "$(dirname "$0")/.."

echo "== repro.devtools.lint (all 5 rules, one module at a time) =="
PYTHONPATH=src python -m repro.devtools.lint src

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping generic lint =="
fi

# ratchets like the option-field count below: a PR that grows the code
# under PATH... past CEILING must raise the ceiling here and say why; one
# that shrinks it lowers the ceiling in the same commit
line_ratchet() {  # line_ratchet LABEL CEILING PATH...
    label=$1 ceiling=$2
    shift 2
    echo "== $label code lines (ceiling $ceiling) =="
    counted=$(python scripts/count_code_lines.py "$@")
    echo "$counted"
    if [ "$(echo "$counted" | awk 'END {print $1}')" -gt "$ceiling" ]; then
        echo "$label code lines exceed $ceiling — growth needs a reason and a raised ceiling in scripts/check.sh" >&2
        exit 1
    fi
}
# ROADMAP: net negative in core/ + runtime/ is a success metric
# PR 24 raised it by 91 (4 181 -> 4 272): resolving slots, features and
# kernel choices once per DAG in array form (core/dag.py TaskTable +21,
# BlockMatrix.slots_of / slot_structure / block_at +23, FactorJob's
# resolution and the task-naming SingularBlockError +54, scheduler.py and
# distributed.py +8) costs more than the per-access walks, the numpy
# decrement and task_weights' loop it replaced gave back; costmodel /
# adapters / mapping shrank by 15
# then -30: the overlay (not a per-task re-selection) decides the Schur update
# then -32: options nobody set are constants, preprocess builds no task map
# nothing runs, simulated_trees is gone, the pool takes no silent clamps
# then -35: the opt-in race checker's hooks, claims and validate plumbing
# then -56: the simulation-only Chrome exporter, the loose solve DAG and its guards
# then -6: build_dag's ssssm_into and wiring pass, folded into core.dag.EliminationBuilder
# then -4: +6 for the block-size rule's dense regime and its record field, -10
# for choose_block_size's debug log of a clamp (BlockSizeDecision records it)
# then -32: the solve DAG's redundant edges and seq_y/seq_x, the rank solve job's write-sequence guard
# then +4: PanelCache counts the bytes of a (pos, dense) box image as well as of an inverse
# then +13: +18 for MultiprocessingTransport.get_result's sliced wait (a rank that
# exits without a result fails the run at once, naming its exit code), -5 for the
# __transport_message__ markers that only the removed picklable-messages rule read
# then -35: the solve is one task per segment per sweep (plus LSUM tasks on ranks):
# the update tasks, writer chains, seeds, their verifier and the solve's write slots went
# then +9: core.solver.order_by_fill, phase 1's keep-the-input-order rule (the profile
# and the cap live in symbolic/); the transport's sender-side pickling is net 0
# then +226: resident ranks — runtime/distributed.py +144 (RankPool: open, ship a DAG
# once per key, one command round, gather/close/discard, teardown that remembers lost
# factors, a finaliser that only the master fires; the rank's command loop and its
# kept share, against the one-shot _run_ranks it replaces), transports.py +50 (a command channel per rank, the
# orphan check of an idle rank, a restartable loopback whose endpoints keep their
# start's channels, FaultPlan.from_command), core/solver.py +31 (the handle's
# close/with/pickling lifecycle, the pool it hands the engines, and blocks properties
# that gather on read, so no reader sees unfactored values), +1 export
# then +77: accumulated target images — core/numeric.py +76 (PanelCache opens a
# target's image, closes it on the panel task, publishes the solved panel or the
# factored block's two inverses, writes an open image back as the one coherence
# rule, drains at the run's end; FactorJob resolves each task's image layout and
# which images its dense-mapped readers take), runtime/lanes.py +2 (job.finish
# runs after a failed run too), runtime/distributed.py -1 (a send writes back first)
# then -154: core/verify.py (-182) and verify_schedule with its call sites in
# core/solver.py (-9) went after the keep test in docs/devtools.md; core/solver.py
# +15 (RefinementStalled carries the replaced-pivot count, and factors with
# replaced pivots are approximate, so they escalate and raise);
# runtime/distributed.py +15 (_assignment: a task map that puts a task off its
# block's rank or outside the pool is refused by name); runtime/lanes.py +7
# (pooled in-process lanes name a deadlock instead of waiting forever)
# then -17: one writer per block by the DAG — core/dag.py -2 (EliminationBuilder
# keeps one last-writer dict, no per-block update lists), runtime/lanes.py -9
# (no per-slot write locks, no writing() claim; a rank counts the messages it is
# due and names a deadlock once they are in), core/numeric.py -3 and
# core/tsolve.py -3 (no n_slots / write_slots in the job protocol)
# then -2: kept diagonal inverses — core/blocking.py +12 (BlockMatrix.inverses,
# diag_inverse trusting a kept inverse only while its block holds the values it
# was made from, keep_inverse), core/memory.py +3 (their bytes), core/numeric.py
# -4 (PanelCache reads the kept inverse, publishes no triangle keys), core/solver.py
# -2 (no exact flag), core/tsolve.py -1 (one prod_stack per task), core/tsolve_dag.py
# -10 (the array-built solve DAG, the diagonal flops counted per block)
# then +5: core/blocking.py keeps the keys layer 1 determines (the slot
# index, blk_colidx, the slot keys, the slot structure) as cached
# properties of BlockMatrix, built once per structure, shared with
# restricted() copies and left out of pickles, where FactorJob rebuilt
# them 13 times per factorisation; the slot index's field, its
# per-column loop and its pickling line went with it
# then -31: one image per block — core/numeric.py -29 (PanelCache keeps one
# table and one byte ledger: the open-image table, its ledger, _close,
# _operand, the publish re-wrap, the updates/write_backs counters and
# FactorJob's published set went; a panel keeps its image while an image
# reader is due; the drain writes back only what the job's share owns),
# runtime/distributed.py -2 (a send writes nothing back)
MAX_CORE_RUNTIME_LINES=4172
line_ratchet "core + runtime" "$MAX_CORE_RUNTIME_LINES" src/repro/core src/repro/runtime
# the whole package too, so code deleted from core/ + runtime/ cannot
# quietly reappear in a sibling package
# PR 24: +115 = the 91 above, the 18 below, +4 in cholesky/ (LLtJob's
# own coordinate rule), +2 in devtools/ (the `_counts` protocol attribute)
# then -183 = -30 above, -91 kernels/, -20 sparse/ (BlockRep), -42 devtools/ (no-dense-roundtrip)
# then -80 = -32 above, -48 in sparse/, symbolic/, baseline/, cholesky/
# (dead pattern/etree helpers, three never-set BaselineOptions fields)
# then -15 in ordering/ and sparse/: no CSCMatrix round trip per AMD call,
# no element_size, no minimum_degree (a test oracle now), no adjacency_lists;
# one BFS (induced_subgraph + level_structure) for ND, bfs_levels and RCM
# then -174: devtools/racecheck.py, its exports, --check and the -35 above
# then +6: the kernels/ +6 below
# then -193: the devtools/ -193 below
# then -62: the -56 above, -2 in analysis/ (Gantt of a recorder), -4 in the CLI
# then -83: the -6 above, -66 in baseline/ (SupernodalDAG's flat fields, its wiring pass, sn_etree_levels), -11 in cholesky/ (build_llt_dag's writers copy)
# then -2: the -4 above, +2 in cholesky/ (the order keyed on LU's filled count)
# then -31: the -32 above, +1 in cholesky/ (CholeskyOptions refuses block_size below 1)
# then +26: the +4 above, the kernels/ +21 below, +1 in cholesky/ (SYRK's transposed row image)
# then -854: the devtools/ -865 below, the +13 above, -2 in sparse/ (the markers)
# then -39: the -35 above, the kernels/ -2 below, -2 in cholesky/ (its solve calls the one gather)
# then +50: the +9 above, +27 in symbolic/ (envelope_profile, the capped sweep and
# their exports), +9 in analysis/ (describe_ordering), +5 in the CLI, baseline/ and
# cholesky/ (recording the order phase 1 kept)
# then -431: the devtools/ -429 below, -2 in sparse/ (CSCMatrix.col_nnz, never called)
# then -1 in ordering/: ND numbers each separator in ascending order (no AMD call on it)
# then +22: +16 in ordering/ (ND orders each leaf by exact minimum degree on
# bitsets), +6 in sparse/ (CSCMatrix's products call SciPy's compiled kernels)
# then -2: -4 in sparse/ (the transpose, the symmetrisation and permute's row
# re-sort are SciPy's compiled passes behind transpose_arrays; extract_submatrix
# is one gather of its columns' ranges, not a per-column loop), +2 in symbolic/
# (the column sweep merges a single child's tail by searchsorted, a slice when
# the column adds nothing to it)
# then +197: the +226 above, -29 in symbolic/ (postorder is a test oracle now;
# entry_positions is one csr_plus_csr marker merge)
# then +131: the +77 above, the kernels/ +52 and devtools/ +1 below, +1 in
# cholesky/ (LLtJob resolves no published images)
# then -164: the -154 above, -9 in the CLI (--verify), the devtools/ -1 below
# then -16: the -17 above, +1 in baseline/ (its steps are created in level order)
# then -4: the -2 above, the kernels/ -2 below
# then +30: +27 in ordering/ — nd.py +30 (ND orders all its leaves in one
# batched uint64-bitset elimination, not one Python-int loop per leaf, and
# the recursion keeps each leaf's output slot for it), rcm.py -3 (the
# compiled traversal runs on int32 arrays with no sparse-matrix object,
# the level bounds come off its predecessors) — the +5 above, the
# devtools/ -2 below
# then -36: one image per block — the -31 above, the kernels/ -4 below, -1 in
# cholesky/ (LLtJob reads TargetImages from the one table)
MAX_SRC_LINES=8978
line_ratchet "src/repro" "$MAX_SRC_LINES" src/repro

# the static-analysis framework: one catalogue, one driver
# 2 202 -> 2 009 when the flow passes became rules of the one lint
# catalogue (their driver, --flow, the SARIF/baseline reporter and the
# duplicated guarded-by, send-payload and allocator helpers went)
# 2 009 -> 1 144 when every rule took a keep test (docs/devtools.md): the
# suppression layer and unused-noqa, lock-order's call-graph fixpoint (now
# lock-discipline's leaf check), counter-protocol's raw-store half and the
# rules tier-1 or a run-time guard already catches went
# 1 144 -> 715 when dtype-flow took its keep test and could not see its seeds:
# it went with the whole-program layer only it used (flow/, Project, ProjectRule)
# 715 -> 716: kernel-purity names the kernel's own target image writable, like ws
# 716 -> 715: kernel-purity's aliasing follows either arm of a conditional
# expression (the one-root-per-name map became a set of roots)
# 715 -> 713: a prod_* kernel writes no parameter (its output index is
# None), and the empty-parameter early return folded into the index check
MAX_DEVTOOLS_LINES=713
line_ratchet "src/repro/devtools" "$MAX_DEVTOOLS_LINES" src/repro/devtools

# the kernels are paper-fidelity code mostly off the benchmark's path
# (every panel task runs C_V2): what they cost is their size
# PR 24: +18 = DecisionTree.select_many and TaskFeatures.column, the
# array evaluation the numeric job selects whole families with
# then -91: the registry is Table 1's 17 variants (no COMPRESS family, LR entries or LR features)
# then +6: dense_getrf calls LAPACK getrf first (+8: GETRF_SERIAL_ORDER,
# the call and its acceptance test), the GETRF tree splits at that order
# (+1, the import), GESSM and TSTRF share one tree (-3)
# then +21: the dense-mapped GEMMs multiply the occupied box (box_image and
# BOX_OCCUPANCY +17 with their exports, box_index +2 — the padded SSSSM
# multiply-adds of the 2-D grid workload fall to 4 %), and upd_seg's (n, k)
# panel is one product on that image (+5), not a scatter over (nnz, k)
# operands; ssssm_c_v1 -2, Workspace's "b" buffer (its only user was C_V1) -1
# then -2: upd_seg's in-place scatter became prod_seg, one block's product
# then +52: the dense-mapped variants work on their target's accumulated image
# when handed one (base.py +23: TargetImage and box_held; ssssm_c_v1 +12, the
# in-place subtract on the operands' rows x columns; gessm/tstrf C_V2 and
# getrf C_V1 +5 each; registry.py +2, TARGET_IMAGE_VERSIONS)
# then -2: kept diagonal inverses — base.py +17 (invert_factors and
# inverse_triangle replace dense_triangle_inverse, Workspace.triangle, locate:
# the bin-search addressing of the kernels and plans, once), tsolve_kernels.py +8
# (prod_stack: a task's block products in one call, prod_seg folded in), gessm.py
# +5 / tstrf.py -15 (the two dense-mapped panel solves are one panel_inverse),
# ssssm.py -9 and plans.py -8 (their bin-search loops call locate)
# then -4: one image per block — base.py +8 (TargetImage holds its rows or
# columns and its bytes and reads as the (pos, dense, held) operand, box_held
# folded into it; inverse_triangle is a masked copy into an identity, the
# mask cached per order, and Workspace.triangle that call on its kept
# buffer), gessm.py -6 and getrf.py -6 (the uncached dense-mapped panel
# solve and GETRF work on a TargetImage of their own)
MAX_KERNELS_LINES=1284
line_ratchet "src/repro/kernels" "$MAX_KERNELS_LINES" src/repro/kernels

# a ratchet, not a report: a PR that adds a knob fails here; one that
# removes a knob lowers the ceiling in the same commit
# 22 -> 18: use_mc64, rank_speeds, refine_tol and refine_max_iter were
# set by no workload, benchmark, example or CLI flag — now constants
# 18 -> 17: validate_concurrency — SchedulerCore checks every run itself
# 17 -> 16: verify_schedule — the schedule verifier's checks were caught by
# tier-1 or stayed always on (docs/devtools.md)
MAX_OPTION_FIELDS=16
echo "== option fields: SolverOptions + NumericOptions (ROADMAP: fewer knobs; ceiling $MAX_OPTION_FIELDS) =="
PYTHONPATH=src python -c "
import sys
from dataclasses import fields
from repro import SolverOptions
from repro.core.numeric import NumericOptions
n = len(fields(SolverOptions)) + len(fields(NumericOptions))
print(f'{n:6d}  option fields')
sys.exit(f'option fields: {n} > $MAX_OPTION_FIELDS — a new knob needs a reason and a raised ceiling in scripts/check.sh' if n > $MAX_OPTION_FIELDS else 0)"

# informational, no threshold: tier-1 stays timing-free
echo "== setup profile at smoke scale (make profile-setup) =="
python scripts/profile_setup.py cage12 --scale 0.17 --top 8

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

# tier-1 does not collect benchmarks/e2e/test_harness.py, the only guard
# on the surface the frozen benchmark harness patches and reads
echo "== benchmark harness self-test =="
make bench-e2e-selftest
