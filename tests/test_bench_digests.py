"""Every benchmark operation prints the bytes it printed at the seed commit.

The benchmark gates each run's outputs against the per-kind digests in
``perfbench/baseline/digests.json``.  These tests load the benchmark's own
workload and harness modules from the checkout, read-only, run every
operation of each workload once for seed 1 (``build_grid`` also for seeds
2 and 3), and compare the digests, so a change to any printed byte fails
here as well as in the benchmark.  They
skip when the checkout has no benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("build_grid", "query_planes", "degen_joins")
SEED = 1
# build_grid prints every Chow form and Plucker form the benchmark checks,
# so two more of its seeds guard their content and sign on more curves.
MORE_GRID_SEEDS = (2, 3)


@pytest.fixture(scope="module")
def bench():
    if not (BENCH / "workloads.py").is_file() or not (BENCH / "harness.py").is_file():
        pytest.skip("no perfbench workloads in this checkout")
    # The benchmark's modules import each other by their bare names.
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import harness
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
    baseline = json.loads((BENCH / "baseline" / "digests.json").read_text(encoding="utf-8"))
    return harness, workloads, baseline


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_one_outputs_match_the_baseline_digests(bench, workload, tmp_path):
    harness, workloads, baseline = bench
    setup, _ = workloads.SETUPS[workload]
    prepared = setup(SEED, tmp_path)
    outputs = {op.key: op.call() for op in prepared.ops}
    assert harness.kind_digests(prepared.ops, outputs) == baseline[workload][str(SEED)]


@pytest.mark.parametrize("seed", MORE_GRID_SEEDS)
def test_build_grid_outputs_match_the_baseline_digests(bench, seed, tmp_path):
    harness, workloads, baseline = bench
    setup, _ = workloads.SETUPS["build_grid"]
    prepared = setup(seed, tmp_path)
    outputs = {op.key: op.call() for op in prepared.ops}
    assert harness.kind_digests(prepared.ops, outputs) == baseline["build_grid"][str(seed)]
