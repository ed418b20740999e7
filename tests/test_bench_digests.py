"""Every benchmark operation prints the bytes it printed at the seed commit.

The benchmark gates each run's outputs against the per-kind digests in
``perfbench/baseline/digests.json``.  These tests load the benchmark's own
workload and harness modules from the checkout, read-only, run every
operation of each workload once for seed 1 (``build_grid`` also for seeds
2 and 3, ``degen_joins`` for seeds 2 to 10), and compare the digests, so a
change to any printed byte fails here as well as in the benchmark.  They
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
# Every degen_joins op reads a family p-form back from its Kronecker ints,
# and its pairs are drawn per seed, so the other nine seeds guard that
# read-back on more joins (about 0.1 s each).
MORE_JOIN_SEEDS = tuple(range(2, 11))


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


def run_digests(bench, workload, seed, tmp_path):
    harness, workloads, baseline = bench
    setup, _ = workloads.SETUPS[workload]
    prepared = setup(seed, tmp_path)
    outputs = {op.key: op.call() for op in prepared.ops}
    return harness.kind_digests(prepared.ops, outputs), baseline[workload][str(seed)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_one_outputs_match_the_baseline_digests(bench, workload, tmp_path):
    got, expected = run_digests(bench, workload, SEED, tmp_path)
    assert got == expected


@pytest.mark.parametrize("seed", MORE_GRID_SEEDS)
def test_build_grid_outputs_match_the_baseline_digests(bench, seed, tmp_path):
    got, expected = run_digests(bench, "build_grid", seed, tmp_path)
    assert got == expected


@pytest.mark.parametrize("seed", MORE_JOIN_SEEDS)
def test_degen_joins_outputs_match_the_baseline_digests(bench, seed, tmp_path):
    got, expected = run_digests(bench, "degen_joins", seed, tmp_path)
    assert got == expected
