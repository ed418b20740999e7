"""Self-test of the benchmark on a tiny corpus.

Run from the root of a chowforms checkout:

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, emits exactly the
metrics BENCHMARK.json names with their units; that a deliberately
corrupted output is counted as failed instead of crashing the run; that an
output differing from an earlier run with the same seed is caught; and that
the benchmark refuses to run without the chowforms sources.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

TINY = {
    "build_grid": {"grid": ((2, 2), (2, 3), (3, 2)), "plucker": ((2, 2), (2, 3), (3, 2))},
    "query_planes": {"grid": ((2, 2), (3, 2)), "planes_per_curve": 6, "check_seeds": 1, "covers": ((2, 2),)},
    "degen_joins": {"pairs": (("lines_P2", (2, 1), (2, 1), False), ("line_conic_P3", (3, 1), (3, 2), True))},
}


def _bump_last_digit(text: str) -> str:
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


def _corrupt_first(kind_prefix: str, change):
    """An output rewriter that changes the first output whose key starts so."""
    hit = []

    def corrupt(outputs: dict) -> None:
        key = next(k for k in outputs if k.startswith(kind_prefix))
        outputs[key] = change(outputs[key])
        hit.append(key)

    return corrupt, hit


def main() -> int:
    bench._import_program()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    state = bench.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(state, ignore_errors=True)
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    try:
        for workload, kwargs in TINY.items():
            for traced in (0, 1):
                doc = bench.run(workload, 1, 0.01, bool(traced), setup_kwargs=kwargs, state=state,
                                record_digests=False)
                final = json.loads(bench.report(doc)[-1])
                units = {k: m["unit"] for k, m in final["metrics"].items()}
                expect(set(final) == {"correct", "attempted", "failed", "metrics"},
                       f"{workload} trace={traced}: result has exactly the contract keys")
                expect(units == want[traced], f"{workload} trace={traced}: every named metric with its unit")
                expect(all(isinstance(m["value"], (int, float)) for m in final["metrics"].values()),
                       f"{workload} trace={traced}: every metric value is a number")
                expect(final["correct"] and final["failed"] == 0 and final["attempted"] >= 1,
                       f"{workload} trace={traced}: clean run passes its gate ({doc['failures']})")

        cases = {
            "build_grid": _corrupt_first("plucker", _bump_last_digit),
            "query_planes": _corrupt_first("incident_chow", lambda t: "False" if t == "True" else "True"),
            "degen_joins": _corrupt_first("degenerate", _bump_last_digit),
        }
        for workload, (corrupt, hit) in cases.items():
            doc = bench.run(workload, 1, 0.01, False, setup_kwargs=TINY[workload], state=state,
                            record_digests=False, corrupt=corrupt)
            final = json.loads(bench.report(doc)[-1])
            expect(not final["correct"] and 0 < final["failed"] < final["attempted"] and hit[0] in doc["failures"],
                   f"{workload}: corrupted output of {hit[0]!r} counted in fail_ratio ({doc['fail_ratio']:.3g})")

        # Same seed twice; the second run's check output differs only in
        # formatting, which the gate accepts but the digest record must not.
        kwargs = TINY["query_planes"]
        bench.run("query_planes", 2, 0.01, False, setup_kwargs=kwargs, state=state)
        corrupt, hit = _corrupt_first("check", lambda t: t + " ")
        doc = bench.run("query_planes", 2, 0.01, False, setup_kwargs=kwargs, state=state, corrupt=corrupt)
        expect(doc["failed"] > 0 and "earlier run" in doc["failures"].get(hit[0], ""),
               "an output that differs from an earlier run with the same seed fails")

        bare = state / "bare"
        shutil.copytree(bench.HERE, bare / bench.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, str(Path(bench.HERE.name) / "run.py"), "--workload", "degen_joins",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without the chowforms sources it exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(state, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
