"""Collect the result files of a set of runs into a committed baseline.

Run from the root of a chowforms checkout after running the benchmark, for
example ten seeds per workload with ``--trace 0`` and one with ``--trace 1``:

    python3 perfbench/make_baseline.py perfbench/baseline/seed-commit.json

It reads ``.perfbench/results/*.json`` and writes the named summary (every
run's metrics, per-metric median and quartile spread, provenance) and
``perfbench/baseline/digests.json`` (the output digests per workload and
seed, which later runs with the same seed must reproduce byte for byte).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import run as bench


def summarize(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr_over_median"] = (q3 - q1) / med if med else None
    return out


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    results = sorted((bench.ROOT / ".perfbench" / "results").glob("*-trace[01].json"))
    if not results:
        print("no result files under .perfbench/results", file=sys.stderr)
        return 2
    runs: dict = {}
    digests: dict = {}
    for path in results:
        doc = json.loads(path.read_text(encoding="utf-8"))
        wl, seed = doc["workload"], doc["provenance"]["workload_seed"]
        runs.setdefault(wl, []).append(doc)
        digests.setdefault(wl, {})[str(seed)] = doc["digests"]
    summary: dict = {}
    for wl, docs in runs.items():
        plain = [d for d in docs if not d["trace"]]
        traced = [d for d in docs if d["trace"]]
        entry = {
            "runs": [
                {"seed": d["provenance"]["workload_seed"], "correct": d["failed"] == 0,
                 "attempted": d["attempted"], "failed": d["failed"], "passes": d["passes"],
                 "metrics": {k: m["value"] for k, m in d["end_to_end"].items()}}
                for d in plain
            ],
            "traced": [
                {"seed": d["provenance"]["workload_seed"],
                 "per_layer": {k: m["value"] for k, m in d["per_layer"].items()}}
                for d in traced
            ],
        }
        if plain:
            entry["summary"] = {
                k: summarize([d["end_to_end"][k]["value"] for d in plain]) | {"unit": m["unit"]}
                for k, m in plain[0]["end_to_end"].items()
            }
        summary[wl] = entry
    prov = dict(next(iter(runs.values()))[0]["provenance"])
    prov.pop("workload_seed")
    out = Path(argv[0])
    bench._write_json(out, {"provenance": prov, "workloads": summary})
    bench._write_json(bench.HERE / "baseline" / "digests.json", digests)
    print(f"wrote {out} and {bench.HERE / 'baseline' / 'digests.json'} from {len(results)} result files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
