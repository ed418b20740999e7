"""Benchmark of the chowforms library and CLI.

Usage, from the root of a chowforms checkout:

    python3 perfbench/run.py --workload build_grid --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``build_grid``   ``chow compute --json``, ``chow plucker`` and, for plane
  curves, ``chow implicitize`` on one curve per (n, d) grid point;
* ``query_planes`` library ``incident`` and ``incident_oracle`` on 40
  planes per grid biform (biforms built in set-up), plus
  ``chow check`` over several seeds on the curves and on degree-2 covers;
* ``degen_joins``  ``chow degenerate --normalize-attachment`` on seeded
  pairs of curves, one pair also with ``--emit-eps-table``.

Each run is one process and one closed-loop client.  It sets up five times
(``setup_s`` is the median); a set-up starts a fresh interpreter that
imports ``chowforms.cli``, as every ``chow`` command does, then makes the
inputs.  After one untimed warm-up pass it measures for ``--seconds`` and
checks every output outside the timed region.  Latencies are also taken in
probe units, relative to a fixed kernel timed every 50 ms, inside long
operations too (see ``harness.Prober``), which keeps them steady while the
host's speed drifts; the bounded latency metrics use those units.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures once
untraced and once with per-layer wrappers installed, and prints the
per-layer metrics.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; a readable report and the provenance come before it, and the full
result is written under ``.perfbench/results/``.

Outputs must be byte-identical across passes, across the untraced and traced
measurements, and across runs with the same seed: digests are kept in
``.perfbench/digests.json`` and, for the seed commit, in
``perfbench/baseline/digests.json``.  Any difference fails the operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_kref", "1/kref"),
    ("op_geomean_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
)


def _import_program():
    """Import chowforms from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chowforms" / "__init__.py").is_file():
        raise ImportError(f"no chowforms sources under {src}")
    sys.path.insert(0, str(src))
    import chowforms

    if Path(chowforms.__file__).resolve().parent != src / "chowforms":
        raise ImportError(f"chowforms was imported from {chowforms.__file__}, not {src}")
    return chowforms


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def check_digests(workload: str, seed: int, digests: dict, state: Path, committed: bool) -> list:
    """Kinds whose outputs differ from an earlier run with the same seed.

    Earlier runs are those recorded under ``state`` and, when ``committed``
    is set (the full corpus), the committed seed-commit baseline.
    """
    key = str(seed)
    local_path = state / "digests.json"
    local = _load_json(local_path)
    known = [local]
    if committed:
        known.append(_load_json(HERE / "baseline" / "digests.json"))
    bad = []
    for record in known:
        seen = record.get(workload, {}).get(key)
        if seen:
            bad += [k for k, h in digests.items() if seen.get(k, h) != h and k not in bad]
    if key not in local.setdefault(workload, {}):
        local[workload][key] = digests
        _write_json(local_path, local)
    return bad


def run(workload: str, seed: int, seconds: float, traced: bool, *, setup_kwargs=None,
        state: Path = ROOT / ".perfbench", record_digests: bool = True, corrupt=None) -> dict:
    """One benchmark run; returns the full result document.

    ``setup_kwargs`` shrinks the corpus and ``corrupt`` rewrites one output
    before the gate; both exist for the self-test.
    """
    import harness
    import workloads

    setup, kinds = workloads.SETUPS[workload]
    workdir = state / f"work-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            harness.cold_import(ROOT / "src")
            prepared = setup(seed, workdir, **(setup_kwargs or {}))
            setup_times.append(time.perf_counter() - t0)
        ops = prepared.ops
        gc.collect()
        plain = harness.measure(ops, seconds)
        tracer = None
        measurements = [plain]
        if traced:
            import layers

            tracer = layers.Tracer()
            tracer.install()
            try:
                measurements.append(harness.measure(ops, seconds, tracer))
            finally:
                tracer.uninstall()
        rss = harness.peak_rss_mb()

        outputs = dict(plain.first_output)
        if corrupt is not None:
            corrupt(outputs)
        bad = dict(prepared.gate(outputs))
        for m in measurements[1:]:
            for k, out in m.first_output.items():
                if outputs.get(k) is not None and out != plain.first_output[k]:
                    bad.setdefault(k, "output changed when traced")
        digests = harness.kind_digests(ops, outputs)
        if record_digests:
            for kind in check_digests(workload, seed, digests, state, setup_kwargs is None):
                for op in ops:
                    if op.kind == kind:
                        bad.setdefault(op.key, f"{kind} output differs from an earlier run with seed {seed}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    reasons: dict = {}
    for op in ops:
        n = sum(m.calls(op.key) for m in measurements)
        f = sum(len(m.failures.get(op.key, ())) for m in measurements)
        if op.key in bad:
            f = n
            reasons[op.key] = bad[op.key]
        elif f:
            reasons[op.key] = next(m.failures[op.key][0] for m in measurements if op.key in m.failures)
        attempted += n
        failed += f

    e2e = harness.end_to_end(plain, kinds)
    e2e["setup_s"] = (sorted(setup_times)[len(setup_times) // 2], "s", len(setup_times))
    e2e["peak_rss_mb"] = (rss, "MB", 1)
    doc = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(traced),
        "provenance": harness.provenance(ROOT, seed),
        "passes": [{"started": m.passes_started, "complete": m.passes_complete} for m in measurements],
        "ops": len(ops),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": reasons,
        "notes": prepared.notes,
        "setup_times_s": setup_times,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "per_op_median_s": plain.per_op_median(),
        "per_op_median_ref": plain.per_op_median(scaled=True),
        "digests": digests,
    }
    if traced:
        values, used, repeat = layers.layer_metrics(tracer)
        overhead = sum(measurements[1].per_op_median().values()) / sum(plain.per_op_median().values())
        doc["per_layer"] = {
            name: {"value": values[name], "unit": unit, "samples": used,
                   "moves": f"{e2e_name} on {wl}"}
            for name, unit, _, _, _, e2e_name, wl in layers.LAYER_METRICS
        }
        doc["per_layer"]["trace_overhead_ratio"] = {"value": overhead, "unit": "ratio", "samples": len(ops)}
        for kind in (k for _, wl_kinds in workloads.SETUPS.values() for k in wl_kinds):
            v, _, n = e2e.get(f"{kind}_s", (0.0, "s", 0))
            doc["per_layer"][f"{kind}_s"] = {"value": v, "unit": "s", "samples": n}
        doc["counts_repeat_across_passes"] = repeat
        doc["spans"] = layers.all_spans(tracer)
    return doc


def report(doc: dict) -> list:
    """Readable lines, then the final JSON line the contract asks for."""
    lines = [
        f"chowforms benchmark: workload={doc['workload']} seed={doc['provenance']['workload_seed']} "
        f"seconds={doc['seconds']} trace={doc['trace']} ops/pass={doc['ops']} "
        f"passes={doc['passes']}"
    ]
    for name, m in doc["end_to_end"].items():
        what = "set-ups" if name == "setup_s" else "ops" if m["unit"] != "MB" else "reading"
        lines.append(f"  {name:<18} {m['value']:.6g} {m['unit']}  (n={m['samples']} {what})")
    lines.append(f"  {'fail_ratio':<18} {doc['fail_ratio']:.6g}  ({doc['failed']} of {doc['attempted']} calls failed, warm-up included)")
    if doc["trace"]:
        for name, m in doc["per_layer"].items():
            lines.append(f"  {name:<40} {m['value']:.6g} {m['unit']}")
        if not doc["counts_repeat_across_passes"]:
            lines.append("  note: a layer count differed between traced passes")
    for note in doc["notes"]:
        lines.append(f"  note: {note}")
    for key, why in list(doc["failures"].items())[:10]:
        lines.append(f"  FAILED {key}: {why}")
    prov = doc["provenance"]
    lines.append("  provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    if doc["trace"]:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in doc["per_layer"].items()}
    else:
        metrics = {k: {"value": doc["end_to_end"][k]["value"], "unit": u} for k, u in END_TO_END}
    lines.append(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["build_grid", "query_planes", "degen_joins"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = doc.pop("spans", None)
    results = ROOT / ".perfbench" / "results"
    _write_json(results / f"{name}.json", doc)
    if spans is not None:
        _write_json(results / f"{name}-spans.json", spans)
    print("\n".join(report(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
