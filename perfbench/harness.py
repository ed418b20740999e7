"""Closed-loop measurement, statistics, determinism checks and provenance.

One client issues the workload's operations one after another; a pass is
one trip through them, forward on odd passes and backward on even ones, so
a partial last pass repeats the operations the previous pass ran last.  An
untimed warm-up pass comes first and gives each operation its first output.
The first timed pass always runs to the end, later passes stop at the first
operation that ends after the time budget.  Each operation is summarized by
the median of its latencies, and every latency metric is built from those
per-operation medians, so a partial last pass does not change the mix the
metrics describe.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional


class OpFailed(Exception):
    """An operation ended with a nonzero exit code."""


@dataclass(frozen=True)
class Op:
    key: str  # stable identity of the operation within its workload
    kind: str  # the end-to-end group it is timed under, e.g. "compute"
    call: Callable[[], str]  # runs the operation, returns its output text


def cli_op(key: str, kind: str, argv: list[str], extra_file: Optional[Path] = None) -> Op:
    """An operation that runs ``chow <argv>`` in-process and returns stdout.

    ``extra_file`` is a file the command writes; its bytes are appended to
    the output so they take part in the determinism check.
    """
    import chowforms.cli

    def call() -> str:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = chowforms.cli.main(argv)
        except SystemExit as exc:
            raise OpFailed(f"argument error {exc.code}: {err.getvalue()[-300:]}") from None
        if rc != 0:
            raise OpFailed(f"exit {rc}: {err.getvalue()[-300:]}")
        text = out.getvalue()
        if extra_file is not None:
            text += extra_file.read_text(encoding="utf-8")
        return text

    return Op(key, kind, call)


def cold_import(src: Path) -> None:
    """Start a fresh interpreter that imports the CLI, as every ``chow``
    command does; its time is part of each workload's set-up."""
    proc = subprocess.run(
        [sys.executable, "-c", "import chowforms.cli"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=src.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing chowforms.cli failed: {proc.stderr[-500:]}")


@dataclass
class Measurement:
    """Latencies and outputs of one timed loop over a workload's operations."""

    ops: list
    times: dict = field(default_factory=dict)  # key -> [seconds, ...], timed passes only
    scaled: dict = field(default_factory=dict)  # key -> [latency / probe time, ...]
    first_output: dict = field(default_factory=dict)  # key -> text of the warm-up call
    failures: dict = field(default_factory=dict)  # key -> [reason, ...]
    passes_started: int = 0
    passes_complete: int = 0

    def per_op_median(self, scaled: bool = False) -> dict:
        samples = self.scaled if scaled else self.times
        return {k: statistics.median(v) for k, v in samples.items() if v}

    def calls(self, key: str) -> int:
        """Calls of one operation, the warm-up call included."""
        return len(self.times[key]) + 1

    def call(self, op: Op) -> float:
        """Run ``op`` once, record its output or failure, return its latency."""
        t0 = time.perf_counter()
        try:
            out = op.call()
            reason = None
        except Exception as exc:  # every failure is counted, the loop goes on
            out = None
            reason = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if out is not None:
            first = self.first_output.setdefault(op.key, out)
            if out != first:
                reason = "output differs from the warm-up call"
        if reason is not None:
            self.failures.setdefault(op.key, []).append(reason)
        return dt


# A probe times a fixed pure-Python kernel (a product of two polynomials
# held as dicts of Fractions, the instruction mix of chowforms' polynomial
# arithmetic) and keeps the fastest of three runs.  On a shared host whole
# periods run markedly faster or slower; the probe slows down with the
# program, so a latency divided by the probe times taken during and around
# it is steady across periods.
_PROBE_POLY = {(i, j): Fraction(2 * i + 1, 3 * j + 2) for i in range(3) for j in range(4)}
PROBE_EVERY = 0.05  # seconds between probes


def probe() -> float:
    """Seconds of the fastest of three runs of the probe kernel."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        out: dict = {}
        for (a, b), c in _PROBE_POLY.items():
            for (e, f), g in _PROBE_POLY.items():
                k = (a + e, b + f)
                out[k] = out.get(k, 0) + c * g
        best = min(best, time.perf_counter() - t0)
    return best


class Prober:
    """Probes every PROBE_EVERY seconds from an interval timer.

    The timer also fires inside a long operation, so the probes cover the
    whole time it ran.  ``spent`` is the time the probes took; the caller
    takes it out of the latency of the operation they interrupted.
    """

    def __init__(self):
        self.values: list = []
        self.spent = 0.0
        self._busy = False
        self._old = None

    def tick(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.values.append(probe())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self.tick()
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def measure(ops: list, seconds: float, tracer=None) -> Measurement:
    m = Measurement(ops=ops, times={op.key: [] for op in ops}, scaled={op.key: [] for op in ops})
    for op in ops:
        if tracer is not None:
            tracer.op = op.key
        m.call(op)
    # No probes in a traced measurement: their Fractions would enter the
    # layer counts, and per-layer metrics are not scaled.
    if tracer is not None:
        _timed_passes(m, seconds, tracer, None)
        return m
    with Prober() as prober:
        _timed_passes(m, seconds, None, prober)
        prober.tick()
    return m


def _timed_passes(m: Measurement, seconds: float, tracer, prober) -> None:
    ops = m.ops
    # Calls not yet scaled: (key, latency, probes taken before it started,
    # probes taken by its end).
    pending: list = []

    def settle():
        # A call is scaled by the mean of the probes from the last one
        # before it started to the first one after it ended.
        values = prober.values
        while pending and pending[0][3] < len(values):
            key, dt, before, ended = pending.pop(0)
            m.scaled[key].append(dt / statistics.fmean(values[before - 1 : ended + 1]))

    deadline = time.perf_counter() + seconds
    while True:
        m.passes_started += 1
        if tracer is not None:
            tracer.begin_pass()
        order = ops if m.passes_started % 2 else ops[::-1]
        for op in order:
            if tracer is not None:
                tracer.op = op.key
            if prober is None:
                m.times[op.key].append(m.call(op))
            else:
                before, spent = len(prober.values), prober.spent
                dt = m.call(op) - (prober.spent - spent)
                m.times[op.key].append(dt)
                pending.append((op.key, dt, before, len(prober.values)))
                settle()
            if m.passes_started > 1 and op is not order[-1] and time.perf_counter() >= deadline:
                break
        else:
            m.passes_complete += 1
        if tracer is not None:
            tracer.end_pass(complete=m.passes_complete == m.passes_started)
        if time.perf_counter() >= deadline:
            if prober is not None:
                prober.tick()
                settle()
            return


def kind_digests(ops: list, outputs: dict) -> dict:
    """One digest per operation kind over the outputs of every op, in order."""
    acc: dict = {}
    for op in ops:
        h = acc.setdefault(op.kind, hashlib.sha256())
        h.update(op.key.encode() + b"\0" + outputs.get(op.key, "<missing>").encode() + b"\0")
    return {k: h.hexdigest()[:16] for k, h in acc.items()}


def end_to_end(m: Measurement, kinds: tuple) -> dict:
    """Latency metrics of one measurement, each with its sample count.

    Returns ``{name: (value, unit, samples)}``.  ``samples`` for the
    latency metrics is the number of distinct operations the statistic is
    taken over; the total number of timed calls is reported separately.
    Each operation counts with the median of its latencies.  The ``_ref``
    metrics take the latencies in probe units (see :func:`probe`): a
    ``ref`` is the time of one probe kernel run at the same moment, and a
    ``kref`` a thousand of them.
    """
    med = m.per_op_median()
    per_op = list(med.values())
    ref = list(m.per_op_median(scaled=True).values())
    n = len(per_op)
    out = {
        "ops_per_kref": (1000 * n / sum(ref), "1/kref", n),
        "op_geomean_ref": (math.exp(statistics.fmean(map(math.log, ref))), "ref", n),
        "op_p90_ref": (statistics.quantiles(ref, n=10, method="inclusive")[8], "ref", n),
        "ops_per_s": (n / sum(per_op), "1/s", n),
        "op_geomean_ms": (1000 * math.exp(statistics.fmean(map(math.log, per_op))), "ms", n),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms", n),
        "op_p90_ms": (1000 * statistics.quantiles(per_op, n=10, method="inclusive")[8], "ms", n),
    }
    for kind in kinds:
        keys = [op.key for op in m.ops if op.kind == kind]
        out[f"{kind}_s"] = (sum(med[k] for k in keys), "s", len(keys))
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


# -- provenance --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: Path, seed: int) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "workload_seed": seed,
    }
