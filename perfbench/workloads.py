"""The three workloads: their set-up, their operations and their gates.

Each ``setup_*`` function makes the workload's inputs from the seed (with
:mod:`corpus`, which never calls chowforms), writes the curve files the CLI
reads, and returns the operations of one pass plus a gate.  A gate takes the
first output of every operation and returns ``{op key: reason}`` for the
operations whose output is wrong; it runs outside the timed region and
checks outputs against references that do not rely on the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import chowforms

import corpus
from harness import Op, cli_op
from reference import (
    curve_point,
    expand_plucker,
    parse_term_lines,
    plucker_pairs,
    poly_eval,
    proportional,
    uv_names,
)

# Biforms cross-checked against sympy.resultant when sympy imports.
SYMPY_POINTS = ((2, 3), (3, 3))
GATE_PLANES = 4  # planes of each type (through a point, random) per biform
# build_grid runs ``chow plucker`` at these points only: at (4, 3) one
# rewrite takes about 5 s, longer than the rest of a pass together.
PLUCKER_POINTS = ((2, 3), (2, 4), (3, 3))
PLANES_PER_CURVE = 40
CHECK_SEEDS = 4
COVER_POINTS = ((2, 3), (3, 3))


@dataclass
class Prepared:
    ops: list
    gate: Callable[[dict], dict]
    notes: list  # lines for the report, e.g. a skipped reference check


def _write_curve(path: Path, rows) -> str:
    doc = {"n": len(rows) - 1, "d": len(rows[0]) - 1, "coeffs": [[str(c) for c in r] for r in rows]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _tag(nd) -> str:
    return f"n{nd[0]}d{nd[1]}"


def _run_check(fail: dict, key: str, check: Callable[[], None]) -> None:
    """Run one gate check; record any exception as the op's failure."""
    try:
        check()
    except Exception as exc:  # a malformed output must fail its op, not the run
        fail[key] = f"{type(exc).__name__}: {exc}"


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


# -- build_grid ---------------------------------------------------------------


def setup_build_grid(seed: int, workdir: Path, grid=corpus.GRID, plucker=PLUCKER_POINTS) -> Prepared:
    curves = corpus.grid_curves(seed, grid)
    ops = []
    for nd, rows in curves.items():
        path = _write_curve(workdir / f"{_tag(nd)}.json", rows)
        ops.append(cli_op(f"compute {_tag(nd)}", "compute", ["compute", path, "--json"]))
        if nd in plucker:
            ops.append(cli_op(f"plucker {_tag(nd)}", "plucker", ["plucker", path]))
        if nd[0] == 2:
            ops.append(cli_op(f"implicitize {_tag(nd)}", "implicitize", ["implicitize", path]))
    notes = []
    sympy = _import_sympy()
    if sympy is None:
        notes.append("sympy is not importable: the sympy.resultant cross-check was skipped")

    def gate(outputs: dict) -> dict:
        fail: dict = {}
        rng = random.Random(f"chowforms-gate-{seed}")
        for nd, rows in curves.items():
            n, d = nd
            tag = _tag(nd)
            biform: dict = {}

            def check_compute():
                doc = json.loads(outputs[f"compute {tag}"])
                _require((doc["n"], doc["d"]) == nd, "wrong (n, d)")
                _require(tuple(doc["variables"]) == uv_names(n), "wrong variables")
                for t in doc["terms"]:
                    exps = tuple(t["exps"])
                    _require(sum(exps[: n + 1]) == d and sum(exps[n + 1 :]) == d, "bidegree")
                    biform[exps] = _rational(t["coeff"])
                _require(bool(biform), "zero biform")
                f = chowforms.CurveMap.from_coeffs(rows)
                for _ in range(GATE_PLANES):
                    u, v = corpus.plane_through(rng, curve_point(rows, corpus.sample_param(rng)))
                    _require(poly_eval(biform, u + v) == 0, f"nonzero on incident plane {u};{v}")
                for _ in range(GATE_PLANES):
                    u, v = corpus.random_plane(rng, n)
                    oracle = chowforms.incident_oracle(f, chowforms.Plane(u, v))
                    _require((poly_eval(biform, u + v) == 0) == oracle, f"oracle disagrees at {u};{v}")
                if sympy is not None and nd in SYMPY_POINTS:
                    _require(proportional(biform, _sympy_chow(sympy, rows)), "differs from sympy.resultant")

            def check_plucker():
                lines = outputs[f"plucker {tag}"].splitlines()
                _require(lines[0] in ("plucker canonical=true", "plucker canonical=false"), "header")
                names = [f"p{i}{j}" for i, j in plucker_pairs(n)]
                ppoly = parse_term_lines(lines[1:], names)
                _require(bool(biform), "no compute biform to compare with")
                _require(expand_plucker(ppoly, n) == biform, "expansion differs from the biform")

            def check_implicitize():
                eq = parse_term_lines(outputs[f"implicitize {tag}"].splitlines(), ("x0", "x1", "x2"))
                _require(bool(eq) and all(sum(e) == d for e in eq), f"not a nonzero degree-{d} form")
                for _ in range(GATE_PLANES):
                    P = curve_point(rows, corpus.sample_param(rng))
                    _require(poly_eval(eq, P) == 0, f"does not vanish at {P}")

            _run_check(fail, f"compute {tag}", check_compute)
            if nd in plucker:
                _run_check(fail, f"plucker {tag}", check_plucker)
            if n == 2:
                _run_check(fail, f"implicitize {tag}", check_implicitize)
        return fail

    return Prepared(ops, gate, notes)


def _rational(text: str):
    q = Fraction(text)
    return q.numerator if q.denominator == 1 else q


def _import_sympy():
    try:
        import sympy
    except ImportError:
        return None
    return sympy


def _sympy_chow(sympy, rows) -> dict:
    """Resultant in z of sum u_i f_i(z, 1) and sum v_i f_i(z, 1), by sympy."""
    n, d = len(rows) - 1, len(rows[0]) - 1
    z = sympy.Symbol("z")
    us = sympy.symbols(f"u0:{n + 1}")
    vs = sympy.symbols(f"v0:{n + 1}")
    comps = [sum(int(c) * z ** (d - j) for j, c in enumerate(r)) for r in rows]
    h1 = sympy.Poly(sum(u * c for u, c in zip(us, comps)), z)
    h2 = sympy.Poly(sum(v * c for v, c in zip(vs, comps)), z)
    _require(h1.degree() == d and h2.degree() == d, "dehomogenized contraction lost degree")
    res = sympy.Poly(sympy.resultant(h1, h2), *us, *vs)
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in res.terms()}


# -- query_planes -------------------------------------------------------------


def setup_query_planes(
    seed: int,
    workdir: Path,
    grid=corpus.GRID,
    planes_per_curve: int = PLANES_PER_CURVE,
    check_seeds: int = CHECK_SEEDS,
    covers=COVER_POINTS,
) -> Prepared:
    curves = corpus.grid_curves(seed, grid)
    rng = random.Random(f"chowforms-planes-{seed}")
    ops = []
    through: list = []  # keys of ops on planes through a curve point
    pairs: list = []  # (chow key, oracle key) of ops on random planes
    for nd, rows in curves.items():
        f = chowforms.CurveMap.from_coeffs(rows)
        ca = chowforms.cayley_biform(f).normalized()
        for k, ((u, v), meets) in enumerate(corpus.incidence_planes(rng, rows, planes_per_curve)):
            plane = chowforms.Plane(u, v)
            chow_key = f"incident_chow {_tag(nd)} #{k}"
            oracle_key = f"incident_oracle {_tag(nd)} #{k}"
            ops.append(Op(chow_key, "incident_chow", _library_call("incident", ca, plane)))
            ops.append(Op(oracle_key, "incident_oracle", _library_call("incident_oracle", f, plane)))
            if meets:
                through += [chow_key, oracle_key]
            else:
                pairs.append((chow_key, oracle_key))
    targets = [(nd, rows, 1) for nd, rows in curves.items()]
    targets += [(nd, corpus.double_cover(curves[nd]), 2) for nd in covers if nd in curves]
    map_degree: dict = {}
    for nd, rows, degree in targets:
        name = _tag(nd) if degree == 1 else f"{_tag(nd)}-cover"
        path = _write_curve(workdir / f"{name}.json", rows)
        for s in range(check_seeds):
            key = f"check {name} seed{s}"
            ops.append(cli_op(key, "check", ["check", path, "--seed", str(s)]))
            map_degree[key] = (degree, nd[1], s)

    def gate(outputs: dict) -> dict:
        fail: dict = {}
        for key in through:
            if outputs.get(key) != "True":
                fail[key] = f"{outputs.get(key)} on a plane through a curve point"
        for chow_key, oracle_key in pairs:
            got, other = outputs.get(chow_key), outputs.get(oracle_key)
            if got not in ("True", "False") or got != other:
                fail[chow_key] = fail[oracle_key] = f"chow {got} but oracle {other}"
        for key, (degree, image_degree, s) in map_degree.items():

            def check_report():
                doc = json.loads(outputs[key])
                _require(doc["base_free"] is True, "base point reported")
                _require(doc["map_degree"] == degree, f"map_degree {doc['map_degree']} != {degree}")
                _require(doc["image_degree"] == image_degree, "wrong image degree")
                _require(doc["seed"] == s, "wrong seed echoed")

            _run_check(fail, key, check_report)
        return fail

    return Prepared(ops, gate, [])


def _library_call(name: str, *args) -> Callable[[], str]:
    """Call chowforms.<name> looked up at call time, so trace wrappers apply."""

    def call() -> str:
        return str(getattr(chowforms, name)(*args))

    return call


# -- degen_joins --------------------------------------------------------------


def setup_degen_joins(seed: int, workdir: Path, pairs=corpus.JOIN_PAIRS) -> Prepared:
    ops = []
    shapes: dict = {}
    tables: set = set()  # keys of ops that also write the eps table
    for label, f_rows, g_rows, emit in corpus.join_pairs(seed, pairs):
        pf = _write_curve(workdir / f"{label}-f.json", f_rows)
        pg = _write_curve(workdir / f"{label}-g.json", g_rows)
        argv = ["degenerate", pf, pg, "--normalize-attachment"]
        key = f"degenerate {label}"
        ops.append(cli_op(key, "degenerate", argv))
        shapes[key] = (len(f_rows) - 1, len(f_rows[0]) + len(g_rows[0]) - 2)
        if emit:
            table = workdir / f"{label}-eps.tsv"
            key = f"degenerate {label} eps-table"
            ops.append(cli_op(key, "degenerate", argv + ["--emit-eps-table", str(table)], table))
            shapes[key] = shapes[f"degenerate {label}"]
            tables.add(key)

    def gate(outputs: dict) -> dict:
        fail: dict = {}
        for key, (n, d) in shapes.items():

            def check_degenerate():
                text = outputs[key]
                lines = text.splitlines()
                cut = next(i for i, line in enumerate(lines) if line.startswith("product "))
                end = lines.index("FACTORS:yes")
                _require(lines[0] == f"limit n={n} d={d}", "limit header")
                _require(lines[cut] == f"product n={n} d={d}", "product header")
                limit, product = lines[1:cut], lines[cut + 1 : end]
                _require(bool(limit) and limit == product, "limit lines differ from product lines")
                if key in tables:
                    _check_eps_table(lines[end + 1 :], parse_term_lines(limit, uv_names(n)), n)

            _run_check(fail, key, check_degenerate)
        return fail

    return Prepared(ops, gate, [])


def _check_eps_table(rows: list, limit: dict, n: int) -> None:
    """The table lists every eps order; its lowest order is the limit."""
    _require(rows and rows[0].startswith("# eps_order"), "eps table header")
    orders: dict = {}
    for row in rows[1:]:
        k, mono, coeff = row.split("\t")
        line = f"{coeff} * {mono}" if mono != "1" else coeff
        orders.setdefault(int(k), []).append(line)
    _require(len(orders) >= 2, "eps table holds a single order")
    lowest = parse_term_lines(orders[min(orders)], uv_names(n))
    _require(proportional(lowest, limit), "lowest eps order is not the limit")


SETUPS = {
    "build_grid": (setup_build_grid, ("compute", "plucker", "implicitize")),
    "query_planes": (setup_query_planes, ("incident_chow", "incident_oracle", "check")),
    "degen_joins": (setup_degen_joins, ("degenerate",)),
}
