"""Command-line front end.

Subcommands: compute, incident, check, degenerate, implicitize, plucker.
Curve files are JSON documents

    {"n": 2, "d": 2, "coeffs": [["1","0","0"], ["0","1","0"], ["0","0","1"]]}

with n+1 rows of d+1 exact rationals ("p", "p/q", or plain integers); row i
lists component f_i's coefficients of z0^(d-j) z1^j for j = 0..d.  Here
and in ``--plane`` a rational string is ASCII ``[+-]?[0-9]+(/[0-9]+)?``,
surrounding whitespace aside.

Exit codes: 0 success, 2 invalid input (a curve file that is not UTF-8 or
nests JSON too deeply included), 3 mathematical degeneracy (zero biform,
parametrization not birational), 4 internal cross-check failure
(including a failed internal postcondition, raised as RuntimeError).  Every
failure raised inside a command prints one ``error:`` line to stderr; only
``incident`` (DISAGREE), ``degenerate`` (FACTORS:no) and ``implicitize``
(not birational) report theirs on stdout instead.

``--plane X`` is read as ``--plane=X``, so a plane whose first entry is
negative needs no ``=``.  Output is deterministic: fixed term order and
fixed normalization.  ``--seed`` has no effect on any result; ``check`` and
``implicitize`` echo it in their JSON reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .chow import (
    CayleyBiform,
    NotBirational,
    bezout_pform,
    implicitize_plane_curve,
    incident,
    normalized_expansion,
    pform_scale,
    plucker_form,
    wedge_terms,
)
from .curves import CurveMap, Plane
from .degeneration import (
    family_orders,
    join_family,
    limit_pform,
    normalize_attachment,
    pform_factor_check,
)
from .oracle import check_curve, incident_oracle
from .polynomial import PackedTerms, format_terms, parse_rational
from .resultant import det_expand

__all__ = ["main", "entry"]


class InputError(Exception):
    """Invalid file, flag, or argument."""

    exit_code = 2


class DegenerateInput(Exception):
    """Mathematically degenerate input."""

    exit_code = 3


_ZERO_FAMILY = "family biform is identically zero"
_BASE_LOCUS = "zero Cayley biform (base locus)"


def _parse_rational(text, where: str) -> Fraction:
    """A JSON int, or a string in the grammar of
    :func:`~chowforms.polynomial.parse_rational`."""
    # ``type(x) is int``, not isinstance: JSON true/false load as bool, an int subclass
    if type(text) is int:
        return Fraction(text)
    try:
        return parse_rational(text)
    except ValueError:
        raise InputError(f"invalid rational {where}") from None


def load_curve(path: str) -> CurveMap:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    n, d, coeffs = doc.get("n"), doc.get("d"), doc.get("coeffs")
    if type(n) is not int or type(d) is not int or coeffs is None:
        raise InputError(f"{path}: need integer fields n, d and a coeffs array")
    if not isinstance(coeffs, list) or len(coeffs) != n + 1:
        raise InputError(f"{path}: coeffs must have {n + 1} rows")
    rows = []
    for i, row in enumerate(coeffs):
        if not isinstance(row, list) or len(row) != d + 1:
            raise InputError(f"{path}: row {i} must have {d + 1} entries")
        rows.append([_parse_rational(x, f"at row {i} col {j}") for j, x in enumerate(row)])
    try:
        return CurveMap.from_coeffs(rows)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def parse_plane(spec: str, n: int) -> Plane:
    halves = spec.split(";")
    if len(halves) != 2:
        raise InputError("plane must be 'u0,...,un;v0,...,vn'")
    covs = []
    for half in halves:
        parts = half.split(",")
        if len(parts) != n + 1:
            raise InputError(f"plane covectors must have {n + 1} entries")
        covs.append(tuple(_parse_rational(p, f"in plane spec {half!r}") for p in parts))
    try:
        return Plane(covs[0], covs[1])
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _terms_json(terms: PackedTerms, pad: str) -> str:
    """``json.dumps(..., indent=2)`` text of the list of
    ``{"coeff": str(c), "exps": [...]}`` objects of packed terms, in their
    order, placed at indentation ``pad``.  Written out directly: with an
    indent, ``json.dumps`` runs the pure-Python encoder, and a coefficient
    string (digits, "-" and "/") and the exponents need no escaping.  Each
    half of an exponent list is written once
    (:meth:`~chowforms.polynomial.PackedTerms.halves`); the first half ends
    in the separator, so an empty one (a ring of one variable) adds none."""
    if not terms:
        return "[]"
    inner = pad + "  "
    field = inner + "  "
    sep = ",\n" + field + "  "
    head = f'{inner}{{\n{field}"coeff": "'
    mid = f'",\n{field}"exps": [\n{field}  '
    tail = f"\n{field}]\n{inner}}}"

    def low(_, part):
        return mid + "".join([f"{e}{sep}" for e in part])

    def high(_, part):
        return sep.join(map(str, part)) + tail

    body = ",\n".join([f"{head}{c!s}{a}{b}" for a, b, c in terms.halves(low, high)])
    return f"[\n{body}\n{pad}]"


def _compute_json(n: int, d: int, terms: PackedTerms, rep) -> str:
    """The ``compute --json`` document of the biform ``terms`` on P^n of
    degree d, byte for byte ``json.dumps(doc, indent=2)``: the small header
    goes through ``json``, and the term lists are spliced in where their
    markers stand."""
    doc = {"n": n, "d": d, "variables": list(terms.names), "terms": "@biform"}
    if rep is not None:
        doc["plucker"] = {
            "variables": list(rep.poly.names),
            "canonical": rep.canonical,
            "terms": "@plucker",
        }
    text = json.dumps(doc, indent=2).replace('"@biform"', _terms_json(terms, "  "))
    if rep is not None:
        text = text.replace('"@plucker"', _terms_json(PackedTerms.of(rep.poly), "    "))
    return text


def _warn_if_degenerate(f: CurveMap) -> None:
    report = check_curve(f)
    if not report.base_free:
        print("warning: parametrization has a base point", file=sys.stderr)
    elif not report.birational:
        print(
            f"warning: map degree onto image is {report.map_degree}, not 1",
            file=sys.stderr,
        )


def _chow_terms(f: CurveMap) -> PackedTerms:
    """The normalized Chow biform of f, ``cayley_biform(f).normalized()``,
    as packed terms in output order, expanded from the Bezout p-form's
    determinant; a base point makes it zero (exit 3)."""
    terms = normalized_expansion(det_expand(bezout_pform(f.components)), f.n + 1)
    if not terms:
        raise DegenerateInput(_BASE_LOCUS)
    return terms


def _plucker_form(f: CurveMap):
    """The Plucker form of the normalized Chow form of f.  A base point
    exits 3 before the p_ij naming error of n > 9 exits 2."""
    try:
        rep = plucker_form(f)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if rep is None:
        raise DegenerateInput(_BASE_LOCUS)
    return rep


def cmd_compute(args) -> int:
    f = load_curve(args.curve)
    _warn_if_degenerate(f)
    # The biform printed with a Plucker form is that form's expansion: the
    # normalized biform, term for term.
    rep = _plucker_form(f) if args.plucker else None
    terms = _chow_terms(f) if rep is None else wedge_terms(rep.poly, f.n + 1)
    if args.json:
        print(_compute_json(f.n, f.d, terms, rep))
    else:
        print(f"biform n={f.n} d={f.d}\n{format_terms(terms)}")
        if rep is not None:
            _print_plucker(rep)
    return 0


def _print_plucker(rep) -> None:
    print(f"plucker canonical={'true' if rep.canonical else 'false'}")
    print(format_terms(rep.poly))


def cmd_incident(args) -> int:
    f = load_curve(args.curve)
    plane = parse_plane(args.plane, f.n)
    verdicts = {}
    if args.method in ("chow", "both"):
        verdicts["chow"] = incident(CayleyBiform._trusted(f.n, f.d, _chow_terms(f).mpoly()), plane)
    if args.method in ("oracle", "both"):
        try:
            verdicts["oracle"] = incident_oracle(f, plane)
        except ValueError as exc:
            raise DegenerateInput(str(exc)) from None
    if args.method == "both":
        print(f"chow: {_verdict(verdicts['chow'])}")
        print(f"oracle: {_verdict(verdicts['oracle'])}")
        if verdicts["chow"] == verdicts["oracle"]:
            print("AGREE")
            return 0
        print("DISAGREE")
        return 4
    print(_verdict(verdicts[args.method]))
    return 0


def _verdict(b: bool) -> str:
    return "INCIDENT" if b else "DISJOINT"


def cmd_check(args) -> int:
    f = load_curve(args.curve)
    report = check_curve(f)
    print(json.dumps(_report_doc(report, args.seed)))
    return 0


def _report_doc(report, seed: int) -> dict:
    return {
        "base_free": report.base_free,
        "map_degree": report.map_degree,
        "image_degree": report.image_degree,
        "in_U": report.birational,
        "seed": seed,
    }


def cmd_degenerate(args) -> int:
    f = load_curve(args.curve_f)
    g = load_curve(args.curve_g)
    # A reparametrization and a diagonal rescale keep base points and the
    # map degree, so the curves are checked as loaded, with their smaller
    # coefficients; after the move, whose input errors exit 2 first.
    loaded = (f, g)
    if args.normalize_attachment:
        try:
            f = normalize_attachment(f, at=(1, 0))
            g = normalize_attachment(g, at=(0, 1))
        except ValueError as exc:
            raise InputError(str(exc)) from None
    for curve in loaded:
        _warn_if_degenerate(curve)
    try:
        family = join_family(f, g)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    # The table lists every eps order, so only that path expands the whole
    # determinant; its limit is the lowest order, and its p-coefficient is
    # read off the same determinant.  Normalization removes the scale.
    d = family[0].degree
    if args.emit_eps_table:
        pform, orders = family_orders(family)
        if not orders:
            raise DegenerateInput(_ZERO_FAMILY)
        w = orders[min(orders)]
        _write_eps_table(args.emit_eps_table, family, orders)
    else:
        try:
            pform, w = limit_pform(family)
        except ValueError:
            raise DegenerateInput(_ZERO_FAMILY) from None
    # A base point in f or g already makes the family zero.  The check runs
    # on Plucker normal forms, so no component biform is built.
    try:
        factors, product = pform_factor_check(pform, [f, g])
    except ValueError:
        raise DegenerateInput(_BASE_LOCUS) from None
    # By Gauss's lemma the normalized expansion of the product is the product
    # of the normalized component Chow forms.  Where the factors check holds,
    # it equals the limit term for term and its text is written once.
    body = format_terms(w.normalized())
    print(f"limit n={f.n} d={d}\n{body}")
    if not factors:
        body = format_terms(normalized_expansion(product, f.n + 1))
    print(f"product n={f.n} d={d}\n{body}")
    print(f"FACTORS:{'yes' if factors else 'no'}")
    return 0 if factors else 4


def _write_eps_table(path: str, family, orders: dict) -> None:
    """One line per term of the family biform, orders ascending: the
    coefficient of eps^k is W_k / q for the integer orders W_k that
    :func:`~chowforms.degeneration.family_orders` reads off one expansion
    of the Kronecker-coded family determinant, and q =
    :func:`~chowforms.chow.pform_scale`.  Each quotient is written in
    lowest terms from one gcd, the text of ``str(Fraction(c, q))``.  Each
    order is written from its packed terms, in their order."""
    q = pform_scale(family)
    negate, q = q < 0, abs(q)
    lines = ["# eps_order\tmonomial\tcoeff"]
    for k, w in orders.items():
        for mono, c in w.monomials():
            mono = mono or "1"
            g = math.gcd(c, q)
            num = (-c if negate else c) // g
            coeff = num if g == q else f"{num}/{q // g}"
            lines.append(f"{k}\t{mono}\t{coeff}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def cmd_implicitize(args) -> int:
    f = load_curve(args.curve)
    if f.n != 2:
        raise InputError("implicitize needs a plane curve (n = 2)")
    try:
        poly = implicitize_plane_curve(f)
    except NotBirational as exc:
        print(json.dumps(_report_doc(exc.report, args.seed)))
        return 3
    print(format_terms(poly))
    return 0


def cmd_plucker(args) -> int:
    f = load_curve(args.curve)
    _warn_if_degenerate(f)
    _print_plucker(_plucker_form(f))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``chow`` argument parser, built once per process: parsing leaves
    no state in it, since every call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="chow",
        description="Exact Chow forms of rational curves: compute, test incidence, "
        "check parametrizations, implicitize, and degenerate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="print the normalized Chow biform of a curve")
    p.add_argument("curve")
    p.add_argument("--plucker", action="store_true", help="also print a Plucker rewrite")
    p.add_argument("--json", action="store_true", help="emit JSON instead of term lines")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("incident", help="test incidence with a codimension-2 plane")
    p.add_argument("curve")
    p.add_argument("--plane", required=True, help="'u0,...,un;v0,...,vn'")
    p.add_argument("--method", choices=["chow", "oracle", "both"], default="both")
    p.set_defaults(func=cmd_incident)

    p = sub.add_parser("check", help="base locus / map degree / image degree report")
    p.add_argument("curve")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("degenerate", help="join two curves and factor the limit biform")
    p.add_argument("curve_f")
    p.add_argument("curve_g")
    p.add_argument("--normalize-attachment", action="store_true")
    p.add_argument("--emit-eps-table", metavar="PATH")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("implicitize", help="implicit equation of a plane curve")
    p.add_argument("curve")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_implicitize)

    p = sub.add_parser("plucker", help="Plucker rewrite of the normalized biform")
    p.add_argument("curve")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_plucker)

    return parser


def _attach_plane_value(argv: list[str]) -> list[str]:
    """Each ``--plane X`` as ``--plane=X``.  argparse takes a token that
    starts with "-" for an option, so it would report the value of
    ``--plane -1,0,0;0,1,0`` as missing.  A trailing ``--plane`` is kept,
    and argparse rejects it."""
    out = list(argv)
    i = 0
    while i < len(out) - 1:
        if out[i] == "--plane":
            out[i : i + 2] = ["--plane=" + out[i + 1]]
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_plane_value(sys.argv[1:] if argv is None else argv))
    # Values of any size are read and printed: lift Python's 4300-digit cap
    # on int <-> str conversion while the command runs.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (InputError, DegenerateInput, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 4)
    finally:
        sys.set_int_max_str_digits(limit)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
