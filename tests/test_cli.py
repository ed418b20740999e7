import contextlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chowforms import CurveMap, cayley_biform, det_expand, implicitize_plane_curve, plucker_rewrite
from chowforms.chow import bezout_pform, wedge_expand
from chowforms.cli import load_curve, main, parse_plane
from chowforms.polynomial import format_terms
from helpers import reference_compute_json

CONIC = {"n": 2, "d": 2, "coeffs": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
LINE = {"n": 2, "d": 1, "coeffs": [["1", "0"], ["0", "1"], ["0", "0"]]}
DOUBLE = {"n": 2, "d": 2, "coeffs": [["1", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]]}
BASED = {"n": 2, "d": 2, "coeffs": [["1", "0", "0"], ["0", "1", "0"], ["0", "1", "0"]]}
LINE_F = {"n": 2, "d": 1, "coeffs": [["1", "0"], ["1", "0"], ["1", "1"]]}
LINE_G = {"n": 2, "d": 1, "coeffs": [["0", "1"], ["1", "1"], ["0", "1"]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_line(tmp_path, capsys):
    path = write(tmp_path, "line.json", LINE)
    code, out, _ = run(capsys, ["compute", path])
    assert code == 0
    assert out == "biform n=2 d=1\n+1 * u0^1 v1^1\n-1 * u1^1 v0^1\n"


def test_compute_conic_with_plucker(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    code, out, _ = run(capsys, ["compute", path, "--plucker"])
    assert code == 0
    assert "biform n=2 d=2" in out
    assert "+1 * u0^2 v2^2" in out
    assert "plucker canonical=true" in out
    assert "+1 * p02^2" in out and "-1 * p01^1 p12^1" in out


def test_compute_deterministic(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    _, first, _ = run(capsys, ["compute", path, "--plucker"])
    _, second, _ = run(capsys, ["compute", path, "--plucker"])
    assert first == second


def test_compute_round_trip(tmp_path, capsys):
    from chowforms import parse_terms, uv_names, content_primitive

    path = write(tmp_path, "conic.json", CONIC)
    _, out, _ = run(capsys, ["compute", path])
    lines = out.splitlines()
    assert lines[0] == "biform n=2 d=2"
    poly = parse_terms("\n".join(lines[1:]), uv_names(2))
    _, renorm = content_primitive(poly)
    assert renorm == poly


def test_compute_json(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    code, out, _ = run(capsys, ["compute", path, "--json", "--plucker"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["d"] == 2
    assert doc["variables"] == ["u0", "u1", "u2", "v0", "v1", "v2"]
    assert {"coeff": "1", "exps": [2, 0, 0, 0, 0, 2]} in doc["terms"]
    assert doc["plucker"]["canonical"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["compute"],
        ["plucker"],
        ["incident", "--method", "chow", "--plane", "1,0,0;0,1,0"],
        ["compute", "--plucker"],
    ],
    ids=["compute", "plucker", "incident", "compute-plucker"],
)
def test_compute_zero_biform_exits_3(tmp_path, capsys, argv):
    # Every command that builds the Chow form of a base-pointed curve exits
    # 3 with the same error line.
    path = write(tmp_path, "based.json", BASED)
    code, out, err = run(capsys, [argv[0], path] + argv[1:])
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == "error: zero Cayley biform (base locus)"


def test_compute_warns_on_cover(tmp_path, capsys):
    path = write(tmp_path, "double.json", DOUBLE)
    code, _, err = run(capsys, ["compute", path])
    assert code == 0
    assert "warning" in err and "not 1" in err


def test_malformed_rational(tmp_path, capsys):
    bad = dict(CONIC, coeffs=[["1", "1/0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    path = write(tmp_path, "bad.json", bad)
    code, _, err = run(capsys, ["compute", path])
    assert code == 2
    assert "invalid rational at row 0 col 1" in err


def test_parse_error_reports_position(tmp_path, capsys):
    path = write(tmp_path, "broken.json", "{\n  \"n\": 2,,\n}")
    code, _, err = run(capsys, ["compute", path])
    assert code == 2
    assert "line 2" in err


def test_one_row_curve_file_exits_2(tmp_path, capsys):
    path = write(tmp_path, "point.json", {"n": 0, "d": 1, "coeffs": [["1", "0"]]})
    code, out, err = run(capsys, ["compute", path])
    assert (code, out) == (2, "")
    assert err == f"error: {path}: need at least two forms\n"


UNDECODABLE = [
    # UTF-16 byte-order mark: not UTF-8 at the first byte.
    (b'\xff\xfe{"n":2}', "not UTF-8 text"),
    # Deeper than json's recursion limit: json.loads raises RecursionError.
    (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
]
CURVE_COMMANDS = [
    ["compute", "@"],
    ["incident", "@", "--plane", "1,0,0;0,1,0"],
    ["check", "@"],
    ["implicitize", "@"],
    ["plucker", "@"],
    ["degenerate", "@", "good.json"],
    ["degenerate", "good.json", "@"],
]


@pytest.mark.parametrize("data, message", UNDECODABLE, ids=["not-utf8", "nested"])
@pytest.mark.parametrize(
    "argv",
    CURVE_COMMANDS,
    ids=["compute", "incident", "check", "implicitize", "plucker", "degenerate-f", "degenerate-g"],
)
def test_undecodable_curve_file_exits_2(tmp_path, capsys, data, message, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    good = write(tmp_path, "good.json", LINE_F)
    paths = {"@": str(bad), "good.json": good}
    code, out, err = run(capsys, [paths.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: {message}\n"


def test_wrong_shape_rejected(tmp_path, capsys):
    bad = dict(CONIC, coeffs=[["1", "0"], ["0", "1"], ["0", "0"]])
    path = write(tmp_path, "bad.json", bad)
    code, _, err = run(capsys, ["compute", path])
    assert code == 2
    assert "row 0" in err


def test_incident_both_agree(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    code, out, _ = run(capsys, ["incident", path, "--plane", "0,1,0;0,0,1"])
    assert code == 0
    assert out == "chow: INCIDENT\noracle: INCIDENT\nAGREE\n"
    code, out, _ = run(capsys, ["incident", path, "--plane", "0,1,0;1,0,-1"])
    assert code == 0
    assert out == "chow: DISJOINT\noracle: DISJOINT\nAGREE\n"


def test_incident_single_methods(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    code, out, _ = run(capsys, ["incident", path, "--plane", "0,1,0;0,0,1", "--method", "chow"])
    assert (code, out) == (0, "INCIDENT\n")
    code, out, _ = run(capsys, ["incident", path, "--plane", "0,1,0;1,0,-1", "--method", "oracle"])
    assert (code, out) == (0, "DISJOINT\n")


def test_incident_dependent_covectors(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    code, _, err = run(capsys, ["incident", path, "--plane", "1,0,0;2,0,0"])
    assert code == 2
    assert "covectors dependent" in err


def test_check_reports(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    assert json.loads(out) == {
        "base_free": True,
        "map_degree": 1,
        "image_degree": 2,
        "in_U": True,
        "seed": 0,
    }
    path = write(tmp_path, "double.json", DOUBLE)
    _, out, _ = run(capsys, ["check", path, "--seed", "5"])
    doc = json.loads(out)
    assert doc["map_degree"] == 2 and doc["in_U"] is False and doc["seed"] == 5
    path = write(tmp_path, "based.json", BASED)
    _, out, _ = run(capsys, ["check", path])
    doc = json.loads(out)
    assert doc == {
        "base_free": False,
        "map_degree": None,
        "image_degree": None,
        "in_U": False,
        "seed": 0,
    }


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    import chowforms.cli as cli

    assert cli.build_parser() is cli.build_parser()
    path = write(tmp_path, "conic.json", CONIC)
    _, out, _ = run(capsys, ["check", path, "--seed", "7"])
    assert json.loads(out)["seed"] == 7
    _, out, _ = run(capsys, ["compute", path, "--json"])
    assert json.loads(out)["d"] == 2
    _, out, _ = run(capsys, ["check", path])
    assert json.loads(out)["seed"] == 0


def test_degenerate_two_lines(tmp_path, capsys):
    pf = write(tmp_path, "f.json", LINE_F)
    pg = write(tmp_path, "g.json", LINE_G)
    code, out, _ = run(capsys, ["degenerate", pf, pg])
    assert code == 0
    assert "limit n=2 d=2" in out
    assert "product n=2 d=2" in out
    assert out.rstrip().endswith("FACTORS:yes")
    # limit and product agree projectively: both printed normalized
    blocks = out.split("product n=2 d=2\n")
    limit_terms = blocks[0].split("limit n=2 d=2\n")[1].strip()
    product_terms = blocks[1].rsplit("FACTORS:yes", 1)[0].strip()
    assert limit_terms == product_terms


def test_degenerate_prints_both_blocks_when_the_factors_differ(tmp_path, capsys, monkeypatch):
    # A wrong limit of the same (n, d), the conic's normalized Chow form,
    # must fail the factor check and print the true product beside it.
    import chowforms.cli as cli

    pf = write(tmp_path, "f.json", LINE_F)
    pg = write(tmp_path, "g.json", LINE_G)
    conic = load_curve(write(tmp_path, "conic.json", CONIC))
    wrong = cayley_biform(conic).normalized()
    # The conic's Bezout determinant as the limit p-coefficient, with its
    # expansion, whose normalized form is ``wrong``.
    pform = det_expand(bezout_pform(conic.components))
    monkeypatch.setattr(cli, "limit_pform", lambda family: (pform, wedge_expand(pform, 3)))
    product = cayley_biform(load_curve(pf)).normalized() * cayley_biform(load_curve(pg)).normalized()
    assert (wrong.n, wrong.d) == (product.n, product.d) and wrong.poly != product.poly
    code, out, _ = run(capsys, ["degenerate", pf, pg])
    assert code == 4
    assert out.splitlines()[-1] == "FACTORS:no"
    limit_block, product_block = out.rsplit("\nFACTORS:no", 1)[0].split("\nproduct n=2 d=2\n")
    assert limit_block == "limit n=2 d=2\n" + format_terms(wrong.poly)
    assert product_block == format_terms(product.poly)


def test_degenerate_attachment_violation(tmp_path, capsys):
    bad = {"n": 2, "d": 1, "coeffs": [["1", "0"], ["0", "1"], ["1", "0"]]}
    pf = write(tmp_path, "bad.json", bad)
    pg = write(tmp_path, "g.json", LINE_G)
    code, _, err = run(capsys, ["degenerate", pf, pg])
    assert code == 2
    assert "coordinate 1 is zero" in err


def test_degenerate_normalize_attachment(tmp_path, capsys):
    f = {"n": 2, "d": 1, "coeffs": [["2", "1"], ["1", "3"], ["1", "1"]]}
    g = {"n": 2, "d": 2, "coeffs": [["1", "0", "1"], ["0", "1", "1"], ["1", "1", "1"]]}
    pf = write(tmp_path, "f.json", f)
    pg = write(tmp_path, "g.json", g)
    code, out, _ = run(capsys, ["degenerate", pf, pg, "--normalize-attachment"])
    assert code == 0
    assert out.rstrip().endswith("FACTORS:yes")


ATTACH_G = {"n": 2, "d": 2, "coeffs": [["1", "0", "1"], ["0", "1", "1"], ["1", "1", "1"]]}
# z0 (z0 + z1), (z0 + z1)^2, (z0 + z1)(z0 + 2 z1): the base point z0 + z1 = 0.
BASED_NONZERO = {"n": 2, "d": 2, "coeffs": [["1", "1", "0"], ["1", "2", "1"], ["1", "3", "2"]]}
# (z0^2, z1^2, z0^2 + z1^2) covers the line x0 + x1 = x2 twice.
COVER_NONZERO = {"n": 2, "d": 2, "coeffs": [["1", "0", "0"], ["0", "0", "1"], ["1", "0", "1"]]}


@pytest.mark.parametrize(
    "f, g, code, out_end, err",
    [
        (BASED_NONZERO, ATTACH_G, 3, "",
         "warning: parametrization has a base point\nerror: family biform is identically zero\n"),
        (ATTACH_G, BASED_NONZERO, 3, "",
         "warning: parametrization has a base point\nerror: family biform is identically zero\n"),
        (COVER_NONZERO, ATTACH_G, 0, "FACTORS:yes\n", "warning: map degree onto image is 2, not 1\n"),
        (COVER_NONZERO, BASED_NONZERO, 3, "",
         "warning: map degree onto image is 2, not 1\nwarning: parametrization has a base point\n"
         "error: family biform is identically zero\n"),
    ],
    ids=["based-f", "based-g", "cover-f", "cover-and-based"],
)
def test_degenerate_warnings_with_normalize_attachment(tmp_path, capsys, monkeypatch, f, g, code, out_end, err):
    # The warnings read the curves as loaded, f before g, and say what they
    # say of the moved curves: the move keeps base points and the map degree.
    import chowforms.cli as cli

    checked = []
    check = cli.check_curve
    monkeypatch.setattr(cli, "check_curve", lambda curve: checked.append(curve) or check(curve))
    pf = write(tmp_path, "f.json", f)
    pg = write(tmp_path, "g.json", g)
    got = run(capsys, ["degenerate", pf, pg, "--normalize-attachment"])
    assert (got[0], got[2]) == (code, err)
    assert got[1].endswith(out_end)
    assert checked == [load_curve(pf), load_curve(pg)]


def test_degenerate_attachment_error_precedes_the_warnings(tmp_path, capsys):
    # A base-pointed curve in the hyperplane x2 = 0 cannot be moved: exit 2,
    # and no warning is printed before the error.
    based = {"n": 2, "d": 2, "coeffs": [["1", "1", "0"], ["1", "2", "1"], ["0", "0", "0"]]}
    pf = write(tmp_path, "f.json", based)
    pg = write(tmp_path, "g.json", ATTACH_G)
    code, out, err = run(capsys, ["degenerate", pf, pg, "--normalize-attachment"])
    assert (code, out) == (2, "")
    assert err == "error: component 2 vanishes identically: curve lies in the coordinate hyperplane x2 = 0\n"


def test_degenerate_eps_table(tmp_path, capsys):
    pf = write(tmp_path, "f.json", LINE_F)
    pg = write(tmp_path, "g.json", LINE_G)
    table = tmp_path / "eps.tsv"
    code, _, _ = run(capsys, ["degenerate", pf, pg, "--emit-eps-table", str(table)])
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0].startswith("# eps_order")
    orders = {int(line.split("\t")[0]) for line in lines[1:]}
    # the eps=0 specialization has a base point, so order 0 is absent
    assert orders == {1, 2}


def test_implicitize(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    code, out, _ = run(capsys, ["implicitize", path])
    assert (code, out) == (0, "+1 * x0^1 x2^1\n-1 * x1^2\n")
    path = write(tmp_path, "line.json", LINE)
    code, out, _ = run(capsys, ["implicitize", path])
    assert (code, out) == (0, "+1 * x2^1\n")
    cusp = {"n": 2, "d": 3, "coeffs": [["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    path = write(tmp_path, "cusp.json", cusp)
    code, out, _ = run(capsys, ["implicitize", path])
    assert (code, out) == (0, "+1 * x0^1 x2^2\n-1 * x1^3\n")


def test_implicitize_errors(tmp_path, capsys):
    p3 = {"n": 3, "d": 1, "coeffs": [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]]}
    path = write(tmp_path, "p3.json", p3)
    code, _, err = run(capsys, ["implicitize", path])
    assert code == 2
    path = write(tmp_path, "double.json", DOUBLE)
    code, out, _ = run(capsys, ["implicitize", path])
    assert code == 3
    doc = json.loads(out)
    assert doc["in_U"] is False and doc["map_degree"] == 2


@pytest.mark.parametrize("doc, code", [(CONIC, 0), (DOUBLE, 3), (BASED, 3)], ids=["conic", "double", "based"])
def test_implicitize_checks_the_curve_once(tmp_path, capsys, monkeypatch, doc, code):
    import chowforms.chow
    import chowforms.cli
    import chowforms.oracle

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return chowforms.oracle.check_curve(*args, **kwargs)

    for module in (chowforms.chow, chowforms.cli):
        monkeypatch.setattr(module, "check_curve", counting)
    path = write(tmp_path, "curve.json", doc)
    assert run(capsys, ["implicitize", path])[0] == code
    assert len(calls) == 1


def test_plucker_subcommand(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    code, out, _ = run(capsys, ["plucker", path])
    assert code == 0
    assert out == "plucker canonical=true\n-1 * p01^1 p12^1\n+1 * p02^2\n"


def test_plucker_on_a_line_target_is_canonical(tmp_path, capsys):
    # n = 1 has the single coordinate p01 and no Plucker relation.
    path = write(tmp_path, "cover.json", {"n": 1, "d": 2, "coeffs": [["1", "0", "0"], ["0", "0", "1"]]})
    code, out, _ = run(capsys, ["plucker", path])
    assert (code, out) == (0, "plucker canonical=true\n+1 * p01^2\n")


def test_degenerate_line_conic_in_p3(tmp_path, capsys):
    f = {"n": 3, "d": 1, "coeffs": [["1", "0"], ["1", "1"], ["1", "2"], ["1", "3"]]}
    g = {
        "n": 3,
        "d": 2,
        "coeffs": [["0", "0", "1"], ["0", "1", "1"], ["1", "0", "1"], ["1", "1", "1"]],
    }
    pf = write(tmp_path, "f3.json", f)
    pg = write(tmp_path, "g3.json", g)
    code, out, _ = run(capsys, ["degenerate", pf, pg])
    assert code == 0
    assert out.rstrip().endswith("FACTORS:yes")


def test_incident_disagreement_exits_4(tmp_path, capsys, monkeypatch):
    # force the two routes apart to prove the cross-check wiring trips
    import chowforms.cli as cli

    path = write(tmp_path, "conic.json", CONIC)
    monkeypatch.setattr(cli, "incident_oracle", lambda f, p: True)
    code, out, _ = run(capsys, ["incident", path, "--plane", "0,1,0;1,0,-1"])
    assert code == 4
    assert out.rstrip().endswith("DISAGREE")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": True, "d": 1, "coeffs": [[True, False], [False, True]]}, "integer fields"),
        ({"n": 1, "d": True, "coeffs": [["1", "0"], ["0", "1"]]}, "integer fields"),
        ({"n": 1, "d": 1, "coeffs": [[1, 0], [False, 1]]}, "invalid rational at row 1 col 0"),
    ],
)
def test_json_booleans_rejected(tmp_path, capsys, doc, message):
    # bool is an int subclass, so true/false must be refused explicitly
    path = write(tmp_path, "bool.json", doc)
    code, out, err = run(capsys, ["compute", path])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv", [["compute", "--plucker"], ["plucker"]])
def test_plucker_beyond_naming_range_exits_2(tmp_path, capsys, argv):
    # a line in P^10: the biform is fine, but p_ij names stop at n = 9
    big = {"n": 10, "d": 1, "coeffs": [["1", "0"], ["0", "1"]] + [["0", "0"]] * 9}
    path = write(tmp_path, "p10.json", big)
    code, out, err = run(capsys, [argv[0], path] + argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "n <= 9" in err


@pytest.mark.parametrize("argv", [["compute", "--plucker"], ["plucker"]])
def test_base_point_beyond_naming_range_exits_3(tmp_path, capsys, argv):
    # The zero Chow form is reported before the p_ij naming range.
    based = {"n": 10, "d": 2, "coeffs": [["1", "0", "0"], ["0", "1", "0"]] + [["0", "0", "0"]] * 9}
    path = write(tmp_path, "p10.json", based)
    code, out, err = run(capsys, [argv[0], path] + argv[1:])
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == "error: zero Cayley biform (base locus)"


@pytest.mark.parametrize("argv", [["plucker"], ["compute", "--plucker"], ["compute", "--json", "--plucker"]])
def test_plucker_output_skips_the_uv_biform(tmp_path, capsys, monkeypatch, argv):
    # The Plucker form is straightened from the Bezout p-form: no biform is
    # built and peeled, and `plucker` expands nothing back into (u, v).
    import chowforms.chow as chow
    import chowforms.cli as cli
    from chowforms.cli import _compute_json
    from helpers import rand_curve_birational

    f = rand_curve_birational(random.Random(31), 3, 3)
    rows = [[str(c) for c in comp.coeffs] for comp in f.components]
    path = write(tmp_path, "twisted.json", {"n": 3, "d": 3, "coeffs": rows})
    ca = cayley_biform(f).normalized()
    rep = plucker_rewrite(ca)
    if "--json" in argv:
        expected = _compute_json(ca, rep) + "\n"
    else:
        expected = f"plucker canonical=false\n{format_terms(rep.poly)}\n"
        if argv[0] == "compute":
            expected = f"biform n=3 d=3\n{format_terms(ca.poly)}\n" + expected

    def forbidden(*args, **kwargs):
        raise AssertionError("the Plucker route built or peeled the (u, v) biform")

    monkeypatch.setattr(chow, "cayley_biform", forbidden)
    monkeypatch.setattr(cli, "normalized_expansion", forbidden)
    monkeypatch.setattr(chow, "plucker_rewrite", forbidden)
    if argv[0] == "plucker":
        monkeypatch.setattr(chow.PluckerRep, "expand", forbidden)
    assert run(capsys, [argv[0], path] + argv[1:]) == (0, expected, "")


def test_internal_runtime_error_exits_4(tmp_path, capsys, monkeypatch):
    import chowforms.cli as cli

    def fail(f):
        raise RuntimeError("plucker rewrite failed to round-trip")

    path = write(tmp_path, "conic.json", CONIC)
    monkeypatch.setattr(cli, "plucker_form", fail)
    code, out, err = run(capsys, ["plucker", path])
    assert (code, out) == (4, "")
    assert err == "error: plucker rewrite failed to round-trip\n"


@pytest.mark.parametrize("argv", [["plucker"], ["compute", "--plucker"]])
def test_corrupted_straightening_step_exits_4(tmp_path, capsys, monkeypatch, argv):
    # A Plucker relation that drops its p_ab p_cd term still ends the
    # straightening, but the exact check catches the wrong image.
    import chowforms.chow as chow
    from helpers import rand_curve_birational

    f = rand_curve_birational(random.Random(7), 3, 3)
    rows = [[str(c) for c in comp.coeffs] for comp in f.components]
    path = write(tmp_path, "twisted.json", {"n": 3, "d": 3, "coeffs": rows})
    assert run(capsys, [argv[0], path] + argv[1:])[0] == 0
    monkeypatch.setattr(chow, "_plucker_relation", lambda a, b, c, d: [((a, c), (b, d), 1)])
    code, out, err = run(capsys, [argv[0], path] + argv[1:])
    assert (code, out) == (4, "")
    assert err == "error: Plucker straightening failed its exact check\n"


def test_attachment_postcondition_exits_4(tmp_path, capsys, monkeypatch):
    import chowforms.degeneration as degeneration

    monkeypatch.setattr(degeneration, "act_gl2", lambda f, A: f)
    f = {"n": 2, "d": 1, "coeffs": [["2", "1"], ["1", "3"], ["1", "1"]]}
    pf = write(tmp_path, "f.json", f)
    pg = write(tmp_path, "g.json", LINE_G)
    code, out, err = run(capsys, ["degenerate", pf, pg, "--normalize-attachment"])
    assert (code, out) == (4, "")
    assert err.startswith("error:") and "attachment" in err


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "line.json", LINE)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chowforms.cli", "compute", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "biform n=2 d=1\n+1 * u0^1 v1^1\n-1 * u1^1 v0^1\n"


# The first f = (z0, z0, z0) is constant, and every Leibniz term of the
# family determinant meets a zero entry.  The second f has the base point
# z0 + z1 = 0, and the truncated route doubles its order up to the cap.
# Either way the family biform vanishes, with or without the eps table.
ZERO_FAMILY_F = [
    {"n": 2, "d": 1, "coeffs": [["1", "0"], ["1", "0"], ["1", "0"]]},
    {"n": 2, "d": 2, "coeffs": [["1", "1", "0"], ["1", "2", "1"], ["1", "3", "2"]]},
]


@pytest.mark.parametrize("f", ZERO_FAMILY_F)
@pytest.mark.parametrize("table", [False, True])
def test_degenerate_zero_family_exits_3(tmp_path, capsys, f, table):
    pf = write(tmp_path, "f.json", f)
    pg = write(tmp_path, "g.json", LINE_G)
    argv = ["degenerate", pf, pg]
    if table:
        argv += ["--emit-eps-table", str(tmp_path / "eps.tsv")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.endswith("error: family biform is identically zero\n")
    assert not (tmp_path / "eps.tsv").exists()


def test_degenerate_eps_table_write_failure_exits_2(tmp_path, capsys):
    pf = write(tmp_path, "f.json", LINE_F)
    pg = write(tmp_path, "g.json", LINE_G)
    table = tmp_path / "missing" / "eps.tsv"
    code, out, err = run(capsys, ["degenerate", pf, pg, "--emit-eps-table", str(table)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {table}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not table.parent.exists()


# -- compute --json without the indenting encoder -------------------------------


@pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (2, 4), (3, 3), (4, 3)])
@pytest.mark.parametrize("plucker", [False, True])
def test_compute_json_bytes_equal_json_dumps(tmp_path, capsys, n, d, plucker):
    import random

    from chowforms import cayley_biform, plucker_rewrite
    from helpers import rand_curve_birational

    f = rand_curve_birational(random.Random(900 + 10 * n + d), n, d)
    rows = [[str(c) for c in comp.coeffs] for comp in f.components]
    path = write(tmp_path, "grid.json", {"n": n, "d": d, "coeffs": rows})
    code, out, _ = run(capsys, ["compute", path, "--json"] + (["--plucker"] if plucker else []))
    ca = cayley_biform(f).normalized()
    rep = plucker_rewrite(ca) if plucker else None
    assert code == 0
    assert out == reference_compute_json(ca, rep) + "\n"


def test_compute_json_bytes_for_fraction_coefficients():
    from fractions import Fraction

    from chowforms import CayleyBiform, CurveMap, cayley_biform, plucker_rewrite
    from chowforms.cli import _compute_json

    f = CurveMap.from_coeffs(
        [[Fraction(1, 2), 0, 3], [0, Fraction(-2, 3), 1], [1, 1, Fraction(5, 7)], [2, 0, 1]]
    )
    ca = cayley_biform(f)
    ca = CayleyBiform(ca.n, ca.d, ca.poly * Fraction(1, 11))
    assert any(isinstance(c, Fraction) for c in ca.poly.terms.values())
    rep = plucker_rewrite(ca)
    assert any(isinstance(c, Fraction) for c in rep.poly.terms.values())
    assert _compute_json(ca, rep) == reference_compute_json(ca, rep)
    assert _compute_json(ca, None) == reference_compute_json(ca, None)


# -- plane values with a leading minus ---------------------------------------------


@pytest.mark.parametrize("form", ["split", "equals"])
def test_plane_value_may_start_with_minus(tmp_path, capsys, form):
    # (-1, 0, 0; 0, 1, 0) cuts out x0 = x1 = 0, the point f(0, 1) of the conic.
    path = write(tmp_path, "conic.json", CONIC)
    spec = "-1,0,0;0,1,0"
    plane = ["--plane", spec] if form == "split" else [f"--plane={spec}"]
    code, out, err = run(capsys, ["incident", path] + plane)
    assert (code, err) == (0, "")
    assert out == "chow: INCIDENT\noracle: INCIDENT\nAGREE\n"
    code, out, _ = run(capsys, ["incident", path, "--method", "chow"] + plane)
    assert (code, out) == (0, "INCIDENT\n")


def test_plane_value_before_the_curve_and_a_missing_value(tmp_path, capsys):
    path = write(tmp_path, "conic.json", CONIC)
    code, out, _ = run(capsys, ["incident", "--plane", "-1,0,1;0,1,0", path, "--method", "oracle"])
    assert (code, out) == (0, "DISJOINT\n")
    with pytest.raises(SystemExit) as exc:
        main(["incident", path, "--plane"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# -- the map-degree certificate ----------------------------------------------------

# Birational plane quartic with a node at z1/z0 = +-1.  The retired sampler
# drew three parameters on the node's lines at seeds 22358 and 22938 and
# reported map degree 2.
NODAL_QUARTIC = {
    "n": 2,
    "d": 4,
    "coeffs": [["1", "0", "0", "0", "0"], ["0", "0", "1", "0", "0"], ["0", "-1", "0", "1", "1"]],
}

NODAL_QUARTIC_EQUATION = (
    "+1 * x0^3 x1^1\n-2 * x0^2 x1^2\n-1 * x0^2 x2^2\n+1 * x0^1 x1^3\n+2 * x0^1 x1^2 x2^1\n-1 * x1^4\n"
)


@pytest.mark.parametrize("seed", ["22358", "22938"])
def test_nodal_quartic_is_birational_at_every_seed(tmp_path, capsys, seed):
    path = write(tmp_path, "nodal4.json", NODAL_QUARTIC)
    code, out, err = run(capsys, ["check", path, "--seed", seed])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "base_free": True,
        "map_degree": 1,
        "image_degree": 4,
        "in_U": True,
        "seed": int(seed),
    }
    assert run(capsys, ["implicitize", path, "--seed", seed]) == (0, NODAL_QUARTIC_EQUATION, "")
    assert run(capsys, ["implicitize", path]) == (0, NODAL_QUARTIC_EQUATION, "")


# The ids name the two sampling failures of the Monte-Carlo sampler this certificate
# replaced; each case is the certificate's counterpart, and both end its loop.
@pytest.mark.parametrize(
    "fiber_gcd",
    [
        # Every fiber gcd the same quadric: no second gcd to test against.
        pytest.param(
            lambda z: [1, 0, 1],
            id="roots0-could not find enough unramified sample points",
        ),
        # A different cubic at every parameter: 3 does not divide d = 2.
        pytest.param(
            lambda z: [1, z[1], 0, 1],
            id="roots1-map degree sampling failed to divide the curve degree",
        ),
    ],
)
def test_map_degree_sampling_failures_exit_4(tmp_path, capsys, monkeypatch, fiber_gcd):
    import chowforms.oracle as oracle

    calls = []
    monkeypatch.setattr(
        oracle, "_fiber_gcd", lambda f, z: calls.append(z) or oracle.BinaryForm(fiber_gcd(z))
    )
    path = write(tmp_path, "conic.json", CONIC)
    code, out, err = run(capsys, ["check", path, "--seed", "5"])
    assert (code, out) == (4, "")
    assert err == "error: no two fiber gcds certify the map degree\n"
    assert "Traceback" not in err
    # (d-1)(d-2) + d + 1 = 3 parameters for the conic, all of them tried.
    assert calls == [(1, 0), (1, 1), (1, 2)]


# -- values past Python's int <-> str digit limit --------------------------------------


@contextlib.contextmanager
def int_digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# 1500-digit diagonal entries: the biform's coefficients run past 4300 digits.
HUGE_DIAGONAL = ["1" + "7" * 1499, "2" + "3" * 1499, "9" * 1500]
HUGE_CONIC = {
    "n": 2,
    "d": 2,
    "coeffs": [
        [HUGE_DIAGONAL[0], "0", "1"],
        ["0", HUGE_DIAGONAL[1], "3"],
        ["1", "2", HUGE_DIAGONAL[2]],
    ],
}


def test_coefficients_past_the_digit_limit_print_exactly(tmp_path, capsys):
    path = write(tmp_path, "huge.json", HUGE_CONIC)
    with int_digit_limit(0):
        f = CurveMap.from_coeffs([[Fraction(x) for x in row] for row in HUGE_CONIC["coeffs"]])
        ca = cayley_biform(f).normalized()
        biform = f"biform n=2 d=2\n{format_terms(ca.poly)}\n"
        plucker = format_terms(plucker_rewrite(ca).poly)
        implicit = format_terms(implicitize_plane_curve(f))
    assert max(abs(c) for c in ca.poly.terms.values()) > 10**4300
    assert run(capsys, ["compute", path]) == (0, biform, "")
    code, out, err = run(capsys, ["compute", path, "--json"])
    assert (code, err) == (0, "")
    with int_digit_limit(0):
        doc = json.loads(out)
        assert [t["coeff"] for t in doc["terms"]] == [str(c) for _, c in ca.poly.sorted_terms()]
    assert run(capsys, ["plucker", path]) == (0, f"plucker canonical=true\n{plucker}\n", "")
    assert run(capsys, ["implicitize", path]) == (0, implicit + "\n", "")


def test_a_json_integer_past_the_digit_limit_is_read(tmp_path, capsys):
    huge = "5" * 5000
    text = '{"n": 2, "d": 2, "coeffs": [[%s, 0, 0], [0, 1, 0], [0, 0, 1]]}' % huge
    path = write(tmp_path, "huge.json", text)
    plane = ["--plane", "0,1,0;0,0,1"]  # x1 = x2 = 0 holds at f(1, 0)
    for argv in (
        ["compute", path, "--json"],
        ["check", path],
        ["incident", path] + plane,
        ["plucker", path],
        ["implicitize", path],
        ["degenerate", path, path, "--normalize-attachment"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
    code, out, _ = run(capsys, ["compute", path])
    assert code == 0 and huge in out


def test_the_digit_limit_is_restored_after_every_exit(tmp_path, capsys):
    good = write(tmp_path, "conic.json", CONIC)
    bad = write(tmp_path, "bad.json", dict(CONIC, coeffs=[["x"] * 3] * 3))
    with int_digit_limit(5000):
        assert run(capsys, ["compute", good])[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run(capsys, ["compute", bad])[0] == 2
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            main(["compute"])
        assert sys.get_int_max_str_digits() == 5000


# -- one strict rational grammar ---------------------------------------------------------

REJECTED_RATIONALS = ["1e3", "1.5", "1_0", "1_000", "١٢", "1e10000000", "0x10", "1/2/3", "", "+", "1/-2", "1 2"]


@pytest.mark.parametrize("text", REJECTED_RATIONALS)
def test_curve_entries_outside_the_grammar_exit_2(tmp_path, capsys, text):
    doc = dict(CONIC, coeffs=[["1", text, "0"], ["0", "1", "0"], ["0", "0", "1"]])
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, ["compute", path])
    assert (code, out) == (2, "")
    assert err == "error: invalid rational at row 0 col 1\n"


@pytest.mark.parametrize("text", REJECTED_RATIONALS)
def test_plane_entries_outside_the_grammar_exit_2(tmp_path, capsys, text):
    path = write(tmp_path, "conic.json", CONIC)
    code, out, err = run(capsys, ["incident", path, "--plane", f"0,{text},0;0,0,1"])
    assert (code, out) == (2, "")
    assert err == f"error: invalid rational in plane spec '0,{text},0'\n"


def test_rationals_in_the_grammar_parse_in_both_places(tmp_path, capsys):
    doc = dict(CONIC, coeffs=[["-3/4", " 2 ", "7"], ["0", "1", "0"], ["0", "0", "1"]])
    curve = load_curve(write(tmp_path, "ok.json", doc))
    assert curve.components[0].coeffs == (Fraction(-3, 4), 2, 7)
    plane = parse_plane("-3/4, 2 ,7;0,1,0", 2)
    assert plane.u == (Fraction(-3, 4), 2, 7)
