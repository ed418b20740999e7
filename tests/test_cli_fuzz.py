"""Bounded fuzz tests of the CLI: every generated input to every subcommand
ends in a documented exit code (0/2/3/4), never in an uncaught exception or
a traceback, and for ``chow degenerate`` the truncated eps-limit prints what
the fully expanded eps table route prints."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chowforms.cli import main

# "1e3", "1.5" and "1_0" lie outside the rational grammar and must exit 2;
# the 2000-digit entry gives biform coefficients past Python's 4300-digit
# int <-> str limit, which must still print.
HUGE_ENTRY = "3" + "1" * 1999

ENTRY = st.one_of(
    st.just("0"),
    st.integers(-2, 2).map(str),
    st.sampled_from(["1/2", "-3/2", "2/3", "1e3", "1.5", "1_0", HUGE_ENTRY]),
)


@st.composite
def curve_doc(draw, n):
    d = draw(st.integers(1, 2))
    row = st.lists(ENTRY, min_size=d + 1, max_size=d + 1)
    coeffs = draw(st.lists(row, min_size=n + 1, max_size=n + 1))
    return {"n": n, "d": d, "coeffs": coeffs}


@st.composite
def degenerate_case(draw):
    n = draw(st.integers(1, 3))
    n_g = draw(st.sampled_from([n, n, n, 1 + n % 3]))
    return draw(curve_doc(n)), draw(curve_doc(n_g)), draw(st.booleans())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(degenerate_case())
def test_degenerate_is_total(case):
    f, g, normalize = case
    with tempfile.TemporaryDirectory() as tmp:
        pf, pg = os.path.join(tmp, "f.json"), os.path.join(tmp, "g.json")
        for path, doc in ((pf, f), (pg, g)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        argv = ["degenerate", pf, pg]
        if normalize:
            argv.append("--normalize-attachment")
        plain = _run(argv)
        with_table = _run(argv + ["--emit-eps-table", os.path.join(tmp, "eps.tsv")])
    assert plain[0] in (0, 2, 3, 4)
    assert "Traceback" not in plain[2]
    assert with_table == plain


@st.composite
def command_case(draw):
    command = draw(st.sampled_from(["compute", "check", "incident", "plucker", "implicitize"]))
    n = draw(st.integers(1, 3))
    extra = []
    if command == "incident":
        m = draw(st.sampled_from([n, n, n + 1]))
        covector = st.lists(ENTRY, min_size=m + 1, max_size=m + 1).map(",".join)
        method = draw(st.sampled_from(["chow", "oracle", "both"]))
        extra = ["--plane", f"{draw(covector)};{draw(covector)}", "--method", method]
    else:
        if command == "compute":
            extra = draw(st.sampled_from([[], ["--json"], ["--plucker"], ["--json", "--plucker"]]))
        extra += ["--seed", str(draw(st.integers(0, 3)))]
    return command, draw(curve_doc(n)), extra


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command_case())
def test_every_subcommand_is_total(case):
    command, doc, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, _, err = _run([command, path] + extra)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
