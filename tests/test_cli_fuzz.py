"""Fuzz of the command line contract.

Every subcommand is driven with malformed scenario documents, pmf
documents and flags. Each run must end in exit 0 with nothing on stderr,
or in exit 1 or 2 with nothing on stdout and exactly one JSON error line
on stderr: never a traceback, and never a warning. The sizes stay tiny so
that the whole fuzz runs in a few seconds.
"""
import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhshare.cli import main

NAN, INF = math.nan, math.inf

# Numbers at and beyond the edges of what the documents allow, and values
# of the wrong JSON type.
NUMBERS = [0, 1, 2, 3, 4, -1, 0.5, 2.5, 1e-300, 1e300, 10**6, 10**9, 10**30, NAN, INF, -INF]
JUNK = [None, True, "1", "x", [], [1], {}, {"v": 1}]
BAD = st.sampled_from(NUMBERS + JUNK)

# Each example breaks one part of the input, or none: the fault is drawn
# first, and every other part is well formed, so a run gets past the
# first check it meets.
SCENARIO_FAULTS = ["u", "users", "user", "gains", "gain", "P", "sigma2", "missing", "doc"]
PMF_FAULTS = ["type", "q", "lambda", "truncation", "missing", "doc"]


def pick(fault, part, good, bad=BAD):
    return bad if fault == part else good


@st.composite
def scenario_docs(draw, fault):
    u = draw(pick(fault, "u", st.integers(1, 4)))
    n = draw(st.integers(1, 3))
    top = u if isinstance(u, int) and 1 <= u <= 4 else 2
    pmf = st.lists(st.integers(0, 2), min_size=top + 1, max_size=top + 1).filter(any)
    user = st.one_of(
        st.fixed_dictionaries({"v": st.integers(0, top)}),
        pmf.map(lambda w: {"pmf": [x / sum(w) for x in w]}),
    )
    bad_user = st.one_of(
        st.fixed_dictionaries({"v": BAD}),
        st.fixed_dictionaries({"pmf": st.lists(BAD, max_size=3) | BAD}),
        st.just({"v": top + 1}),
        BAD,
    )
    gain = st.sampled_from([0.0, 0.3, 1.0])
    users = draw(pick(fault, "users", st.lists(user, min_size=n, max_size=n)))
    if fault == "user":
        users[draw(st.integers(0, n - 1))] = draw(bad_user)
    gains = draw(
        pick(
            fault,
            "gains",
            st.lists(st.lists(gain, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(st.just(1.0), max_size=4), max_size=4) | BAD,
        )
    )
    if fault == "gain":
        gains[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(BAD)
    doc = {
        "u": u,
        "users": users,
        "gains": gains,
        "P": draw(pick(fault, "P", st.sampled_from([1.0, 10.0, 1e4]))),
        "sigma2": draw(pick(fault, "sigma2", st.sampled_from([0.5, 2.0]))),
    }
    if fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return draw(pick(fault, "doc", st.just(doc)))


@st.composite
def pmf_docs(draw, fault):
    kind = draw(pick(fault, "type", st.sampled_from(["finite", "poisson"])))
    doc = {"type": kind}
    if kind == "finite" or fault == "q":
        doc["q"] = draw(
            pick(
                fault,
                "q",
                st.sampled_from([[0.0, 1.0], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5],
                                 [0.0, 0.2] + [0.1] * 8]),
                st.lists(BAD, max_size=4) | BAD | st.just([1.0 / 9000] * 9000),
            )
        )
    if kind == "poisson" or fault in ("lambda", "truncation"):
        doc["lambda"] = draw(pick(fault, "lambda", st.sampled_from([0.5, 2.0, 5.0, 40.0])))
        truncation = st.sampled_from(["absent", None, 200])
        value = draw(pick(fault, "truncation", truncation))
        if value != "absent":
            doc["truncation"] = value
    if fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return draw(pick(fault, "doc", st.just(doc)))


BAD_NUMBERS = ["0", "-1", "nan", "inf", "1e400", "x", ""]
FORMAT = ("--format", [None, "csv", "json"], ["yaml", ""])
THREADS = ("--threads", [None, "1", "2"], ["0", "-1", "x"])
U = ("--u", ["4", "10"], BAD_NUMBERS + ["0.5", "1e-300", "1e300", "1e308", None])
N_DES = ("--n-des", [None, "1", "3"], ["0", "-3", "1000000000", "x"])
EPSILON = ("--epsilon", [None, "0.1"], BAD_NUMBERS + ["1e-300", "3"])
PMF_FLAGS = [U, N_DES, EPSILON, FORMAT]

# subcommand -> (document option, document strategy, its faults, flags);
# a flag is (name, good values, bad values), and None leaves it out.
SUBCOMMANDS = {
    "levels": ("--scenario", scenario_docs, SCENARIO_FAULTS, [FORMAT]),
    "bounds": ("--scenario", scenario_docs, SCENARIO_FAULTS, [
        ("--gammas", [None, "100", "1e2,1e5"], BAD_NUMBERS + ["1:1e9:1", "1e2,0"]),
        ("--users", [None, "0", "0,1"], ["-1", "3", "9", "x", ""]),
        ("--mc-samples", [None, "0", "100"], ["99", "1", "-1", "x"]),
        ("--seed", [None, "1", "7"], ["-1", "x"]),
        THREADS,
        FORMAT,
    ]),
    "simulate": ("--scenario", scenario_docs, SCENARIO_FAULTS, [
        ("--slots", ["1", "20"], ["0", "-1", "x", None]),
        ("--seed", ["1", "7"], ["-1", "x", None]),
        ("--dump", [None, "y.bin"], ["."]),
        ("--dump-user", [None, "0", "1"], ["-1", "3", "9", "x"]),
        ("--dump-samples", [None, "1", "50"], ["0", "-1", "x"]),
        THREADS,
        FORMAT,
    ]),
    "measures": ("--pmf", pmf_docs, PMF_FAULTS, PMF_FLAGS),
    "compare": ("--pmf", pmf_docs, PMF_FAULTS, PMF_FLAGS),
    "sweep": (None, None, [], [
        U,
        ("--lambdas", ["3", "0.5,2,5", "1:4:1"], BAD_NUMBERS + ["1e6", "1:1e9:1", None]),
        FORMAT,
    ]),
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_every_subcommand_exits_cleanly_on_malformed_input(sub):
    option, docs, doc_faults, flags = SUBCOMMANDS[sub]
    faults = [None] + doc_faults + [name for name, _, _ in flags]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        fault = data.draw(st.sampled_from(faults), label="fault")
        doc = data.draw(docs(fault), label="doc") if docs else None
        argv = [sub]
        for name, good, bad in flags:
            value = data.draw(st.sampled_from(pick(fault, name, good, bad)), label=name)
            if value is not None:
                argv += [name, value]
        with tempfile.TemporaryDirectory() as tmp:
            if docs:
                path = os.path.join(tmp, "doc.json")
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                argv += [option, path]
            argv = [os.path.join(tmp, x) if x in ("y.bin", ".") else x for x in argv]
            code, out, err = run_main(argv)
        if code == 0:
            assert err == ""
        else:
            assert code in (1, 2)
            assert out == "" and err.count("\n") == 1 and err.endswith("\n")
            assert set(json.loads(err)) == {"error", "message"}

    check()


@pytest.mark.parametrize("sub", ["levels", "bounds", "simulate"])
def test_nan_pmf_weight_is_one_json_error(sub, tmp_path):
    # json accepts the NaN token; the profile must refuse the weight
    doc = {
        "u": 1,
        "users": [{"v": 1}, {"pmf": [NAN, 1.0]}],
        "gains": [[1.0, 0.5], [0.5, 1.0]],
        "P": 10.0,
        "sigma2": 1.0,
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [sub, "--scenario", str(path)]
    if sub == "simulate":
        argv += ["--slots", "20", "--seed", "1"]
    code, out, err = run_main(argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert set(json.loads(err)) == {"error", "message"}
