"""Command line interface: output correctness, determinism, error paths."""
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhshare.bounds import lower_bound_rate, upper_bound_rate
import fhshare
import fhshare.cli
import fhshare.measures
import fhshare.sim
from fhshare.cli import _emit, _parse_floats, main
from fhshare.model import (
    HoppingProfile,
    NetworkScenario,
    enumerate_interference_spectrum,
    scenario_from_json,
)
from fhshare.sim import read_sample_dump


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def scen_file(tmp_path):
    doc = {
        "u": 4,
        "users": [{"v": 1}, {"v": 1}, {"pmf": [0.5, 0.5, 0.0, 0.0, 0.0]}],
        "gains": [[1.0, 0.9, 0.8], [0.7, 1.0, 0.6], [0.5, 0.4, 1.0]],
        "P": 10.0,
        "sigma2": 2.0,
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def scen_fixed_file(tmp_path):
    doc = {
        "u": 4,
        "users": [{"v": 1}, {"v": 1}, {"v": 1}],
        "gains": [[1.0, 0.9, 0.8], [0.7, 1.0, 0.6], [0.5, 0.4, 1.0]],
        "P": 10.0,
        "sigma2": 2.0,
    }
    path = tmp_path / "scen_fixed.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def pmf_poisson_file(tmp_path):
    path = tmp_path / "pois.json"
    path.write_text(json.dumps({"type": "poisson", "lambda": 5.0}))
    return str(path)


@pytest.fixture
def pmf_finite_file(tmp_path):
    path = tmp_path / "finite.json"
    path.write_text(json.dumps({"type": "finite", "q": [0.0, 0.9, 0.1]}))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


def _reference_fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.12g}"
    return str(x)


def reference_emit(header, rows, fmt, out):
    """The writer before the template one: csv.writer over per-cell
    strings, and json.dumps of one dict per row with every float that is
    not finite as null."""
    rows = [dict(zip(header, row)) for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_fmt(row.get(col)) for col in header])
        text = buf.getvalue()
    else:
        rows = [
            {k: None if isinstance(x, float) and not math.isfinite(x) else x
             for k, x in row.items()}
            for row in rows
        ]
        text = json.dumps(rows, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def reference_emit_columns(header, columns, fmt, out):
    """reference_emit behind the CLI writer's interface: one sequence per
    column, a numpy array written as its tolist()."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    reference_emit(header, list(zip(*columns)), fmt, out)


def emitted(emit, header, rows, fmt):
    """emit's output for rows; the CLI writer takes them as columns."""
    if emit is _emit:
        rows = [list(col) for col in zip(*rows)] if rows else [[] for _ in header]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit(header, rows, fmt, None)
    return buf.getvalue()


def test_fmt_rules():
    row = (1 / 3, float("nan"), None, 3, 0.5625, True, "fh")
    text = emitted(_emit, list("abcdefg"), [row], "csv")
    assert text == "a,b,c,d,e,f,g\n0.333333333333,nan,,3,0.5625,True,fh\n"


ODD_CELLS = [
    True, False, None, "level_freq", math.nan, math.inf, -math.inf, -0.0, 0.0,
    1e-300, 5e-324, 1e22, 123456789012345.0, 7, -3, 2**70,
    np.float64(0.1), np.float64(-np.inf), np.float64(np.nan), np.int64(-9),
    np.bool_(True), np.bool_(False), np.float32(0.1),
]
JSON_CELLS = [x for x in ODD_CELLS if isinstance(x, (bool, type(None), str, int, float))]


def test_emit_matches_reference_on_odd_cells():
    for fmt, values in (("csv", ODD_CELLS), ("json", JSON_CELLS)):
        header = [f"col{j}" for j in range(len(values))]
        rows = [tuple(values), tuple(reversed(values)), tuple(values)]
        assert emitted(_emit, header, rows, fmt) == emitted(reference_emit, header, rows, fmt)


cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats().map(np.float64),
    st.integers(-(2**80), 2**80),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.sampled_from(["fh", "fd", "tie", "free_subbands", "v_star"]),
)


# At least two columns, as every subcommand writes: csv.writer quotes a
# row made of one empty cell as "" so that it does not read as a blank line.
@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(st.tuples(*[cells] * n), max_size=8)))
def test_emit_csv_matches_reference(rows):
    header = [f"col{j}" for j in range(len(rows[0]) if rows else 2)]
    assert emitted(_emit, header, rows, "csv") == emitted(reference_emit, header, rows, "csv")


SUBCOMMANDS = {
    "levels": ["levels", "--scenario", "{scen}"],
    "bounds_pmf": ["bounds", "--scenario", "{scen}", "--gammas", "10,1e4"],
    "bounds_mc": [
        "bounds", "--scenario", "{fixed}", "--gammas", "100", "--mc-samples", "2000",
        "--seed", "3",
    ],
    "simulate": ["simulate", "--scenario", "{scen}", "--slots", "500", "--seed", "2"],
    "measures": ["measures", "--pmf", "{finite}", "--u", "8"],
    "sweep": ["sweep", "--u", "7", "--lambdas", "2:4:1"],
    "compare": ["compare", "--pmf", "{finite}", "--u", "8"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_emit_matches_reference_for_every_subcommand(
    name, fmt, scen_file, scen_fixed_file, pmf_finite_file, capsys, monkeypatch
):
    files = {"scen": scen_file, "fixed": scen_fixed_file, "finite": pmf_finite_file}
    argv = [a.format(**files) for a in SUBCOMMANDS[name]] + ["--format", fmt]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == "" and out
    monkeypatch.setattr(fhshare.cli, "_emit", reference_emit_columns)
    assert run_cli(argv, capsys) == (0, out, "")


def test_levels_matches_library(scen_file, capsys):
    code, out, err = run_cli(["levels", "--scenario", scen_file], capsys)
    assert code == 0 and err == ""
    rows = parse_csv(out)
    scen, profs = scenario_from_json(read_json(scen_file))
    want = enumerate_interference_spectrum(scen, profs, 0)
    got0 = [r for r in rows if r["receiver"] == "0"]
    assert len(got0) == want.n_levels
    for r, p, c in zip(got0, want.probabilities, want.c_values):
        assert float(r["probability"]) == pytest.approx(p, rel=1e-11)
        assert float(r["c"]) == pytest.approx(c, rel=1e-11, abs=1e-15)
    assert {r["receiver"] for r in rows} == {"0", "1", "2"}


def test_levels_gain_orientation(tmp_path, capsys):
    # gains[k][i] is transmitter k to receiver i: receiver 1 hears
    # transmitter 0 through gains[0][1] = 0.3, spread over v_0 = 2 bands.
    doc = {
        "u": 2,
        "users": [{"v": 2}, {"v": 1}],
        "gains": [[1.0, 0.3], [0.5, 1.0]],
        "P": 10.0,
        "sigma2": 1.0,
    }
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["levels", "--scenario", str(path)], capsys)
    assert code == 0 and err == ""
    hits = {r["receiver"]: float(r["c"]) for r in parse_csv(out) if float(r["c"]) > 0}
    assert hits["1"] == pytest.approx(0.3**2 / 2, rel=1e-12)
    assert hits["0"] == pytest.approx(0.5**2 / 1, rel=1e-12)


def test_levels_json_format(scen_file, capsys):
    code, out, _ = run_cli(
        ["levels", "--scenario", scen_file, "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and rows[0]["receiver"] == 0


def test_bounds_gamma_rescaling(scen_fixed_file, capsys):
    code, out, err = run_cli(
        [
            "bounds",
            "--scenario",
            scen_fixed_file,
            "--gammas",
            "100,10000",
            "--users",
            "0",
        ],
        capsys,
    )
    assert code == 0, err
    rows = parse_csv(out)
    assert [r["gamma"] for r in rows] == ["100", "10000"]
    doc = read_json(scen_fixed_file)
    for row in rows:
        gamma = float(row["gamma"])
        scen = NetworkScenario(
            n_users=3,
            n_subbands=4,
            gains=np.array(doc["gains"]),
            total_power=gamma * doc["sigma2"],
            noise_power=doc["sigma2"],
        )
        profs = [HoppingProfile.fixed(1)] * 3
        want = upper_bound_rate(scen, profs, 0)
        want_lb = lower_bound_rate(scen, profs, 0)
        assert float(row["r_ub"]) == pytest.approx(want.value_bits, rel=1e-11)
        assert float(row["r_lb"]) == pytest.approx(want_lb.value_bits, rel=1e-11)
        assert row["mi_mc"] == "nan" and row["mi_se"] == "nan"
        assert float(row["slope"]) == pytest.approx(
            want.slope_bits_per_log2snr, rel=1e-11
        )


def test_bounds_mixed_profiles_report_nan(scen_file, capsys):
    # One user in the file hops with a pmf: the placement-exact upper
    # bound and the MC column do not apply, the lower bound still does
    # for fixed-count users, and the slope is always defined.
    code, out, err = run_cli(
        ["bounds", "--scenario", scen_file, "--gammas", "100", "--users", "0,2"],
        capsys,
    )
    assert code == 0, err
    rows = parse_csv(out)
    by_user = {r["user"]: r for r in rows}
    assert by_user["0"]["r_ub"] == "nan"
    assert math.isfinite(float(by_user["0"]["r_lb"]))
    assert math.isfinite(float(by_user["0"]["slope"]))
    assert by_user["2"]["r_ub"] == "nan" and by_user["2"]["r_lb"] == "nan"
    assert math.isfinite(float(by_user["2"]["slope"]))


def test_bounds_reports_other_budget_errors(scen_fixed_file, capsys, monkeypatch):
    # Only bounds.NotApplicable becomes a nan cell: a plain ValueError
    # reaches the user, whatever its text says.
    def fails(*args, **kwargs):
        raise ValueError("the joint placements exceed the enumeration budget (10)")

    monkeypatch.setattr(fhshare.bounds, "upper_bound_rate", fails)
    code, out, err = run_cli(["bounds", "--scenario", scen_fixed_file, "--gammas", "100"], capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "budget" in msg["message"]


def test_bounds_over_budget_cells_are_nan(scen_fixed_file, capsys, monkeypatch):
    # every user has two interferers on 4 placements each: 16 > 10
    monkeypatch.setattr(fhshare.bounds, "MAX_REALIZATIONS", 10)
    monkeypatch.setattr(fhshare.bounds, "MAX_MC_COMPONENTS", 10)
    argv = ["bounds", "--scenario", scen_fixed_file, "--gammas", "100,1e4",
            "--mc-samples", "100", "--seed", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert len(rows) == 6
    for row in rows:
        assert row["r_ub"] == row["mi_mc"] == row["mi_se"] == "nan"
        assert math.isfinite(float(row["r_lb"])) and math.isfinite(float(row["slope"]))


def test_simulate_over_the_cell_budget_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "huge_u.json"
    path.write_text(json.dumps(
        {"u": 10**9, "users": [{"v": 1}, {"v": 1}], "gains": [[1.0, 0.5], [0.5, 1.0]],
         "P": 10.0, "sigma2": 1.0}
    ))
    argv = ["simulate", "--scenario", str(path), "--slots", "10", "--seed", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "budget" in msg["message"]


def test_bounds_mc_square_overflow_is_a_json_error(tmp_path, capsys):
    # at gamma = 1e307 a Monte Carlo sample's square overflows a double
    path = tmp_path / "two_users.json"
    path.write_text(json.dumps(
        {"u": 2, "users": [{"v": 1}, {"v": 1}], "gains": [[1.0, 1.0], [1.0, 1.0]],
         "P": 1.0, "sigma2": 1.0}
    ))
    argv = ["bounds", "--scenario", str(path), "--mc-samples", "2000", "--seed", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv + ["--gammas", "1e307"], capsys)
        assert code == 1 and out == "" and err.count("\n") == 1
        msg = json.loads(err)
        assert msg["error"] == "ValueError" and "overflows" in msg["message"]
        code, out, err = run_cli(argv + ["--gammas", "1e306"], capsys)
    assert [str(w.message) for w in caught] == []
    assert code == 0 and err == ""
    assert out == (
        "user,gamma,r_ub,r_lb,mi_mc,mi_se,slope\n"
        "0,1e+306,254.377499259,253.127499259,254.633394475,5.67809028653,0.25\n"
        "1,1e+306,254.377499259,253.127499259,254.633394475,5.67809028653,0.25\n"
    )


def test_bounds_mc_needs_seed(scen_file, capsys):
    code, out, err = run_cli(
        ["bounds", "--scenario", scen_file, "--mc-samples", "1000"], capsys
    )
    assert code == 2
    msg = json.loads(err)
    assert msg["error"] == "usage" and "--seed" in msg["message"]


def test_bounds_with_mc(scen_fixed_file, capsys):
    code, out, _ = run_cli(
        [
            "bounds",
            "--scenario",
            scen_fixed_file,
            "--gammas",
            "100",
            "--users",
            "0",
            "--mc-samples",
            "20000",
            "--seed",
            "3",
        ],
        capsys,
    )
    assert code == 0
    row = parse_csv(out)[0]
    mi, se = float(row["mi_mc"]), float(row["mi_se"])
    assert math.isfinite(mi) and se > 0
    assert float(row["r_lb"]) - 4 * se <= mi <= float(row["r_ub"]) + 4 * se


def test_simulate_thread_invariance(scen_file, capsys):
    args = ["simulate", "--scenario", scen_file, "--slots", "30000", "--seed", "11"]
    code1, out1, _ = run_cli(args + ["--threads", "1"], capsys)
    code8, out8, _ = run_cli(args + ["--threads", "8"], capsys)
    assert code1 == code8 == 0
    assert out1 == out8
    rows = parse_csv(out1)
    free = [r for r in rows if r["stat"] == "free_subbands"]
    assert len(free) == 3
    lvl = [r for r in rows if r["stat"] == "level_freq" and r["user"] == "0"]
    total = sum(float(r["value"]) for r in lvl)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_simulate_requires_seed(scen_file, capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", scen_file, "--slots", "100"], capsys
    )
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_simulate_dump(scen_file, tmp_path, capsys):
    dump = tmp_path / "y.bin"
    code, _, _ = run_cli(
        [
            "simulate",
            "--scenario",
            scen_file,
            "--slots",
            "1000",
            "--seed",
            "2",
            "--dump",
            str(dump),
            "--dump-samples",
            "500",
        ],
        capsys,
    )
    assert code == 0
    samples = read_sample_dump(dump)
    assert samples.shape == (500, 4)


@pytest.mark.parametrize(
    "extra",
    [
        ["bounds", "--users", "9"],
        ["bounds", "--users", "-1"],
        ["bounds", "--users", "0,3"],
        ["simulate", "--dump-user", "7"],
        ["simulate", "--dump-user", "-1"],
    ],
    ids=["bounds_9", "bounds_neg", "bounds_3", "dump_7", "dump_neg"],
)
def test_user_index_out_of_range(tmp_path, capsys, extra):
    doc = {
        "u": 4,
        "users": [{"v": 1}, {"v": 2}, {"pmf": [0.2, 0.3, 0.5, 0, 0]}],
        "gains": [[1.0, 0.9, 0.8], [0.7, 1.0, 0.6], [0.5, 0.4, 1.0]],
        "P": 10.0,
        "sigma2": 2.0,
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    dump = tmp_path / "y.bin"
    argv = [extra[0], "--scenario", str(path)] + extra[1:]
    if extra[0] == "bounds":
        argv += ["--gammas", "100"]
    else:
        argv += ["--slots", "100", "--seed", "1", "--dump", str(dump)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "out of range" in msg["message"]
    assert not dump.exists()


def test_measures_output(pmf_poisson_file, capsys):
    code, out, _ = run_cli(
        ["measures", "--pmf", pmf_poisson_file, "--u", "10"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    by_key = {(r["scheme"], r["measure"]): r for r in rows}
    fh1 = by_key[("fh", "eta1")]
    assert float(fh1["value"]) == pytest.approx(10 / (2 * math.e), abs=1e-6)
    assert float(fh1["value_per_u"]) == pytest.approx(
        float(fh1["value"]) / 10, rel=1e-11
    )
    assert fh1["param"] == "v_star"
    assert float(fh1["param_value"]) == pytest.approx(2.0, abs=1e-5)
    assert ("afh", "eta1") in by_key and ("fd", "eta2") in by_key


def test_sweep_grid_and_columns(capsys):
    code, out, _ = run_cli(["sweep", "--u", "7", "--lambdas", "2:4:1"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r["lam"] for r in rows] == ["2", "3", "4"]
    for r in rows:
        assert float(r["eta1_fh_per_u"]) == pytest.approx(1 / (2 * math.e), abs=1e-6)
        assert float(r["eta2_fd"]) < 7 / 2
        assert float(r["v_dagger"]) == pytest.approx(
            7 * (1 - float(r["omega_dagger"])), rel=1e-9
        )
    code2, out2, _ = run_cli(["sweep", "--u", "7", "--lambdas", "2,3,4"], capsys)
    assert out2 == out


def test_compare_output(pmf_finite_file, capsys):
    code, out, _ = run_cli(
        ["compare", "--pmf", pmf_finite_file, "--u", "8"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    eta1 = next(r for r in rows if r["measure"] == "eta1")
    # q1 = 0.9 > 2/3: hopping wins the expected-throughput comparison.
    assert eta1["winner"] == "fh"
    conds = [r for r in rows if r["kind"] == "condition"]
    assert len(conds) == 2
    for c in conds:
        assert c["condition_holds"] == "True"
        assert c["inequality_verified"] == "True"


def test_output_file(pmf_poisson_file, tmp_path, capsys):
    out_path = tmp_path / "m.csv"
    code, out, _ = run_cli(
        ["measures", "--pmf", pmf_poisson_file, "--u", "10", "--out", str(out_path)],
        capsys,
    )
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("scheme,measure,")


def test_error_paths(tmp_path, capsys):
    code, _, err = run_cli(["levels", "--scenario", "/does/not/exist.json"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "input"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["levels", "--scenario", str(bad)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "input"

    weird = tmp_path / "weird.json"
    weird.write_text(json.dumps({"type": "uniform", "q": [0.5, 0.5]}))
    code, _, err = run_cli(["measures", "--pmf", str(weird), "--u", "4"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"

    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_malformed_pmf_documents(tmp_path, capsys):
    docs = {
        "array": [0.5, 0.5],
        "truncation_str": {"type": "poisson", "lambda": 5, "truncation": "x"},
        "truncation_bool": {"type": "poisson", "lambda": 5, "truncation": True},
        "truncation_frac": {"type": "poisson", "lambda": 5, "truncation": 60.5},
        "lambda_list": {"type": "poisson", "lambda": [5]},
        "q_scalar": {"type": "finite", "q": 1},
        "q_sum_overflows": {"type": "finite", "q": [1e308, 1e308]},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        # a numpy RuntimeWarning would be a second line on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["measures", "--pmf", str(path), "--u", "4"], capsys)
        assert code == 1 and out == "", name
        assert err.count("\n") == 1, name
        assert json.loads(err)["error"] == "ValueError", name


def test_malformed_scenario_documents(tmp_path, capsys):
    docs = {
        "array": [1, 2],
        "user_int": {
            "u": 4,
            "users": [1],
            "gains": [[1.0]],
            "P": 10.0,
            "sigma2": 2.0,
        },
        # sigma2 + P * sum_k g_ki^2 overflows to inf
        "overflow": {
            "u": 2,
            "users": [{"v": 1}, {"v": 1}],
            "gains": [[1e200, 1e200], [1e200, 1e200]],
            "P": 1e308,
            "sigma2": 1.0,
        },
        # P / sigma2 overflows although every level variance is finite
        "snr_overflow": {
            "u": 2,
            "users": [{"v": 1}, {"v": 1}],
            "gains": [[1.0, 1.0], [1.0, 1.0]],
            "P": 1e300,
            "sigma2": 1e-10,
        },
        # a JSON number beyond the double range parses as inf
        "u_1e400": '{"u": 1e400, "users": [{"v": 1}], "gains": [[1.0]], '
        '"P": 10.0, "sigma2": 2.0}',
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        for sub in ("levels", "bounds"):
            code, out, err = run_cli([sub, "--scenario", str(path)], capsys)
            assert code == 1 and out == "", (name, sub)
            assert err.count("\n") == 1, (name, sub)
            assert json.loads(err)["error"] == "ValueError", (name, sub)


def _scenario_with(field, value):
    doc = {
        "u": 4,
        "users": [{"v": 1}, {"pmf": [0.5, 0.5, 0.0, 0.0, 0.0]}],
        "gains": [[1.0, 0.9], [0.7, 1.0]],
        "P": 10.0,
        "sigma2": 2.0,
    }
    if field == "v":
        doc["users"][0]["v"] = value
    elif field == "pmf":
        doc["users"][1]["pmf"][1] = value
    elif field == "gains":
        doc["gains"][0][1] = value
    else:
        doc[field] = value
    return doc


@pytest.mark.parametrize(
    "field,value",
    [("u", 2.7), ("u", "4"), ("u", True), ("v", 1.5), ("v", "1"), ("v", True),
     ("P", "100"), ("P", True), ("sigma2", "2"), ("sigma2", False),
     ("gains", "0.9"), ("gains", True), ("pmf", "0.5"), ("pmf", True)],
)
def test_scenario_fields_are_not_coerced(tmp_path, capsys, field, value):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(_scenario_with(field, value)))
    code, out, err = run_cli(["levels", "--scenario", str(path)], capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "ValueError"
    assert f"'{field}'" in json.loads(err)["message"]


@pytest.mark.parametrize("field,value", [("u", 4.0), ("v", 1.0)])
def test_scenario_counts_may_be_integral_floats(tmp_path, capsys, field, value):
    outs = []
    for v in (value, int(value)):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(_scenario_with(field, v)))
        code, out, err = run_cli(["levels", "--scenario", str(path)], capsys)
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--slots", "100", "--seed", "1", "--threads", "0"],
        ["bounds", "--gammas", "100", "--threads", "-3"],
    ],
    ids=["simulate_threads_0", "bounds_threads_neg"],
)
def test_threads_below_one_is_usage_error(scen_file, capsys, argv):
    code, out, err = run_cli([argv[0], "--scenario", scen_file] + argv[1:], capsys)
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "usage" and "--threads" in msg["message"]


@pytest.mark.parametrize("flag", ["--threads", "--slots", "--dump-samples"])
def test_counts_below_one_name_the_rule(scen_fixed_file, capsys, flag):
    argv = ["simulate", "--scenario", scen_fixed_file, "--slots", "10", "--seed", "1"]
    for value, text in (("0", "must be at least 1, got 0"), ("x", "invalid int value: 'x'")):
        code, out, err = run_cli(argv + [flag, value], capsys)
        assert code == 2 and out == ""
        msg = json.loads(err)
        assert msg["error"] == "usage" and f"{flag}: {text}" in msg["message"]


@pytest.mark.parametrize("sub", ["measures", "compare"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_n_des_below_one_is_a_usage_error(pmf_finite_file, capsys, sub, value):
    # like every other count flag, --n-des below its minimum is named in
    # a usage error, not refused later by FdConfig
    argv = [sub, "--pmf", pmf_finite_file, "--u", "8", "--n-des", value]
    code, out, err = run_cli(argv, capsys)
    assert_usage_error(code, out, err, "--n-des")
    assert f"--n-des: must be at least 1, got {value}" in json.loads(err)["message"]


@pytest.mark.parametrize("sub", ["measures", "compare"])
def test_n_des_past_the_double_range_is_a_usage_error(tmp_path, capsys, sub):
    # FD divides the band by n_des, so a count no double holds is refused
    # by name, not met by an OverflowError; the largest that fits runs
    law = tmp_path / "poisson3.json"
    law.write_text(json.dumps({"type": "poisson", "lambda": 3.0}))
    argv = [sub, "--pmf", str(law), "--u", "4", "--n-des"]
    code, out, err = run_cli(argv + ["1" + "0" * 400], capsys)
    assert_usage_error(code, out, err, "--n-des")
    assert "must be at most 1.79769e+308" in json.loads(err)["message"]
    code, out, _ = run_cli(argv + [str(int(sys.float_info.max))], capsys)
    assert code == 0 and out


@pytest.mark.parametrize("command", ["measures", "compare"])
def test_a_subnormal_band_returns(pmf_finite_file, command):
    # at --u 1e-320 the maximizer's cells lie among subnormals, where its
    # search for the turn of f' stops at the spacing of doubles; an older
    # maximizer ran for ever here. In a child process, such a loop fails
    # by the timeout.
    src = os.path.dirname(os.path.dirname(fhshare.__file__))
    argv = [sys.executable, "-m", "fhshare.cli", command, "--pmf", pmf_finite_file,
            "--u", "1e-320"]
    t0 = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert time.perf_counter() - t0 < 10.0
    assert done.returncode == 0 and done.stderr == ""
    assert len(parse_csv(done.stdout)) > 1


@pytest.mark.parametrize("sub", ["levels", "measures", "sweep", "compare"])
def test_threads_only_on_sampling_subcommands(scen_file, pmf_finite_file, capsys, sub):
    args = {
        "levels": ["--scenario", scen_file],
        "measures": ["--pmf", pmf_finite_file, "--u", "8"],
        "sweep": ["--u", "7", "--lambdas", "3"],
        "compare": ["--pmf", pmf_finite_file, "--u", "8"],
    }[sub]
    assert_usage_error(*run_cli([sub] + args + ["--threads", "2"], capsys), "--threads")


@pytest.mark.parametrize("sub", ["measures", "sweep", "compare"])
@pytest.mark.parametrize("u", ["inf", "nan", "1e400", "0", "-4"])
def test_u_must_be_positive_and_finite(pmf_finite_file, capsys, sub, u):
    args = ["--lambdas", "3"] if sub == "sweep" else ["--pmf", pmf_finite_file]
    assert_usage_error(*run_cli([sub, "--u", u] + args, capsys), "--u")


def test_overflow_is_a_json_error(scen_fixed_file, capsys):
    # the grid's point count (stop - start) / step overflows to inf
    for argv in (
        ["sweep", "--u", "7", "--lambdas", "0:1e300:1e-10"],
        ["bounds", "--scenario", scen_fixed_file, "--gammas", "0:1e300:1e-10"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        msg = json.loads(err)
        assert msg["error"] == "usage" and "overflows" in msg["message"], argv


@pytest.mark.parametrize("sub", ["measures", "compare"])
@pytest.mark.parametrize("epsilon", ["5", "2", "0", "-1", "nan", "inf"])
def test_epsilon_outside_half_u_is_an_error(tmp_path, capsys, sub, epsilon):
    # with q = (0, 1) the eta1 optimum is v = u, so eta4 would be taken at
    # v = u - epsilon
    path = tmp_path / "q01.json"
    path.write_text(json.dumps({"type": "finite", "q": [0.0, 1.0]}))
    code, out, err = run_cli([sub, "--pmf", str(path), "--u", "4", "--epsilon", epsilon], capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "epsilon" in msg["message"]


def test_negative_mc_samples_is_usage_error(scen_fixed_file, capsys):
    argv = ["bounds", "--scenario", scen_fixed_file, "--mc-samples", "-1", "--seed", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "usage" and "--mc-samples" in msg["message"]


def test_bounds_accepts_pmf_weights_summing_just_over_one(tmp_path, capsys):
    # The weights sum to 1 + 5e-13, so the raw mean hop count is
    # 2.0000000000005 > u; the mean is capped at the largest count.
    doc = {
        "u": 2,
        "users": [{"v": 1}, {"pmf": [0.0, 5e-13, 1.0]}],
        "gains": [[1.0, 0.5], [0.5, 1.0]],
        "P": 10.0,
        "sigma2": 1.0,
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["bounds", "--scenario", str(path), "--gammas", "100"], capsys)
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert [float(r["slope"]) for r in rows] == [0.0, 0.5]
    assert float(rows[0]["r_lb"]) > 0.0 and rows[1]["r_lb"] == "nan"


@pytest.mark.parametrize("lambdas", ["", "4:1:1"])
def test_sweep_refuses_an_empty_lambda_grid(capsys, lambdas):
    # an empty grid used to print only the header and exit 0
    code, out, err = run_cli(["sweep", "--u", "7", "--lambdas", lambdas], capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "usage",
        "message": f"argument --lambdas: need positive finite values, got {lambdas!r}",
    }


@pytest.mark.parametrize("gammas", ["nan", "inf", "0", "-5"])
def test_bounds_rejects_bad_gammas(scen_fixed_file, capsys, gammas):
    argv = ["bounds", "--scenario", scen_fixed_file, "--gammas", gammas]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "usage" and "--gammas" in msg["message"]


def test_pmf_dump_user_rejected_before_simulating(
    scen_file, tmp_path, capsys, monkeypatch
):
    def no_run(*args, **kwargs):
        raise AssertionError("sim.run was entered")

    monkeypatch.setattr(fhshare.sim, "run", no_run)
    dump = tmp_path / "y.bin"
    argv = ["simulate", "--scenario", scen_file, "--slots", "300000", "--seed", "1"]
    code, out, err = run_cli(argv + ["--dump", str(dump), "--dump-user", "2"], capsys)
    assert code == 1 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "--dump-user 2" in msg["message"]
    assert not dump.exists()


def test_dump_over_the_budget_is_refused_before_simulating(
    scen_fixed_file, tmp_path, capsys, monkeypatch
):
    def no_run(*args, **kwargs):
        raise AssertionError("sim.run was entered")

    monkeypatch.setattr(fhshare.sim, "run", no_run)
    # 1000 samples x 4 sub-bands is one cell over the budget
    monkeypatch.setattr(fhshare.sim, "MAX_BLOCK_CELLS", 3999)
    dump = tmp_path / "y.bin"
    argv = ["simulate", "--scenario", scen_fixed_file, "--slots", "300000", "--seed", "1",
            "--dump", str(dump), "--dump-samples", "1000"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "dump budget of 3999 cells" in msg["message"]
    assert not dump.exists()


def test_runtime_path_loads_no_scipy():
    # a lazy import would move scipy's import time into the first quadrature
    # or Poisson law, so the probe runs one of each and a CLI command too
    src = os.path.dirname(os.path.dirname(fhshare.__file__))
    probe = (
        "import sys, fhshare.cli\n"
        "from fhshare.measures import UserCountPmf\n"
        "from fhshare.mixture import GaussianMixture1D, entropy_quadrature\n"
        "entropy_quadrature(GaussianMixture1D.of((0.5, 1.0), (0.5, 4.0)))\n"
        "UserCountPmf.poisson(400.0)\n"
        "assert fhshare.cli.main(['sweep', '--u', '7', '--lambdas', '2:4:1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
        text=True,
    )
    assert done.stdout.startswith("u,lam,")
    assert done.stderr.strip() == "[]"


def test_sweep_refuses_a_lambda_past_the_user_cap(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(["sweep", "--u", "16", "--lambdas", "1e9"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "too large to truncate" in json.loads(err)["message"]


@pytest.fixture
def grid_blocks(monkeypatch):
    """The base values of every block of FH power grid rows built, in
    order."""
    built = []
    grid_powers = fhshare.measures._grid_powers

    def counting(base, k):
        built.append(base.copy())
        return grid_powers(base, k)

    monkeypatch.setattr(fhshare.measures, "_grid_powers", counting)
    return built


def test_sweep_builds_no_grid_rows(grid_blocks, capsys):
    # sweep takes eta1 and eta2 from the Poisson closed forms, so it
    # maximizes no curve: v_star is u/lambda, or u below lambda = 1
    for u, lambdas, rates in (("16", "0.5:4:0.5", 8), ("7", "2:10:1", 9), ("16", "400", 1)):
        code, out, _ = run_cli(["sweep", "--u", u, "--lambdas", lambdas], capsys)
        rows = parse_csv(out)
        assert code == 0 and len(rows) == rates
        for r in rows:
            lam = float(r["lam"])
            assert float(r["v_star"]) == pytest.approx(float(u) / max(lam, 1.0), rel=1e-11)
    assert grid_blocks == []


def test_sweep_400_computes_a_fifth_of_its_grid_at_most(grid_blocks, tmp_path, capsys):
    # sweep's Poisson(400) row comes from the closed forms and builds no
    # grid row; measures on the same law maximizes both curves, on fewer
    # hop counts than a fifth of a 4097-point grid
    code, out, _ = run_cli(["sweep", "--u", "16", "--lambdas", "400"], capsys)
    assert code == 0 and len(parse_csv(out)) == 1
    assert grid_blocks == []
    law = tmp_path / "poisson400.json"
    law.write_text(json.dumps({"type": "poisson", "lambda": 400.0}))
    code, _, _ = run_cli(["measures", "--pmf", str(law), "--u", "16"], capsys)
    assert code == 0
    assert 0 < sum(block.size for block in grid_blocks) <= 0.2 * 4097


@pytest.mark.parametrize("command", ["compare", "measures"])
def test_a_repeated_call_walks_the_grid_as_often_as_the_first(
    grid_blocks, pmf_finite_file, tmp_path, capsys, command
):
    # nothing outlives a call: a second identical call in the same process
    # computes the same rows of powers again, on a narrow law or a wide
    # one, and fewer than a 4097-point grid has
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"type": "poisson", "lambda": 40.0}))
    argv = {
        "compare": ["compare", "--pmf", pmf_finite_file, "--u", "8"],
        "measures": ["measures", "--pmf", str(wide), "--u", "16"],
    }[command]
    outs, walks = [], []
    for _ in range(2):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        outs.append(out)
        walks.append([block.size for block in grid_blocks])
        grid_blocks.clear()
    assert outs[0] == outs[1]
    assert walks[0] == walks[1] and 0 < sum(walks[0]) < 4097


def test_sweep_peak_memory_does_not_grow_with_the_lambdas(capsys):
    # sweep keeps nothing of a lambda's law past its row: three times the
    # lambdas add only their rows and output text
    lambdas = ["0.5", "1", "2", "3", "5", "8", "13", "21"]
    assert main(["sweep", "--u", "16", "--lambdas", ",".join(lambdas)]) == 0  # warm-up
    peaks = []
    for repeat in (1, 3):
        tracemalloc.start()
        try:
            assert main(["sweep", "--u", "16", "--lambdas", ",".join(lambdas * repeat)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    # a curve on the maximizer's grid kept per lambda would add 32 KB each
    assert peaks[1] - peaks[0] <= 4096 * 2 * len(lambdas), peaks


def test_compare_skips_conditions_with_mass_at_zero(tmp_path, capsys):
    path = tmp_path / "idle.json"
    path.write_text(json.dumps({"type": "finite", "q": [0.5, 0.25, 0.25]}))
    code, out, err = run_cli(["compare", "--pmf", str(path), "--u", "10"], capsys)
    assert code == 0, err
    rows = parse_csv(out)
    assert [r["measure"] for r in rows if r["kind"] == "measure"] == [
        "eta1",
        "eta2",
        "eta3",
        "eta4",
    ]
    assert not [r for r in rows if r["kind"] == "condition"]


@pytest.mark.parametrize(
    "argv,code",
    [(["sweep", "--u", "16", "--lambdas", "1:1e6:1"], 2),
     (["bounds", "--scenario", "unread.json", "--gammas", "1:1e6:1"], 2)],
    ids=["sweep", "bounds"],
)
def test_grids_beyond_the_cap_fail_fast(capsys, argv, code):
    t0 = time.perf_counter()
    got, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - t0 < 1.0
    assert got == code and out == "" and err.count("\n") == 1
    assert "16384" in json.loads(err)["message"]


def test_parse_floats_grid_endpoints():
    grid = _parse_floats("0:1000:0.1")
    assert len(grid) == 10001
    assert grid[-1] == 1000.0
    assert _parse_floats("0.5:4:0.5") == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    assert _parse_floats("2:10:1") == [float(x) for x in range(2, 11)]
    with pytest.raises(ValueError):
        _parse_floats("0:inf:1")


def test_repeated_main_matches_fresh_process(pmf_finite_file, capsys):
    src = os.path.dirname(os.path.dirname(fhshare.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (
        ["sweep", "--u", "7", "--lambdas", "2:4:1"],
        ["compare", "--pmf", pmf_finite_file, "--u", "8", "--format", "json"],
    ):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "fhshare.cli"] + argv,
            capture_output=True,
            env=env,
            check=True,
        )
        assert out.encode() == fresh.stdout


def assert_usage_error(code, out, err, flag):
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "usage" and flag in msg["message"]


@pytest.mark.parametrize(
    "flag, value", [("--slots", "0"), ("--slots", "-3"), ("--dump-samples", "0")]
)
def test_simulate_sizes_below_one_are_usage_errors(
    scen_fixed_file, tmp_path, capsys, monkeypatch, flag, value
):
    def no_run(*args, **kwargs):
        raise AssertionError("the simulation was entered")

    monkeypatch.setattr(fhshare.sim, "run", no_run)
    dump = tmp_path / "y.bin"
    argv = ["simulate", "--scenario", scen_fixed_file, "--slots", "300000", "--seed", "1",
            "--dump", str(dump)]
    assert_usage_error(*run_cli(argv + [flag, value], capsys), flag)
    assert not dump.exists()


@pytest.mark.parametrize("value", ["1", "99"])
def test_mc_samples_below_the_estimator_minimum_is_usage_error(
    scen_fixed_file, capsys, monkeypatch, value
):
    def no_bound(*args, **kwargs):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(fhshare.bounds, "upper_bound_rate", no_bound)
    argv = ["bounds", "--scenario", scen_fixed_file, "--gammas", "100",
            "--mc-samples", value, "--seed", "1"]
    assert_usage_error(*run_cli(argv, capsys), "--mc-samples")


def test_mc_samples_at_the_estimator_minimum_runs(scen_fixed_file, capsys):
    argv = ["bounds", "--scenario", scen_fixed_file, "--gammas", "100", "--users", "0",
            "--mc-samples", "100", "--seed", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert math.isfinite(float(parse_csv(out)[0]["mi_mc"]))


def test_bounds_slope_skips_zero_gain_interferers(tmp_path, capsys):
    # Zero cross gains: every band is free, so both bounds rise with
    # slope 1/2 (v = 1 of u = 2), as the slope column must say.
    doc = {
        "u": 2,
        "users": [{"v": 1}, {"v": 1}],
        "gains": [[1.0, 0.0], [0.0, 1.0]],
        "P": 100.0,
        "sigma2": 1.0,
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["bounds", "--scenario", str(path), "--gammas", "100,1e6"], capsys
    )
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert [float(r["slope"]) for r in rows] == [0.5] * 4
    scen, profs = scenario_from_json(doc)
    assert upper_bound_rate(scen, profs, 0).slope_bits_per_log2snr == 0.5
    for row in rows:
        awgn = 0.5 * math.log2(1.0 + float(row["gamma"]))
        assert float(row["r_ub"]) == pytest.approx(awgn, rel=1e-11)
        assert float(row["r_lb"]) == pytest.approx(awgn, rel=1e-11)


def test_more_than_20_users_run_everywhere(tmp_path, capsys):
    # 24 equal-gain users on u = 2: 2^23 joint placements, 24 spectrum levels
    n = 24
    path = tmp_path / "n24.json"
    path.write_text(json.dumps(
        {"u": 2, "users": [{"v": 1}] * n, "gains": [[1.0] * n] * n, "P": 10.0, "sigma2": 1.0}
    ))
    code, out, _ = run_cli(["levels", "--scenario", str(path)], capsys)
    assert code == 0 and len(parse_csv(out)) == n * n
    code, out, _ = run_cli(["bounds", "--scenario", str(path), "--users", "0,23"], capsys)
    assert code == 0
    for row in parse_csv(out):
        assert 0.0 < float(row["r_lb"]) <= float(row["r_ub"])
    argv = ["simulate", "--scenario", str(path), "--slots", "100", "--seed", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and len(parse_csv(out)) > n


def test_wide_pmf_spectrum_is_a_json_error(tmp_path, capsys):
    # a third round of 1001 pmf outcomes against ~5e5 levels would ask for
    # gigabytes; the round is refused before it allocates
    u, n = 1000, 4
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"u": u, "users": [{"pmf": [1.0 / (u + 1)] * (u + 1)}] * n,
         "gains": [[1.0] * n] * n, "P": 10.0, "sigma2": 1.0}
    ))
    code, out, err = run_cli(["levels", "--scenario", str(path)], capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    msg = json.loads(err)
    assert msg["error"] == "ValueError" and "enumeration budget" in msg["message"]


@pytest.mark.parametrize("doc, field", [
    ({"type": "finite"}, "q"),
    ({"type": "poisson", "truncation": 50}, "lambda"),
])
def test_pmf_document_names_its_missing_field(tmp_path, capsys, doc, field):
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["measures", "--pmf", str(path), "--u", "4"], capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "ValueError", "message": f"pmf document missing field '{field}'"
    }


def test_sweep_past_the_closed_form_overflow(capsys):
    code, out, _ = run_cli(["sweep", "--u", "4", "--lambdas", "720"], capsys)
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["eta2_fh"]) == pytest.approx(1.0233096e-3, rel=1e-7)


def test_compare_scores_fd_eta1_at_the_largest_band(tmp_path, capsys):
    # FD's eta1 at u = 1e308, n_des = floor(u), is (u/2) E{N}/n_des = 1.5;
    # 0.5 n u overflows there, which must neither warn nor reach the output
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps({"type": "poisson", "lambda": 3}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(["compare", "--pmf", str(path), "--u", "1e308"], capsys)
    assert code == 0
    (eta1,) = [r for r in parse_csv(out) if r["measure"] == "eta1"]
    assert float(eta1["fd"]) == pytest.approx(1.5, rel=1e-9)
    assert eta1["winner"] == "fh"


def test_default_n_des_serves_one_user_below_one_sub_band(tmp_path, capsys):
    code, out, _ = run_cli(["sweep", "--u", "0.5", "--lambdas", "3"], capsys)
    assert code == 0 and parse_csv(out)[0]["n_des"] == "1"
    for doc in ({"type": "poisson", "lambda": 3.0}, {"type": "finite", "q": [0.0, 0.5, 0.5]}):
        path = tmp_path / "pmf.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["measures", "--pmf", str(path), "--u", "0.5"], capsys)
        assert code == 0
        fd = [r for r in parse_csv(out) if r["scheme"] == "fd"]
        assert fd and all(r["param_value"] == "1" for r in fd)


BOUNDS_HEADER = ["user", "gamma", "r_ub", "r_lb", "mi_mc", "mi_se", "slope"]


def library_bounds_rows(doc, gammas):
    """The bounds table by one library call per cell, each enumerating its
    own spectrum, with NotApplicable as nan."""
    scen, profs = scenario_from_json(doc)

    def value(fn, scen_g, user):
        try:
            return fn(scen_g, profs, user).value_bits
        except fhshare.NotApplicable:
            return math.nan

    rows = []
    for user in range(scen.n_users):
        slope = fhshare.multiplexing_gain(scen, profs, user)
        for gamma in gammas:
            scen_g = NetworkScenario(
                scen.n_users, scen.n_subbands, scen.gains, gamma * scen.noise_power,
                scen.noise_power,
            )
            rows.append((user, gamma, value(upper_bound_rate, scen_g, user),
                         value(lower_bound_rate, scen_g, user), math.nan, math.nan, slope))
    return rows


BOUNDS_DOCS = {
    # every hop count fixed, user 1 silent
    "fixed": {
        "u": 4, "users": [{"v": 1}, {"v": 0}, {"v": 2}, {"v": 1}],
        "gains": [[1.0, 0.9, 0.8, 0.3], [0.7, 1.0, 0.6, 0.3], [0.5, 0.4, 1.0, 0.3],
                  [1.0, 1.0, 1.0 + 1e-9, 1.2]],
        "P": 10.0, "sigma2": 2.0,
    },
    # user 1 on a pmf (no upper bound anywhere, no lower bound for it), user 3 silent
    "mixed": {
        "u": 3, "users": [{"v": 1}, {"pmf": [0.2, 0.3, 0.5, 0.0]}, {"v": 3}, {"v": 0}],
        "gains": [[1.0, 0.5, 0.5, 0.5], [0.5, 1.0, 0.25, 0.0], [1.0, 1.0, 2.0, 1.0],
                  [0.1, 0.2, 0.3, 1.0]],
        "P": 1.0, "sigma2": 0.5,
    },
}


@pytest.mark.parametrize("name", sorted(BOUNDS_DOCS))
def test_bounds_table_is_the_per_cell_library_calls_byte_for_byte(name, tmp_path, capsys):
    doc = BOUNDS_DOCS[name]
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    rows = library_bounds_rows(doc, [1e-2, 10.0, 1e7])
    # JSON writes every float in full, so equal text means equal bits
    for fmt in ("csv", "json"):
        code, out, err = run_cli(
            ["bounds", "--scenario", str(path), "--gammas", "0.01,10,1e7", "--format", fmt],
            capsys,
        )
        assert code == 0 and err == ""
        assert out == emitted(reference_emit, BOUNDS_HEADER, rows, fmt)
    assert any(math.isnan(row[2]) for row in rows) == (name == "mixed")
    assert any(row[3] == 0.0 for row in rows)  # a silent user



def test_bounds_builds_one_law_per_user_that_reads_one(tmp_path, capsys, monkeypatch):
    # users 0 and 2 hop on a fixed v >= 1: one law each, merged at every
    # gamma; the pmf and silent users never convolve; no bound enumerates
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(BOUNDS_DOCS["mixed"]))
    built = []
    law = fhshare.cli.interference_law
    monkeypatch.setattr(fhshare.cli, "interference_law",
                        lambda scen, profs, user: built.append(user) or law(scen, profs, user))

    def not_called(*args):
        raise AssertionError("a bound enumerated its own spectrum")

    monkeypatch.setattr(fhshare.bounds, "enumerate_interference_spectrum", not_called)
    code, _, err = run_cli(["bounds", "--scenario", str(path), "--gammas", "1,10,100"], capsys)
    assert code == 0 and err == ""
    assert built == [0, 2]


def test_bounds_never_convolves_for_a_user_no_bound_reads(tmp_path, capsys, monkeypatch):
    # Every spectrum here needs a round of 8 x 2 cells, over a budget of 8:
    # user 0's pmf and user 1's v = 0 leave no bound to read it, so their
    # cells are nan or 0 and the command succeeds, as before the law was
    # built once per user.
    n = 5
    doc = {
        "u": 4,
        "users": [{"pmf": [0.5, 0.5, 0.0, 0.0, 0.0]}, {"v": 0}] + [{"v": 1}] * (n - 2),
        "gains": [[1.0 + 0.1 * (i + k) for i in range(n)] for k in range(n)],
        "P": 10.0, "sigma2": 1.0,
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(fhshare.model, "MAX_ROUND_CELLS", 8)
    code, _, err = run_cli(["levels", "--scenario", str(path)], capsys)
    assert code == 1 and "enumeration budget" in json.loads(err)["message"]
    code, out, err = run_cli(
        ["bounds", "--scenario", str(path), "--users", "0,1", "--gammas", "10,100"], capsys
    )
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert [(r["r_ub"], r["r_lb"]) for r in rows] == [("nan", "nan")] * 2 + [("nan", "0")] * 2


def test_json_writes_non_finite_cells_as_null(scen_file, capsys):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out, err = run_cli(
        ["bounds", "--scenario", scen_file, "--gammas", "100", "--format", "json"], capsys
    )
    assert code == 0 and err == ""
    rows = json.loads(out, parse_constant=reject)
    assert [r["r_ub"] for r in rows] == [None] * 3
    assert rows[2]["r_lb"] is None and rows[0]["mi_mc"] is None
    assert math.isfinite(rows[0]["r_lb"])
    # CSV keeps printing nan
    code, out, _ = run_cli(["bounds", "--scenario", scen_file, "--gammas", "100"], capsys)
    assert parse_csv(out)[0]["r_ub"] == "nan"


def test_slope_cell_counts_an_underflowing_square_as_no_hop(tmp_path, capsys):
    doc = {"u": 2, "users": [{"v": 1}, {"v": 1}], "gains": [[1.0, 1e-170], [1e-170, 1.0]],
           "P": 1.0, "sigma2": 1.0}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["bounds", "--scenario", str(path), "--gammas", "1e300", "--users", "0"], capsys
    )
    assert code == 0 and err == ""
    (row,) = parse_csv(out)
    assert row["slope"] == "0.5"
    assert float(row["r_ub"]) == pytest.approx(float(row["r_lb"]), rel=1e-11)
