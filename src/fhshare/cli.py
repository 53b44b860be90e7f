"""Command line front end.

Subcommands: levels, bounds, simulate, measures, sweep, compare. Output
is CSV (default) or JSON with a fixed column order; all floats in CSV are
rendered with 12 significant digits. Randomized commands require an
explicit --seed and their output is byte-identical for any --threads.
Failures print a one-line JSON error object to stderr and exit nonzero.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bounds as bd
from . import measures as ms
from . import sim as sm
from .mixture import MC_MIN_SAMPLES
from .model import (
    _is_number,
    check_user,
    enumerate_interference_spectrum,
    interference_law,
    scenario_from_json,
)

# Most points of a start:stop:step grid of SNRs or lambdas: sweep spends
# at most about 0.35 ms per lambda (Poisson laws near the user cap, on a
# 2-vCPU x86 host), so its longest grid runs in about 6 s.
MAX_GRID_POINTS = 1 << 14


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail("usage", message, code=2)


def _fail(kind: str, message: str, code: int = 1):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    raise SystemExit(code)


def _cell_format(cell_type: type) -> str:
    """%-format of a CSV cell of this type: a float (numpy's included) to
    12 significant digits, None as an empty cell ("%.0s" prints no
    character of it), anything else as str(), so bools read True/False."""
    if cell_type is type(None):
        return "%.0s"
    return "%.12g" if issubclass(cell_type, float) else "%s"


def _column_format(cells: list, typed: bool) -> Tuple[list, str]:
    """cells and the %-format of their one type (typed cells all have the
    first one's), or, where their types differ, each cell formatted on its
    own and "%s"."""
    types = set(map(type, cells[:1] if typed else cells))
    if len(types) > 1:
        return [_cell_format(type(x)) % (x,) for x in cells], "%s"
    return cells, _cell_format(types.pop()) if types else "%s"


def _json_cell(x):
    """x, or None (JSON null) for a float that is not finite."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _emit(header: Sequence[str], columns: Sequence, fmt: str, out: Optional[str]):
    """Write columns, one sequence of cells per header name and all of one
    length, as CSV or as a JSON list of row objects. A (numeric) numpy
    array column is written as its tolist(), whose cells share one type,
    so only the other columns are read cell by cell for their formats.
    CSV cells are never quoted: every string written is a fixed
    identifier. JSON writes a float that is not finite as null."""
    typed = [isinstance(col, np.ndarray) for col in columns]
    cols = [col.tolist() if isinstance(col, np.ndarray) else list(col) for col in columns]
    n_rows = len(cols[0])
    if fmt == "csv":
        # One % operation on every cell, interleaved row by row.
        width = len(cols)
        cols, formats = zip(*map(_column_format, cols, typed))
        flat = [None] * (n_rows * width)
        for j, cells in enumerate(cols):
            flat[j::width] = cells
        text = ",".join(header) + "\n" + (",".join(formats) + "\n") * n_rows % tuple(flat)
    else:
        rows = [dict(zip(header, map(_json_cell, row))) for row in zip(*cols)]
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _columns(rows: List[tuple], width: int) -> List[tuple]:
    """The columns of rows that each hold width cells."""
    return list(zip(*rows)) if rows else [()] * width


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        _fail("input", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        _fail("input", f"invalid JSON in {path}: {exc}")


def _load_pmf(path: str) -> ms.UserCountPmf:
    doc = _load_json_file(path)
    if not isinstance(doc, dict):
        raise ValueError("pmf file must hold a JSON object")
    kind = doc.get("type")
    if kind not in ("finite", "poisson"):
        raise ValueError("pmf file needs type 'finite' or 'poisson'")
    field = "q" if kind == "finite" else "lambda"
    if field not in doc:
        raise ValueError(f"pmf document missing field '{field}'")
    if kind == "finite":
        q = doc["q"]
        if not (isinstance(q, list) and all(_is_number(x) for x in q)):
            raise ValueError("pmf 'q' must be a list of numbers")
        return ms.UserCountPmf.finite(q)
    if not _is_number(doc["lambda"]):
        raise ValueError("pmf 'lambda' must be a number")
    return ms.UserCountPmf.poisson(float(doc["lambda"]), truncation_n=doc.get("truncation"))


def _parse_floats(text: str) -> List[float]:
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError("grid bounds and step must be finite")
        if step <= 0:
            raise ValueError("step must be positive")
        # index the grid instead of summing steps, so roundoff cannot
        # drop the endpoint
        span = (stop - start) / step
        if not math.isfinite(span):
            raise ValueError("the grid's point count (stop - start) / step overflows")
        count = math.floor(span + 1e-9) + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"a grid holds at most {MAX_GRID_POINTS} values, got {count}")
        return [round(start + k * step, 12) for k in range(count)]
    return [float(x) for x in text.split(",") if x.strip()]


def cmd_levels(args) -> None:
    scenario, profiles = scenario_from_json(_load_json_file(args.scenario))
    spectra = [
        enumerate_interference_spectrum(scenario, profiles, i) for i in range(scenario.n_users)
    ]
    sizes = [spectrum.n_levels for spectrum in spectra]
    _emit(
        ["receiver", "level", "probability", "c", "sigma2"],
        [
            np.repeat(np.arange(len(sizes)), sizes),
            np.concatenate([np.arange(size) for size in sizes]),
            np.concatenate([spectrum.probabilities for spectrum in spectra]),
            np.concatenate([spectrum.c_values for spectrum in spectra]),
            np.concatenate([spectrum.variances for spectrum in spectra]),
        ],
        args.format,
        args.out,
    )


def _nan_unless_applicable(call, missing=math.nan):
    """call(), or the nan cells missing where bounds.NotApplicable says the
    bound's hypothesis fails."""
    try:
        return call()
    except bd.NotApplicable:
        return missing


def cmd_bounds(args) -> None:
    scenario, profiles = scenario_from_json(_load_json_file(args.scenario))
    gammas = args.gammas
    if args.mc_samples > 0 and args.seed is None:
        _fail("usage", "--seed is required when --mc-samples > 0", code=2)
    users = (
        [check_user(scenario, profiles, int(x)) for x in args.users.split(",")]
        if args.users
        else list(range(scenario.n_users))
    )
    # the scenario rescaled to each SNR at fixed noise power
    scaled = [
        dataclasses.replace(scenario, total_power=gamma * scenario.noise_power)
        for gamma in gammas
    ]
    rows = []
    for user in users:
        slope = bd.multiplexing_gain(scenario, profiles, user)
        # Both bounds read the user's spectrum exactly when its hop count
        # is a fixed v >= 1 (the lower bound's hypothesis, which the upper
        # bound's implies): only then is the gamma-free law built.
        law = interference_law(scenario, profiles, user) if profiles[user].fixed_v else None
        for gamma, scen_g in zip(gammas, scaled):
            spectrum = (
                law.spectrum(scen_g.noise_power, scen_g.total_power) if law else None
            )
            r_ub = _nan_unless_applicable(
                lambda: bd.upper_bound_rate(
                    scen_g, profiles, user, spectrum=spectrum
                ).value_bits
            )
            r_lb = _nan_unless_applicable(
                lambda: bd.lower_bound_rate(
                    scen_g, profiles, user, spectrum=spectrum
                ).value_bits
            )
            mi, se = math.nan, math.nan
            if args.mc_samples > 0:
                mi, se = _nan_unless_applicable(
                    lambda: bd.mc_mutual_information(
                        scen_g, profiles, user, args.mc_samples, args.seed,
                        threads=args.threads,
                    ),
                    (math.nan, math.nan),
                )
            rows.append((user, gamma, r_ub, r_lb, mi, se, slope))
    header = ["user", "gamma", "r_ub", "r_lb", "mi_mc", "mi_se", "slope"]
    _emit(header, _columns(rows, len(header)), args.format, args.out)


def cmd_simulate(args) -> None:
    scenario, profiles = scenario_from_json(_load_json_file(args.scenario))
    if args.dump:
        if not profiles[check_user(scenario, profiles, args.dump_user)].is_fixed:
            raise ValueError(f"--dump-user {args.dump_user} has a pmf, not a fixed v")
        sm.check_dump_cells(args.dump_samples, scenario.n_subbands)
    cfg = sm.SimConfig(
        scenario=scenario,
        profiles=tuple(profiles),
        n_slots=args.slots,
        master_seed=args.seed,
    )
    stats = sm.run(cfg, threads=args.threads)
    if args.dump:
        y, _ = sm.sample_received(
            scenario,
            profiles,
            args.dump_user,
            args.dump_samples,
            args.seed,
            threads=args.threads,
        )
        sm.write_sample_dump(args.dump, y)
    users = range(scenario.n_users)
    rows = [(i, "free_subbands", None, None, m, se)
            for i, m, se in zip(users, stats.free_mean.tolist(), stats.free_se.tolist())]
    rows += [
        (i, "level_freq", level, *cells)
        for i in users
        for level, cells in enumerate(zip(stats.level_c[i].tolist(), stats.level_freq[i].tolist(),
                                          stats.level_se[i].tolist()))
    ]
    header = ["user", "stat", "level", "c", "value", "se"]
    _emit(header, _columns(rows, len(header)), args.format, args.out)


def cmd_measures(args) -> None:
    measures = ms.build_measure_reports(
        _load_pmf(args.pmf), args.u, n_des=args.n_des, epsilon=args.epsilon
    )
    rows = [(m.scheme, m.measure, m.value, m.value / args.u, m.param, m.param_value)
            for m in measures]
    header = ["scheme", "measure", "value", "value_per_u", "param", "param_value"]
    _emit(header, _columns(rows, len(header)), args.format, args.out)


def _sweep_row(u: float, lam: float) -> tuple:
    """The sweep row of the Poisson(lam) law."""
    pmf = ms.UserCountPmf.poisson(lam)
    fd_cfg = ms.FdConfig.default_for(pmf, u)
    e1, v_star = ms.eta1_fh_poisson_closed(lam, u)
    e2, omega = ms.eta2_fh_poisson_closed(lam, u)
    e2_fd = ms.eta2_fd(pmf, fd_cfg, u)
    return (
        u,
        lam,
        fd_cfg.n_des,
        e1,
        e1 / u,
        v_star,
        e2,
        e2 / u,
        u * (1.0 - omega),
        omega,
        e2_fd,
        e2_fd / u,
        ms.eta1_afh(pmf, u),
        ms.eta2_afh(pmf, u),
        ms.eta4_fd(pmf, fd_cfg),
    )


def cmd_sweep(args) -> None:
    rows = [_sweep_row(args.u, lam) for lam in args.lambdas]
    header = [
        "u",
        "lam",
        "n_des",
        "eta1_fh",
        "eta1_fh_per_u",
        "v_star",
        "eta2_fh",
        "eta2_fh_per_u",
        "v_dagger",
        "omega_dagger",
        "eta2_fd",
        "eta2_fd_per_u",
        "eta_afh_1",
        "eta_afh_2",
        "eta4_fd",
    ]
    _emit(header, _columns(rows, len(header)), args.format, args.out)


def cmd_compare(args) -> None:
    pmf = _load_pmf(args.pmf)
    measures = ms.build_measure_reports(pmf, args.u, n_des=args.n_des, epsilon=args.epsilon)
    fd = {m.measure: m.value for m in measures if m.scheme == "fd"}
    rows = []
    for m in measures:
        if m.scheme != "fh":
            continue
        fh_val, fd_val = m.value, fd[m.measure]
        winner = "fh" if fh_val > fd_val else ("fd" if fd_val > fh_val else "tie")
        rows.append(("measure", m.measure, fh_val, fd_val, winner, None, None))
    for name, chk in ms.mean_load_conditions(pmf).items():
        rows.append(
            ("condition", f"{name}_condition", None, None, None, chk.condition_holds,
             chk.inequality_verified)
        )
    header = [
        "kind",
        "measure",
        "fh",
        "fd",
        "winner",
        "condition_holds",
        "inequality_verified",
    ]
    _emit(header, _columns(rows, len(header)), args.format, args.out)


def _positive_int(text: str) -> int:
    """argparse type for an int of at least 1 that a double can hold (FD
    divides the band by --n-des)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    if n > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"must be at most {sys.float_info.max:.6g}")
    return n


_positive_int.__name__ = "int"  # argparse names the type in "invalid int value"


def _mc_samples(text: str) -> int:
    """argparse type for --mc-samples: 0 (no Monte Carlo) or enough
    samples for mixture.entropy_mc."""
    n = int(text)
    if n != 0 and n < MC_MIN_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"must be 0 (off) or at least {MC_MIN_SAMPLES}, got {n}"
        )
    return n


_mc_samples.__name__ = "int"


def _positive_finite(text: str) -> float:
    """argparse type for a positive finite float."""
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return x


_positive_finite.__name__ = "float"


def _positive_grid(text: str) -> List[float]:
    """argparse type for a nonempty grid of positive finite values (SNRs,
    lambdas), as a comma list or start:stop:step."""
    try:
        grid = _parse_floats(text)
    except ValueError as exc:  # argparse would print only "invalid value"
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not grid or not all(math.isfinite(x) and x > 0 for x in grid):
        raise argparse.ArgumentTypeError(f"need positive finite values, got {text!r}")
    return grid


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="fhshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if threads:
            p.add_argument("--threads", type=_positive_int, default=1)

    p = sub.add_parser("levels", help="enumerate interference spectra")
    p.add_argument("--scenario", required=True)
    common(p)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("bounds", help="rate bounds over an SNR grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--gammas", type=_positive_grid, default="1e2,1e3,1e4,1e5,1e6,1e7,1e8")
    p.add_argument("--users", default=None, help="comma list (default: all)")
    p.add_argument("--mc-samples", type=_mc_samples, default=0)
    p.add_argument("--seed", type=int, default=None)
    common(p, threads=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="slot-level simulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--slots", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dump", default=None, help="binary sample dump path")
    p.add_argument("--dump-user", type=int, default=0)
    p.add_argument("--dump-samples", type=_positive_int, default=10000)
    common(p, threads=True)
    p.set_defaults(func=cmd_simulate)

    def load_law(p):
        p.add_argument("--pmf", required=True)
        p.add_argument("--u", type=_positive_finite, required=True)
        p.add_argument("--n-des", type=_positive_int, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        common(p)

    p = sub.add_parser("measures", help="eta measures for FH/FD/AFH")
    load_law(p)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("sweep", help="Poisson load sweep of the measures")
    p.add_argument("--u", type=_positive_finite, required=True)
    p.add_argument("--lambdas", type=_positive_grid, required=True,
                   help="comma list or start:stop:step")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="FH vs FD winners and conditions")
    load_law(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, RuntimeError, KeyError, OSError, OverflowError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
