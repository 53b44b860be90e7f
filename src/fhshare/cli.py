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
import itertools
import json
import math
import sys
from typing import List, Optional, Sequence

from . import bounds as bd
from . import measures as ms
from . import sim as sm
from .mixture import MC_MIN_SAMPLES
from .model import _is_number, enumerate_interference_spectrum, scenario_from_json

# Most points of a start:stop:step grid of SNRs or lambdas: sweep spends
# about 2 ms per lambda, so its longest grid runs in about 30 s.
MAX_GRID_POINTS = 1 << 14


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail("usage", message, code=2)


def _fail(kind: str, message: str, code: int = 1):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    raise SystemExit(code)


def _row_template(types: tuple) -> str:
    """%-template of one CSV line whose cells have these types: a float
    (numpy's included) to 12 significant digits, None as an empty cell
    ("%.0s" prints no character of it), anything else as str(), so bools
    read True/False."""
    cells = (
        "%.0s" if t is type(None) else "%.12g" if issubclass(t, float) else "%s"
        for t in types
    )
    return ",".join(cells) + "\n"


def _emit(header: Sequence[str], rows: List[tuple], fmt: str, out: Optional[str]):
    """Write rows, tuples in header order, as CSV or as a JSON list of
    objects. CSV cells are never quoted: every string written is a fixed
    identifier."""
    if fmt == "csv":
        parts = [",".join(header) + "\n"]
        # Each run of rows with the same cell types is one % operation.
        types = [tuple(map(type, row)) for row in rows]
        start = 0
        for key, run in itertools.groupby(types):
            stop = start + len(list(run))
            cells = tuple(itertools.chain.from_iterable(rows[start:stop]))
            parts.append(_row_template(key) * (stop - start) % cells)
            start = stop
        text = "".join(parts)
    else:
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        _fail("input", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        _fail("input", f"invalid JSON in {path}: {exc}")


def _load_scenario(path: str):
    return scenario_from_json(_load_json_file(path))


def _load_pmf(path: str) -> ms.UserCountPmf:
    doc = _load_json_file(path)
    if not isinstance(doc, dict):
        raise ValueError("pmf file must hold a JSON object")
    kind = doc.get("type")
    if kind == "finite":
        q = doc["q"]
        if not (isinstance(q, list) and all(_is_number(x) for x in q)):
            raise ValueError("pmf 'q' must be a list of numbers")
        return ms.UserCountPmf.finite(q)
    if kind == "poisson":
        if not _is_number(doc["lambda"]):
            raise ValueError("pmf 'lambda' must be a number")
        return ms.UserCountPmf.poisson(
            float(doc["lambda"]), truncation_n=doc.get("truncation")
        )
    raise ValueError("pmf file needs type 'finite' or 'poisson'")


def _parse_floats(text: str) -> List[float]:
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError("grid bounds and step must be finite")
        if step <= 0:
            raise ValueError("step must be positive")
        # index the grid instead of summing steps, so roundoff cannot
        # drop the endpoint
        count = math.floor((stop - start) / step + 1e-9) + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"a grid holds at most {MAX_GRID_POINTS} values, got {count}")
        return [round(start + k * step, 12) for k in range(count)]
    return [float(x) for x in text.split(",") if x.strip()]


def _check_user(user: int, n_users: int) -> int:
    if not 0 <= user < n_users:
        raise ValueError(f"user index {user} out of range 0..{n_users - 1}")
    return user


def cmd_levels(args) -> None:
    scenario, profiles = _load_scenario(args.scenario)
    rows = []
    for i in range(scenario.n_users):
        spectrum = enumerate_interference_spectrum(scenario, profiles, i)
        rows += zip(
            [i] * spectrum.n_levels,
            range(spectrum.n_levels),
            spectrum.probabilities.tolist(),
            spectrum.c_values.tolist(),
            spectrum.variances.tolist(),
        )
    _emit(["receiver", "level", "probability", "c", "sigma2"], rows, args.format, args.out)


def cmd_bounds(args) -> None:
    scenario, profiles = _load_scenario(args.scenario)
    gammas = args.gammas
    if args.mc_samples > 0 and args.seed is None:
        _fail("usage", "--seed is required when --mc-samples > 0", code=2)
    users = (
        [_check_user(int(x), scenario.n_users) for x in args.users.split(",")]
        if args.users
        else list(range(scenario.n_users))
    )
    all_fixed = all(p.is_fixed for p in profiles)
    rows = []
    for user in users:
        slope = bd.multiplexing_gain(scenario, profiles, user)
        for gamma in gammas:
            scen_g = dataclasses.replace(
                scenario, total_power=gamma * scenario.noise_power
            )
            # The placement-exact upper bound and the MC estimate need
            # every hop count fixed; the lower bound only needs the
            # target user's. Cells that do not apply come out as nan.
            r_ub = r_lb = mi = se = math.nan
            if all_fixed:
                try:
                    r_ub = bd.upper_bound_rate(scen_g, profiles, user).value_bits
                except ValueError as exc:
                    if "budget" not in str(exc):
                        raise
            if profiles[user].is_fixed:
                r_lb = bd.lower_bound_rate(scen_g, profiles, user).value_bits
            if args.mc_samples > 0 and all_fixed:
                try:
                    mi, se = bd.mc_mutual_information(
                        scen_g,
                        profiles,
                        user,
                        args.mc_samples,
                        args.seed,
                        threads=args.threads,
                    )
                except ValueError as exc:
                    if "budget" not in str(exc):
                        raise
                    mi = se = math.nan
            rows.append((user, gamma, r_ub, r_lb, mi, se, slope))
    _emit(
        ["user", "gamma", "r_ub", "r_lb", "mi_mc", "mi_se", "slope"],
        rows,
        args.format,
        args.out,
    )


def cmd_simulate(args) -> None:
    scenario, profiles = _load_scenario(args.scenario)
    if args.dump:
        _check_user(args.dump_user, scenario.n_users)
        if not profiles[args.dump_user].is_fixed:
            raise ValueError(f"--dump-user {args.dump_user} has a pmf, not a fixed v")
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
    rows = [
        (i, "free_subbands", None, None, float(stats.free_mean[i]), float(stats.free_se[i]))
        for i in range(scenario.n_users)
    ]
    for i in range(scenario.n_users):
        for l_idx in range(len(stats.level_c[i])):
            rows.append(
                (
                    i,
                    "level_freq",
                    l_idx,
                    float(stats.level_c[i][l_idx]),
                    float(stats.level_freq[i][l_idx]),
                    float(stats.level_se[i][l_idx]),
                )
            )
    _emit(["user", "stat", "level", "c", "value", "se"], rows, args.format, args.out)


def _report_rows(report: ms.MeasureReport, u: float) -> List[tuple]:
    rows = []
    params = {
        "eta1": ("v_star", report.v_star),
        "eta2": ("v_dagger", report.v_dagger),
        "eta3": ("v", report.eta3_v),
        "eta4": ("v", report.eta4_v),
    }
    if report.scheme == "fd":
        params = {k: ("n_des", report.n_des) for k in params}
    if report.scheme == "afh":
        params = {k: (None, None) for k in params}
    for name in ("eta1", "eta2", "eta3", "eta4"):
        value = getattr(report, name)
        if value is None:
            continue
        p_name, p_value = params[name]
        rows.append((report.scheme, name, value, value / u, p_name, p_value))
    return rows


def cmd_measures(args) -> None:
    pmf = _load_pmf(args.pmf)
    fh, fd, afh = ms.build_measure_reports(
        pmf, args.u, n_des=args.n_des, epsilon=args.epsilon
    )
    rows = []
    for report in (fh, fd, afh):
        rows.extend(_report_rows(report, args.u))
    _emit(
        ["scheme", "measure", "value", "value_per_u", "param", "param_value"],
        rows,
        args.format,
        args.out,
    )


def cmd_sweep(args) -> None:
    lams = _parse_floats(args.lambdas)
    u = args.u
    rows = []
    for lam in lams:
        pmf = ms.UserCountPmf.poisson(lam)
        fd_cfg = ms.FdConfig(n_des=int(u))
        e1, v_star = ms.eta1_fh(pmf, u)
        e2, omega = ms.eta2_fh_poisson_closed(lam, u)
        e2_fd = ms.eta2_fd(pmf, fd_cfg, u)
        rows.append(
            (
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
                ms.eta_afh(1, pmf, u),
                ms.eta_afh(2, pmf, u),
                ms.eta4_fd(pmf, fd_cfg),
            )
        )
    _emit(
        [
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
        ],
        rows,
        args.format,
        args.out,
    )


def cmd_compare(args) -> None:
    pmf = _load_pmf(args.pmf)
    u = args.u
    fh, fd, afh = ms.build_measure_reports(
        pmf, u, n_des=args.n_des, epsilon=args.epsilon
    )
    rows = []
    for name in ("eta1", "eta2", "eta3", "eta4"):
        fh_val = getattr(fh, name)
        fd_val = getattr(fd, name)
        if fh_val is None or fd_val is None:
            continue
        winner = "fh" if fh_val > fd_val else ("fd" if fd_val > fh_val else "tie")
        rows.append(("measure", name, fh_val, fd_val, winner, None, None))
    # the mean-load conditions assume a finite load with no mass at N = 0
    if pmf.is_finite and pmf.weights[0] == 0.0:
        for name, checker in (
            ("eta1_condition", ms.eta1_sufficient_condition),
            ("eta2_condition", ms.eta2_sufficient_condition),
        ):
            chk = checker(pmf)
            rows.append(
                ("condition", name, None, None, None, chk.condition_holds,
                 chk.inequality_verified)
            )
    _emit(
        [
            "kind",
            "measure",
            "fh",
            "fd",
            "winner",
            "condition_holds",
            "inequality_verified",
        ],
        rows,
        args.format,
        args.out,
    )


def _int_at_least(minimum: int):
    """argparse type for an int of at least minimum."""

    def parse(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


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


def _snr_grid(text: str) -> List[float]:
    try:
        gammas = _parse_floats(text)
    except ValueError as exc:  # argparse would print only "invalid value"
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not gammas or not all(math.isfinite(g) and g > 0 for g in gammas):
        raise argparse.ArgumentTypeError(f"need positive finite SNRs, got {text!r}")
    return gammas


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="fhshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if threads:
            p.add_argument("--threads", type=_int_at_least(1), default=1)

    p = sub.add_parser("levels", help="enumerate interference spectra")
    p.add_argument("--scenario", required=True)
    common(p)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("bounds", help="rate bounds over an SNR grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--gammas", type=_snr_grid, default="1e2,1e3,1e4,1e5,1e6,1e7,1e8")
    p.add_argument("--users", default=None, help="comma list (default: all)")
    p.add_argument("--mc-samples", type=_mc_samples, default=0)
    p.add_argument("--seed", type=int, default=None)
    common(p, threads=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="slot-level simulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--slots", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dump", default=None, help="binary sample dump path")
    p.add_argument("--dump-user", type=int, default=0)
    p.add_argument("--dump-samples", type=_int_at_least(1), default=10000)
    common(p, threads=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("measures", help="eta measures for FH/FD/AFH")
    p.add_argument("--pmf", required=True)
    p.add_argument("--u", type=_positive_finite, required=True)
    p.add_argument("--n-des", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("sweep", help="Poisson load sweep of the measures")
    p.add_argument("--u", type=_positive_finite, required=True)
    p.add_argument("--lambdas", required=True, help="comma list or start:stop:step")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="FH vs FD winners and conditions")
    p.add_argument("--pmf", required=True)
    p.add_argument("--u", type=_positive_finite, required=True)
    p.add_argument("--n-des", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    common(p)
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
