"""Command line front end.

Subcommands: levels, bounds, simulate, measures, sweep, compare. Output
is CSV (default) or JSON with a fixed column order; all floats in CSV are
rendered with 12 significant digits. Randomized commands require an
explicit --seed and their output is byte-identical for any --threads.
Failures print a one-line JSON error object to stderr and exit nonzero.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from typing import List, Optional, Sequence

from . import bounds as bd
from . import measures as ms
from . import sim as sm
from .gains import per_user_gains
from .model import enumerate_interference_spectrum, scenario_from_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail("usage", message, code=2)


def _fail(kind: str, message: str, code: int = 1):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    raise SystemExit(code)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.12g}"
    return str(x)


def _emit(header: Sequence[str], rows: List[dict], fmt: str, out: Optional[str]):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in header])
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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
        columns = zip(
            spectrum.probabilities.tolist(),
            spectrum.c_values.tolist(),
            spectrum.variances.tolist(),
        )
        for l_idx, (p, c, var) in enumerate(columns):
            rows.append(
                {"receiver": i, "level": l_idx, "probability": p, "c": c, "sigma2": var}
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
    slopes = per_user_gains([p.mean_v() for p in profiles], scenario.n_subbands)
    rows = []
    for user in users:
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
            rows.append(
                {
                    "user": user,
                    "gamma": gamma,
                    "r_ub": r_ub,
                    "r_lb": r_lb,
                    "mi_mc": mi,
                    "mi_se": se,
                    "slope": float(slopes[user]),
                }
            )
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
    rows = []
    for i in range(scenario.n_users):
        rows.append(
            {
                "user": i,
                "stat": "free_subbands",
                "level": None,
                "c": None,
                "value": float(stats.free_mean[i]),
                "se": float(stats.free_se[i]),
            }
        )
    for i in range(scenario.n_users):
        for l_idx in range(len(stats.level_c[i])):
            rows.append(
                {
                    "user": i,
                    "stat": "level_freq",
                    "level": l_idx,
                    "c": float(stats.level_c[i][l_idx]),
                    "value": float(stats.level_freq[i][l_idx]),
                    "se": float(stats.level_se[i][l_idx]),
                }
            )
    _emit(["user", "stat", "level", "c", "value", "se"], rows, args.format, args.out)


def _report_rows(report: ms.MeasureReport, u: float) -> List[dict]:
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
        rows.append(
            {
                "scheme": report.scheme,
                "measure": name,
                "value": value,
                "value_per_u": value / u,
                "param": p_name,
                "param_value": p_value,
            }
        )
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
            {
                "u": u,
                "lam": lam,
                "n_des": fd_cfg.n_des,
                "eta1_fh": e1,
                "eta1_fh_per_u": e1 / u,
                "v_star": v_star,
                "eta2_fh": e2,
                "eta2_fh_per_u": e2 / u,
                "v_dagger": u * (1.0 - omega),
                "omega_dagger": omega,
                "eta2_fd": e2_fd,
                "eta2_fd_per_u": e2_fd / u,
                "eta_afh_1": ms.eta_afh(1, pmf, u),
                "eta_afh_2": ms.eta_afh(2, pmf, u),
                "eta4_fd": ms.eta4("fd", pmf, u, fd=fd_cfg),
            }
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
        rows.append(
            {
                "kind": "measure",
                "measure": name,
                "fh": fh_val,
                "fd": fd_val,
                "winner": winner,
                "condition_holds": None,
                "inequality_verified": None,
            }
        )
    # the mean-load conditions assume a finite load with no mass at N = 0
    if pmf.is_finite and pmf.q[0] == 0.0:
        for name, checker in (
            ("eta1_condition", ms.eta1_sufficient_condition),
            ("eta2_condition", ms.eta2_sufficient_condition),
        ):
            chk = checker(pmf)
            rows.append(
                {
                    "kind": "condition",
                    "measure": name,
                    "fh": None,
                    "fd": None,
                    "winner": None,
                    "condition_holds": chk.condition_holds,
                    "inequality_verified": chk.inequality_verified,
                }
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


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _snr_grid(text: str) -> List[float]:
    gammas = _parse_floats(text)
    if not gammas or not all(math.isfinite(g) and g > 0 for g in gammas):
        raise argparse.ArgumentTypeError(f"need positive finite SNRs, got {text!r}")
    return gammas


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="fhshare", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=_positive_int, default=1)

    p = sub.add_parser("levels", help="enumerate interference spectra")
    p.add_argument("--scenario", required=True)
    common(p)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("bounds", help="rate bounds over an SNR grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--gammas", type=_snr_grid, default="1e2,1e3,1e4,1e5,1e6,1e7,1e8")
    p.add_argument("--users", default=None, help="comma list (default: all)")
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="slot-level simulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dump", default=None, help="binary sample dump path")
    p.add_argument("--dump-user", type=int, default=0)
    p.add_argument("--dump-samples", type=int, default=10000)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("measures", help="eta measures for FH/FD/AFH")
    p.add_argument("--pmf", required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--n-des", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("sweep", help="Poisson load sweep of the measures")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--lambdas", required=True, help="comma list or start:stop:step")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="FH vs FD winners and conditions")
    p.add_argument("--pmf", required=True)
    p.add_argument("--u", type=float, required=True)
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
    except (ValueError, RuntimeError, KeyError, OSError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
