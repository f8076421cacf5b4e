"""Command-line front end: sweeps and solves with CSV/JSON table output.

Subcommands: tmatrix, threshold, singularity, locus, fields.
Exit codes: 0 ok, 2 validation error, 3 near-singularity, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from .core import GainMedium, Polarization, SlabScenario, WaveSpec
from .dispersion import TwoLevelMedium, central_mode_number, trace_locus
from .fields import (
    SingularFieldContext,
    energy_density,
    poynting,
    poynting_angle_deg,
)
from .solver import (
    RESIDUAL_TOL,
    ConvergenceError,
    brewster_angle,
    solve_singularity,
    threshold_curve,
)
from .transfer import (
    SpectralSingularityError,
    build_transfer_matrix,
    scattering_amplitudes,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NEAR_SINGULARITY = 3
EXIT_SOLVER = 4

_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}
_GAIN_UNITS = {"cm-1": 100.0, "m-1": 1.0}


def parse_length(text: str) -> float:
    """Length with optional suffix nm|um|mm|m; bare numbers are meters."""
    match = re.fullmatch(r"\s*([-+0-9.eE]+)\s*(nm|um|mm|m)?\s*", text)
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse length {text!r}")
    return float(match.group(1)) * _LENGTH_UNITS[match.group(2) or "m"]


def parse_gain(text: str) -> float:
    """Gain with optional suffix cm-1|m-1; bare numbers are 1/m."""
    match = re.fullmatch(r"\s*([-+0-9.eE]+)\s*(cm-1|m-1)?\s*", text)
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse gain {text!r}")
    return float(match.group(1)) * _GAIN_UNITS[match.group(2) or "m-1"]


def parse_pol(text: str) -> Polarization:
    try:
        return Polarization(text.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(f"polarization must be TE or TM, not {text!r}")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _cfmt(value: complex) -> str:
    return f"{value.real:.17g}{value.imag:+.17g}j"


def _write(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _metadata(args: argparse.Namespace) -> dict:
    params = {k: v for k, v in vars(args).items()
              if k not in {"func", "out", "format"} and v is not None}
    params = {k: (v.value if isinstance(v, Polarization) else v)
              for k, v in params.items()}
    return {"artifact": "gainslab", "version": __version__,
            "parameters": params, "residual_tol": RESIDUAL_TOL}


def cmd_tmatrix(args: argparse.Namespace) -> int:
    scenario = SlabScenario(args.L, GainMedium(args.eta, args.kappa))
    wave = WaveSpec.from_wavelength(args.wavelength, args.theta, args.pol)
    matrix = build_transfer_matrix(scenario, wave)
    try:
        amps = scattering_amplitudes(matrix)
    except SpectralSingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEAR_SINGULARITY
    rows = {
        "M11": matrix.m11, "M12": matrix.m12,
        "M21": matrix.m21, "M22": matrix.m22,
        "det_M": matrix.det,
        "R_left": amps.r_left, "R_right": amps.r_right,
        "T_left": amps.t_left, "T_right": amps.t_right,
    }
    if args.format == "json":
        payload = {"metadata": _metadata(args),
                   "result": {k: [v.real, v.imag] for k, v in rows.items()}}
        _write([json.dumps(payload, indent=2)], args.out)
    else:
        lines = ["quantity,value"]
        lines += [f"{k},{_cfmt(v)}" for k, v in rows.items()]
        _write(lines, args.out)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    grid = np.linspace(args.theta_min, args.theta_max, args.steps)
    te = threshold_curve(args.eta, args.L, args.wavelength, Polarization.TE, grid)
    tm = threshold_curve(args.eta, args.L, args.wavelength, Polarization.TM, grid)
    lines = ["theta_deg,g_TE_cm1,g_TM_cm1,kappa_TE,kappa_TM"]
    any_ok = False
    for s_te, s_tm in zip(te.samples, tm.samples):
        cells = [_fmt(s_te.theta_deg)]
        for sample in (s_te, s_tm):
            cells.append(_fmt(sample.g / 100.0) if sample.g is not None else "")
        for sample in (s_te, s_tm):
            cells.append(_fmt(sample.kappa) if sample.kappa is not None else "")
        any_ok = any_ok or s_te.g is not None or s_tm.g is not None
        lines.append(",".join(cells))
    lines.append(f"# theta_b_deg,{_fmt(brewster_angle(args.eta))}")
    lines.append(f"# theta_c_deg,{_fmt(tm.theta_c_deg)}")
    lines.append(f"# g_max_cm1,{_fmt(tm.g_max / 100.0)}")
    _write(lines, args.out)
    return EXIT_OK if any_ok else EXIT_SOLVER


def cmd_singularity(args: argparse.Namespace) -> int:
    point = solve_singularity(args.eta, args.theta, args.L, args.pol,
                              m=args.m, target_wavelength=args.target)
    payload = {
        "metadata": _metadata(args),
        "result": {
            "lambda_nm": point.wavelength * 1e9,
            "kappa": point.kappa,
            "g_cm1": point.g / 100.0,
            "m": point.m,
            "theta_deg": point.theta_deg,
            "pol": point.polarization.value,
            "residual": point.residual,
            "m22_abs": point.m22_abs,
        },
    }
    _write([json.dumps(payload, indent=2)], args.out)
    return EXIT_OK


def cmd_locus(args: argparse.Namespace) -> int:
    medium = TwoLevelMedium(args.n0, args.lambda0, args.gamma_hat)
    if args.m_min is not None and args.m_max is not None:
        m_values = range(args.m_min, args.m_max + 1)
    else:
        center = central_mode_number(medium, args.L, args.theta)
        half = args.m_span // 2
        m_values = range(max(1, center - half), center + half + 1)
    points, failed = trace_locus(medium, args.L, args.theta, args.pol,
                                 m_values, g0_cap=args.g0_max)
    for m in failed:
        print(f"mode m = {m}: no convergence, skipped", file=sys.stderr)
    lines = ["m,lambda_nm,g0_cm1,residual"]
    for p in points:
        lines.append(",".join([str(p.m), _fmt(p.wavelength * 1e9),
                               _fmt(p.g0 / 100.0), _fmt(p.residual)]))
    _write(lines, args.out)
    return EXIT_OK


def cmd_fields(args: argparse.Namespace) -> int:
    point = solve_singularity(args.eta, args.theta, args.L, args.pol,
                              m=args.m, target_wavelength=args.target)
    ctx = SingularFieldContext(point)
    L = point.thickness
    z = np.linspace(-0.5 * L, 1.5 * L, args.points)
    s = poynting(ctx, z) / ctx.poynting_out
    u = energy_density(ctx, z) / ctx.energy_out
    theta_s = poynting_angle_deg(ctx, z)
    lines = ["z_over_L,Sx_norm,Sz_norm,u_norm,theta_poynting_deg"]
    for i, zi in enumerate(z):
        lines.append(",".join(_fmt(v) for v in
                              (zi / L, s[i, 0], s[i, 2], u[i], theta_s[i])))
    _write(lines, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainslab",
        description="Transfer-matrix and lasing-threshold calculations for an "
                    "active planar slab",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("tmatrix", help="transfer matrix and R/T amplitudes")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=0.0, help="degrees")
    p.add_argument("--wavelength", "--lambda", type=parse_length, required=True)
    p.add_argument("--L", type=parse_length, required=True)
    p.add_argument("--pol", type=parse_pol, required=True)
    add_out(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_tmatrix)

    p = sub.add_parser("threshold", help="threshold gain versus angle")
    p.add_argument("--eta", type=float, default=3.4)
    p.add_argument("--L", type=parse_length, default="300um")
    p.add_argument("--wavelength", "--lambda", type=parse_length, default="1500nm")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=89.5)
    p.add_argument("--steps", type=int, default=180)
    add_out(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("singularity", help="solve one spectral singularity")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--L", type=parse_length, required=True)
    p.add_argument("--pol", type=parse_pol, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int)
    group.add_argument("--target", type=parse_length,
                       help="target wavelength; picks the first mode at or above it")
    add_out(p)
    p.set_defaults(func=cmd_singularity)

    p = sub.add_parser("locus", help="singularity locus with gain dispersion")
    p.add_argument("--n0", type=float, default=3.4)
    p.add_argument("--lambda0", type=parse_length, default="1500nm")
    p.add_argument("--gamma-hat", type=float, default=0.02)
    p.add_argument("--L", type=parse_length, default="300um")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--pol", type=parse_pol, required=True)
    p.add_argument("--m-min", type=int)
    p.add_argument("--m-max", type=int)
    p.add_argument("--m-span", type=int, default=20,
                   help="modes around resonance when no explicit m range")
    p.add_argument("--g0-max", type=parse_gain,
                   help="drop locus points above this resonance gain")
    add_out(p)
    p.set_defaults(func=cmd_locus)

    p = sub.add_parser("fields", help="singular-mode Poynting/energy profile")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--L", type=parse_length, required=True)
    p.add_argument("--pol", type=parse_pol, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int)
    group.add_argument("--target", type=parse_length)
    p.add_argument("--points", type=int, default=2001)
    add_out(p)
    p.set_defaults(func=cmd_fields)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
