"""The four benchmark workloads: seeded inputs, a timed pass, and its checks.

A workload object is built from a seed; its inputs are a pure function of
that seed.  ``warm_up`` makes one call per package entry point the workload
uses, ``run_pass`` is the timed unit, and ``check`` verifies one pass's
outputs against oracle.py and records them in that pass's Tally.  An
operation is one result: a threshold curve, a critical angle, a singular
point, a locus mode, a spectrum, a propagated field, a flux or energy
profile, a CLI command.  An operation that raises never stops a pass: the
exception takes the place of its result and ``check`` counts it as failed,
as it does a result that fails a check.  Every pass attempts the same
named operations, so the outcomes of two passes can be compared.

Seeded draws use Latin-hypercube sampling over the parameter box, one draw
per stratum of every coordinate, so that each seed spans the whole box and
the cost of a pass does not swing with where a few draws happen to land.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import gainslab as gs
import oracle

TE, TM = gs.Polarization.TE, gs.Polarization.TM

GATE = 1e-10          # residual gate of every defining condition
DET_GATE = 1e-12      # |det M - 1| / scale^2, the scaling of criterion 05
LABEL_TOL = 1e-6      # phase-condition label against the reported m
AMP_TOL = 1e-8        # amplitudes against 1/M22, which magnifies M22's error

PAPER_ETA, PAPER_LAMBDA = 3.4, 1500e-9
# ranges of acceptance criterion 06, plus the wavelength range of the sweeps
ETA_RANGE = (2.0, 4.5)
THETA_RANGE = (0.0, 85.0)
THICKNESS_RANGE = (100e-6, 500e-6)
LAMBDA_RANGE = (1.3e-6, 1.6e-6)

# two-level gain line and slab of acceptance criterion 12
LOCUS_LINE = dict(n0=3.4, lambda0=1500e-9, gamma_hat=0.02)
LOCUS_L = 300e-6


@dataclass
class Tally:
    """The operations of one pass by name, whether each passed its checks,
    and the worst residual of any that did (a failed result is already
    counted as failed)."""

    outcomes: dict = field(default_factory=dict)   # operation -> passed
    worst: float = 0.0
    scored: int = 0           # accepted results that carried a residual
    checks: int = 0           # conditions evaluated
    counts: dict = field(default_factory=dict)     # per-pass layer counts

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        return sum(not ok for ok in self.outcomes.values())

    def record(self, op, ok, residual=None, checks=1):
        if op in self.outcomes:
            raise ValueError(f"operation {op!r} recorded twice in one pass")
        ok = bool(ok)
        self.outcomes[op] = ok
        self.checks += checks
        if ok and residual is not None:
            self.scored += 1
            self.worst = max(self.worst, float(residual))


def child_env():
    """This process's environment with the checkout's src/ first on
    PYTHONPATH: a child interpreter then imports the same package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def attempt(fn, *args, **kwargs):
    """Call fn; an exception is returned in place of the result, not raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:   # a failed operation is counted, never fatal
        return exc


def failed(result) -> bool:
    return isinstance(result, Exception)


def latin(rng, n, *ranges):
    """n points of the box spanned by ranges, one per stratum of each axis."""
    cols = [lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n
            for lo, hi in ranges]
    return [tuple(float(v) for v in row) for row in np.column_stack(cols)]


def polarizations(rng, n):
    """n polarizations, half TE and half TM, in seeded order."""
    return [TM if p else TE for p in rng.permutation(np.arange(n) % 2)]


def singular_draws(rng, n):
    """(eta, theta, L, pol, target wavelength) over the criterion-06 box."""
    draws = latin(rng, n, ETA_RANGE, THETA_RANGE, THICKNESS_RANGE,
                  LAMBDA_RANGE)
    return [(eta, th, L, pol, lam)
            for (eta, th, L, lam), pol in zip(draws, polarizations(rng, n))]


def paper_points(*angles):
    """The singular points of acceptance criteria 01 and 02."""
    return [(PAPER_ETA, th, 400e-6, pol, PAPER_LAMBDA)
            for th in angles for pol in (TE, TM)]


def first_at_or_above(wavelength, m, target):
    """The mode is the first one at or above the target wavelength: the
    target lies less than one mode spacing (about wavelength/m) below it."""
    offset = (wavelength - target) * m / wavelength
    return -1e-9 <= offset < 1.0


def check_singular(tally, specs, points):
    """Residual, gain sign, mode label and mode choice of singular points
    solved for a target wavelength."""
    for i, ((eta, th, L, pol, target), p) in enumerate(zip(specs, points)):
        op = f"point {i} {pol.value} theta={th:.6g}"
        if failed(p):
            tally.record(op, False)
            continue
        res, rel, label = oracle.singular_condition(
            eta, p.kappa, th, L, p.wavelength, pol is TM)
        ok = (res <= GATE and p.kappa < 0
              and abs(label - p.m) <= LABEL_TOL
              and first_at_or_above(p.wavelength, p.m, target))
        tally.record(op, ok, rel, checks=4)


class ThresholdSweep:
    """Threshold gain versus angle, TE and TM, with the TM critical angle."""

    def __init__(self, seed, tiny=False, workdir=None):
        rng = np.random.default_rng(seed)
        self.configs = [(PAPER_ETA, 300e-6, PAPER_LAMBDA)] + latin(
            rng, 1, ETA_RANGE, THICKNESS_RANGE, LAMBDA_RANGE)
        self.angles = np.linspace(0.0, 89.5, 12 if tiny else 180)

    def warm_up(self):
        gs.threshold_curve(*self.configs[0], TE, self.angles[:2])

    def run_pass(self):
        return [(i, pol, attempt(gs.threshold_curve, *cfg, pol, self.angles))
                for i, cfg in enumerate(self.configs) for pol in (TE, TM)]

    def check(self, outputs, tally):
        for i, pol, curve in outputs:
            eta, L, lam = self.configs[i]
            tm = pol is TM
            op = f"config {i} {pol.value}"
            if failed(curve):
                tally.record(f"{op} curve", False)
                if tm:
                    tally.record(f"{op} critical angle", False)
                continue
            theta = np.array([s.theta_deg for s in curve.samples])
            kappa = np.array([np.nan if s.kappa is None else s.kappa
                              for s in curve.samples])
            g = np.array([np.nan if s.g is None else s.g
                          for s in curve.samples])
            k = 2.0 * math.pi / lam
            res = oracle.modulus_residual(eta, kappa, theta, L, lam, tm)
            ok = ((theta.shape == self.angles.shape)
                  and np.all((theta == self.angles) & (kappa < 0)
                             & (res <= GATE)
                             & (np.abs(g + 2.0 * k * kappa)
                                <= 1e-12 * np.abs(g))))
            tally.record(f"{op} curve", ok, np.max(res),
                         checks=4 * len(self.angles))
            if tm:
                self._check_critical(tally, f"{op} critical angle", curve,
                                     eta, L, lam, g)

    @staticmethod
    def _check_critical(tally, op, curve, eta, L, lam, g):
        """The returned maximum is a threshold, beats every grid sample, and
        sits at Brewster's angle as acceptance criterion 03 states."""
        theta_c, g_max = curve.theta_c_deg, curve.g_max
        if theta_c is None or g_max is None or not np.all(np.isfinite(g)):
            tally.record(op, False)
            return
        kappa_c = -g_max * lam / (4.0 * math.pi)
        res = float(oracle.modulus_residual(eta, kappa_c, theta_c, L, lam,
                                            True))
        ok = (kappa_c < 0 and res <= GATE
              and g_max >= np.max(g) * (1.0 - 1e-9)
              and abs(theta_c - math.degrees(math.atan(eta))) < 0.02)
        tally.record(op, ok, res, checks=4)


class ModeSolve:
    """Singular points at a target wavelength, and the criterion-12 loci."""

    def __init__(self, seed, tiny=False, workdir=None):
        rng = np.random.default_rng(seed)
        self.solves = paper_points(20.0, 80.0) + singular_draws(
            rng, 10 if tiny else 200)
        self.medium = gs.TwoLevelMedium(**LOCUS_LINE)
        m30 = oracle.central_mode(LOCUS_LINE["n0"], LOCUS_LINE["lambda0"],
                                  LOCUS_L, 30.0)
        m73 = oracle.central_mode(LOCUS_LINE["n0"], LOCUS_LINE["lambda0"],
                                  LOCUS_L, 73.0)
        half = 5 if tiny else 50
        # (theta, polarization, modes, g0 cap) exactly as criterion 12 runs them
        self.loci = [(30.0, TE, range(m30 - half, m30 + half), None),
                     (73.0, TM, range(m73 - 5, m73 + 6), 4000.0)]

    def warm_up(self):
        eta, th, L, pol, lam = self.solves[0]
        gs.solve_singularity(eta, th, L, pol, target_wavelength=lam)
        th, pol, modes, cap = self.loci[0]
        gs.trace_locus(self.medium, LOCUS_L, th, pol, modes[:1], g0_cap=cap)

    def run_pass(self):
        points = [attempt(gs.solve_singularity, eta, th, L, pol,
                          target_wavelength=lam)
                  for eta, th, L, pol, lam in self.solves]
        loci = [attempt(gs.trace_locus, self.medium, LOCUS_L, th, pol, modes,
                        g0_cap=cap)
                for th, pol, modes, cap in self.loci]
        return points, loci

    def check(self, outputs, tally):
        points, loci = outputs
        check_singular(tally, self.solves, points)
        counts = dict.fromkeys(("attempted", "unconverged", "mislabelled",
                                "duplicate"), 0)
        for (th, pol, modes, cap), result in zip(self.loci, loci):
            op = f"locus {pol.value} theta={th:g} m="
            counts["attempted"] += len(modes)
            if failed(result):
                counts["unconverged"] += len(modes)
                for m in modes:
                    tally.record(f"{op}{m}", False)
                continue
            found, unconverged = result
            counts["unconverged"] += len(unconverged)
            verdict = {m: (False, None) for m in unconverged}
            if found:
                lam, g0, m = (np.array([getattr(p, key) for p in found])
                              for key in ("wavelength", "g0", "m"))
                bad, mislabelled, duplicate, rel = locus_failures(
                    lam, g0, m, th, pol is TM, cap)
                counts["mislabelled"] += int(np.count_nonzero(mislabelled))
                counts["duplicate"] += int(np.count_nonzero(duplicate))
                for mi, bad_i, rel_i in zip(m.tolist(), bad, rel):
                    # a mode reported twice, or one never asked for, fails
                    verdict[mi] = ((False, None) if mi in verdict
                                   else (not bad_i and mi in modes, rel_i))
            # a mode dropped by the g0 cap passes unchecked
            for m in sorted(set(modes) | set(verdict)):
                ok, rel_m = verdict.get(m, (True, None))
                tally.record(f"{op}{m}", ok, rel_m,
                             checks=5 if rel_m is not None else 1)
        tally.counts.update({f"dispersion.modes_{k}": v
                             for k, v in counts.items()})


def locus_failures(lam, g0, m, theta_deg, tm, cap=None):
    """Check locus points of the criterion-12 line and slab: residual, gain,
    label, distinct roots and the g0 cap.  Returns per-point masks (failed,
    mislabelled, sharing a root) and the relative residuals."""
    eta, kappa = oracle.two_level_index(lam, g0, **LOCUS_LINE)
    res, rel, label = oracle.singular_condition(eta, kappa, theta_deg,
                                                LOCUS_L, lam, tm)
    mislabelled = np.abs(label - m) > LABEL_TOL
    duplicate = oracle.shared_roots(lam, np.median(lam / m))
    bad = mislabelled | duplicate | ~(res <= GATE) | ~(kappa < 0)
    if cap is not None:
        bad |= g0 > cap
    return bad, mislabelled, duplicate, rel


@dataclass
class Line:
    """One singular point and the forward evaluations made around it."""

    index: int                # of the seeded spec, names its operations
    point: object
    scenario: object          # the slab just below threshold
    wavelengths: np.ndarray   # spectrum across the line
    ctx: object               # singular-field context at threshold
    grids: list               # z grids for the field profiles
    z_fields: np.ndarray      # interface limits + CLI grid for general_fields


class FieldScan:
    """Forward evaluation only: spectra, propagated fields, field profiles."""

    BELOW_THRESHOLD = 1.0 - 1e-3   # kappa as a share of the threshold kappa
    CLI_POINTS = 2001              # z grid of `gainslab fields`
    LARGE_POINTS = 200_001         # 4.8 MB per real 3-vector array

    def __init__(self, seed, tiny=False, workdir=None):
        rng = np.random.default_rng(seed)
        self.detuning = np.linspace(-0.5, 0.5, 50 if tiny else 2500)
        large = 20_001 if tiny else self.LARGE_POINTS
        specs = paper_points(20.0) + singular_draws(rng, 2 if tiny else 6)
        self.lines = []
        self.unsolved = []   # (spec index, grid sizes) of unsolved points
        for i, (eta, th, L, pol, lam) in enumerate(specs):
            z_cli = np.linspace(-0.5 * L, 1.5 * L, self.CLI_POINTS)
            grids = [z_cli]
            if i < 2:   # the paper points also get the out-of-cache grid
                grids.append(np.linspace(-0.5 * L, 1.5 * L, large))
            point = attempt(gs.solve_singularity, eta, th, L, pol,
                            target_wavelength=lam)
            if failed(point):
                # every operation of the line fails in every pass, so a
                # point that stops solving cannot shorten the pass unseen
                self.unsolved.append((i, [z.size for z in grids]))
                continue
            edges = np.array([np.nextafter(0.0, -1.0), 0.0, L,
                              np.nextafter(L, 2.0 * L)])
            self.lines.append(Line(
                index=i,
                point=point,
                scenario=gs.SlabScenario(L, gs.GainMedium(
                    eta, self.BELOW_THRESHOLD * point.kappa)),
                wavelengths=point.wavelength * (1.0 + self.detuning / point.m),
                ctx=gs.SingularFieldContext(point),
                grids=grids,
                z_fields=np.concatenate([edges, z_cli])))
        self.points_per_pass = sum(4 * z.size for line in self.lines
                                   for z in line.grids)

    def warm_up(self):
        line = self.lines[0]
        p = line.point
        self._forward(line.scenario, p, p.wavelength)
        self._propagate(line)
        z = line.grids[0][:4]
        self._profiles(line.ctx, z)

    @staticmethod
    def _forward(scenario, p, wavelength):
        wave = gs.WaveSpec.from_wavelength(wavelength, p.theta_deg,
                                           p.polarization)
        m = gs.build_transfer_matrix(scenario, wave)
        amps = gs.scattering_amplitudes(m)
        return m.m11, m.m12, m.m21, m.m22, amps.t_right

    @staticmethod
    def _propagate(line):
        p = line.point
        wave = gs.WaveSpec.from_wavelength(p.wavelength, p.theta_deg,
                                           p.polarization)
        coeffs = gs.propagate_coefficients(line.scenario, wave, a0=1.0)
        return coeffs, gs.general_fields(line.scenario, wave, coeffs, 0.0,
                                         line.z_fields)

    @staticmethod
    def _profiles(ctx, z):
        return (attempt(gs.poynting, ctx, z),
                attempt(gs.poynting_from_fields, ctx, 0.0, z),
                attempt(gs.energy_density, ctx, z),
                attempt(gs.energy_density_from_fields, ctx, 0.0, z))

    def run_pass(self):
        out = []
        for line in self.lines:
            spectrum = [attempt(self._forward, line.scenario, line.point, lam)
                        for lam in line.wavelengths]
            out.append((spectrum, attempt(self._propagate, line),
                        [self._profiles(line.ctx, z) for z in line.grids]))
        return out

    @staticmethod
    def _ops(index, sizes):
        """The operations of one line: spectrum, propagated fields, and a
        flux and an energy profile per grid."""
        return ([f"line {index} spectrum", f"line {index} propagated"]
                + [f"line {index} {kind} on {n} points"
                   for n in sizes for kind in ("poynting", "energy_density")])

    def check(self, outputs, tally):
        for index, sizes in self.unsolved:
            for op in self._ops(index, sizes):
                tally.record(op, False)
        for line, (spectrum, propagated, profiles) in zip(self.lines, outputs):
            spec_op, prop_op, *profile_ops = self._ops(
                line.index, [z.size for z in line.grids])
            self._check_spectrum(tally, spec_op, line, spectrum)
            self._check_propagated(tally, prop_op, line, propagated)
            pairs = [(closed, assembled, z.size)
                     for z, (s, s_f, u, u_f) in zip(line.grids, profiles)
                     for closed, assembled in ((s, s_f), (u, u_f))]
            for op, (closed, assembled, size) in zip(profile_ops, pairs):
                ok, dev = cross_check(closed, assembled, size)
                tally.record(op, ok, dev, checks=2 * size)
        tally.counts["fields.points"] = self.points_per_pass

    def _check_spectrum(self, tally, op, line, spectrum):
        """det M = 1, M against the oracle, T = 1/M22 and the line's peak."""
        p = line.point
        good = np.array([not failed(r) for r in spectrum])
        vals = np.array([r if not failed(r) else (np.nan,) * 5
                         for r in spectrum], dtype=complex)
        med = line.scenario.medium
        ref = oracle.transfer_entries(med.eta, med.kappa, p.theta_deg,
                                      p.thickness, line.wavelengths,
                                      p.polarization is TM)
        ref = np.stack(ref, axis=1)
        scale = np.maximum(np.max(np.abs(ref), axis=1), 1.0)
        dev = np.max(np.abs(vals[:, :4] - ref), axis=1) / scale
        det = vals[:, 0] * vals[:, 3] - vals[:, 1] * vals[:, 2]
        det_res = np.abs(det - 1.0) / scale ** 2
        t_res = np.abs(vals[:, 4] * ref[:, 3] - 1.0)
        ok = good & (dev <= GATE) & (det_res <= DET_GATE) & (t_res <= AMP_TOL)
        # just below threshold, |T|^2 peaks at the singular wavelength
        step = self.detuning[1] - self.detuning[0]
        t2 = np.where(good, np.abs(vals[:, 4]) ** 2, -1.0)
        peak = abs(self.detuning[int(np.argmax(t2))]) <= 2.0 * step
        tally.record(op, np.all(ok) and peak,
                     np.max(np.maximum(dev, det_res)), checks=3 * ok.size + 1)

    @staticmethod
    def _check_propagated(tally, op, line, propagated):
        """Amplitudes against the oracle and interface continuity of the
        tangential fields, with a0 = 1 incident from the left."""
        if failed(propagated):
            tally.record(op, False)
            return
        coeffs, (E, H) = propagated
        p, med = line.point, line.scenario.medium
        m11, m12, m21, m22 = oracle.transfer_entries(
            med.eta, med.kappa, p.theta_deg, p.thickness, p.wavelength,
            p.polarization is TM)
        # with a0 = 1 and b2 = 0: b0 = r_left = -M21/M22, a2 = det/M22 = 1/M22
        amp_res = max(abs(coeffs.b0 * m22 + m21) / abs(m21),
                      abs(coeffs.a2 * m22 - 1.0))
        if p.polarization is TE:
            tangential = (E[:4, 1], H[:4, 0])
        else:
            tangential = (H[:4, 1], E[:4, 0])
        jump = max(max(abs(f[0] - f[1]), abs(f[2] - f[3])) / np.max(np.abs(f))
                   for f in tangential)
        ok = (np.all(np.isfinite(E)) and np.all(np.isfinite(H))
              and amp_res <= AMP_TOL and jump <= GATE)
        tally.record(op, ok, jump, checks=3)


def cross_check(closed, assembled, size):
    """Closed form against assembled fields, relative to the profile's
    largest value (the measure of acceptance criterion 11)."""
    if failed(closed) or failed(assembled):
        return False, np.nan
    closed, assembled = np.asarray(closed), np.asarray(assembled)
    if closed.shape != assembled.shape or closed.shape[0] != size:
        return False, np.nan
    if not (np.all(np.isfinite(closed)) and np.all(np.isfinite(assembled))):
        return False, np.nan
    dev = float(np.max(np.abs(closed - assembled)) / np.max(np.abs(closed)))
    return dev <= GATE, dev


# The README's five commands, with the arguments the README gives them.
README_COMMANDS = {
    "tmatrix": ["--eta", "3.4", "--kappa=-1e-4", "--theta", "30",
                "--wavelength", "1500nm", "--L", "2um", "--pol", "TM"],
    "threshold": ["--eta", "3.4", "--L", "300um", "--wavelength", "1500nm",
                  "--theta-min", "0", "--theta-max", "89.5", "--steps", "180"],
    "singularity": ["--eta", "3.4", "--theta", "20", "--L", "400um",
                    "--pol", "TE", "--target", "1500nm"],
    "locus": ["--pol", "TE", "--theta", "30", "--m-span", "40",
              "--g0-max", "40cm-1"],
    "fields": ["--eta", "3.4", "--theta", "20", "--L", "400um", "--pol", "TM",
               "--target", "1500nm"],
}
TINY_OVERRIDES = {"threshold": ["--steps", "12"], "locus": ["--m-span", "6"],
                  "fields": ["--points", "201"]}
# what the installed `gainslab` console script runs
ENTRY_POINT = "import sys; from gainslab.cli import main; sys.exit(main())"


@dataclass
class CliRun:
    code: object      # exit code, or the exception the launch raised
    stdout: str
    stderr: str
    wall: float


class CliReadme:
    """The five README commands, one after another, each a fresh process."""

    def __init__(self, seed, tiny=False, workdir=None):
        self.rng = np.random.default_rng(seed)   # orders the commands per pass
        self.workdir = workdir
        self.curve_path = os.path.join(workdir, "curve.csv")
        self.argv = {}
        for name, args in README_COMMANDS.items():
            args = args + TINY_OVERRIDES.get(name, []) if tiny else list(args)
            if name == "threshold":
                args += ["--out", self.curve_path]
            self.argv[name] = [name] + args
        self.steps = 12 if tiny else 180     # rows of the threshold table
        self.points = 201 if tiny else 2001  # rows of the fields table
        self.env = child_env()
        self._cli = None

    def warm_up(self):
        self._main(self.argv["tmatrix"])

    def _order(self):
        return list(self.rng.permutation(list(self.argv)))

    def _read_curve(self, stdout):
        if not os.path.exists(self.curve_path):
            return stdout
        with open(self.curve_path) as handle:
            return handle.read()

    def _clear_curve(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.curve_path)

    def run_pass(self):
        """Each command as a child process, as a user runs it."""
        runs = {}
        for name in self._order():
            self._clear_curve()
            with tempfile.TemporaryFile(dir=self.workdir) as out, \
                    tempfile.TemporaryFile(dir=self.workdir) as err:
                t0 = time.perf_counter()
                proc = attempt(subprocess.run,
                               [sys.executable, "-c", ENTRY_POINT,
                                *self.argv[name]],
                               stdout=out, stderr=err, env=self.env,
                               cwd=self.workdir, timeout=150)
                wall = time.perf_counter() - t0
                out.seek(0)
                err.seek(0)
                code = proc if failed(proc) else proc.returncode
                runs[name] = CliRun(code, out.read().decode(),
                                    err.read().decode(), wall)
            if name == "threshold":
                runs[name].stdout = self._read_curve(runs[name].stdout)
        return runs

    def _main(self, argv):
        if self._cli is None:
            import gainslab.cli
            self._cli = gainslab.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = attempt(self._cli.main, argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass_inproc(self):
        """Each command through gainslab.cli.main in this process."""
        runs = {}
        for name in self._order():
            self._clear_curve()
            t0 = time.perf_counter()
            code, out, err = self._main(self.argv[name])
            runs[name] = CliRun(code, out, err, time.perf_counter() - t0)
            if name == "threshold":
                runs[name].stdout = self._read_curve(out)
        return runs

    def check(self, outputs, tally):
        for name, run in outputs.items():
            ok, res = False, None
            if run.code == 0:
                result = attempt(getattr(self, f"_check_{name}"), run)
                if not failed(result):
                    ok, res = result
            tally.record(f"cli {name}", ok, res)

    # Each checker parses one command's output and returns (ok, residual).

    @staticmethod
    def _csv(text):
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")]
        footer = dict(line[2:].split(",") for line in text.splitlines()
                      if line.startswith("# "))
        return rows[0], rows[1:], footer

    @staticmethod
    def _check_tmatrix(run):
        header, rows, _ = CliReadme._csv(run.stdout)
        vals = {k: complex(v) for k, v in rows}
        ref = oracle.transfer_entries(3.4, -1e-4, 30.0, 2e-6, 1500e-9, True)
        got = [vals[k] for k in ("M11", "M12", "M21", "M22")]
        scale = max(max(abs(v) for v in ref), 1.0)
        dev = max(abs(a - b) for a, b in zip(got, ref)) / scale
        det_res = abs(vals["det_M"] - 1.0) / scale ** 2
        amp_res = max(abs(vals["T_right"] * ref[3] - 1.0),
                      abs(vals["R_left"] * ref[3] + ref[2]) / abs(ref[2]))
        ok = (header == ["quantity", "value"] and dev <= GATE
              and det_res <= DET_GATE and amp_res <= AMP_TOL)
        return ok, max(dev, det_res)

    def _check_threshold(self, run):
        header, rows, footer = self._csv(run.stdout)
        table = np.array([[float(c) if c else np.nan for c in row]
                          for row in rows])
        theta, g_te, g_tm, k_te, k_tm = table.T
        k = 2.0 * math.pi / 1500e-9
        res = np.concatenate([
            oracle.modulus_residual(3.4, k_te, theta, 300e-6, 1500e-9, False),
            oracle.modulus_residual(3.4, k_tm, theta, 300e-6, 1500e-9, True)])
        g = np.concatenate([g_te, g_tm]) * 100.0
        gain_res = np.abs(g + 2.0 * k * np.concatenate([k_te, k_tm]))
        theta_b = float(footer["theta_b_deg"])
        theta_c = float(footer["theta_c_deg"])
        g_max = float(footer["g_max_cm1"]) * 100.0
        res_c = float(oracle.modulus_residual(
            3.4, -g_max / (2.0 * k), theta_c, 300e-6, 1500e-9, True))
        ok = (header[0] == "theta_deg" and len(rows) == self.steps
              and np.all(np.concatenate([k_te, k_tm]) < 0)
              and np.all(res <= GATE)
              and np.all(gain_res <= 1e-12 * np.abs(g))
              and abs(theta_b - math.degrees(math.atan(3.4))) < 1e-12
              and abs(theta_c - theta_b) < 0.02 and res_c <= GATE
              and g_max >= np.max(g_tm) * 100.0 * (1.0 - 1e-9))
        return ok, max(float(np.max(res)), res_c)

    @staticmethod
    def _check_singularity(run):
        r = json.loads(run.stdout)["result"]
        lam = r["lambda_nm"] * 1e-9
        res, rel, label = oracle.singular_condition(
            3.4, r["kappa"], 20.0, 400e-6, lam, False)
        ok = (res <= GATE and r["kappa"] < 0 and abs(label - r["m"])
              <= LABEL_TOL and r["pol"] == "TE"
              and first_at_or_above(lam, r["m"], 1500e-9))
        return ok, float(rel)

    @staticmethod
    def _check_locus(run):
        header, rows, _ = CliReadme._csv(run.stdout)
        unconverged = run.stderr.count("no convergence")
        if not rows:
            return unconverged == 0 and header[0] == "m", None
        m = np.array([int(row[0]) for row in rows])
        lam = np.array([float(row[1]) for row in rows]) * 1e-9
        g0 = np.array([float(row[2]) for row in rows]) * 100.0
        bad, _, _, rel = locus_failures(lam, g0, m, 30.0, False, cap=4000.0)
        ok = header[0] == "m" and unconverged == 0 and not bad.any()
        return ok, float(np.max(rel))

    def _check_fields(self, run):
        header, rows, _ = self._csv(run.stdout)
        z, sx, sz, u, angle = np.array(rows, dtype=float).T
        th = math.radians(20.0)
        left, right = z < 0, z > 1
        # outside the slab the singular wave is an outgoing plane wave
        exterior = max(np.max(np.abs(sx[left | right] - math.sin(th))),
                       np.max(np.abs(sz[left] + math.cos(th))),
                       np.max(np.abs(sz[right] - math.cos(th))),
                       np.max(np.abs(u[left | right] - 1.0)))
        # the grid is symmetric about the midplane (criterion 09's parity)
        parity = max(np.max(np.abs(u - u[::-1])) / np.max(u),
                     np.max(np.abs(sx - sx[::-1])) / np.max(np.abs(sx)),
                     np.max(np.abs(sz + sz[::-1])) / np.max(np.abs(sz)))
        angle_res = np.max(np.abs(angle - np.degrees(np.arctan2(sx, sz))))
        ok = (header[0] == "z_over_L" and len(rows) == self.points
              and np.all(np.isfinite(z * sx * sz * u))
              and exterior <= GATE and parity <= GATE and angle_res <= 1e-9)
        return ok, max(exterior, parity)


WORKLOADS = {
    "threshold-sweep": ThresholdSweep,
    "mode-solve": ModeSolve,
    "field-scan": FieldScan,
    "cli-readme": CliReadme,
}
