"""The metrics the benchmark prints, and what each layer metric should move.

Names, units and directions come from BENCHMARK.json at the root of the
checkout.  That file's keys are fixed, so the end-to-end metric each layer
metric should move, and on which workload, is kept here in ROLE.
"""

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

CLI_COMMANDS = ("tmatrix", "threshold", "singularity", "locus", "fields")

_ALL = "all"
_SWEEP = "threshold-sweep"
_MODES = "mode-solve"
_FIELDS = "field-scan"
_CLI = "cli-readme"
_SOLVE = ("run_s; setup_s on field-scan", _MODES)

# layer metric: (end-to-end metric it should move, on which workloads)
ROLE = {
    "import.gainslab_s": ("setup_s; run_s", f"{_ALL}; {_CLI}"),
    "import.scipy_optimize_s": ("setup_s; run_s", f"{_ALL}; {_CLI}"),
    "solver.n_prime_per_threshold_solve": ("run_s", _SWEEP),
    "solver.select_mode_number.total_s": _SOLVE,
    "solver.singularity_residual.calls": _SOLVE,
    "solver.residuals_per_singular_solve": _SOLVE,
    "scipy.root.calls": ("run_s", _MODES),
    "scipy.root.self_s": ("run_s", _MODES),
    "fields.poynting_from_fields.total_s": ("run_s", _FIELDS),
    "fields.energy_density_from_fields.total_s": ("run_s", _FIELDS),
    "fields.points": ("run_s", _FIELDS),
    "trace.overhead_frac": ("none (reported)", _ALL),
}
ROLE.update({f"core.{fn}.{part}": ("run_s", f"{_SWEEP}, {_FIELDS}")
             for fn in ("n_prime", "u_parameter")
             for part in ("calls", "self_s")})
ROLE.update({name: ("run_s", f"{_SWEEP}, {_CLI}") for name in (
    "solver.threshold_curve.total_s", "solver.threshold_gain_exact.calls",
    "solver.threshold_gain_exact.self_s", "solver.critical_angle.total_s",
    "solver.critical_angle.threshold_solves")})
ROLE.update({f"solver.solve_singularity.{part}": _SOLVE
             for part in ("calls", "self_s", "total_s")})
ROLE.update({f"scipy.{fn}.{part}": ("run_s", _SWEEP)
             for fn in ("brentq", "minimize_scalar")
             for part in ("calls", "self_s")})
ROLE.update({f"dispersion.{name}": ("success_frac; run_s", _MODES)
             for name in ("trace_locus.total_s", "modes_attempted",
                          "modes_unconverged", "modes_mislabelled",
                          "modes_duplicate")})
ROLE.update({f"transfer.{fn}.{part}": ("run_s", _FIELDS)
             for fn in ("build_transfer_matrix", "scattering_amplitudes",
                        "propagate_coefficients", "general_fields")
             for part in ("calls", "self_s")})
ROLE.update({f"fields.{fn}.{part}": ("run_s", _FIELDS)
             for fn in ("poynting", "energy_density", "singular_fields")
             for part in ("calls", "self_s")})
ROLE.update({f"cli.{cmd}.{part}": ("run_s", _CLI)
             for cmd in CLI_COMMANDS for part in ("wall_s", "inproc_s")})
