"""Spans around calls into the package's layers, recorded from outside.

A Tracer wraps public functions by replacing module attributes.  Modules
that import a function by name hold their own reference to it, so every
``gainslab.*`` namespace that holds the function object gets the wrapper
(``gainslab.solver.n_prime``, ``gainslab.transfer.n_prime``,
``gainslab.solver.brentq``, ``gainslab.dispersion.root``, ...).  scipy's
own namespaces are left alone: only the package's calls are of interest.

Each call records a span: name, start, end, parent span and operation id
(the outermost span it runs under).  Spans are kept in flat typed arrays
in memory, one pass at a time; ``take`` hands them out as numpy arrays and
starts the next pass.  A target that no longer exists is reported as
absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute) of the function it wraps
TARGETS = {
    "core.n_prime": ("gainslab.core", "n_prime"),
    "core.u_parameter": ("gainslab.core", "u_parameter"),
    "transfer.build_transfer_matrix": ("gainslab.transfer",
                                       "build_transfer_matrix"),
    "transfer.scattering_amplitudes": ("gainslab.transfer",
                                       "scattering_amplitudes"),
    "transfer.propagate_coefficients": ("gainslab.transfer",
                                        "propagate_coefficients"),
    "transfer.general_fields": ("gainslab.transfer", "general_fields"),
    "solver.threshold_curve": ("gainslab.solver", "threshold_curve"),
    "solver.threshold_gain_exact": ("gainslab.solver", "threshold_gain_exact"),
    "solver.critical_angle": ("gainslab.solver", "critical_angle"),
    "solver.solve_singularity": ("gainslab.solver", "solve_singularity"),
    "solver.select_mode_number": ("gainslab.solver", "select_mode_number"),
    "solver.singularity_residual": ("gainslab.solver", "singularity_residual"),
    "dispersion.trace_locus": ("gainslab.dispersion", "trace_locus"),
    "fields.poynting": ("gainslab.fields", "poynting"),
    "fields.energy_density": ("gainslab.fields", "energy_density"),
    "fields.singular_fields": ("gainslab.fields", "singular_fields"),
    "fields.poynting_from_fields": ("gainslab.fields", "poynting_from_fields"),
    "fields.energy_density_from_fields": ("gainslab.fields",
                                          "energy_density_from_fields"),
    "scipy.brentq": ("scipy.optimize", "brentq"),
    "scipy.minimize_scalar": ("scipy.optimize", "minimize_scalar"),
    "scipy.root": ("scipy.optimize", "root"),
    "cli.main": ("gainslab.cli", "main"),
}
NAMES = list(TARGETS)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "gainslab" or name.startswith("gainslab."))]


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.kind = array("i")      # index into NAMES
        self.parent = array("i")    # span index, -1 at top level
        self.op = array("i")        # index of the outermost span
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched = []          # (module, attribute, original)
        self.absent = []

    def install(self):
        modules = _package_modules()
        for kind, (name, (module_name, attr)) in enumerate(TARGETS.items()):
            try:
                target = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(target, kind)
            holders = [(mod, key) for mod in modules
                       for key, value in list(vars(mod).items())
                       if value is target]
            if not holders:
                self.absent.append(name)
            for mod, key in holders:
                setattr(mod, key, wrapper)
                self._patched.append((mod, key, target))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, fn, kind):
        kinds, parents, ops = self.kind, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1]
            kinds.append(kind)
            parents.append(parent)
            ops.append(ops[parent] if parent >= 0 else idx)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def take(self):
        """The spans recorded since the last call, as numpy arrays."""
        spans = {key: np.array(getattr(self, key))
                 for key in ("kind", "parent", "op", "start", "end")}
        for key in ("kind", "parent", "op", "start", "end"):
            del getattr(self, key)[:]
        return spans


def nearest(spans, name):
    """Index of the nearest enclosing span (itself included) named name,
    or -1; parents always precede their children."""
    kind, parent = spans["kind"], spans["parent"]
    target = NAMES.index(name)
    found = np.where(kind == target, np.arange(kind.size), -1)
    up = parent.copy()
    while True:
        open_ = (found < 0) & (up >= 0)
        if not open_.any():
            return found
        found[open_] = np.where(kind[up[open_]] == target, up[open_], -1)
        up[open_] = parent[up[open_]]


def summarize(spans):
    """Calls, total and self time per span name, plus the exact counters."""
    kind, parent = spans["kind"], spans["parent"]
    dur = spans["end"] - spans["start"]
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=kind.size)
    self_time = dur - child
    calls = np.bincount(kind, minlength=len(NAMES))
    out = {}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.total_s"] = float(dur[kind == i].sum())
        out[f"{name}.self_s"] = float(self_time[kind == i].sum())

    def nested(inner_name, outer_name):
        """Spans named inner_name that run inside an outer_name span."""
        inside = nearest(spans, outer_name) >= 0
        return int(np.count_nonzero(inside & (kind == NAMES.index(inner_name))))

    def per(count, name):
        n = out[f"{name}.calls"]
        return count / n if n else 0.0

    out["solver.critical_angle.threshold_solves"] = per(
        nested("solver.threshold_gain_exact", "solver.critical_angle"),
        "solver.critical_angle")
    out["solver.n_prime_per_threshold_solve"] = per(
        nested("core.n_prime", "solver.threshold_gain_exact"),
        "solver.threshold_gain_exact")
    out["solver.residuals_per_singular_solve"] = per(
        nested("solver.singularity_residual", "solver.solve_singularity"),
        "solver.solve_singularity")
    return out


def counters(summary):
    """The entries of a summary that must repeat exactly between passes."""
    return {k: v for k, v in summary.items() if not k.endswith("_s")}
