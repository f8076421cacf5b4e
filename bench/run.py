"""Run one gainslab benchmark workload and print its metrics.

    python3 bench/run.py --workload threshold-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the passes run untraced and the end-to-end metrics are
printed; with --trace 1 a separate run records spans around the package's
layers and prints the per-layer metrics.  Every metric is printed by name
with its unit, then a run record, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count the operations of one pass, one per
result (a curve, a critical angle, a singular point, a locus mode, a
spectrum, a field profile, a CLI command); an operation fails when it
raises, returns a gap, or fails a check.  Every pass attempts the same
operations on the same inputs, so both counts are exact.  ``correct`` says
the checks ran on every pass, every pass had the same operations with the
same outcomes and, when tracing, the exact counters repeated.  --tiny shrinks every
workload for the smoke test.  Outputs and the run record are also written
under .bench_build/gainslab-bench/ in the checkout.
"""

import os

# one thread per BLAS/OpenMP pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "gainslab-bench"

SETUP_PROBES = 9      # fresh interpreters per set-up measurement
IMPORT_PROBES = 3     # fresh interpreters per import measurement
MIN_PASSES = 3        # timed passes per run, whatever --seconds says
MIN_TRACED = 2        # traced passes: the exact counters must repeat
CHILD_TIMEOUT = 150   # seconds
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import {}; "
                  "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["threshold-sweep", "mode-solve", "field-scan",
                                 "cli-readme"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to spend in timed passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def run_child(args):
    """Run a fresh interpreter to completion; its last stdout line."""
    import workloads
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=workloads.child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT, check=True)
    return proc.stdout.strip().splitlines()[-1]


def setup_probe(args):
    out = run_child([str(BENCH / "probe.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--workdir", str(WORK)]
                    + (["--tiny"] if args.tiny else []))
    return json.loads(out)


def import_probe(module):
    return float(run_child(["-c", IMPORT_SNIPPET.format(module)]))


def measure(run_pass, check, tallies, budget, min_passes, after=None):
    """Time passes until their total reaches budget seconds; check each
    pass outside the timed region into a Tally of its own, appended to
    tallies.  Returns pass times and after() values."""
    import workloads
    times, extra = [], []
    while len(times) < min_passes or sum(times) < budget:
        gc.collect()
        t0 = time.perf_counter()
        out = run_pass()
        times.append(time.perf_counter() - t0)
        if after is not None:
            extra.append(after(out))
        tallies.append(workloads.Tally())
        check(out, tallies[-1])
    return times, extra


def repeated(tallies):
    """Every pass checked, with the same operations, outcomes and counts."""
    first = tallies[0]
    return all(t.checks > 0 and t.outcomes == first.outcomes
               and t.counts == first.counts for t in tallies)


def failures(tallies):
    """One pass's failed operations, listed, with (attempted, failed);
    the largest count if passes differ."""
    worst = max(tallies, key=lambda t: t.failed)
    names = [op for op, ok in worst.outcomes.items() if not ok]
    return worst.attempted, worst.failed, names


def slowest(times):
    """The slowest pass.  On a shared machine the same pass takes from one
    to about two times its uncontended time, and a run can sit in either
    state for most of its length, so the median and the quartiles jump
    between states from run to run.  Nearly every run reaches the fully
    contended state at least once, and the slowest pass repeats best
    across runs (bench/README.md gives the spreads)."""
    return max(times)


def worst_residual(tallies):
    """The worst residual of any accepted result, or None if none had one."""
    scored = [t.worst for t in tallies if t.scored]
    return max(scored) if scored else None


def residual_digits(tallies):
    """-log10 of the worst accepted residual, capped at double precision's
    17 digits; 0 when no result was accepted."""
    worst = worst_residual(tallies)
    return 0.0 if worst is None else -math.log10(max(worst, 1e-17))


def failure_notes(tallies):
    attempted, failed, names = failures(tallies)
    shown = ", ".join(names[:12]) + (", ..." if len(names) > 12 else "")
    return [f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} "
            f"operations per pass, over {len(tallies)} passes; outcomes "
            f"{'repeat' if repeated(tallies) else 'DIFFER'} across passes)"
            + (f"; failed: {shown}" if names else "")]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT, timeout=30)
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over the package sources: identifies the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "gainslab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args, load_start):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_start": load_start, "loadavg_end": list(os.getloadavg()),
    }


def plain_run(args, workload, tallies):
    """Untraced passes, then set-up probes: the end-to-end metrics."""
    times, _ = measure(workload.run_pass, workload.check, tallies,
                       args.seconds, MIN_PASSES)
    # the workload process: this one, or the CLI children for cli-readme
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli-readme"
           else resource.RUSAGE_SELF)
    peak_kb = resource.getrusage(who).ru_maxrss
    setups = [setup_probe(args)["setup_s"] for _ in range(SETUP_PROBES)]
    attempted, failed, _ = failures(tallies)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": slowest(times),
        "success_frac": 1.0 - failed / attempted,
        "residual_digits": residual_digits(tallies),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = [
        f"run_s: slowest of {len(times)} passes (median "
        f"{statistics.median(times):.6g} s): "
        + " ".join(f"{t:.4g}" for t in times) + " s",
        f"setup_s: median of {len(setups)} fresh interpreters: "
        + " ".join(f"{t:.4g}" for t in setups) + " s",
        *failure_notes(tallies),
        f"worst_residual: {worst_residual(tallies)} (worst accepted result)",
    ]
    return values, notes, True


def traced_run(args, workload, tallies):
    """Untraced passes, then traced passes: the per-layer metrics."""
    import gainslab.cli  # noqa: F401  (so that cli.main can be wrapped)
    import metrics
    import numpy
    import spans

    cli = args.workload == "cli-readme"
    share = args.seconds / (3 if cli else 2)
    values = dict.fromkeys(metrics.PER_LAYER, 0)
    notes = []
    if cli:
        # the traced pass runs the commands in-process, so the overhead is
        # measured against the untraced in-process pass
        def walls(out):
            return {cmd: run.wall for cmd, run in out.items()}

        for part, run_pass in (("wall_s", workload.run_pass),
                               ("inproc_s", workload.run_pass_inproc)):
            base, runs = measure(run_pass, workload.check, tallies, share,
                                 MIN_TRACED, after=walls)
            for cmd in metrics.CLI_COMMANDS:
                values[f"cli.{cmd}.{part}"] = statistics.median(
                    r[cmd] for r in runs)
    else:
        base, _ = measure(workload.run_pass, workload.check, tallies, share,
                          MIN_TRACED)

    tracer = spans.Tracer()
    last = {}

    def take(_out):
        last["spans"] = tracer.take()
        return spans.summarize(last["spans"])

    traced_pass = workload.run_pass_inproc if cli else workload.run_pass
    tracer.install()
    try:
        traced, summaries = measure(traced_pass, workload.check, tallies,
                                    share, MIN_TRACED, after=take)
    finally:
        tracer.uninstall()
    for name in values:
        if name in summaries[0]:
            per_pass = [s[name] for s in summaries]
            values[name] = (statistics.median(per_pass)
                            if name.endswith("_s") else per_pass[0])
    for name, count in tallies[-1].counts.items():
        values[name] = count
    values["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(base) - 1.0)
    values["import.gainslab_s"] = statistics.median(
        import_probe("gainslab") for _ in range(IMPORT_PROBES))
    values["import.scipy_optimize_s"] = statistics.median(
        import_probe("scipy.optimize") for _ in range(IMPORT_PROBES))

    reference = spans.counters(summaries[0])
    counters_repeat = all(spans.counters(s) == reference
                          for s in summaries[1:])
    span_file = WORK / f"spans-{args.workload}.npz"
    numpy.savez_compressed(span_file, names=numpy.array(spans.NAMES),
                           **last["spans"])
    notes += [
        f"traced passes: {len(traced)}, untraced passes: {len(base)}; "
        f"exact counters {'repeat' if counters_repeat else 'DIFFER'} across "
        "traced passes",
        f"absent (no longer in the package): "
        f"{', '.join(tracer.absent) or 'none'}",
        f"spans of the last traced pass: {span_file.relative_to(ROOT)} "
        f"({last['spans']['kind'].size} spans)",
        *failure_notes(tallies),
    ]
    return values, notes, counters_repeat


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gainslab" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run this from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    load_start = list(os.getloadavg())
    WORK.mkdir(parents=True, exist_ok=True)
    # the build: byte-compile once, so no timed import pays for it
    compileall.compile_dir(str(SRC / "gainslab"), quiet=1)
    sys.path.insert(0, str(SRC))
    import gainslab
    if Path(gainslab.__file__).resolve().parent != SRC / "gainslab":
        print(f"error: gainslab imported from {gainslab.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    import metrics
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.seed, tiny=args.tiny, workdir=str(WORK))
    workload.warm_up()
    tallies = []
    run = traced_run if args.trace else plain_run
    values, notes, consistent = run(args, workload, tallies)
    for index, _ in getattr(workload, "unsolved", []):
        notes.append(f"set-up: seeded singular point {index} did not solve; "
                     "its line's operations fail in every pass")
    attempted, failed, _ = failures(tallies)
    correct = bool(consistent and repeated(tallies) and attempted > 0)

    print(f"# gainslab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, value in values.items():
        role = metrics.ROLE.get(name)
        print(f"{name:<44} {value:<24.10g} {metrics.UNITS[name]:<7}"
              + (f" moves {role[0]} on {role[1]}" if role else ""))
    for note in notes:
        print(f"# {note}")
    print(f"checks {sum(t.checks for t in tallies)} conditions evaluated "
          f"over {len(tallies)} passes")
    record = run_record(args, load_start)
    print("record " + json.dumps(record))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }
    out = WORK / (f"result-{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    out.write_text(json.dumps({"record": record, "notes": notes,
                               "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
