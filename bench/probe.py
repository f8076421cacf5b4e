"""Set-up cost of one workload, measured inside a fresh interpreter.

    python3 bench/probe.py --workload mode-solve --seed 1 --workdir DIR

Times three things from the first line after argument parsing: ``import
gainslab``, building the seeded inputs (for field-scan this solves its
singular points) and one warm-up call per package entry point the workload
uses.  A lazy import therefore still lands in the set-up time.  Prints one
JSON line with ``setup_s`` and the ``import_s`` part of it.  run.py starts
this with PYTHONPATH pointing at the checkout's sources.
"""

import argparse
import json
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import gainslab
    t_import = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[args.workload](
        args.seed, tiny=args.tiny, workdir=args.workdir)
    workload.warm_up()
    t_end = time.perf_counter()
    print(json.dumps({"setup_s": t_end - t0, "import_s": t_import - t0,
                      "gainslab": gainslab.__file__}))


if __name__ == "__main__":
    main()
