"""One timed `cmpplab run`, in a fresh interpreter.

    python3 child.py RESULT.json SRC_DIR [--trace SPANS.jsonl RUN_ID] -- RUN_ARGS...

Imports cmpplab (which must come from SRC_DIR) and resolves the scenario
(``setup_s``), then calls ``cmpplab.cli.main(["run", *RUN_ARGS])``
(``run_s``).  With ``--trace`` the layers are wrapped by ``tracer`` first
and the spans are written after the run.  Writes the timings, the exit
code and the library versions to RESULT.json and exits with the run's
exit code.  The parent measures wall time and peak memory.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(argv):
    sep = argv.index("--")
    opts, run_args = argv[:sep], argv[sep + 1:]
    result_path, src_dir = opts[0], os.path.realpath(opts[1])
    trace = opts[3:5] if opts[2:3] == ["--trace"] else None

    import cmpplab
    import cmpplab.cli
    from cmpplab.scenario import resolve_scenario

    module_dir = os.path.realpath(os.path.dirname(cmpplab.__file__))
    if os.path.dirname(module_dir) != src_dir:
        print(f"error: imported cmpplab from {module_dir}, not {src_dir}",
              file=sys.stderr)
        return 3
    resolve_scenario(run_args[0])
    setup_s = time.perf_counter() - T0

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(trace[1])
        tracer.install()

    t1 = time.perf_counter()
    code = cmpplab.cli.main(["run", *run_args])
    run_s = time.perf_counter() - t1

    if tracer is not None:
        tracer.dump(trace[0], origin=t1)

    import numpy
    import scipy
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "setup_s": setup_s, "run_s": run_s,
                   "python": sys.version.split()[0], "numpy": numpy.__version__,
                   "scipy": scipy.__version__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
