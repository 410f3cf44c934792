"""One benchmark repetition in a fresh process.

Usage: python3 child.py {run|trace} RESULT_JSON -- CLI_ARGS...

Times ``import piezobeam.cli``, then one ``piezobeam.cli.main(CLI_ARGS)``
call, and writes the timings, the exit code and the process's peak resident
set size to RESULT_JSON.  In ``trace`` mode the boundaries in tracer.py are
wrapped before the call and their counts and self times are written too.
"""

import json
import resource
import sys
import time


def main():
    mode, result_path, sep, *argv = sys.argv[1:]
    if mode not in ("run", "trace") or sep != "--":
        sys.exit("usage: child.py {run|trace} RESULT_JSON -- CLI_ARGS...")

    start = time.perf_counter()
    import piezobeam.cli
    import_s = time.perf_counter() - start

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cli_main = piezobeam.cli.main  # looked up after install: maybe wrapped
    start = time.perf_counter()
    rc = cli_main(argv)
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)

    import numpy
    import scipy
    result = {
        "rc": rc,
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kb": usage.ru_maxrss,
        "package_file": piezobeam.cli.__file__,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        result["absent_sites"] = tracer.absent_sites
        result["absent_boundaries"] = tracer.absent_boundaries()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
