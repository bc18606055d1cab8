"""One ``displab <kind>`` run as the benchmark measures it.

    python3 perfbench/child.py --mark FILE [--trace FILE] \
        -- <kind> --config CFG --out DIR --seed N --threads 1

Runs ``displab.cli.main`` on the arguments after ``--``, the same entry
point as the ``displab`` console script, with ``src/`` of this checkout on
the path.  ``--mark`` receives the monotonic time of the first full-volume
assembly.  ``--trace`` wraps every public displab function and writes the
per-layer report as JSON.
"""

import json
import os
import sys
import time

T_START = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _parse(argv):
    split = argv.index("--")
    opts, rest = argv[:split], argv[split + 1 :]
    mark = opts[opts.index("--mark") + 1]
    trace = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    return mark, trace, rest


def main():
    mark, trace_path, displab_argv = _parse(sys.argv[1:])
    import displab.cli

    import tracer

    t_imported = time.monotonic()
    tracer.install_setup_mark(mark)
    if trace_path is None:
        return displab.cli.main(displab_argv)
    tr = tracer.Tracer()
    tr.install()
    code = displab.cli.main(displab_argv)
    report = tr.report()
    report["startup"] = {"t_start": T_START, "t_imported": t_imported}
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
