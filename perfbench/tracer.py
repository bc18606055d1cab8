"""Outside-in layer timing for displab: wrap module functions, never edit them.

``from .x import f`` copies the name ``f`` into the importing module, so a
wrapper installed only in ``x`` misses every call made through the copy.
``patch`` therefore rebinds each selected function in every loaded displab
module that holds it, and in module-level dicts (such as the CLI's runner
table), with one wrapper per original function.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict


def _displab_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "displab" or name.startswith("displab."))
    ]


def layer_name(fn):
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.removeprefix('displab.')}.{fn.__name__}"


def patch(select, make_wrapper):
    """Replace every binding of each selected displab function by one wrapper.

    ``select(fn)`` picks functions; ``make_wrapper(fn)`` builds the wrapper.
    """
    wrappers = {}

    def swap(obj):
        if not inspect.isfunction(obj) or not obj.__module__.startswith("displab"):
            return None
        if id(obj) not in wrappers:
            if not select(obj):
                wrappers[id(obj)] = None
            else:
                wrappers[id(obj)] = make_wrapper(obj)
        return wrappers[id(obj)]

    for mod in _displab_modules():
        namespace = vars(mod)
        for name, obj in list(namespace.items()):
            if name.startswith("__"):
                continue
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    new = swap(value)
                    if new is not None:
                        obj[key] = new
                continue
            new = swap(obj)
            if new is not None:
                namespace[name] = new


def install_setup_mark(mark_path):
    """Record the monotonic time of the first full-volume assembly.

    The first call to ``discretize.assemble_periodic`` or
    ``reduced.build_reduced`` writes ``time.monotonic()`` to ``mark_path``.
    """
    targets = {"discretize.assemble_periodic", "reduced.build_reduced"}
    state = {"marked": False}

    def make_wrapper(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if not state["marked"]:
                state["marked"] = True
                with open(mark_path, "w", encoding="utf-8") as fh:
                    fh.write(repr(time.monotonic()))
            return fn(*args, **kwargs)

        return marked

    patch(lambda fn: layer_name(fn) in targets, make_wrapper)


# -- per-layer counters computed from arguments and results -------------------


def _count_below_extra(counters, args, kwargs, result):
    import scipy.sparse as sp

    from displab import eigensolve

    op = args[0] if args else kwargs["op"]
    mat = getattr(op, "matrix", op)
    n = mat.shape[0]
    cutoff = kwargs.get(
        "dense_cutoff",
        args[2] if len(args) > 2 else getattr(eigensolve, "COUNT_DENSE_CUTOFF", 600),
    )
    path = "dense_calls" if n <= cutoff or not sp.issparse(mat) else "sparse_calls"
    counters["eigensolve.count_below." + path] += 1
    counters["eigensolve.count_below.sum_n"] += n


def _smallest_eigenpairs_extra(counters, args, kwargs, result):
    if getattr(result, "method", None) == "arpack":
        counters["eigensolve.smallest_eigenpairs.arpack_calls"] += 1
    residuals = getattr(result, "residuals", None)
    if residuals is not None and len(residuals):
        key = "eigensolve.smallest_eigenpairs.max_residual"
        counters[key] = max(counters[key], float(max(residuals)))


def _eval_total_potential_extra(counters, args, kwargs, result):
    import numpy as np

    field = args[3] if len(args) > 3 else kwargs["field"]
    x = args[4] if len(args) > 4 else kwargs["x"]
    n_points = np.size(x) // field.d
    counters["potentials.eval_total_potential.pair_evals"] += n_points * len(field.values)


def _assemble_periodic_extra(counters, args, kwargs, result):
    counters["discretize.assemble_periodic.nnz"] += result.matrix.nnz


def _file_bytes_extra(layer):
    def extra(counters, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        counters[layer + ".bytes"] += os.path.getsize(path)

    return extra


EXTRAS = {
    "eigensolve.count_below": _count_below_extra,
    "eigensolve.smallest_eigenpairs": _smallest_eigenpairs_extra,
    "potentials.eval_total_potential": _eval_total_potential_extra,
    "discretize.assemble_periodic": _assemble_periodic_extra,
    "cli.write_csv": _file_bytes_extra("cli.write_csv"),
    "cli.read_csv_rows": _file_bytes_extra("cli.read_csv_rows"),
}


class Tracer:
    """Calls, self time and inclusive time per wrapped function.

    Self time is a call's duration minus the time its wrapped callees took.
    Inclusive time counts only the outermost active call of a layer, so
    recursion is not counted twice.  Single-threaded use only.
    """

    def __init__(self):
        self.stats = {}  # layer -> [calls, self_s, incl_s]
        self.counters = defaultdict(int)
        self._stack = [0.0]

    def install(self):
        """Wrap every public displab function."""
        patch(lambda fn: not fn.__name__.startswith("_"), self._wrap)

    def _wrap(self, fn):
        layer = layer_name(fn)
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        extra = EXTRAS.get(layer)
        stack = self._stack
        depth = [0]
        clock = time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack[-2] += dt
                stats[0] += 1
                stats[1] += dt - stack.pop()
                depth[0] -= 1
                if not depth[0]:
                    stats[2] += dt
            if extra is not None:
                extra(counters, args, kwargs, result)
            return result

        return traced

    def report(self):
        return {
            "layers": {k: v for k, v in self.stats.items() if v[0]},
            "counters": dict(self.counters),
        }

