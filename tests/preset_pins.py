"""Pinned outputs of shipped presets, kept in ``tests/preset_outputs/``.

A reference holds every line of every CSV file and of ``summary.txt`` in a
preset's run directory, cut into text, integers and floats.  A later run
must give the same text and integers (counts, hit flags, audit totals,
``status``) and floats within the ``RTOL`` / ``ATOL`` rule of
``perfbench/checks.py``: the dense eigensolver's last bits may differ
between BLAS builds, the integers read off its levels may not.
``manifest.txt`` is left out; ``tests/test_cli.py`` pins each preset's
config hash.

    PYTHONPATH=src python tests/preset_pins.py wegner-1d ids-1d

runs the named presets (default: every shipped preset) in a temporary
directory and rewrites their references.  A change that alters a preset's
outputs on purpose rewrites them in the same commit.

    PYTHONPATH=src python tests/preset_pins.py --out DIR [PRESET ...]

runs the presets into ``DIR/<preset>`` and pins nothing.  Run it on two
checkouts and compare them with ``diff -r`` to show that a change leaves
every preset's run directory byte-identical.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "preset_outputs")
PRESET_DIR = os.path.join(os.path.dirname(HERE), "src", "displab", "presets")
PRESETS = sorted(name[: -len(".ini")] for name in os.listdir(PRESET_DIR) if name.endswith(".ini"))
_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _benchmark_checks():
    path = os.path.join(os.path.dirname(HERE), "perfbench", "checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS = _benchmark_checks()


def _number(text):
    return int(text) if re.fullmatch(r"[-+]?\d+", text) else float(text)


def _pieces(line):
    """Text, then alternately a number and text: the odd positions are numbers."""
    return [_number(p) if i % 2 else p for i, p in enumerate(_NUMBER.split(line))]


def render(pieces):
    """The line again: ints by ``str`` and floats by ``repr``, as ``cli.fmt`` writes them."""
    return "".join(repr(p) if isinstance(p, float) else str(p) for p in pieces)


def read_outputs(rundir):
    """{file name: lines cut into pieces} for every CSV file and ``summary.txt``."""
    out = {}
    for name in sorted(os.listdir(rundir)):
        if name.endswith(".csv") or name == "summary.txt":
            with open(os.path.join(rundir, name), encoding="utf-8", newline="") as fh:
                out[name] = [_pieces(line) for line in fh.read().split("\n")]
    return out


def _same(got, want):
    if isinstance(got, float) and isinstance(want, float):
        return CHECKS._close(got, want)
    return type(got) is type(want) and got == want


def differences(got, want, limit=5):
    """Up to ``limit`` lines saying where two ``read_outputs`` results differ."""
    problems = []
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            problems.append(f"{name}: {'missing' if name in want else 'not pinned'}")
            continue
        if len(got[name]) != len(want[name]):
            problems.append(f"{name}: {len(got[name])} lines, pinned {len(want[name])}")
            continue
        for i, (a, b) in enumerate(zip(got[name], want[name])):
            if len(a) != len(b) or not all(map(_same, a, b)):
                problems.append(
                    f"{name} line {i + 1}: {render(a)!r}, pinned {render(b)!r} "
                    f"(text and integers exact, floats within rel {CHECKS.RTOL:g} / "
                    f"abs {CHECKS.ATOL:g})"
                )
    return problems[:limit]


def reference_path(preset):
    return os.path.join(REFERENCE_DIR, f"{preset}.json")


def load_reference(preset):
    with open(reference_path(preset), encoding="utf-8") as fh:
        return json.load(fh)


def pinned_differences(rundir, preset):
    """Where a run directory of ``preset`` differs from its pinned outputs."""
    return differences(read_outputs(rundir), load_reference(preset))


def write_reference(rundir, preset):
    """Pin a run directory's outputs, one JSON line per output line."""
    files = read_outputs(rundir)
    body = ",\n".join(
        json.dumps(name) + ": [\n" + ",\n".join(json.dumps(line) for line in lines) + "\n]"
        for name, lines in files.items()
    )
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(reference_path(preset), "w", encoding="utf-8") as fh:
        fh.write("{\n" + body + "\n}\n")
    return reference_path(preset)


def run_preset(preset, rundir):
    """Run a shipped preset through the CLI entry point into ``rundir``."""
    from displab.cli import load_config_file, main

    config = os.path.join(PRESET_DIR, f"{preset}.ini")
    kind = load_config_file(config)["run"]["kind"]
    code = main([kind, "--config", config, "--out", rundir])
    if code != 0:
        raise SystemExit(f"{preset}: exit status {code}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("presets", nargs="*", default=PRESETS, metavar="PRESET")
    parser.add_argument("--out", help="run the presets into OUT/<preset>; pin nothing")
    args = parser.parse_args()
    unknown = sorted(set(args.presets) - set(PRESETS))
    if unknown:
        parser.error(f"unknown preset {', '.join(unknown)}; shipped: {', '.join(PRESETS)}")
    if args.out:
        for preset in args.presets:
            run_preset(preset, os.path.join(args.out, preset))
            print(os.path.join(args.out, preset))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            for preset in args.presets:
                run_preset(preset, os.path.join(tmp, preset))
                print(write_reference(os.path.join(tmp, preset), preset))
