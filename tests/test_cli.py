"""Command-line contract: configs, run directories, resume, determinism.

These drive ``main()`` in-process with tmp_path sandboxes -- same code path
as the installed console script but without subprocess overhead -- except
the SIGINT test, which has to signal a real process.
"""

import collections
import csv
import gc
import os
import signal
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import displab
from displab.cli import (
    SIZE_GUARD,
    ConfigError,
    build_model,
    canonical_config,
    config_sha,
    fmt,
    load_config_file,
    load_config_text,
    main,
    read_config,
    write_csv,
)
from displab.spectral_stats import ContinuumFamily, ReducedFamily
from conftest import failing_merge
from preset_pins import pinned_differences


def read_csv_rows(path):
    """``(header, rows)`` of a CSV file written by a run."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


BAND_TMPL = """\
[run]
kind = band
seed = 1
{extra}
[model]
d = 1
n = 1
m = 8
lam = 0.1

[periodic]
family = cosine
coefficients = -1.0

[site]
family = asym-bump

[band]
zeta = -1.0
nbands = 2
theta_n = 1
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- pure helpers -----------------------------------------------------------


def test_fmt_round_trip():
    assert fmt(True) == "true" and fmt(False) == "false"
    assert fmt(3) == "3"
    assert fmt(np.int64(-7)) == "-7"
    assert fmt(0.1) == "0.1"
    assert float(fmt(1.0 / 3.0)) == 1.0 / 3.0  # shortest repr round-trips
    assert fmt("label") == "label"


def test_write_csv_deterministic(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [[1, 0.5, "a,b"], [2, 1.0 / 3.0, "plain"]]
    write_csv(path, ["i", "x", "s"], rows)
    first = open(path, "rb").read()
    write_csv(path, ["i", "x", "s"], rows)
    assert open(path, "rb").read() == first
    assert b'"a,b"' in first  # RFC-style quoting only where needed
    assert b"\r" not in first
    header, parsed = read_csv_rows(path)
    assert header == ["i", "x", "s"]
    assert parsed[0][2] == "a,b"
    assert float(parsed[1][1]) == 1.0 / 3.0
    assert not os.path.exists(path + ".tmp"), "temp file must be renamed away"


def test_config_parses_and_validates():
    cfg = load_config_text(BAND_TMPL.format(extra=""))
    assert cfg["run"]["kind"] == "band"
    with pytest.raises(ConfigError):
        load_config_text("not an ini file [[[")
    with pytest.raises(ConfigError):
        load_config_text("[model]\nd = 1\n")  # no [run]
    with pytest.raises(ConfigError):
        load_config_text("[run]\nkind = frobnicate\n")


def test_canonical_config_is_order_insensitive():
    cfg = load_config_text(BAND_TMPL.format(extra=""))
    shuffled = load_config_text(
        "[site]\nfamily = asym-bump\n\n[band]\ntheta_n = 1\nnbands = 2\nzeta = -1.0\n\n"
        "[periodic]\ncoefficients = -1.0\nfamily = cosine\n\n"
        "[model]\nlam = 0.1\nm = 8\nn = 1\nd = 1\n\n[run]\nseed = 1\nkind = band\n"
    )
    assert canonical_config(cfg) == canonical_config(shuffled)
    assert config_sha(cfg) == config_sha(shuffled)
    reseeded = load_config_text(BAND_TMPL.format(extra="seed = 2\n").replace("seed = 1\n", ""))
    assert config_sha(cfg) != config_sha(reseeded)


def test_build_model_errors():
    cfg = load_config_text(BAND_TMPL.format(extra=""))
    cfg["model"]["m"] = "not-a-number"
    with pytest.raises(ConfigError):
        build_model(read_config(cfg))
    cfg = load_config_text(BAND_TMPL.format(extra=""))
    del cfg["model"]["d"]
    with pytest.raises(ConfigError):
        build_model(read_config(cfg))


def test_size_guard_rejects_huge_grids():
    cfg = load_config_text(BAND_TMPL.format(extra=""))
    cfg["model"]["n"] = "50000"
    cfg["model"]["m"] = "4"
    with pytest.raises(ConfigError, match="size guard"):
        build_model(read_config(cfg))
    assert SIZE_GUARD == 200_000


# -- end-to-end over main() ---------------------------------------------------


def test_band_run_end_to_end(tmp_path):
    cfg_path = _write(tmp_path, "band.ini", BAND_TMPL.format(extra=""))
    out = str(tmp_path / "run")
    assert main(["band", "--config", cfg_path, "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == ["bands.csv", "manifest.txt", "summary.txt"]
    header, rows = read_csv_rows(os.path.join(out, "bands.csv"))
    assert header == ["theta_1", "e_1", "e_2"]
    assert len(rows) == 3  # theta_n = 1 -> three momenta
    summary = open(os.path.join(out, "summary.txt")).read()
    assert summary.rstrip().endswith("status: complete")
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "config_sha256 = " in manifest
    assert "--- config ---" in manifest


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["band"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert main(["band", "--config", str(tmp_path / "absent.ini")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_kind_subcommand_mismatch(tmp_path):
    cfg_path = _write(tmp_path, "band.ini", BAND_TMPL.format(extra=""))
    assert main(["minimize", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2


def test_no_out_dir_is_error(tmp_path, capsys):
    """The output directory comes from --out only: [run] out is an unknown key."""
    cfg_path = _write(tmp_path, "band.ini", BAND_TMPL.format(extra=""))
    assert main(["band", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == "config error: no output directory (--out DIR)\n"
    cfg_path2 = _write(tmp_path, "band2.ini", BAND_TMPL.format(extra="out = sub\n"))
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(["band", "--config", cfg_path2]) == 2
        assert capsys.readouterr().err == "config error: unknown key run.out\n"
        assert not os.path.exists(tmp_path / "sub")
    finally:
        os.chdir(cwd)


def test_rerun_same_config_is_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, "band.ini", BAND_TMPL.format(extra=""))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["band", "--config", cfg_path, "--out", out_a]) == 0
    assert main(["band", "--config", cfg_path, "--out", out_b]) == 0
    for name in ("bands.csv", "summary.txt"):
        assert open(os.path.join(out_a, name), "rb").read() == open(
            os.path.join(out_b, name), "rb"
        ).read()


def test_refuses_overwrite_of_other_run(tmp_path):
    cfg_path = _write(tmp_path, "band.ini", BAND_TMPL.format(extra=""))
    out = str(tmp_path / "run")
    assert main(["band", "--config", cfg_path, "--out", out]) == 0
    other = _write(tmp_path, "band2.ini", BAND_TMPL.format(extra="").replace("seed = 1", "seed = 2"))
    assert main(["band", "--config", other, "--out", out]) == 2


def test_a_run_stopped_by_a_config_error_leaves_its_dir_to_the_next_config(tmp_path, capsys):
    """A runner's config error leaves only the manifest behind; a corrected
    config then claims the directory, since it holds no results.  A
    directory holding any other file stays refused."""
    good = open(_preset_path("minimize-1d"), encoding="utf-8").read()
    bad = good.replace("kind = ball\ncenter = 0.0\nradius = 1.0\n", "kind = interval\n")
    for old, new in D2:
        bad = bad.replace(old, new)
    bad_path, good_path = _write(tmp_path, "bad.ini", bad), _write(tmp_path, "good.ini", good)
    out = tmp_path / "run"
    assert main(["minimize", "--config", bad_path, "--out", str(out)]) == 2
    assert os.listdir(out) == ["manifest.txt"]
    assert main(["minimize", "--config", good_path, "--out", str(out)]) == 0
    assert main(["minimize", "--config", bad_path, "--out", str(out)]) == 2
    assert "holds a different run" in capsys.readouterr().err
    assert main(["minimize", "--config", good_path, "--out", str(out)]) == 0


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = _write(tmp_path, "band.ini", BAND_TMPL.format(extra=""))
    out = str(tmp_path / "run")
    assert main(["band", "--config", cfg_path, "--out", out, "--seed", "5"]) == 0
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "seed = 5" in manifest


IDS_TMPL = """\
[run]
kind = ids
seed = 3

[model]
d = 1
n = 1
m = 8
lam = 0.1

[periodic]
family = cosine
coefficients = -1.0

[site]
family = asym-bump

[support]
kind = ball
radius = 1.0

[distribution]
kind = uniform-ball

[ids]
zeta = -1.0
c0 = 8.0
alpha = 0.0015
n_samples = 6
n_offsets = 4
"""


def test_ids_resume_equals_one_shot(tmp_path):
    cfg_path = _write(tmp_path, "ids.ini", IDS_TMPL)
    full, partial = str(tmp_path / "full"), str(tmp_path / "partial")
    assert main(["ids", "--config", cfg_path, "--out", full]) == 0
    assert main(["ids", "--config", cfg_path, "--out", partial]) == 0
    # truncate the sample cache to simulate an interrupted run, drop summary
    cache = os.path.join(partial, "cache.csv")
    lines = open(cache).read().splitlines(keepends=True)
    open(cache, "w").write("".join(lines[:3]))
    os.remove(os.path.join(partial, "summary.txt"))
    assert main(["ids", "--resume", partial]) == 0
    for name in ("cache.csv", "curves.csv", "summary.txt"):
        assert open(os.path.join(full, name), "rb").read() == open(
            os.path.join(partial, name), "rb"
        ).read(), name


def test_resume_of_complete_run_is_a_noop(tmp_path, capsys):
    cfg_path = _write(tmp_path, "ids.ini", IDS_TMPL)
    out = str(tmp_path / "run")
    assert main(["ids", "--config", cfg_path, "--out", out]) == 0
    before = open(os.path.join(out, "summary.txt"), "rb").read()
    assert main(["ids", "--resume", out]) == 0
    assert "already complete" in capsys.readouterr().out
    assert open(os.path.join(out, "summary.txt"), "rb").read() == before


def test_resume_validations(tmp_path):
    cfg_path = _write(tmp_path, "ids.ini", IDS_TMPL)
    assert main(["ids", "--resume", str(tmp_path / "nowhere")]) == 2
    out = str(tmp_path / "run")
    assert main(["ids", "--config", cfg_path, "--out", out]) == 0
    # matching --config alongside --resume is allowed
    assert main(["ids", "--resume", out, "--config", cfg_path]) == 0
    # a disagreeing --config is refused
    other = _write(tmp_path, "ids2.ini", IDS_TMPL.replace("seed = 3", "seed = 4"))
    assert main(["ids", "--resume", out, "--config", other]) == 2


def test_resume_with_another_seed_is_refused(tmp_path, capsys):
    """``--resume DIR --seed S`` runs at the manifest's seed or not at all."""
    out = str(tmp_path / "run")
    assert main(["band", "--config", _preset_path("free-1d"), "--out", out]) == 0
    assert main(["band", "--resume", out, "--seed", "0"]) == 0
    assert main(["band", "--resume", out, "--seed", "5"]) == 2
    assert capsys.readouterr().err == (
        "config error: --seed disagrees with the manifest being resumed\n"
    )


D2 = (("d = 1", "d = 2"), ("coefficients = -1.0", "coefficients = -1.0 -1.0"))


@pytest.mark.parametrize(
    "kind, text, key",
    [
        ("band", BAND_TMPL.format(extra="").replace("zeta = -1.0", "zeta = 0.5"), "band.zeta"),
        ("band", BAND_TMPL.format(extra="").replace("zeta = -1.0", "zeta = 0.5 0.1 0.2"), "band.zeta"),
        ("ids", IDS_TMPL, "ids.zeta"),
    ],
    ids=["band-one-value", "band-three-values", "ids-one-value"],
)
def test_a_per_axis_list_needs_one_value_per_axis(tmp_path, capsys, kind, text, key):
    """On a d = 2 model a zeta of one or of three values is a config error
    (exit 2) before the run directory is made, not broadcast to both axes
    or left to NumPy."""
    for old, new in D2:
        text = text.replace(old, new)
    out = tmp_path / "run"
    assert main([kind, "--config", _write(tmp_path, "c.ini", text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} needs one value per axis (model.d = 2)"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "d, support, message",
    [
        (2, "kind = interval\n", "support.kind = interval is 1-dimensional, but model.d = 2"),
        (
            1,
            "kind = polygon\nvertices = 0 0; 1 0; 0 1\n",
            "support.kind = polygon is 2-dimensional, but model.d = 1",
        ),
    ],
    ids=["interval-in-d2", "polygon-in-d1"],
)
def test_a_support_of_another_dimension_is_a_config_error(tmp_path, capsys, d, support, message):
    """A support whose dimension is not model.d is refused with exit 2 and
    one line, not left to NumPy in the minimizer or the assembly."""
    text = open(_preset_path("minimize-1d"), encoding="utf-8").read()
    text = text.replace("kind = ball\ncenter = 0.0\nradius = 1.0\n", support)
    for old, new in D2 if d == 2 else ():
        text = text.replace(old, new)
    out = str(tmp_path / "run")
    assert main(["minimize", "--config", _write(tmp_path, "c.ini", text), "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "preset",
    ["asym-1d", "minimize-1d", "reduce-1d", "sandwich-1d", "theorem1-1d"],
)
def test_shipped_presets_run_clean(tmp_path, preset):
    """Every committed preset must run to a complete summary as shipped, with
    the outputs pinned in ``tests/preset_outputs/``.

    The Monte-Carlo presets (ids / lifshitz / wegner / free) are exercised by
    the acceptance gate; these are the remaining verification-style ones.
    """
    from importlib.resources import files

    cfg = str(files("displab") / "presets" / f"{preset}.ini")
    kind = None
    for line in open(cfg, encoding="utf-8"):
        if line.strip().startswith("kind"):
            kind = line.split("=")[1].strip()
            break
    out = str(tmp_path / preset)
    assert main([kind, "--config", cfg, "--out", out]) == 0
    summary = open(os.path.join(out, "summary.txt"), encoding="utf-8").read()
    assert summary.rstrip().endswith("status: complete")
    assert pinned_differences(out, preset) == []


def _wheel_blas():
    """``{path: (get_threads, set_threads)}`` of each loaded wheel OpenBLAS."""
    import ctypes

    import displab.cli as cli

    found = {}
    for package, pattern, setter in cli._WHEEL_BLAS:
        libs = Path(sys.modules[package].__file__).parent.parent / f"{package}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:  # not loaded in this process
                continue
            get, set_ = getattr(lib, setter.replace("_set_", "_get_")), getattr(lib, setter)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found[str(path)] = get, set_
    return found


def test_main_sets_each_wheel_blas_to_one_thread(monkeypatch, capsys):
    """Serial runs gain nothing from a BLAS pool: ``main`` sets NumPy's and
    SciPy's OpenBLAS to one thread unless the environment chose a count."""
    import displab.cli as cli

    libs = _wheel_blas()
    if len(libs) < 2:
        pytest.skip("NumPy's and SciPy's wheels do not bundle OpenBLAS here")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    for _, set_threads in libs.values():
        set_threads(2)
    assert main(["band"]) == 2
    assert [get() for get, _ in libs.values()] == [1, 1]
    assert sorted(cli._one_blas_thread()) == sorted(libs)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    for _, set_threads in libs.values():
        set_threads(2)
    chosen = [get() for get, _ in libs.values()]
    assert main(["band"]) == 2 and cli._one_blas_thread() == []
    assert [get() for get, _ in libs.values()] == chosen
    for _, set_threads in libs.values():
        set_threads(1)


def test_a_missing_blas_library_is_not_an_error(monkeypatch, capsys):
    import displab.cli as cli

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(cli, "_WHEEL_BLAS", (
        ("numpy", "libno_such_blas*.so*", "no_such_setter"),
        ("numpy", "libgfortran*.so*", "scipy_openblas_set_num_threads64_"),
        ("not_a_loaded_package", "*.so*", "openblas_set_num_threads"),
    ))
    assert cli._one_blas_thread() == []
    assert main(["band"]) == 2


def test_main_freezes_the_import_time_objects_once(capsys):
    """The first ``main`` of a process moves what exists out of the cyclic
    collector's reach; later calls freeze nothing more."""
    gc.unfreeze()
    assert main(["band"]) == 2
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert main(["band"]) == 2
    assert gc.get_freeze_count() == frozen
    assert capsys.readouterr().err.count("config error: ") == 2


WEGNER_TMPL = """\
[run]
kind = wegner
seed = 2026

[model]
d = 1
n = 1
m = 32
lam = 0.1

[periodic]
family = cosine
coefficients = -200.0

[site]
family = asym-bump

[support]
kind = ball
radius = 1.0

[distribution]
kind = uniform-ball

[wegner]
zeta = -1.0
n_list = 1 2
samples_per_cell = 40
n_eps = 4
eps_frac = 0.05
ground_samples = 5
audit_per_n = 4
"""

def _preset_text(name):
    from importlib.resources import files

    return (files("displab") / "presets" / f"{name}.ini").read_text()


# The theorem1-1d preset on a d = 2 model with a 2-point scan: its 2^9
# configurations pass the size guard, but the exhaustive scan is d = 1 only.
THEOREM1_2D = (
    _preset_text("theorem1-1d")
    .replace("d = 1", "d = 2")
    .replace("coefficients = -1.0", "coefficients = -1.0 -1.0")
    .replace("kind = interval\nlo = -1.0\nhi = 1.0", "kind = ball\ncenter = 0.0 0.0\nradius = 1.0")
    .replace("m = 64", "m = 8")
    .replace("restarts = 16", "restarts = 2")
    .replace("grid_points = 11", "grid_points = 2")
)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("wegner", WEGNER_TMPL.replace("lam = 0.1", "lam = 0.0")),
        ("lifshitz", _preset_text("lifshitz-reduced-1d").replace("n_energies = 22", "n_energies = 2")),
        ("ids", IDS_TMPL.replace("n_offsets = 4", "n_offsets = 0")),
    ],
    ids=["wegner-zero-lam", "lifshitz-two-energies", "ids-zero-offsets"],
)
def test_library_input_errors_are_config_errors(tmp_path, capsys, kind, text):
    cfg_path = _write(tmp_path, f"{kind}.ini", text)
    assert main([kind, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {kind}.")
    assert not (tmp_path / "run" / "cache.csv").exists(), "no sample before the check"


@pytest.mark.parametrize(
    "kind, text, key",
    [
        ("band", BAND_TMPL.format(extra="out = sub\n"), "run.out"),
        ("ids", IDS_TMPL + "offsets = 0.001 0.01\n", "ids.offsets"),
        ("wegner", WEGNER_TMPL + "eps_list = 0.001 0.01\n", "wegner.eps_list"),
        ("wegner", WEGNER_TMPL + "eps_hi = 0.01\n", "wegner.eps_hi"),
        ("minimize", _preset_text("minimize-1d") + "eps_robust = 0.1\n", "minimize.eps_robust"),
    ],
    ids=["run.out", "ids.offsets", "wegner.eps_list", "wegner.eps_hi", "minimize.eps_robust"],
)
def test_a_key_with_no_second_way_in_is_unknown(tmp_path, capsys, kind, text, key):
    """Each value has one way in: the output directory is --out, the ids
    offsets come from n_offsets, the wegner windows from n_eps and
    eps_frac, and the robust minimizer's eps is half |v_q|."""
    cfg_path = _write(tmp_path, f"{kind}.ini", text)
    assert main([kind, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"config error: unknown key {key}\n"


@pytest.mark.parametrize(
    "kind, key", [("ids", "n_samples"), ("lifshitz", "n_samples"), ("wegner", "samples_per_cell")]
)
def test_zero_sample_count_is_config_error(tmp_path, capsys, kind, key):
    if kind == "lifshitz":
        text = _preset_text("lifshitz-reduced-1d")
    else:
        text = {"ids": IDS_TMPL, "wegner": WEGNER_TMPL}[kind]
    text = "\n".join(
        f"{key} = 0" if line.startswith(f"{key} =") else line for line in text.splitlines()
    )
    cfg_path = _write(tmp_path, f"{kind}.ini", text + "\n")
    assert main([kind, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {kind}.{key} must be >= 1")


@pytest.mark.parametrize(
    "kind, text, key",
    [
        ("band", _preset_text("free-1d").replace("nbands = 3", "nbands = 17"), "band.nbands"),
        ("wegner", WEGNER_TMPL.replace("n_eps = 4", "n_eps = 1"), "wegner.n_eps"),
        ("wegner", WEGNER_TMPL.replace("n_list = 1 2", "n_list = 2 2"), "wegner.n_list"),
        ("ids", _preset_text("ids-1d").replace("\nn = 2\n", "\nn = 0\n"), "model.n"),
        ("sandwich", _preset_text("sandwich-1d").replace("\nn = 1\n", "\nn = 0\n"), "model.n"),
        ("verify-all", _preset_text("asym-1d").replace("lam = 0.1", "lam = 0.0"), "model.lam"),
        ("sandwich", _preset_text("sandwich-1d").replace("lam = 0.1", "lam = 0.0"), "model.lam"),
        ("wegner", _preset_text("wegner-1d").replace("n_list = 1 2 3", "n_list = 1 4000"), "wegner.n_list"),
        ("lifshitz", _preset_text("lifshitz-reduced-1d").replace("\nn = 1000\n", "\nn = 150000\n"), "lifshitz.n"),
        ("reduce", _preset_text("reduce-1d").replace("n = 1\ngrid_points = 9", "n = 3\ngrid_points = 9"), "reduce.n"),
        ("theorem1", _preset_text("theorem1-1d").replace("grid_points = 11", "grid_points = 60"), "theorem1.grid_points"),
        ("reduce", _preset_text("reduce-1d").replace("n = 1\ngrid_points = 9", "n = 1000\ngrid_points = 1"), "reduce.n"),
        ("theorem1", THEOREM1_2D, "theorem1.grid_points"),
        ("wegner", _preset_text("wegner-1d").replace("n_list = 1 2 3", "n_list = 1 33"), "wegner.audit_per_n"),
    ],
    ids=[
        "nbands-above-fiber-size", "one-window", "one-size", "ids-one-cell-torus",
        "sandwich-one-cell-torus", "verify-all-zero-lam", "sandwich-auto-alpha0-zero-lam",
        "wegner-size-above-guard", "lifshitz-chain-above-guard", "reduce-scan-above-guard",
        "theorem1-scan-above-guard", "reduce-dense-size-above-guard", "theorem1-scan-on-d2",
        "wegner-dense-audit-above-cutoff",
    ],
)
def test_cross_key_bounds_are_config_errors(tmp_path, capsys, kind, text, key):
    """Bounds that join keys (a fiber of m ** d levels; a joint fit over
    windows and sizes; a torus of side 2n + 1 >= 3 for the sandwich
    operators of ids and sandwich; lam > 0 where the growth constant
    alpha0, a ratio over lam, is measured; the size guard on every
    wegner.n_list size, the lifshitz chain of 2 lifshitz.n + 1 sites, the
    configurations of the reduce and theorem1 scans and the dense operator
    of 2 reduce.n + 1 rows each reduce configuration is diagonalized as;
    the theorem1 scan, which is d = 1 only, on a d = 2 model; a wegner size
    above eigensolve.DENSE_CUTOFF rows when samples are audited dense) are config
    errors before any sample: one line, and only the manifest is left."""
    cfg_path = _write(tmp_path, f"{kind}.ini", text)
    assert main([kind, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and err.count("\n") == 1, err
    assert os.listdir(tmp_path / "run") == ["manifest.txt"], "nothing written before the check"


def test_a_ground_hi_below_the_ground_fails_the_run(tmp_path):
    """A sample with no level below lifshitz.ground_hi has no ground (the
    bisection returns ground_hi itself): the run keeps its outputs and ends
    failed, exit 1, with a line that names the key."""
    text = _preset_text("lifshitz-reduced-1d").replace("n_samples = 200", "n_samples = 8")
    text = text.replace("ground_hi = 4.0", "ground_hi = 0.05")
    out = tmp_path / "run"
    assert main(["lifshitz", "--config", _write(tmp_path, "l.ini", text), "--out", str(out)]) == 1
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[-1] == "status: failed"
    assert summary[-2] == "no level below lifshitz.ground_hi = 0.05 in 8 of 8 samples"


def test_a_lifshitz_run_without_a_fit_writes_its_curve_and_fails(tmp_path):
    """An energy window below every sampled level leaves no usable point for
    the tail fit: the run keeps its curve, writes fit.csv with NaN fit
    columns and ends failed, exit 1, with a line that says how many points
    the fit could use."""
    text = _preset_text("lifshitz-reduced-1d").replace("n_samples = 200", "n_samples = 4")
    text = text.replace("e_min = 0.1", "e_min = 0.0001").replace("e_max = 0.8", "e_max = 0.0002")
    out = tmp_path / "run"
    assert main(["lifshitz", "--config", _write(tmp_path, "l.ini", text), "--out", str(out)]) == 1
    _, curve = read_csv_rows(out / "curve.csv")
    assert len(curve) == 22
    fit_header, [fit_row] = read_csv_rows(out / "fit.csv")
    fit = dict(zip(fit_header, fit_row))
    fit_columns = ("slope", "intercept", "rms_residual", "half_window_slope", "n_points", "no_tail")
    assert [fit[c] for c in fit_columns] == ["nan"] * 6
    assert float(fit["ground_min"]) > 0.0002
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[-1] == "status: failed"
    assert summary[-2] == (
        "no fit: 0 of 22 energies lie above the bottom estimate with 0 < N(E) < 1; "
        "the tail fit needs 3"
    )


def test_wegner_scan_without_a_fit_writes_its_records_and_fails(tmp_path, capsys):
    """Three samples per cell leave too few cells with 0 < hits < samples for
    the joint fit: the run keeps its records and ends failed, exit 1."""
    cfg_path = _write(
        tmp_path, "w.ini", WEGNER_TMPL.replace("samples_per_cell = 40", "samples_per_cell = 3")
    )
    out = tmp_path / "run"
    assert main(["wegner", "--config", cfg_path, "--out", str(out)]) == 1
    header, rows = read_csv_rows(out / "records.csv")
    assert header[:4] == ["n", "eps", "hits", "samples"] and len(rows) == 8
    assert sum(0 < int(r[2]) < int(r[3]) for r in rows) < 3
    fit_header, [fit_row] = read_csv_rows(out / "fit.csv")
    fit = dict(zip(fit_header, fit_row))
    assert fit["nu_hat"] == "nan" and fit["dim_hat"] == "nan"
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[-1] == "status: failed" and summary[-2].startswith("no fit:")


def _before_each_ids_count(monkeypatch, hook):
    """Call ``hook(family, samples)`` before each ``count_rows`` of an ids
    run; return the list of the sample tuples whose fields the run drew.

    ``samples`` are the last drawn: a fresh run's chunk draws its samples'
    fields once and counts all of them for each family in turn."""
    import displab.cli as cli

    drawn = []
    real_count_rows, real_sample_fields = cli.count_rows, cli.sample_fields

    def sample_fields_logged(dist, n, master_seed, samples):
        drawn.append(tuple(samples))
        return real_sample_fields(dist, n, master_seed, samples)

    def count_rows_hooked(family, energies, fields):
        hook(family, drawn[-1])
        return real_count_rows(family, energies, fields)

    monkeypatch.setattr(cli, "sample_fields", sample_fields_logged)
    monkeypatch.setattr(cli, "count_rows", count_rows_hooked)
    return drawn


def test_ctrl_c_keeps_finished_samples_for_resume(tmp_path, monkeypatch, capsys):
    """Ctrl-C mid-run exits 130 with the finished samples cached; resuming
    then gives the bytes of a one-shot run."""
    import displab.cli as cli

    cfg_path = _write(tmp_path, "ids.ini", IDS_TMPL)
    full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
    assert main(["ids", "--config", cfg_path, "--out", full]) == 0

    def interrupt(family, samples):
        # chunks of 4 samples: the first holds samples 0-3 of all three
        # families; minus sample 4 is in the second
        if getattr(family, "sign", 0) < 0 and 4 in samples:
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 4)
    _before_each_ids_count(monkeypatch, interrupt)
    try:
        code = main(["ids", "--config", cfg_path, "--out", cut])
    except KeyboardInterrupt:
        pytest.fail("Ctrl-C escaped main()")
    monkeypatch.undo()
    assert code == 130
    assert f"interrupted; resume with --resume {cut}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(cut, "summary.txt"))
    _, rows = read_csv_rows(os.path.join(cut, "cache.csv"))
    assert len(rows) == 12

    assert main(["ids", "--resume", cut]) == 0
    for name in ("cache.csv", "curves.csv", "summary.txt"):
        assert open(os.path.join(full, name), "rb").read() == open(
            os.path.join(cut, name), "rb"
        ).read(), name


# A d = 2 ids run with N = (5 * 20)^2 = 10,000 grid points, above
# eigensolve.COUNT_DENSE_FALLBACK: a continuum count SuperLU refuses has no
# dense fallback.
IDS_2D_TMPL = (
    IDS_TMPL.replace("d = 1", "d = 2").replace("n = 1", "n = 2").replace("m = 8", "m = 20")
    .replace("coefficients = -1.0", "coefficients = -1.0 -1.0")
    .replace("zeta = -1.0", "zeta = -1.0 0.0").replace("n_samples = 6", "n_samples = 2")
)


def test_a_solver_failure_ends_the_run_and_keeps_finished_chunks(tmp_path, monkeypatch, capsys):
    """A count that every exact path refuses ends the run with exit 3 and
    one stderr line naming the run and the chunk, no traceback.  The refusal is injected into SuperLU
    from the second sample on, in chunks of one sample: the first chunk
    stays in cache.csv, and --resume without the fault gives the bytes of
    a one-shot run."""
    import displab.cli as cli
    import displab.eigensolve as es

    assert es.COUNT_DENSE_FALLBACK < 10_000
    cfg_path = _write(tmp_path, "ids-2d.ini", IDS_2D_TMPL)
    full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
    code = main(["ids", "--config", cfg_path, "--out", full])
    assert code in (0, 1)
    capsys.readouterr()

    real_inertia = es._sparse_inertia
    second = []

    def inertia_refused(shifted, scale):
        return None if second[-1] else real_inertia(shifted, scale)

    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 1)
    _before_each_ids_count(monkeypatch, lambda family, samples: second.append(1 in samples))
    monkeypatch.setattr(es, "_sparse_inertia", inertia_refused)
    assert main(["ids", "--config", cfg_path, "--out", cut]) == 3
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith("solver error in the ids run: inertia count failed at E=")
    assert err.endswith(
        f" (in the chunk from family plus, sample 1 to family minus, sample 1); resume with --resume {cut}\n"
    )
    assert err.count("\n") == 1
    assert "Traceback" not in err and not os.path.exists(os.path.join(cut, "summary.txt"))
    _, rows = read_csv_rows(os.path.join(cut, "cache.csv"))
    assert [(row[0], int(row[1])) for row in rows] == [("plus", 0), ("middle", 0), ("minus", 0)]
    assert main(["ids", "--resume", cut]) == code
    _same_files(full, cut)


def _superlu_refuses(monkeypatch):
    """Make every SuperLU factorization raise, as ``splu`` does on a matrix
    it cannot factor; count the attempts."""
    import displab.eigensolve as es

    tried = []

    def refused(*args, **kwargs):
        tried.append(1)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(es.spla, "splu", refused)
    return tried


def test_a_superlu_refusal_falls_back_to_dense_ldlt(tmp_path, monkeypatch, capsys):
    """A d = 2 ids run whose continuum operators (N = (3 * 9)^2 = 729 rows)
    lie between COUNT_DENSE_CUTOFF and COUNT_DENSE_FALLBACK: with SuperLU
    refusing every factorization, dense LDL^T counts instead and the run
    gives the exit code and the run-directory bytes of a normal run."""
    import displab.eigensolve as es

    assert es.COUNT_DENSE_CUTOFF < 729 <= es.COUNT_DENSE_FALLBACK
    text = (
        IDS_2D_TMPL.replace("n = 2", "n = 1").replace("m = 20", "m = 9")
        .replace("n_samples = 2", "n_samples = 3")
    )
    cfg_path = _write(tmp_path, "ids-2d.ini", text)
    full, refused = str(tmp_path / "full"), str(tmp_path / "refused")
    code = main(["ids", "--config", cfg_path, "--out", full])
    assert code in (0, 1)
    tried = _superlu_refuses(monkeypatch)
    assert main(["ids", "--config", cfg_path, "--out", refused]) == code
    monkeypatch.undo()
    assert tried and "error" not in capsys.readouterr().err
    _same_files(full, refused)


def test_a_superlu_refusal_without_fallback_ends_the_run(tmp_path, monkeypatch, capsys):
    """Above COUNT_DENSE_FALLBACK (N = 10,000) a SuperLU refusal has no
    dense fallback: exit 3, one stderr line, no traceback, and a resume
    without the fault gives the bytes of a one-shot run."""
    cfg_path = _write(tmp_path, "ids-2d.ini", IDS_2D_TMPL)
    full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
    code = main(["ids", "--config", cfg_path, "--out", full])
    assert code in (0, 1)
    capsys.readouterr()
    _superlu_refuses(monkeypatch)
    assert main(["ids", "--config", cfg_path, "--out", cut]) == 3
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith("solver error in the ids run: inertia count failed at E=")
    assert "SuperLU (no dense LDL^T fallback above N = 8000)" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(os.path.join(cut, "summary.txt"))
    assert main(["ids", "--resume", cut]) == code
    _same_files(full, cut)


def test_a_dense_spectrum_failure_ends_a_wegner_run(tmp_path, monkeypatch, capsys):
    """A LAPACK failure in ``dense_levels`` (here the top merge's secular
    root solver, on the first sample's 96 rows) ends a wegner run with exit 3
    and one stderr line naming the run and the chunk of the first sample."""
    import displab.eigensolve as es

    monkeypatch.setattr(es, "_merge_routines", failing_merge("dlaed4"))
    cfg_path = _write(tmp_path, "wegner.ini", WEGNER_TMPL)
    out = str(tmp_path / "run")
    assert main(["wegner", "--config", cfg_path, "--out", out]) == 3
    assert capsys.readouterr().err == (
        "solver error in the wegner run: dense_levels: dlaed4 reports LAPACK info 1 "
        f"(in the chunk from n 1, sample 0 to n 1, sample 15); resume with --resume {out}\n"
    )


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_seed_outside_philox_range_is_config_error(tmp_path, capsys, seed, where):
    """Seeds key Philox streams as 64-bit words: -1 and 2^64 - 1 would reuse
    seed 0's fields and every seed >= 2^63 one stream, so both are refused
    before any sample runs."""
    text = _preset_text("lifshitz-reduced-1d")
    argv = []
    if where == "flag":
        argv = ["--seed", str(seed)]
    else:
        text = text.replace("seed = 0", f"seed = {seed}")
    cfg_path = _write(tmp_path, "lifshitz.ini", text)
    out = tmp_path / "run"
    assert main(["lifshitz", "--config", cfg_path, "--out", str(out)] + argv) == 2
    assert capsys.readouterr().err.startswith("config error: run.seed must satisfy")
    assert not (out / "cache.csv").exists()


def test_largest_seed_runs(tmp_path):
    cfg_path = _write(tmp_path, "band.ini", BAND_TMPL.format(extra=""))
    out = str(tmp_path / "run")
    assert main(["band", "--config", cfg_path, "--out", out, "--seed", str(2**63 - 1)]) == 0


def _small_lifshitz(n_samples):
    text = _preset_text("lifshitz-reduced-1d")
    text = text.replace("n = 1000", "n = 60").replace("n_samples = 200", f"n_samples = {n_samples}")
    return text


def test_lifshitz_ctrl_c_mid_chunk_keeps_whole_chunks_for_resume(tmp_path, monkeypatch, capsys):
    """Lifshitz samples are computed SAMPLE_CHUNK at a time: Ctrl-C inside
    the second chunk keeps the first whole, and resuming gives the bytes of
    a one-shot run."""
    import displab.cli as cli

    chunk = cli.SAMPLE_CHUNK
    cfg_path = _write(tmp_path, "lifshitz.ini", _small_lifshitz(2 * chunk + 3))
    full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
    assert main(["lifshitz", "--config", cfg_path, "--out", full]) == 0

    real_operators = ReducedFamily.operators

    def operators_then_interrupt(self, master_seed, samples):
        if chunk + 2 in samples:
            raise KeyboardInterrupt
        return real_operators(self, master_seed, samples)

    monkeypatch.setattr(ReducedFamily, "operators", operators_then_interrupt)
    assert main(["lifshitz", "--config", cfg_path, "--out", cut]) == 130
    monkeypatch.undo()
    assert f"interrupted; resume with --resume {cut}" in capsys.readouterr().err
    _, rows = read_csv_rows(os.path.join(cut, "cache.csv"))
    assert [int(row[0]) for row in rows] == list(range(chunk))

    assert main(["lifshitz", "--resume", cut]) == 0
    for name in ("cache.csv", "curve.csv", "fit.csv", "summary.txt"):
        assert open(os.path.join(full, name), "rb").read() == open(
            os.path.join(cut, name), "rb"
        ).read(), name


def test_a_solver_failure_ends_a_lifshitz_run_and_keeps_finished_chunks(
    tmp_path, monkeypatch, capsys
):
    """Both exact per-threshold paths refuse every threshold from the second
    chunk of lifshitz samples on: exit 3, one stderr line naming the run and
    the chunk, no traceback, the first chunk's rows in cache.csv, and
    --resume without the fault gives the bytes of a one-shot run."""
    import displab.cli as cli
    import displab.eigensolve as es

    chunk = cli.SAMPLE_CHUNK
    cfg_path = _write(tmp_path, "lifshitz.ini", _small_lifshitz(chunk + 4))
    full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
    assert main(["lifshitz", "--config", cfg_path, "--out", full]) == 0
    capsys.readouterr()

    real_operators = ReducedFamily.operators
    second, refused = [], []

    def operators_flagged(self, master_seed, samples):
        second.append(chunk in samples)
        return real_operators(self, master_seed, samples)

    def refusing(real):
        def inertia(shifted, scale):
            if second[-1]:
                refused.append(1)
                return None
            return real(shifted, scale)
        return inertia

    monkeypatch.setattr(ReducedFamily, "operators", operators_flagged)
    for name in ("_dense_inertia", "_sparse_inertia"):
        monkeypatch.setattr(es, name, refusing(getattr(es, name)))
    assert main(["lifshitz", "--config", cfg_path, "--out", cut]) == 3
    monkeypatch.undo()
    assert refused
    err = capsys.readouterr().err
    assert err.startswith("solver error in the lifshitz run: inertia count failed at E=")
    assert err.endswith(
        f" (in the chunk from sample {chunk} to sample {chunk + 3}); resume with --resume {cut}\n"
    )
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(os.path.join(cut, "summary.txt"))
    _, rows = read_csv_rows(os.path.join(cut, "cache.csv"))
    assert [int(row[0]) for row in rows] == list(range(chunk))
    assert main(["lifshitz", "--resume", cut]) == 0
    _same_files(full, cut)


def test_an_ids_2d_run_without_lanczos_pairs_gives_the_same_bytes(tmp_path, monkeypatch):
    """With ``_lanczos_pairs`` yielding nothing, every lower threshold of a
    d = 2 ids run takes the per-threshold factorization: the slower path
    gives the run directory of the fast one, byte for byte."""
    import displab.eigensolve as es

    cfg_path = _write(tmp_path, "ids-2d.ini", IDS_2D_TMPL)
    fast, slow = str(tmp_path / "fast"), str(tmp_path / "slow")
    factored, runs, real_splu = [], [], es.spla.splu
    monkeypatch.setattr(es.spla, "splu", lambda *a, **k: factored.append(1) or real_splu(*a, **k))
    code = main(["ids", "--config", cfg_path, "--out", fast])
    assert code in (0, 1)
    fast_factored = len(factored)

    def no_pairs(lu, shift, k):
        runs.append(k)
        return iter(())

    monkeypatch.setattr(es, "_lanczos_pairs", no_pairs)
    assert main(["ids", "--config", cfg_path, "--out", slow]) == code
    monkeypatch.undo()
    assert runs and len(factored) - fast_factored > fast_factored
    _same_files(fast, slow)


def test_cache_is_flushed_whenever_a_chunk_crosses_a_multiple(tmp_path, monkeypatch):
    """Every finished chunk is appended to the cache before the next one
    starts, also after a partial resume, and the way out rewrites the cache
    in task order."""
    import displab.cli as cli

    rd = cli.RunDir(str(tmp_path))
    header = ["task", "value"]
    write_csv(rd.cache, header, [[t, 2 * t] for t in (6, 0, 1, 2, 3, 4, 5)])
    on_disk = []

    def compute(batch):
        on_disk.append(len(read_csv_rows(rd.cache)[1]))
        return [[t, 2 * t] for t in batch]

    rows = cli._sample_cache(rd, header, lambda row: int(row[0]), range(20), compute, chunk=4)
    # batches 7-10, 11-14, 15-18, 19
    assert on_disk == [7, 11, 15, 19]
    assert len(rows) == 20
    assert read_csv_rows(rd.cache)[1] == [[str(t), str(2 * t)] for t in range(20)]


def _wegner_text(samples_per_cell, ground_samples=5):
    return WEGNER_TMPL.replace(
        "samples_per_cell = 40", f"samples_per_cell = {samples_per_cell}"
    ).replace("ground_samples = 5", f"ground_samples = {ground_samples}")


def _same_files(a, b):
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert open(os.path.join(a, name), "rb").read() == open(
            os.path.join(b, name), "rb"
        ).read(), name


def test_wegner_ctrl_c_mid_chunk_keeps_whole_chunks_for_resume(tmp_path, monkeypatch, capsys):
    """Wegner samples are computed SAMPLE_CHUNK at a time, in order of (n,
    sample), so a chunk can hold samples of two sizes.  Ctrl-C inside such a
    chunk keeps the chunks before it whole, resuming gives the bytes of a
    one-shot run, and so does a run with chunks of one sample."""
    import displab.cli as cli

    chunk = cli.SAMPLE_CHUNK
    per_cell = chunk + 4  # the second chunk is n = 1's last 4 and n = 2's first samples
    cfg_path = _write(tmp_path, "wegner.ini", _wegner_text(per_cell))
    full, cut, single = (str(tmp_path / name) for name in ("full", "cut", "single"))
    code = main(["wegner", "--config", cfg_path, "--out", full])
    assert code in (0, 1)

    real_operators = ContinuumFamily.operators

    def operators_then_interrupt(self, master_seed, samples):
        if self.n == 2 and 3 in samples:
            raise KeyboardInterrupt
        return real_operators(self, master_seed, samples)

    monkeypatch.setattr(ContinuumFamily, "operators", operators_then_interrupt)
    assert main(["wegner", "--config", cfg_path, "--out", cut]) == 130
    monkeypatch.undo()
    assert f"interrupted; resume with --resume {cut}" in capsys.readouterr().err
    _, rows = read_csv_rows(os.path.join(cut, "cache.csv"))
    assert [(int(row[0]), int(row[1])) for row in rows] == [(1, s) for s in range(chunk)]
    assert main(["wegner", "--resume", cut]) == code
    _same_files(full, cut)

    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 1)
    assert main(["wegner", "--config", cfg_path, "--out", single]) == code
    _same_files(full, single)


def test_ids_ctrl_c_mid_chunk_keeps_whole_chunks_for_resume(tmp_path, monkeypatch, capsys):
    """ids tasks are (family, sample) in sample order, computed SAMPLE_CHUNK
    samples at a time: one draw of the chunk's fields, shared by the three
    families, and one stacked count per family.  Ctrl-C inside the second
    chunk keeps the first whole, resuming gives the bytes of a one-shot run,
    and so does a run with chunks of one sample."""
    import displab.cli as cli

    chunk = cli.SAMPLE_CHUNK
    n_samples = chunk + 4  # the second chunk is samples chunk .. chunk + 3
    cfg_path = _write(
        tmp_path, "ids.ini", IDS_TMPL.replace("n_samples = 6", f"n_samples = {n_samples}")
    )
    full, cut, single = (str(tmp_path / name) for name in ("full", "cut", "single"))
    assert main(["ids", "--config", cfg_path, "--out", full]) == 0

    stacked = []

    def log_then_interrupt(family, samples):
        stacked.append((getattr(family, "sign", 0), samples))
        if getattr(family, "sign", 0) < 0 and chunk + 1 in samples:
            raise KeyboardInterrupt

    drawn = _before_each_ids_count(monkeypatch, log_then_interrupt)
    assert main(["ids", "--config", cfg_path, "--out", cut]) == 130
    monkeypatch.undo()
    assert f"interrupted; resume with --resume {cut}" in capsys.readouterr().err
    first, second = tuple(range(chunk)), tuple(range(chunk, n_samples))
    assert drawn == [first, second]
    assert stacked == [
        (1, first), (0, first), (-1, first), (1, second), (0, second), (-1, second),
    ]
    _, rows = read_csv_rows(os.path.join(cut, "cache.csv"))
    assert [(row[0], int(row[1])) for row in rows] == [
        (name, s) for name in ("plus", "middle", "minus") for s in first
    ]
    assert main(["ids", "--resume", cut]) == 0
    _same_files(full, cut)

    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 1)
    assert main(["ids", "--config", cfg_path, "--out", single]) == 0
    _same_files(full, single)


def _counting_assembly(monkeypatch):
    """Count the samples ContinuumFamily.operators assembles, per (n, sample)."""
    made = collections.Counter()
    real_operators = ContinuumFamily.operators

    def operators_counted(self, master_seed, samples):
        made.update((self.n, s) for s in samples)
        return real_operators(self, master_seed, samples)

    monkeypatch.setattr(ContinuumFamily, "operators", operators_counted)
    return made


@pytest.mark.parametrize("audit_per_n", [4, 25])
def test_fresh_wegner_run_assembles_each_sample_once(tmp_path, monkeypatch, audit_per_n):
    """The ground and the audit read one dense spectrum of the operator the
    counts came from, so a fresh run assembles every (n, sample) once, also
    when more samples are audited than grounded."""
    text = _wegner_text(40).replace("audit_per_n = 4", f"audit_per_n = {audit_per_n}")
    made = _counting_assembly(monkeypatch)
    out = tmp_path / "run"
    assert main(["wegner", "--config", _write(tmp_path, "w.ini", text), "--out", str(out)]) == 0
    assert made == {(n, s): 1 for n in (1, 2) for s in range(40)}
    assert f"audits: {8 * audit_per_n}/{8 * audit_per_n} agree" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("audit_per_n", [4, 25])
def test_wegner_resume_audits_replayed_samples(tmp_path, monkeypatch, audit_per_n):
    """A resumed run whose cache holds every audited sample assembles those
    samples again for their audit only, computes the rest, and gives the
    bytes of a one-shot run."""
    kept = 30
    text = _wegner_text(40).replace("audit_per_n = 4", f"audit_per_n = {audit_per_n}")
    cfg_path = _write(tmp_path, "w.ini", text)
    full, cut = tmp_path / "full", tmp_path / "cut"
    assert main(["wegner", "--config", cfg_path, "--out", str(full)]) == 0
    cut.mkdir()
    for name in ("manifest.txt", "cache.csv"):
        (cut / name).write_bytes((full / name).read_bytes())
    header, rows = read_csv_rows(cut / "cache.csv")
    write_csv(str(cut / "cache.csv"), header, [r for r in rows if int(r[1]) < kept])
    made = _counting_assembly(monkeypatch)
    assert main(["wegner", "--resume", str(cut)]) == 0
    assert made == {
        (n, s): 1 for n in (1, 2) for s in list(range(audit_per_n)) + list(range(kept, 40))
    }
    _same_files(str(full), str(cut))


def test_resume_drops_a_torn_last_cache_line(tmp_path):
    """A kill while appending can cut the last cache line short at any byte;
    a cut line may still have the right field count (a ground -139.8123 cut
    to -139.8, true to tr).  Resuming from every such cut gives the bytes of
    a one-shot run."""
    cfg_path = _write(tmp_path, "wegner.ini", _wegner_text(6, ground_samples=6))
    full = str(tmp_path / "full")
    code = main(["wegner", "--config", cfg_path, "--out", full])
    text = open(os.path.join(full, "cache.csv"), "rb").read()
    last = text.rstrip(b"\n").rfind(b"\n") + 1
    assert text[last:].split(b",")[2], "the last row has a ground"
    for cut in range(last, len(text)):
        run = tmp_path / f"cut{cut}"
        run.mkdir()
        for name in os.listdir(full):
            if name != "summary.txt":
                (run / name).write_bytes(open(os.path.join(full, name), "rb").read())
        (run / "cache.csv").write_bytes(text[:cut])
        assert main(["wegner", "--resume", str(run)]) == code, cut
        _same_files(full, str(run))


def _preset_path(name):
    return str(files("displab") / "presets" / f"{name}.ini")


@pytest.mark.parametrize(
    "preset, old, new, key",
    [
        ("free-1d", None, "nbandz = 7\n", "band.nbandz"),
        ("free-1d", None, "\n[bogus]\nx = 1\n", "[bogus]"),
        ("lifshitz-reduced-1d", None, "n_sample = 3\n", "lifshitz.n_sample"),
        ("lifshitz-reduced-1d", "seed = 0\n", "seed = 0\nthreads = 2\n", "run.threads"),
        ("wegner-1d", "n_list = 1 2 3", "n_list = 1 inf", "wegner.n_list"),
        ("wegner-1d", "n_list = 1 2 3", "n_list = 1 nan", "wegner.n_list"),
        ("free-1d", "nbands = 3", "nbands = 0", "band.nbands"),
        ("free-1d", "theta_n = 2", "theta_n = -1", "band.theta_n"),
        ("free-1d", "m = 16", "m = 0", "model.m"),
        ("lifshitz-reduced-1d", "n = 1000", "n = 0", "lifshitz.n"),
        ("free-1d", "lam = 0.0", "lam = nan", "model.lam"),
        ("free-1d", "zeta = 0.0", "zeta =", "band.zeta"),
        ("lifshitz-reduced-1d", "c0 = 1.0\n", "", "missing lifshitz.c0"),
        ("lifshitz-reduced-1d", "ground_hi = 4.0", "ground_hi = -1", "lifshitz.ground_hi"),
        ("minimize-1d", "gap_lams = 0.2 0.1 0.05", "gap_lams = 0.2 0.0", "minimize.gap_lams"),
        ("minimize-1d", "gap_lams = 0.2 0.1 0.05", "gap_lams = -0.1", "minimize.gap_lams"),
    ],
    ids=[
        "unknown-key", "unknown-section", "misspelt-key", "run-threads", "n_list-inf",
        "n_list-nan", "zero-bands", "negative-theta_n", "m-below-4", "lifshitz-n-zero",
        "lam-nan", "empty-list", "missing-required", "negative-ground_hi", "zero-gap-lam",
        "negative-gap-lam",
    ],
)
def test_config_is_checked_before_the_run(tmp_path, capsys, preset, old, new, key):
    """Unknown sections and keys and malformed or out-of-range values are
    config errors (exit 2) before the run directory is even made."""
    text = _preset_text(preset)
    assert old is None or text.count(old) == 1
    text = text + new if old is None else text.replace(old, new)
    kind = load_config_text(_preset_text(preset))["run"]["kind"]
    out = tmp_path / "run"
    assert main([kind, "--config", _write(tmp_path, "c.ini", text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err, err
    assert not out.exists()


# config_sha of every shipped preset: each manifest, and so the --resume of
# every existing run directory, depends on these.
PRESET_SHAS = {
    "asym-1d": "8d0e4340f3bd0654543f15d669b2ac20252697b72aadd9a98c84186abcf66da5",
    "free-1d": "c94ce1077bdd54c32bc58e698fe7e7411bb822ac2640cefdaba223407dd1bc75",
    "ids-1d": "6836b28de6de441763a30cba75910a3704388edd50197cfb070f925c7b930beb",
    "lifshitz-reduced-1d": "8573068f82fcb55515a46ca2dc82033c2cf7aa5a2ff03cc15aad8653bc75da67",
    "minimize-1d": "47b2af761b5323f83b333effd715b4ef0db0a6ee8968440e096e5e04c31ee8a6",
    "reduce-1d": "873a2c5977ea12f2b1d46ab971830693dd53cb3f9d84899f85500f8aca3dab55",
    "sandwich-1d": "ad6b3041acd6369bc810c0501493e230f44dc3ef867fc62b637b64c60f4b4377",
    "theorem1-1d": "90517c6f0b868a61de3fa1cef5417ce3d380dd43cd69419fdb78c6e9ce4ba41b",
    "wegner-1d": "adce4544793c9a85261690e0ecce158d262c79c8595d5a3e17455d04a7257fe5",
}
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


@pytest.mark.parametrize(
    "name", sorted(p.name[:-4] for p in files("displab").joinpath("presets").iterdir())
)
def test_presets_pass_the_schema_and_keep_their_sha(name):
    raw = load_config_text(_preset_text(name))
    read_config(raw)
    assert config_sha(raw) == PRESET_SHAS[name]


@pytest.mark.parametrize("name", sorted(p.name for p in BENCH_CONFIGS.glob("*.ini")))
def test_benchmark_configs_pass_the_schema(name):
    read_config(load_config_file(str(BENCH_CONFIGS / name)))


def test_sigint_keeps_finished_samples_for_resume(tmp_path):
    """SIGINT to a ``displab ids`` process once its first cache flush is on
    disk: it exits 130 with part of the samples cached, and ``--resume``
    then gives the bytes of a one-shot run."""
    preset = _preset_path("ids-1d")
    full, cut = tmp_path / "full", tmp_path / "cut"
    assert main(["ids", "--config", preset, "--out", str(full)]) == 0
    src_dir = os.path.dirname(os.path.dirname(displab.__file__))
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "displab.cli", "ids", "--config", preset, "--out", str(cut)],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60
        while not (cut / "cache.csv").exists():
            assert proc.poll() is None, "the run ended before its first cache flush"
            assert time.monotonic() < deadline, "no cache flush within 60 s"
            time.sleep(0.005)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130, err
    assert b"interrupted; resume with --resume" in err
    _, cut_rows = read_csv_rows(str(cut / "cache.csv"))
    _, all_rows = read_csv_rows(str(full / "cache.csv"))
    assert 1 <= len(cut_rows) < len(all_rows)
    assert main(["ids", "--resume", str(cut)]) == 0
    assert sorted(os.listdir(cut)) == sorted(os.listdir(full))
    for name in os.listdir(full):
        assert (full / name).read_bytes() == (cut / name).read_bytes(), name


def test_ids_preset_draws_each_field_once(tmp_path):
    """The three families of a sample share its field: the ids-1d preset
    draws 100 fields of 5 sites, not one per family."""
    from displab import randomfields

    before = sum(randomfields.SITE_COUNTS.values())
    cfg, out = str(files("displab") / "presets" / "ids-1d.ini"), str(tmp_path / "ids")
    assert main(["ids", "--config", cfg, "--out", out]) == 0
    assert sum(randomfields.SITE_COUNTS.values()) - before == 100 * 5
