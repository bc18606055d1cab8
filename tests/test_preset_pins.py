"""The pinned preset outputs catch a count off by one and a float moved
past the benchmark's tolerance, and nothing smaller."""

import copy

import pytest

from preset_pins import CHECKS, differences, load_reference, read_outputs, render


def _write_run(tmp_path, files):
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(render(line) for line in lines), encoding="utf-8")
    return str(tmp_path)


@pytest.mark.parametrize("preset", ["ids-1d", "wegner-1d"])
def test_reference_renders_back_to_a_matching_run(tmp_path, preset):
    want = load_reference(preset)
    assert differences(read_outputs(_write_run(tmp_path, want)), want) == []


def _moved(files, name, line, edit):
    files = copy.deepcopy(files)
    files[name][line] = edit(files[name][line])
    return files


def _last_count_plus_one(pieces):
    return pieces[:-2] + [pieces[-2] + 1, pieces[-1]]


def _ground_times(factor):
    return lambda pieces: pieces[:5] + [pieces[5] * factor] + pieces[6:]


def test_a_count_off_by_one_in_the_cache_is_caught(tmp_path):
    want = load_reference("ids-1d")
    assert isinstance(want["cache.csv"][1][-2], int)
    run = _write_run(tmp_path, _moved(want, "cache.csv", 1, _last_count_plus_one))
    [problem] = differences(read_outputs(run), want)
    assert problem.startswith("cache.csv line 2:")


def test_a_ground_moved_past_the_float_rule_is_caught(tmp_path):
    want = load_reference("wegner-1d")
    assert isinstance(want["cache.csv"][1][5], float), "sample (1, 0) has a ground"
    moved = tmp_path / "moved"
    moved.mkdir()
    run = _write_run(moved, _moved(want, "cache.csv", 1, _ground_times(1 + 1e-8)))
    [problem] = differences(read_outputs(run), want)
    assert problem.startswith("cache.csv line 2:")
    within = tmp_path / "within"
    within.mkdir()
    run = _write_run(within, _moved(want, "cache.csv", 1, _ground_times(1 + CHECKS.RTOL / 10)))
    assert differences(read_outputs(run), want) == []


def test_a_flipped_hit_and_a_missing_file_are_caught(tmp_path):
    want = load_reference("wegner-1d")
    flipped = _moved(want, "cache.csv", 1, lambda p: p[:-1] + [p[-1].replace("false", "true", 1)])
    got = read_outputs(_write_run(tmp_path, flipped))
    assert differences(got, want) and differences(got, want)[0].startswith("cache.csv line 2:")
    del got["records.csv"]
    assert "records.csv: missing" in differences(got, want)
