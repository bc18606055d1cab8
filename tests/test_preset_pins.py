"""The pinned preset outputs catch a count off by one and a float moved
past the benchmark's tolerance, and nothing smaller."""

import copy

import pytest

from preset_pins import CHECKS, PRESETS, differences, load_reference, read_outputs, render


def _write_run(tmp_path, files):
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(render(line) for line in lines), encoding="utf-8")
    return str(tmp_path)


@pytest.mark.parametrize("preset", PRESETS)
def test_reference_renders_back_to_a_matching_run(tmp_path, preset):
    want = load_reference(preset)
    assert differences(read_outputs(_write_run(tmp_path, want)), want) == []


def _moved(files, name, line, edit):
    files = copy.deepcopy(files)
    files[name][line] = edit(files[name][line])
    return files


def _last_count_plus_one(pieces):
    return pieces[:-2] + [pieces[-2] + 1, pieces[-1]]


def _times(index, factor):
    return lambda pieces: pieces[:index] + [pieces[index] * factor] + pieces[index + 1 :]


def test_a_count_off_by_one_in_the_cache_is_caught(tmp_path):
    for preset in ("ids-1d", "lifshitz-reduced-1d"):
        want = load_reference(preset)
        assert isinstance(want["cache.csv"][1][-2], int)
        (tmp_path / preset).mkdir()
        run = _write_run(tmp_path / preset, _moved(want, "cache.csv", 1, _last_count_plus_one))
        [problem] = differences(read_outputs(run), want)
        assert problem.startswith("cache.csv line 2:")


# (preset, file, line, piece): a float each pin must hold to the rule
FLOATS = [
    ("wegner-1d", "cache.csv", 1, 5),  # the ground of sample (1, 0)
    ("lifshitz-reduced-1d", "cache.csv", 1, 3),  # the ground of sample 0
    ("theorem1-1d", "summary.txt", 5, 1),  # the exhaustive scan's argmin energy
]


def test_a_ground_moved_past_the_float_rule_is_caught(tmp_path):
    for preset, name, line, index in FLOATS:
        want = load_reference(preset)
        assert isinstance(want[name][line][index], float)
        moved, within = tmp_path / f"{preset}-moved", tmp_path / f"{preset}-within"
        moved.mkdir()
        within.mkdir()
        run = _write_run(moved, _moved(want, name, line, _times(index, 1 + 1e-8)))
        [problem] = differences(read_outputs(run), want)
        assert problem.startswith(f"{name} line {line + 1}:")
        run = _write_run(within, _moved(want, name, line, _times(index, 1 + CHECKS.RTOL / 10)))
        assert differences(read_outputs(run), want) == []


def test_a_flipped_hit_and_a_missing_file_are_caught(tmp_path):
    want = load_reference("wegner-1d")
    flipped = _moved(want, "cache.csv", 1, lambda p: p[:-1] + [p[-1].replace("false", "true", 1)])
    got = read_outputs(_write_run(tmp_path, flipped))
    assert differences(got, want) and differences(got, want)[0].startswith("cache.csv line 2:")
    del got["records.csv"]
    assert "records.csv: missing" in differences(got, want)
