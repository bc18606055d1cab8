"""The gain rule of ``tests/bench_pairs.py`` on made-up pairs: the change
must win nine tenths of the pairs, ties counting for neither side, and its
median must beat the parent's by more than the parent's quartile spread."""

import json
import math
from pathlib import Path

import bench_pairs
from bench_pairs import quartiles, verdict

ROOT = Path(__file__).resolve().parents[1]

# Parent values with quartiles 9 / 10 / 11: a spread of 2.
PARENT = [8.0, 9.0, 10.0, 11.0, 12.0, 8.0, 9.0, 10.0, 11.0, 12.0]


def test_quartiles_are_inclusive_and_one_value_is_its_own():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert quartiles(PARENT) == (9.0, 10.0, 11.0)


def test_ties_count_for_neither_side():
    assert verdict([5.0] * 10, [5.0] * 10, "higher") == (0, False)
    assert verdict([5.0] * 10, [5.0] * 10, "lower") == (0, False)
    # nine wins and a tie still make nine tenths
    assert verdict([5.0] * 10, [6.0] * 9 + [5.0], "higher") == (9, True)
    assert verdict([5.0] * 10, [6.0] * 8 + [5.0] * 2, "higher") == (8, False)


def test_the_change_must_win_nine_pairs_in_ten():
    assert verdict([10.0] * 10, [11.0] * 9 + [9.0], "higher") == (9, True)
    assert verdict([10.0] * 10, [11.0] * 8 + [9.0] * 2, "higher") == (8, False)
    assert verdict([10.0] * 10, [9.0] * 9 + [11.0], "lower") == (9, True)
    assert verdict([10.0] * 10, [9.0] * 8 + [11.0] * 2, "lower") == (8, False)


def test_the_median_gain_must_exceed_the_parents_spread():
    assert verdict(PARENT, [p + 1.5 for p in PARENT], "higher") == (10, False)
    assert verdict(PARENT, [p + 2.5 for p in PARENT], "higher") == (10, True)
    assert verdict(PARENT, [p - 2.0 for p in PARENT], "lower") == (10, False)
    assert verdict(PARENT, [p - 2.5 for p in PARENT], "lower") == (10, True)


def test_a_pair_without_a_value_is_lost():
    assert verdict([10.0] * 10, [11.0] * 9 + [math.nan], "higher")[0] == 9
    assert verdict([10.0] * 10, [9.0] * 9 + [math.nan], "lower")[0] == 9


def test_the_record_keeps_every_pair_and_each_workload(monkeypatch, tmp_path, capsys):
    """``--record`` writes the pairs, quartiles, wins and verdict of each
    end-to-end metric under the workload's name, beside what the file
    already holds; runs are faked, so no process is started."""

    def run_once(checkout, workload, seed, seconds):
        rate = 100.0 + seed if checkout == "change" else 50.0 + seed
        metrics = {"samples_per_s": {"value": rate}, "wall_s": {"value": 1.0}}
        return {"correct": True, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "change").symlink_to(ROOT)
    record = tmp_path / "BENCH.json"
    record.write_text(json.dumps({"ids-2d": {"kept": True}}))
    argv = ["parent", "change", "--workload", "lifshitz-1d", "--pairs", "3", "--seed", "1",
            "--seconds", "2", "--record", str(record)]
    assert bench_pairs.main(argv) == 0
    got = json.loads(record.read_text())
    assert got["ids-2d"] == {"kept": True}
    run = got["lifshitz-1d"]
    assert (run["pairs"], run["first_seed"], run["seconds"]) == (3, 1, 2.0)
    rate = run["metrics"]["samples_per_s"]
    assert rate["parent"] == [51.0, 52.0, 53.0] and rate["change"] == [101.0, 102.0, 103.0]
    assert rate["parent_q1_median_q3"] == [51.5, 52.0, 52.5]
    assert rate["change_q1_median_q3"] == [101.5, 102.0, 102.5]
    assert (rate["won"], rate["gain_rule_holds"], rate["better"]) == (3, True, "higher")
    wall = run["metrics"]["wall_s"]
    assert (wall["won"], wall["gain_rule_holds"]) == (0, False)
    assert "samples_per_s" in capsys.readouterr().out
