"""The pure functions of ``tools/bench_pairs.py``, on hand-made run records."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(seed, **workloads):
    """A run record as ``run_once`` builds it: workload -> {metric: value}."""
    return {
        "seed": seed,
        "workloads": {
            w: {"report": {"report": w},
                "metrics": {"workload": w, "metrics": {m: {"value": v} for m, v in values.items()}}}
            for w, values in workloads.items()
        },
    }


class TestParseSeeds:
    def test_range_is_inclusive(self):
        assert bench_pairs.parse_seeds("1801-1804") == [1801, 1802, 1803, 1804]

    def test_single_seed(self):
        assert bench_pairs.parse_seeds("7") == [7]


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}

    def test_one_value_is_every_quartile(self):
        assert bench_pairs.quartiles([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "n": 1}


class TestSummarize:
    PARENT = [
        run(1, short={"train_ex_per_s": 100.0, "predict_p50_ms": 2.0, "extra": 1.0}),
        run(2, short={"train_ex_per_s": 100.0, "predict_p50_ms": 2.0, "extra": 1.0}),
        run(3, short={"train_ex_per_s": 100.0, "predict_p50_ms": 2.0, "extra": 1.0}),
    ]
    CHANGE = [
        run(1, short={"train_ex_per_s": 110.0, "predict_p50_ms": 1.5, "extra": 9.0}),
        run(2, short={"train_ex_per_s": 90.0, "predict_p50_ms": 2.5, "extra": 9.0}),
        run(3, short={"train_ex_per_s": 100.0, "predict_p50_ms": 2.5, "extra": 9.0}),
    ]
    BETTER = {"train_ex_per_s": "higher", "predict_p50_ms": "lower"}

    def summary(self):
        return bench_pairs.summarize({"parent": self.PARENT, "change": self.CHANGE}, self.BETTER)

    @pytest.mark.parametrize("metric, wins", [("train_ex_per_s", 1), ("predict_p50_ms", 1)])
    def test_wins_follow_the_better_direction_and_ties_do_not_count(self, metric, wins):
        entry = self.summary()[f"short.{metric}"]
        assert entry["change_wins"] == wins and entry["pairs"] == 3

    def test_a_lower_metric_counts_a_drop_as_a_win(self):
        change = [run(s, short={"predict_p50_ms": 1.0}) for s in (1, 2, 3)]
        out = bench_pairs.summarize({"parent": self.PARENT, "change": change}, self.BETTER)
        assert out["short.predict_p50_ms"]["change_wins"] == 3

    def test_each_side_gets_its_quartiles(self):
        entry = self.summary()["short.train_ex_per_s"]
        assert entry["parent"]["median"] == 100.0
        assert entry["change"] == {"median": 100.0, "q1": 95.0, "q3": 105.0, "n": 3}

    def test_metric_without_a_direction_counts_no_wins(self):
        entry = self.summary()["short.extra"]
        assert "change_wins" not in entry and entry["change"]["median"] == 9.0


def test_dev_auc_lists_the_seeds_below_one_half():
    runs = {
        "parent": [run(1, short={"dev_auc": 0.9}, long={"dev_auc": 0.4}), run(2, short={"dev_auc": 0.07})],
        "change": [run(1, short={"dev_auc": 0.5}), run(2, short={"dev_auc": 0.49})],
    }
    out = bench_pairs.dev_auc_by_seed(runs)
    assert out["parent"]["short"] == {"by_seed": {"1": 0.9, "2": 0.07}, "below_0_5": [2]}
    assert out["parent"]["long"] == {"by_seed": {"1": 0.4}, "below_0_5": [1]}
    assert out["change"]["short"]["below_0_5"] == [2]
