"""Unit tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest -q perfbench/test_helpers.py
"""

import re
from pathlib import Path

import pytest

from helpers import (
    Ledger,
    LayerTimer,
    OpenLoopSchedule,
    check_comparable,
    digest,
    percentile,
    samples_beyond,
    slices,
    summarize,
    tail_level,
)


# -- the "ten samples beyond" percentile rule ---------------------------

@pytest.mark.parametrize("n, level", [
    (19, None),     # even the median has only 9 samples above it
    (20, 50.0),
    (39, 50.0),
    (40, 75.0),
    (99, 75.0),     # p90 would leave 9 beyond
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tail_level(n) == level
    if level is not None:
        assert samples_beyond(n, level) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile(values, 99.0) == 99
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_summarize_flags_a_tail_the_sample_cannot_support():
    thin = summarize([float(v) for v in range(50)], 90.0)
    assert thin["n"] == 50 and thin["tail_supported"] == 75.0
    assert not thin["tail_ok"]
    wide = summarize([float(v) for v in range(100)], 90.0)
    assert wide["tail_ok"] and wide["p90"] == 89.0


# -- open-loop lateness accounting ---------------------------------------

def test_open_loop_times_requests_from_when_they_were_due():
    schedule = OpenLoopSchedule(rate=10.0, start=100.0)
    assert schedule.due(0) == 100.0 and schedule.due(3) == pytest.approx(100.3)
    schedule.record(0, sent_at=100.0, done_at=100.05)
    # The sender stalls until 100.35: requests 1-3 go out late, and each
    # is charged the stall it waited through, not just its round trip.
    for index, done in ((1, 100.36), (2, 100.37), (3, 100.38)):
        schedule.record(index, sent_at=100.35, done_at=done)
    assert schedule.lags == pytest.approx([0.0, 0.25, 0.15, 0.05])
    assert schedule.latencies == pytest.approx([0.05, 0.26, 0.17, 0.08])
    round_trips = [0.05, 0.01, 0.02, 0.03]
    assert schedule.latencies == pytest.approx(
        [lag + rtt for lag, rtt in zip(schedule.lags, round_trips)])


def test_slices_group_moments_by_whole_slice():
    # 10 events per 0.5 s slice for 4 slices, then a stalled slice with 1.
    moments = [10.0 + 0.05 * i for i in range(40)] + [12.2]
    groups = slices(moments, start=10.0, seconds=2.5, width=0.5)
    assert [len(group) for group in groups] == [10, 10, 10, 10, 1]
    assert groups[1] == list(range(10, 20))
    # Moments outside the window, or in a partial last slice, drop out.
    groups = slices(moments + [9.9, 12.6], start=10.0, seconds=2.6, width=0.5)
    assert sum(len(group) for group in groups) == 41
    with pytest.raises(ValueError):
        slices(moments, start=10.0, seconds=0.4, width=0.5)


def test_open_loop_rejects_a_non_positive_rate():
    with pytest.raises(ValueError):
        OpenLoopSchedule(rate=0.0, start=0.0)


# -- output digest --------------------------------------------------------

def test_digest_ignores_order_and_sees_every_answer():
    answers = {"s1196/q0": [["a->b[0]", 0.25]], "s1196/q1": [["c->d[1]", 0.5]]}
    reordered = dict(reversed(list(answers.items())))
    assert digest(answers) == digest(reordered)
    changed = dict(answers, **{"s1196/q1": [["c->d[1]", 0.5000000000000001]]})
    assert digest(changed) != digest(answers)
    assert digest({"s1196/q0": [3, 1, 2]}) != digest({"s1196/q0": [1, 2, 3]})


def test_ledger_counts_a_wrong_answer_as_failed():
    ledger = Ledger()
    assert ledger.check("ok", [1, 2], [1, 2])
    assert not ledger.check("bad", [2, 1], [1, 2])
    ledger.fail("timeout#7", "no reply")
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert ledger.failures[0].startswith("bad:")


# -- layer timers and host guard -------------------------------------------

def test_layer_timer_accumulates_per_layer():
    timer = LayerTimer()
    for _ in range(3):
        with timer("atpg"):
            pass
    with pytest.raises(RuntimeError):
        with timer("core.dictionary"):
            raise RuntimeError("the failed call is still timed")
    assert timer.calls("atpg") == 3 and timer.calls("core.dictionary") == 1
    assert timer.total(("atpg", "core.dictionary")) == pytest.approx(
        timer.busy("atpg") + timer.busy("core.dictionary"))


def test_results_from_different_nproc_are_not_compared():
    check_comparable({"host": {"nproc": 2}}, {"host": {"nproc": 2}})
    with pytest.raises(ValueError, match="nproc"):
        check_comparable({"host": {"nproc": 1}}, {"host": {"nproc": 2}})


# -- the committed BENCHMARK.json, which run.py reads, keeps its limits ---

def test_benchmark_json_keeps_its_limits():
    from run import ROOT, load_spec

    spec = load_spec()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
    assert all(0 < entry["bound"] <= 0.25 for entry in spec["end_to_end"])
    assert any(entry["name"] == "setup_s" for entry in spec["end_to_end"])
    assert all(Path(ROOT, path).is_dir() for path in spec["paths"])
