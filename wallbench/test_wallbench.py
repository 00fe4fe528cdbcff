"""Tests of the benchmark's own logic.

Run with ``python3 -m pytest wallbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from check import Expected, check_outcomes, scene_recall, sequential_pass
from repro.core import FFSVAConfig
from repro.models.sdd import SDD
from repro.runtime import ThreadedPipeline
from repro.runtime.engine import FrameOutcome
from repro.video.stream import VideoStream
from stats import MIN_BEYOND, due_latencies, nearest_rank, supported_percentile, tail
from tracing import Tracer
from workloads import Workload, build_fleet


# -- due-time latency -------------------------------------------------------
def test_due_latency_counts_generator_lateness():
    # Frame k of a 10 fps stream is due at first_read + k/10.  Frame 1 was
    # read 0.1 s late, so its 0.01 s in the pipeline shows as 0.11 s.
    lat, late = due_latencies(
        100.0, 10.0, [0, 1, 5], [100.01, 100.2, 100.5], [0.05, 0.01, 0.1]
    )
    np.testing.assert_allclose(late, [0.01, 0.1, 0.0], atol=1e-9)
    np.testing.assert_allclose(lat, [0.06, 0.11, 0.1], atol=1e-9)


def test_due_latency_equals_completion_minus_due():
    rng = np.random.default_rng(0)
    idx = np.arange(50)
    read_done = 7.0 + idx / 12.0 + rng.uniform(0, 0.05, 50)
    latency = rng.uniform(0, 0.3, 50)
    lat, _ = due_latencies(7.0, 12.0, idx, read_done, latency)
    np.testing.assert_allclose(lat, (read_done + latency) - (7.0 + idx / 12.0))


# -- percentile rule --------------------------------------------------------
def test_p99_needs_a_thousand_samples():
    assert supported_percentile(1000, 99.0) == 99.0
    assert 1000 - nearest_rank(1000, 99.0) == MIN_BEYOND
    lowered = supported_percentile(999, 99.0)
    assert lowered < 99.0
    assert 999 - nearest_rank(999, lowered) >= MIN_BEYOND


@pytest.mark.parametrize("n", list(range(20, 3000, 37)))
@pytest.mark.parametrize("nominal", [90.0, 99.0])
def test_reported_percentile_is_the_highest_with_ten_beyond(n, nominal):
    pct = supported_percentile(n, nominal)
    assert pct is not None and pct <= nominal
    assert n - nearest_rank(n, pct) >= MIN_BEYOND
    if pct < nominal:
        assert n - nearest_rank(n, round(pct + 0.1, 1)) < MIN_BEYOND


def test_too_few_samples_report_no_tail():
    assert supported_percentile(15, 99.0) is None
    out = tail(np.arange(15.0), 99.0)
    assert out["tail"] is None and out["n"] == 15
    assert tail([], 99.0)["p50"] is None


def test_tail_uses_nearest_rank():
    out = tail(np.arange(1, 1001, dtype=float), 99.0)
    assert out == {"n": 1000, "p50": 500.0, "pct": 99.0, "tail": 990.0}


# -- output check -------------------------------------------------------------
def _outcome(sid, i, stage, count=None):
    return FrameOutcome(stream_id=sid, index=i, stage=stage, ref_count=count, latency=0.01)


def test_check_catches_planted_mismatches():
    exp = Expected({("a", 0): ("sdd", None), ("a", 1): ("ref", 2), ("a", 2): ("snm", None)})
    good = [_outcome("a", 0, "sdd"), _outcome("a", 1, "ref", 2), _outcome("a", 2, "snm")]
    assert check_outcomes(good, exp) == []
    planted = {
        "disposition": [good[0], good[1], _outcome("a", 2, "tyolo")],
        "ref count": [good[0], _outcome("a", 1, "ref", 3), good[2]],
        "dropped": [good[0], good[1], _outcome("a", 2, "dropped")],
        "missing": good[:2],
        "duplicate": good + [good[2]],
        "unexpected": good + [_outcome("b", 0, "sdd")],
    }
    for name, outcomes in planted.items():
        bad = check_outcomes(outcomes, exp)
        assert len(bad) == 1, name


# -- against the real program ---------------------------------------------------
TINY = Workload(
    name="tiny",
    streams=(("coral", 0.5), ("jackson", 0.3)),
    frames=64,
)


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(TINY, seed=3)


@pytest.fixture(scope="module")
def expected(fleet):
    cfg = FFSVAConfig()
    return sequential_pass(cfg.graph(), fleet.streams, fleet.zoo, cfg, TINY.frames)


def _run(fleet, config=None, tracer=None):
    pipe = ThreadedPipeline(fleet.streams, fleet.zoo, config or FFSVAConfig())
    if tracer is not None:
        tracer.attach(pipe)
    pipe.run(TINY.frames)
    return pipe.outcomes


def _key(outcomes):
    return sorted((o.stream_id, o.index, o.stage, o.ref_count) for o in outcomes)


def test_threaded_run_matches_sequential_pass(fleet, expected):
    assert len(expected.outcome) == TINY.frames * len(fleet.streams)
    outcomes = _run(fleet)
    assert check_outcomes(outcomes, expected) == []
    # A planted disposition mismatch in a real run's outcomes is caught.
    victim = outcomes[0]
    wrong = "tyolo" if victim.stage != "tyolo" else "sdd"
    planted = [_outcome(victim.stream_id, victim.index, wrong)] + outcomes[1:]
    bad = check_outcomes(planted, expected)
    assert [(b[0], b[1]) for b in bad] == [(victim.stream_id, victim.index)]


def test_scene_recall_counts_scenes_in_range(fleet, expected):
    outcomes = [_outcome(sid, i, st, c) for (sid, i), (st, c) in expected.outcome.items()]
    recalled, total = scene_recall(outcomes, fleet.streams, TINY.frames, "ref", 1)
    assert total == sum(len([s for s in st.scenes() if s[0] < TINY.frames]) for st in fleet.streams)
    assert 0 <= recalled <= total
    assert scene_recall([], fleet.streams, TINY.frames, "ref", 1) == (0, total)


def test_wrappers_leave_outcomes_bit_identical(fleet, tmp_path):
    plain = _run(fleet)
    config = FFSVAConfig(telemetry=True, result_store_dir=str(tmp_path / "store"))
    tracer = Tracer(fleet)
    originals = (VideoStream.pixels, SDD.passes)
    tracer.install()
    try:
        with tracer.run_span(TINY.frames * len(fleet.streams)):
            traced = _run(fleet, config, tracer)
    finally:
        tracer.uninstall()
    assert (VideoStream.pixels, SDD.passes) == originals
    assert _key(traced) == _key(plain)
    m = tracer.layer_metrics()
    assert m["video.frames_rendered"] == TINY.frames * len(fleet.streams)
    assert m["models.sdd.frames"] == TINY.frames * len(fleet.streams)
    assert m["store.rows"] == len(traced)
    assert m["obs.emit_calls"] > 0 and m["runtime.threads"] > 1
    # Every layer span hangs off the run span.
    assert tracer.spans[0][0] == "runtime.run"
    assert {s[4] for s in tracer.spans[1:]} == {0}


# -- the command ------------------------------------------------------------------
@pytest.fixture
def tiny_cli(monkeypatch, tmp_path):
    import run
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return run


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _bench_names(section):
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[section]]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_reports_exactly_the_indexed_metrics(tiny_cli, capsys, trace, section):
    code = tiny_cli.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = _result(capsys)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _bench_names(section)


def test_command_fails_on_a_planted_mismatch(tiny_cli, capsys, monkeypatch):
    import check

    honest = check.sequential_pass

    def planted(*args, **kwargs):
        exp = honest(*args, **kwargs)
        key = next(iter(exp.outcome))
        stage, _ = exp.outcome[key]
        exp.outcome[key] = ("sdd" if stage != "sdd" else "ref", None)
        return exp

    monkeypatch.setattr(check, "sequential_pass", planted)
    code = tiny_cli.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = _result(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_command_refuses_to_run_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "wallbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "busy_offline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 2
    assert '"correct"' not in out.stdout


def test_results_from_another_host_are_not_comparable():
    import host

    here = {"nproc": 2, "cpu_model": "x", "python": "3.11.7", "numpy": "2.4.6",
            "blas": "openblas", "blas_threads": "default", "load_avg_1m": 0.5}
    assert host.comparable(here, {**here, "load_avg_1m": 3.0})
    assert not host.comparable(here, {**here, "nproc": 4})


def test_peak_rss_window_starts_at_the_reset():
    import host

    host.reset_peak_rss()
    before = host.peak_rss_mb()
    block = np.ones(64 * 2**20 // 8)  # 64 MB, touched
    during = host.peak_rss_mb()
    del block
    host.reset_peak_rss()
    assert during - before > 48
    assert host.peak_rss_mb() < during - 48
