"""Wall-clock benchmark of the threaded FFS-VA cascade.

Drives the real :class:`~repro.runtime.engine.ThreadedPipeline` with the
default :class:`~repro.core.config.FFSVAConfig` on one workload, checks
every frame's outcome against a single-threaded pass of the same cascade,
and prints every metric with its unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Usage (from the repository root)::

    python3 wallbench/run.py --workload busy_offline --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced runs; ``--trace 1``
adds one traced run after them and reports the per-layer metrics instead
(see wallbench/README.md).  The exit code is 0 when every outcome matched,
1 on a mismatch and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import host
from stats import MIN_BEYOND, due_latencies, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Fleet set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 3
#: A frame is on time when it has its correct outcome within this many
#: seconds of when it was due (online) or read (offline).  The online limit
#: lies inside the due-time latency distribution (near its 93rd percentile
#: on a 2-CPU host), so a slower cascade shows as late frames.  Offline, the
#: closed loop keeps queues full, so the figure mostly counts frames that
#: leave before ref's queue (see README).
DEADLINE_ONLINE_S = 0.025
DEADLINE_OFFLINE_S = 0.25
#: Nominal tail percentile (lowered only when the sample is too small).
LATENCY_TAIL = 99.0
#: Where spans, saved results and per-run scratch stores go.
OUT_DIR = ROOT / ".wallbench"


@dataclass
class Rep:
    wall: float
    cpu: float
    offered: int
    outcomes: list
    metrics: object
    latency_ms: np.ndarray
    event_latency_ms: np.ndarray
    on_time: int  # correct and done within deadline_s(wl) of due (online) or read
    failed: list
    recall: tuple[int, int]


def deadline_s(wl) -> float:
    return DEADLINE_ONLINE_S if wl.online else DEADLINE_OFFLINE_S


class ReadLog:
    """Records when each paced frame was read (wraps the streams' ``pixels``)."""

    def __init__(self, streams):
        self.streams = streams
        self.first: dict[str, float] = {}
        self.done: dict[tuple[str, int], float] = {}
        for s in streams:
            s.pixels = self._wrap(s)

    def _wrap(self, stream):
        orig, sid = stream.pixels, stream.stream_id
        first, done, clock = self.first, self.done, time.monotonic

        def pixels(t):
            t0 = clock()
            if t == 0:
                first[sid] = t0
            out = orig(t)
            done[(sid, t)] = clock()
            return out

        return pixels

    def detach(self) -> None:
        for s in self.streams:
            del s.pixels


def run_rep(fleet, wl, expected, workdir: Path, tag: str, tracer=None) -> Rep:
    from check import check_outcomes, scene_recall
    from repro.core import FFSVAConfig
    from repro.runtime import ThreadedPipeline

    monitored = wl.online or tracer is not None
    store_dir = workdir / f"store-{tag}"
    cfg = FFSVAConfig(
        telemetry=monitored,
        result_store_dir=str(store_dir) if monitored else None,
    )
    reads = ReadLog(fleet.streams) if wl.online else None
    try:
        pipe = ThreadedPipeline(fleet.streams, fleet.zoo, cfg)
        if tracer is not None:
            tracer.attach(pipe)
        gc.collect()
        span = tracer.run_span(wl.frames * len(fleet.streams)) if tracer else nullcontext()
        with span:
            c0, t0 = time.process_time(), time.perf_counter()
            metrics = pipe.run(wl.frames, online=wl.online, paced_fps=wl.paced_fps)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if reads is not None:
            reads.detach()
        shutil.rmtree(store_dir, ignore_errors=True)

    outcomes = list(pipe.outcomes)
    failed = check_outcomes(outcomes, expected)
    terminal = pipe.graph.terminal.name
    if wl.online:
        # From when each frame was due; a frame the generator never read
        # (aborted before admission) has no latency and is failed anyway.
        timed = [o for o in outcomes if (o.stream_id, o.index) in reads.done]
        lat, _ = due_latencies(
            np.array([reads.first[o.stream_id] for o in timed]),
            wl.paced_fps,
            [o.index for o in timed],
            [reads.done[(o.stream_id, o.index)] for o in timed],
            [o.latency for o in timed],
        )
    else:
        timed = outcomes
        lat = np.array([o.latency for o in timed])
    bad = {(sid, idx) for sid, idx, _, _ in failed}
    limit = deadline_s(wl)
    on_time = sum(
        1 for o, x in zip(timed, lat) if x <= limit and (o.stream_id, o.index) not in bad
    )
    event = np.array([x for o, x in zip(timed, lat) if o.stage == terminal])
    return Rep(
        wall=wall,
        cpu=cpu,
        offered=metrics.frames_offered,
        outcomes=outcomes,
        metrics=metrics,
        latency_ms=np.asarray(lat) * 1e3,
        event_latency_ms=event * 1e3,
        on_time=on_time,
        failed=failed,
        recall=scene_recall(
            outcomes, fleet.streams, wl.frames, terminal, cfg.number_of_objects
        ),
    )


def summarize(reps: list[Rep], setup_times: list[float], peak_rss: float) -> tuple[dict, dict]:
    """Metrics of the timed runs: the bounded end-to-end set, and the
    latency and accuracy figures reported without a bound."""
    offered = sum(r.offered for r in reps)
    e2e = {
        "throughput_fps": statistics.median(len(r.outcomes) / r.wall for r in reps),
        "on_time_share": sum(r.on_time for r in reps) / offered,
        "cpu_ms_per_frame": statistics.median(r.cpu / r.offered * 1e3 for r in reps),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup_times),
    }
    unbounded = {}
    for prefix, key in (("latency", "latency_ms"), ("event_latency", "event_latency_ms")):
        t = tail(np.concatenate([getattr(r, key) for r in reps]), LATENCY_TAIL)
        unbounded[f"{prefix}_p50_ms"] = t["p50"] or 0.0
        unbounded[f"{prefix}_p99_ms"] = t["tail"] or 0.0
        unbounded[f"{prefix}_tail_pct"] = t["pct"] or 0.0
        unbounded[f"{prefix}_samples"] = t["n"]
    scenes = sum(r.recall[1] for r in reps)
    unbounded["scene_recall"] = sum(r.recall[0] for r in reps) / scenes
    unbounded["failed_share"] = sum(len(r.failed) for r in reps) / offered
    return e2e, unbounded


def per_layer(traced: Rep, tracer, fleet, expected, reps: list[Rep]) -> dict:
    """Per-layer metrics of the traced run."""
    from repro.obs import build_all_lineages
    from tracing import MODEL_STAGES, solo_ms_per_frame

    m = tracer.layer_metrics()
    run = traced.metrics
    stages = list(run.stages)
    reached = expected.reached(stages)
    for stage in MODEL_STAGES:
        solo = solo_ms_per_frame(stage, fleet, reached.get(stage, []), m[f"models.{stage}.batch_mean"])
        m[f"models.{stage}.solo_ms_per_frame"] = solo
        inpipe = m[f"models.{stage}.ms_per_frame"]
        m[f"models.{stage}.inflation"] = inpipe / solo if solo > 0 else 0.0
    for stage, c in run.stages.items():
        m[f"core.{stage}.pass_rate"] = c.passed / c.entered if c.entered else 0.0
        m[f"core.{stage}.queue_high_water"] = max(
            (hw for q, hw in run.queue_high_water.items() if q.split("[")[0] == stage),
            default=0,
        )
    m["core.sequential_fps"] = expected.fps
    for dev in ("cpu0", "gpu0", "gpu1"):
        m[f"runtime.{dev}.utilization"] = run.device_utilization.get(dev, 0.0)
    tel_stats = run.extra.get("telemetry", {})
    m["obs.events_dropped"] = tel_stats.get("dropped", 0)
    lineage = run.extra.get("lineage", {})
    components = lineage.get("components", {})
    waits: dict[str, list[float]] = {s: [] for s in stages}
    bus = tracer.telemetry.bus
    for lin in build_all_lineages(bus.events(), terminal=stages[-1], dropped=bus.dropped):
        if lin.incomplete:
            continue
        for hop in lin.hops:
            waits[hop.stage].append((hop.queue_wait + hop.batch_wait) * 1e3)
    for stage in stages:
        w = tail(waits[stage], LATENCY_TAIL)
        m[f"runtime.{stage}.wait_ms_p50"] = w["p50"] or 0.0
        m[f"runtime.{stage}.wait_ms_p99"] = w["tail"] or 0.0
        m[f"runtime.{stage}.service_share"] = components.get(f"{stage}/service", {}).get("share", 0.0)
    untraced = statistics.median(r.cpu / r.offered for r in reps)
    m["trace_overhead_share"] = (traced.cpu / traced.offered) / untraced - 1.0
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, help="also write the result with its host fingerprint here")
    ap.add_argument("--against", type=Path, help="compare with a result saved by --save")
    args = ap.parse_args(argv)

    try:
        import repro  # the program under test, from src/
    except ImportError as exc:
        print(f"wallbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"wallbench: imported {repro.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    from check import sequential_pass
    from repro.core import FFSVAConfig
    from tracing import Tracer
    from workloads import WORKLOADS, timed_setups

    if args.workload not in WORKLOADS:
        print(f"wallbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    fp = host.fingerprint(ROOT)
    print(f"wallbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(fp, sort_keys=True))

    fleet, setup_times = timed_setups(wl, args.seed, SETUP_REPEATS)
    print("setup " + " ".join(f"{t:.3f}" for t in setup_times) + " s")
    config = FFSVAConfig()
    expected = sequential_pass(config.graph(), fleet.streams, fleet.zoo, config, wl.frames)
    print(f"reference pass: {len(expected.outcome)} frames in {expected.seconds:.3f} s "
          f"({expected.fps:.1f} frames/s, single thread)")

    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reps: list[Rep] = []
        gc.collect()
        host.reset_peak_rss()  # the peak of the timed runs only
        ticks = host.cpu_ticks()
        t_end = time.perf_counter() + args.seconds
        while not reps or time.perf_counter() < t_end:
            rep = run_rep(fleet, wl, expected, workdir, f"rep{len(reps)}")
            reps.append(rep)
            print(f"run {len(reps)}: {len(rep.outcomes)} outcomes in {rep.wall:.3f} s "
                  f"({len(rep.outcomes) / rep.wall:.1f} frames/s), cpu {rep.cpu / rep.offered * 1e3:.3f} "
                  f"ms/frame, failed {len(rep.failed)}")
        steal = host.steal_share(ticks, host.cpu_ticks())
        peak_rss = host.peak_rss_mb()
        print("cpu steal during the timed runs: "
              + ("not reported" if steal is None else f"{steal:.2%} of machine CPU time"))
        traced = None
        if args.trace:
            tracer = Tracer(fleet)
            tracer.install()
            try:
                traced = run_rep(fleet, wl, expected, workdir, "traced", tracer=tracer)
            finally:
                tracer.uninstall()
            print(f"traced run: {len(traced.outcomes)} outcomes in {traced.wall:.3f} s, "
                  f"failed {len(traced.failed)}, {len(tracer.spans)} spans")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = reps + ([traced] if traced is not None else [])
    attempted = sum(r.offered for r in checked)
    failed = sum(len(r.failed) for r in checked)
    for r in checked:
        for sid, idx, want, got in r.failed[:5]:
            print(f"MISMATCH {sid}#{idx}: expected {want}, got {got}")

    e2e, unbounded = summarize(reps, setup_times, peak_rss)
    for name, value in {**e2e, **unbounded}.items():
        print(f"{name:24s} {value:14.4f} {_unit(name)}")
    print(f"on time: within {deadline_s(wl) * 1e3:.0f} ms of when each frame was "
          f"{'due' if wl.online else 'read'} (deadline_miss_share {1 - e2e['on_time_share']:.6f})")
    for prefix in ("latency", "event_latency"):
        if unbounded[f"{prefix}_tail_pct"] != LATENCY_TAIL:
            print(f"note: {prefix}_p99_ms reports p{unbounded[f'{prefix}_tail_pct']:g}, the highest "
                  f"percentile with {MIN_BEYOND} of {unbounded[f'{prefix}_samples']} samples beyond it")

    if args.trace:
        layers = per_layer(traced, tracer, fleet, expected, reps)
        for name, value in layers.items():
            print(f"{name:36s} {value:14.6g} {_unit(name)}")
        _design_checks(wl.name, layers)
        span_path = OUT_DIR / "spans" / f"{wl.name}-seed{args.seed}.json"
        tracer.write(span_path, {"workload": wl.name, "seed": args.seed, "host": fp})
        print(f"spans written to {span_path}")
        metrics = {**unbounded, **layers}
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    record = {"host": fp, "workload": wl.name, "seed": args.seed, "trace": args.trace, **result}
    if args.against is not None:
        _compare(record, json.loads(args.against.read_text()))
    if args.save is not None:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


_UNITS = {
    "throughput_fps": "frames/s",
    "on_time_share": "ratio",
    "cpu_ms_per_frame": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_tail_pct": "%",
    "event_latency_p50_ms": "ms",
    "event_latency_p99_ms": "ms",
    "event_latency_tail_pct": "%",
    "scene_recall": "ratio",
    "failed_share": "ratio",
}


#: Units of the per-layer metrics, by the last part of their name.
_LAYER_UNITS = {
    "render_ms_per_frame": "ms",
    "ms_per_frame": "ms",
    "solo_ms_per_frame": "ms",
    "wait_ms_p50": "ms",
    "wait_ms_p99": "ms",
    "busy_s": "s",
    "emit_busy_s": "s",
    "observe_busy_s": "s",
    "close_s": "s",
    "append_us_per_row": "us",
    "batch_mean": "frames",
    "sequential_fps": "frames/s",
    "pass_rate": "ratio",
    "inflation": "ratio",
    "utilization": "ratio",
    "service_share": "ratio",
    "trace_overhead_share": "ratio",
}


def _unit(name: str) -> str:
    """Unit of an end-to-end or per-layer metric (counts by default)."""
    return _UNITS.get(name) or _LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def _design_checks(workload: str, m: dict) -> None:
    """Print whether the traced run confirms what the workload is for."""
    util = {d: m[f"runtime.{d}.utilization"] for d in ("cpu0", "gpu0", "gpu1")}
    if workload == "busy_offline":
        ok = max(util, key=util.get) == "gpu1"
        print(f"design check: gpu1 (ref) is the busiest device: {'yes' if ok else 'NO'} {util}")
    elif workload == "quiet_offline":
        ok = util["gpu1"] < util["cpu0"]
        print(f"design check: ref utilization below cpu0 (SDD): {'yes' if ok else 'NO'} {util}")


def _compare(new: dict, old: dict) -> None:
    if not host.comparable(new["host"], old["host"]):
        diff = {k: (old["host"].get(k), new["host"].get(k)) for k in host.HOST_KEYS
                if old["host"].get(k) != new["host"].get(k)}
        print(f"NOT COMPARABLE: the saved result is from another host {diff}")
        return
    for name, cur in new["metrics"].items():
        prev = old["metrics"].get(name)
        if prev and prev["value"]:
            print(f"vs saved {name:34s} {cur['value'] / prev['value'] - 1:+.3f}")


if __name__ == "__main__":
    sys.exit(main())
