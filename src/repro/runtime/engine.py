"""Threaded FFS-VA runtime: real models, real queues, real threads.

This is the functional counterpart of the discrete-event simulator: every
stage is an independent thread (Section 3.1.2's "through the parallel and
pipelined structure of multiple threads"), connected by the bounded
:class:`~repro.core.queues.FeedbackQueue` instances that implement the
global feedback mechanism.

The cascade topology is not hard-coded here: workers and queues are
constructed from a :class:`~repro.core.pipeline.StageGraph` (the shared
control plane, by default the config's cascade).  Per stream there is a
prefetcher plus one worker per ``per_stream`` stage; each ``shared_rr``
stage gets a single worker that round-robins over the per-stream queues,
and each ``merged`` stage a single worker draining one merged queue.

Device placement is honoured with locks: stages hosted on a GPU acquire
that device's lock around inference (SNM and T-YOLO share ``gpu0`` in the
paper, the reference model owns ``gpu1``); CPU stages run lock-free.  On a
CPU-only host this costs nothing but keeps the execution structure
faithful.

The runtime is meant for functional validation and moderate scales; the
paper-scale experiments use :mod:`repro.sim` with the calibrated cost model
— both execute the same graph and emit the same per-stage counters, so the
two can be cross-checked with
:func:`repro.core.metrics.assert_stage_counts_equal`.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..core.admission import AdmissionController
from ..core.batching import decide_fused_batch, fused_pop_order
from ..core.config import FFSVAConfig
from ..core.metrics import LatencyStats, RunMetrics, StageCounters
from ..core.pipeline import (
    ABORTED,
    DROPPED,
    FUSED,
    MERGED,
    PER_STREAM,
    SHARED_RR,
    SNM,
    StageGraph,
    StageSpec,
    cascade,
)
from ..core.qplan import QueryPlanner
from ..core.queues import FeedbackQueue, QueueClosed
from ..devices.placement import Placement, ffs_va_placement
from ..models.zoo import ModelZoo
from ..obs import Telemetry
from ..obs.lineage import lineage_section
from ..store.detstore import DetectionRecord, DetStore
from ._blas import single_blas_thread
from .procpool import ProcPool
from ..video.stream import VideoStream

__all__ = ["FrameOutcome", "ThreadedPipeline"]


@dataclass(frozen=True)
class FrameOutcome:
    """Where one frame's journey through the cascade ended."""

    stream_id: str
    index: int
    #: The stage that dropped the frame; the terminal stage's name means the
    #: frame was fully analyzed; ``"aborted"`` means the pipeline shut down
    #: while the frame was still in flight.
    stage: str
    ref_count: int | None  # terminal-stage object count (analyzed frames only)
    latency: float  # seconds from prefetch to final disposition


@dataclass
class _Work:
    """A frame in flight between stages."""

    stream_idx: int
    index: int
    pixels: np.ndarray
    t_start: float
    #: When the frame last landed in a stage's input queue (run-relative
    #: clock; stamped only when telemetry is attached).  Service time minus
    #: this is the hop's wait, feeding ``stage_wait_seconds``.
    t_enter: float = 0.0


@dataclass
class _StreamCtx:
    stream: VideoStream | None
    bundle: object | None


@dataclass
class _Feed:
    """Control block for one stream slot's prefetcher.

    ``start``/``count`` bound the frame range this slot offers (global
    stream indices ``[start, start + count)``); ``offered`` counts frames
    that actually received a disposition path (admitted, dropped, or
    aborted).  Setting ``stop`` asks the prefetcher to halt at the next
    frame boundary; ``boundary`` is set once the prefetcher has left its
    loop, at which point ``start + offered`` is the exact handoff index —
    no frame before it can ever be offered elsewhere, no frame at or after
    it was offered here.
    """

    start: int
    count: int
    preloaded: list | None = None  # handoff-window pixels for leading frames
    offered: int = 0
    stop: threading.Event = None  # type: ignore[assignment]
    boundary: threading.Event = None  # type: ignore[assignment]

    def __post_init__(self):
        self.stop = threading.Event()
        self.boundary = threading.Event()

    @property
    def active(self) -> bool:
        """Still offering frames here (re-forwardable)."""
        return not self.stop.is_set() and self.offered < self.count


class ThreadedPipeline:
    """Run a stage graph end-to-end with real inference on a set of streams.

    With ``reserve_slots > 0`` the pipeline becomes a *cluster instance*:
    it pre-builds that many extra single-use stream slots (queues and
    per-stream workers must exist before any thread starts), so a stream
    can be attached mid-run via :meth:`attach_stream` after another
    instance detached it at a frame boundary with :meth:`detach_stream`.
    In that mode :meth:`run` does not return until :meth:`seal` closes the
    never-used slots — the supervisor seals once every frame in the cluster
    has an outcome.
    """

    def __init__(
        self,
        streams: list[VideoStream],
        zoo: ModelZoo,
        config: FFSVAConfig | None = None,
        placement: Placement | None = None,
        graph: StageGraph | str | None = None,
        telemetry: Telemetry | None = None,
        *,
        reserve_slots: int = 0,
        store: DetStore | None = None,
        plan_catalog=None,
    ):
        if not streams and reserve_slots <= 0:
            raise ValueError("need at least one stream")
        for s in streams:
            if s.stream_id not in zoo:
                raise ValueError(
                    f"stream {s.stream_id} has no trained models; call "
                    "zoo.train_for_stream() first"
                )
        self.config = cfg = config or FFSVAConfig()
        self.graph = cascade(graph) if graph is not None else cfg.graph()
        self.zoo = zoo
        self.placement = placement or ffs_va_placement()
        if reserve_slots:
            # Process pools and fused evaluators capture the bundle roster at
            # fork/build time, before a mid-run attach could fill a slot.
            if any(spec.executor == "process" for spec in self.graph):
                raise ValueError("reserve_slots is incompatible with executor='process'")
            if any(spec.fan_in == FUSED for spec in self.graph):
                raise ValueError("reserve_slots is incompatible with fused stages")
            if cfg.plan == "adaptive":
                # The planner's chunk accounting and the terminal
                # producer-count bookkeeping assume a fixed stream roster.
                raise ValueError("reserve_slots is incompatible with plan='adaptive'")
        if cfg.plan == "adaptive" and len(self.graph) > 2:
            if self.graph.terminal.fan_in != MERGED:
                raise ValueError(
                    "adaptive depth planning needs a merged terminal stage "
                    "(early exits route straight to its queue)"
                )
        self.ctxs = [_StreamCtx(stream=s, bundle=zoo[s.stream_id]) for s in streams]
        self.ctxs += [_StreamCtx(stream=None, bundle=None) for _ in range(reserve_slots)]
        n = len(self.ctxs)

        #: Per-stage input queues: one per stream for per_stream/shared_rr
        #: stages, a single merged queue otherwise.
        self.stage_queues: dict[str, list[FeedbackQueue]] = {}
        self.merged_queues: dict[str, FeedbackQueue] = {}
        for spec in self.graph:
            depth = self._depth_for(spec)
            if spec.fan_in == MERGED:
                self.merged_queues[spec.name] = FeedbackQueue(depth, spec.name)
            else:
                self.stage_queues[spec.name] = [
                    FeedbackQueue(depth, f"{spec.name}[{i}]") for i in range(n)
                ]

        # Idle shared/fused workers park on these instead of spin-polling;
        # producers set the event on every put into (or close of) one of
        # the stage's per-stream queues.
        self._wake = {
            spec.name: threading.Event()
            for spec in self.graph
            if spec.fan_in in (SHARED_RR, FUSED)
        }
        #: Adaptive depth planning makes every non-terminal worker a
        #: potential producer of the merged terminal queue (early exits
        #: skip straight to it); the close protocol must account for that.
        self._plan_routing = (
            cfg.plan == "adaptive"
            and sum(1 for s in self.graph if not s.terminal) > 1
        )
        # A merged queue is closed by the *last* of its producers.
        self._producers_left = {
            spec.name: self._producer_count(spec)
            for spec in self.graph
            if spec.fan_in == MERGED
        }
        self._producers_lock = threading.Lock()

        self._locks = {spec.name: self._device_lock(spec) for spec in self.graph}
        self._devnames = {spec.name: self._device_name(spec) for spec in self.graph}
        #: Attached telemetry (None = disabled; every emission site guards
        #: on that with a single branch).
        self.telemetry = telemetry if telemetry is not None else Telemetry.from_config(cfg)
        #: Closed-loop admission: decisions are read off the telemetry
        #: sampler's series (None when telemetry is disabled).
        self.admission = (
            AdmissionController(cfg, sampler=self.telemetry.sampler, graph=self.graph)
            if self.telemetry is not None
            else None
        )
        #: Content-adaptive query planner (None when plan="static").  It
        #: shares the telemetry sampler when one exists so its activity
        #: series ride the same export plane; otherwise it runs a private
        #: sampler — planning works with telemetry off.
        self._planner = (
            QueryPlanner(
                cfg,
                graph=self.graph,
                sampler=self.telemetry.sampler if self.telemetry is not None else None,
                catalog=plan_catalog,
            )
            if cfg.plan == "adaptive"
            else None
        )
        if self._planner is not None:
            for i, s in enumerate(streams):
                self._planner.register(i, s.stream_id)
        #: Persistent detection store (None = no persistence).  An injected
        #: store is used as-is; otherwise config.result_store_dir builds one.
        self.store = (
            store
            if store is not None
            else DetStore.from_config(cfg, terminal=self.graph.terminal.name)
        )
        self._t0 = 0.0  # run-start monotonic reference for telemetry stamps
        self._busy: dict[str, float] = {}  # per-device lock-held seconds
        self.outcomes: list[FrameOutcome] = []
        self._outcome_lock = threading.Lock()
        self.metrics = RunMetrics(
            n_streams=len(streams),
            stages={spec.name: StageCounters() for spec in self.graph},
        )
        #: Per-slot prefetch control blocks (None = reserve slot, unused).
        self._feeds: list[_Feed | None] = [None] * n
        self._feed_lock = threading.Lock()
        self._dyn_threads: list[threading.Thread] = []
        self._sealed = reserve_slots == 0
        self._paced_fps: float | None = None
        self._running = False
        #: Per-slot frames that passed the first stage — the live "cost"
        #: signal the router ranks streams by when choosing what to shed
        #: (the simulator counts the identical quantity in ``_complete``).
        self._first_pass = [0] * n
        self._stage_lock = threading.Lock()
        self._errors: list[BaseException] = []
        self._abort = threading.Event()
        #: Process pools keyed by stage name, built in run() *before* any
        #: runtime thread starts (fork-with-threads safety) for specs with
        #: executor="process".
        self._pools: dict[str, ProcPool] = {}
        #: Cross-stream evaluators keyed by stage name for fused stages
        #: whose logic provides build_fused; fused stages without one fall
        #: back to grouping each mega-batch by stream.
        self._fused_eval: dict = {}
        #: Per-degree config clones for plan-driven SNM thresholds, keyed by
        #: filter degree (built lazily; the planner's degree set is small).
        self._degree_cfgs: dict[float, FFSVAConfig] = {}

    # ------------------------------------------------------------------
    # graph-driven construction helpers
    # ------------------------------------------------------------------
    def _depth_for(self, spec: StageSpec) -> int | None:
        cfg = self.config
        if not cfg.bounded_queues:
            return None  # static batching runs without the feedback mechanism
        if spec.terminal and cfg.ref_overflow_to_storage:
            return None  # Section 5.5: terminal overflow goes to storage
        return cfg.queue_depth(spec.depth_key)

    def _producer_count(self, spec: StageSpec) -> int:
        """How many worker threads feed ``spec``'s merged queue."""
        upstream = self.graph.upstream(spec.name)
        if not upstream:
            return len(self.ctxs)  # fed directly by the prefetchers
        if self._plan_routing and spec.terminal:
            # Early exits let *every* non-terminal stage's workers route
            # passers straight here, so the queue only closes once all of
            # them are done (each decrements once per worker on finish).
            return sum(
                len(self.ctxs) if s.fan_in == PER_STREAM else 1
                for s in self.graph
                if not s.terminal
            )
        prev = upstream[-1]
        return len(self.ctxs) if prev.fan_in == PER_STREAM else 1

    def _device_name(self, spec: StageSpec) -> str:
        names = self.placement.stage_devices.get(spec.name) or [spec.device]
        return names[0]

    def _device_lock(self, spec: StageSpec):
        device = self.placement.devices.get(self._device_name(spec))
        if device is not None and device.kind == "gpu":
            return device.lock
        return nullcontext()

    def _input_queue(self, spec: StageSpec, stream_idx: int) -> FeedbackQueue:
        if spec.fan_in == MERGED:
            return self.merged_queues[spec.name]
        return self.stage_queues[spec.name][stream_idx]

    def _batch_bounds(self, spec: StageSpec) -> tuple[int, int]:
        """(max_n, min_n) for a per-stream or merged worker's pop_batch."""
        cfg = self.config
        rule = spec.batch
        if rule.kind == "config":
            min_n = 1
            if cfg.batch_policy in ("static", "feedback"):
                min_n = cfg.batch_size
                if cfg.batch_policy == "feedback":
                    min_n = min(min_n, cfg.queue_depth(spec.depth_key))
            return cfg.batch_size, min_n
        if rule.kind == "rr_cap":
            return cfg.num_t_yolo, 1
        return rule.size, 1

    def _adaptive_batch_stage(self, spec: StageSpec) -> bool:
        """True when the planner drives this stage's batch target live."""
        return (
            self._planner is not None
            and self._planner.adaptive_batching
            and spec.batch.kind == "config"
        )

    def _shared_cap(self, spec: StageSpec) -> int:
        """Frames a shared_rr worker takes from one stream per visit."""
        if spec.batch.kind == "rr_cap":
            return self.config.num_t_yolo
        if spec.batch.kind == "config":
            return self.config.batch_size
        return spec.batch.size

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _record(self, work: _Work, stage: str, ref_count=None) -> None:
        outcome = FrameOutcome(
            stream_id=self.ctxs[work.stream_idx].stream.stream_id,
            index=work.index,
            stage=stage,
            ref_count=ref_count,
            latency=time.monotonic() - work.t_start,
        )
        with self._outcome_lock:
            self.outcomes.append(outcome)
        if self.store is not None:
            # Stream time (index / fps), not the wall clock: the simulator
            # stamps the identical value, which is what makes threaded and
            # simulated stores row-for-row comparable.
            ctx = self.ctxs[work.stream_idx]
            self.store.append(
                DetectionRecord(
                    stream=outcome.stream_id,
                    frame=work.index,
                    t=work.index / ctx.stream.fps,
                    cls=ctx.stream.kind,
                    box=None,
                    score=float(ref_count) if ref_count is not None else 0.0,
                    disposition=stage,
                )
            )
        tel = self.telemetry
        if tel is not None:
            tel.observe_latency("frame_latency_seconds", outcome.latency, stage=stage)

    def _count(self, stage: str, n_in: int, n_pass: int, busy: float = 0.0) -> None:
        with self._stage_lock:
            self.metrics.stages[stage].record(n_in, n_pass)
            if busy:
                device = self._devnames[stage]
                self._busy[device] = self._busy.get(device, 0.0) + busy

    def _fail(self, exc: BaseException) -> None:
        self._errors.append(exc)
        self._abort.set()

    def _now(self) -> float:
        """Seconds since run start — the telemetry timestamp base (so the
        threaded timeline is comparable with the simulator's virtual one)."""
        return time.monotonic() - self._t0

    def _put(self, spec: StageSpec, queue: FeedbackQueue, work: _Work) -> str:
        """Blocking put into ``spec``'s input: ``"ok"``, ``"dropped"``, or
        ``"abort"``.

        Gives up on abort (a worker dying downstream must not leave its
        producer blocked forever on a full feedback queue).  With
        ``config.queue_put_timeout`` set, a put that stays blocked past the
        deadline — or that finds the downstream queue already closed —
        reports ``"dropped"`` so the caller can give the frame a terminal
        disposition instead of losing it silently.
        """
        tel = self.telemetry
        timeout = self.config.queue_put_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._abort.is_set():
            try:
                if queue.put(work, timeout=0.1):
                    if spec.fan_in in (SHARED_RR, FUSED):
                        self._wake[spec.name].set()
                    if tel is not None:
                        work.t_enter = t_enter = self._now()
                        if tel.bus.enabled:
                            tel.bus.emit(
                                "frame_enter", t_enter, spec.name,
                                stream=work.stream_idx, frame=work.index,
                            )
                    return "ok"
            except QueueClosed:
                if tel is not None and tel.bus.enabled:
                    tel.bus.emit(
                        "queue_block", self._now(), spec.name,
                        stream=work.stream_idx, frame=work.index, n=len(queue),
                    )
                return "dropped"
            # Timed out against a full queue: one observed back-pressure stall.
            if tel is not None and tel.bus.enabled:
                tel.bus.emit(
                    "queue_block", self._now(), spec.name,
                    stream=work.stream_idx, frame=work.index, n=len(queue),
                )
            if deadline is not None and time.monotonic() >= deadline:
                return "dropped"
        return "abort"

    # ------------------------------------------------------------------
    # close protocol
    # ------------------------------------------------------------------
    def _close_input(self, spec: StageSpec, stream_idx: int | None) -> None:
        """A producer finished feeding ``spec`` (for one stream, or all)."""
        if spec.fan_in == MERGED:
            with self._producers_lock:
                self._producers_left[spec.name] -= 1
                last = self._producers_left[spec.name] <= 0
            if last:
                self.merged_queues[spec.name].close()
            return
        queues = self.stage_queues[spec.name]
        targets = queues if stream_idx is None else [queues[stream_idx]]
        for q in targets:
            q.close()
        if spec.fan_in in (SHARED_RR, FUSED):
            self._wake[spec.name].set()

    def _downstream_done(self, spec: StageSpec, stream_idx: int | None) -> None:
        nxt = self.graph.next(spec.name)
        if nxt is not None:
            self._close_input(nxt, stream_idx)
        if self._plan_routing and not spec.terminal and nxt is not None and not nxt.terminal:
            # Under adaptive depth planning this worker was also a potential
            # producer of the terminal queue (early exits); release its
            # share of that producer count.  When ``nxt`` *is* the terminal
            # the decrement above already covered it.
            self._close_input(self.graph.terminal, stream_idx)

    # ------------------------------------------------------------------
    # stage service
    # ------------------------------------------------------------------
    def _stacked_pixels(self, works: list[_Work], scratch: dict | None) -> np.ndarray:
        """Batch pixel tensor for ``works``, reusing the worker's buffer.

        Buffers are preallocated per worker thread (grown once to the
        stage's batch cap) and overwritten on every batch; stage logic
        treats its input as read-only and never retains it past
        ``evaluate``.  They are keyed by frame shape/dtype so a shared
        stage round-robining over streams of different resolutions keeps
        one steady-state buffer per resolution instead of reallocating
        every time consecutive cycles alternate shapes.
        """
        first = works[0].pixels
        if scratch is None:
            return np.stack([w.pixels for w in works])
        n = len(works)
        key = ("pixels", first.shape, first.dtype.str)
        buf = scratch.get(key)
        if buf is None or buf.shape[0] < n:
            cap = max(n, int(scratch.get("cap", 0)))
            buf = scratch[key] = np.empty((cap, *first.shape), dtype=first.dtype)
        out = buf[:n]
        np.stack([w.pixels for w in works], out=out)
        return out

    def _serve(self, spec: StageSpec, works: list[_Work], scratch: dict | None = None) -> bool:
        """Evaluate one batch and route each frame; False aborts the worker.

        Under adaptive planning the SNM batch is split so that every
        stream's frames within a group share one plan chunk (and therefore
        one FilterDegree); splits only occur at the rare chunk-boundary
        crossings, so the steady state stays a single full batch.
        """
        planner = self._planner
        if planner is None or not planner.active or spec.name != SNM:
            return self._serve_one(spec, works, scratch)
        epoch = planner.epoch
        groups: list[list[_Work]] = []
        cur: list[_Work] = []
        seen: dict[int, int] = {}
        for w in works:
            c = w.index // epoch
            if cur and seen.get(w.stream_idx, c) != c:
                groups.append(cur)
                cur, seen = [], {}
            cur.append(w)
            seen[w.stream_idx] = c
        groups.append(cur)
        for group in groups:
            if not self._serve_one(spec, group, scratch):
                return False
        return True

    def _cfg_for_degree(self, degree: float) -> FFSVAConfig:
        cfg = self._degree_cfgs.get(degree)
        if cfg is None:
            cfg = self._degree_cfgs[degree] = self.config.with_(filter_degree=degree)
        return cfg

    def _serve_one(
        self, spec: StageSpec, works: list[_Work], scratch: dict | None = None
    ) -> bool:
        """Evaluate one plan-homogeneous batch and route each frame.

        Every frame of the batch reaches a terminal record or the next
        stage's queue — on failure or abort the leftovers are recorded as
        ``"aborted"`` so no outcome is ever silently lost.
        """
        done = 0
        tel = self.telemetry
        bus = tel.bus if tel is not None else None
        planner = self._planner
        cfg = self.config
        deg_vec = None  # per-stream degree vector for the fused SNM path
        if planner is not None and planner.active and spec.name == SNM:
            if spec.fan_in == FUSED:
                deg_vec = np.full(len(self.ctxs), cfg.filter_degree)
                for w in works:
                    deg_vec[w.stream_idx] = planner.degree_for(w.stream_idx, w.index)
            else:
                d = planner.degree_for(works[0].stream_idx, works[0].index)
                if d != cfg.filter_degree:
                    cfg = self._cfg_for_degree(d)
        try:
            n = len(works)
            if n == 1:
                # Singleton batches are the threaded runtime's common case at
                # low load: a (1, H, W) view costs nothing, np.stack copies.
                pixels = works[0].pixels[None]
            else:
                pixels = self._stacked_pixels(works, scratch)
            pool = self._pools.get(spec.name)
            if pool is not None:
                # Process-pool path: the batch travels as a shared-memory
                # descriptor; no device lock (pools host CPU stages) and no
                # GIL contention — the busy time is the worker's own clock.
                t_exec = self._now()
                passes, info, busy = pool.run_batch(
                    pixels, [w.stream_idx for w in works], self._abort
                )
                t_done = self._now()
                if self._abort.is_set():
                    for w in works:
                        self._record(w, ABORTED)
                    return False
            elif spec.fan_in == FUSED:
                sidx = np.fromiter((w.stream_idx for w in works), dtype=np.intp, count=n)
                fused_fn = self._fused_eval.get(spec.name)
                with self._locks[spec.name]:
                    t_exec = self._now()
                    if fused_fn is not None:
                        if deg_vec is not None:
                            passes, info = fused_fn(pixels, sidx, degrees=deg_vec)
                        else:
                            passes, info = fused_fn(pixels, sidx)
                    else:
                        # Generic fused fallback: evaluate the mega-batch
                        # grouped per stream (same results, no weight fusion).
                        passes = np.empty(n, dtype=bool)
                        info = None
                        for k in np.unique(sidx):
                            sel = np.nonzero(sidx == k)[0]
                            kcfg = cfg
                            if deg_vec is not None:
                                kcfg = self._cfg_for_degree(float(deg_vec[int(k)]))
                            p, _ = spec.logic.evaluate(
                                pixels[sel],
                                [self.ctxs[int(k)].bundle] * len(sel),
                                self.zoo,
                                kcfg,
                            )
                            passes[sel] = np.asarray(p, dtype=bool)
                    t_done = self._now()
                busy = t_done - t_exec
            else:
                if spec.fan_in == MERGED:
                    ctxs = self.ctxs
                    bundles = [ctxs[w.stream_idx].bundle for w in works]
                else:
                    # per_stream / shared_rr batches always come from one
                    # stream's queue: one bundle lookup serves the whole batch.
                    bundles = [self.ctxs[works[0].stream_idx].bundle] * n
                with self._locks[spec.name]:
                    t_exec = self._now()
                    passes, info = spec.logic.evaluate(pixels, bundles, self.zoo, cfg)
                    t_done = self._now()
                busy = t_done - t_exec
            passes = np.asarray(passes, dtype=bool)
            self._count(spec.name, n, int(passes.sum()), busy=busy)
            if spec.name == self.graph.first.name:
                with self._stage_lock:
                    for k, w in enumerate(works):
                        if passes[k]:
                            self._first_pass[w.stream_idx] += 1
                if planner is not None and planner.active:
                    # Feed the planner the first-stage verdicts in frame
                    # order per stream, *before* routing: a chunk boundary
                    # inside this batch decides the next chunk's plan here,
                    # so the plan exists before any of its frames moves on.
                    by_stream: dict[int, tuple[list, list]] = {}
                    for k, w in enumerate(works):
                        fs, ps = by_stream.setdefault(w.stream_idx, ([], []))
                        fs.append(w.index)
                        ps.append(bool(passes[k]))
                    for si in by_stream:
                        planner.observe_first(si, *by_stream[si])
            if tel is not None:
                tel.observe_latency("stage_exec_seconds", busy, stage=spec.name)
                # Per-frame wait/service attribution: the hop's queue wait
                # is service start minus the frame's last enqueue stamp
                # (clock races can make it slightly negative; the histogram
                # clamps and counts those as skew).  Service is the batch's
                # busy window, charged to every frame it covered.
                for w in works:
                    tel.observe_latency(
                        "stage_wait_seconds", t_exec - w.t_enter, stage=spec.name
                    )
                    tel.observe_latency(
                        "stage_service_seconds", busy, stage=spec.name
                    )
            if bus is not None and bus.enabled:
                if bus.wants("batch_exec"):
                    bus.emit(
                        "batch_exec", t_done, spec.name,
                        stream=works[0].stream_idx
                        if spec.fan_in not in (MERGED, FUSED)
                        else None,
                        t_start=t_exec, n=n,
                    )
                # Hoisted per-kind check: a bus sampling only batch_exec
                # skips the whole per-frame emission loop (emit itself also
                # drops unwanted kinds, so this is purely a fast path).
                if bus.wants("frame_pass") or bus.wants("frame_filter"):
                    for k, work in enumerate(works):
                        bus.emit(
                            "frame_pass" if (spec.terminal or passes[k]) else "frame_filter",
                            t_done, spec.name,
                            stream=work.stream_idx, frame=work.index, t_start=t_exec,
                        )
            nxt = self.graph.next(spec.name)
            for k, work in enumerate(works):
                if spec.terminal:
                    detail = None if info is None else int(info[k])
                    self._record(work, spec.name, ref_count=detail)
                elif passes[k]:
                    tgt = nxt
                    if self._plan_routing and planner.exits_at(
                        spec.name, work.stream_idx, work.index
                    ):
                        # Plan says this stream's chunk stops filtering here:
                        # skip the remaining filters, go straight to the
                        # merged terminal stage.
                        tgt = self.graph.terminal
                    target = self._input_queue(tgt, work.stream_idx)
                    status = self._put(tgt, target, work)
                    if status == "abort":
                        for w in works[k:]:
                            self._record(w, ABORTED)
                        return False
                    if status == "dropped":
                        self._record(work, DROPPED)
                else:
                    self._record(work, spec.name)
                done = k + 1
            return True
        except BaseException:
            for w in works[done:]:
                self._record(w, ABORTED)
            raise

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _prefetch_worker(self, idx: int):
        ctx = self.ctxs[idx]
        feed = self._feeds[idx]
        first = self.graph.first
        target = self._input_queue(first, idx)
        tel = self.telemetry
        paced_fps = self._paced_fps
        t0 = time.monotonic()
        try:
            for j in range(feed.count):
                if feed.stop.is_set():
                    # Detach request: halt at the frame boundary.  Frames
                    # [start + offered, start + count) were never offered
                    # here and belong to whichever instance attaches next.
                    return
                i = feed.start + j
                if paced_fps is not None:
                    delay = t0 + j / paced_fps - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                if feed.preloaded is not None and j < len(feed.preloaded):
                    pixels = feed.preloaded[j]
                else:
                    pixels = ctx.stream.pixels(i)
                work = _Work(idx, i, pixels, time.monotonic())
                status = self._put(first, target, work)
                if status == "dropped":
                    feed.offered = j + 1
                    self._record(work, DROPPED)
                    continue
                if status != "ok":
                    # The pipeline is aborting: frames never admitted still
                    # get a terminal disposition.
                    now = time.monotonic()
                    for jj in range(j, feed.count):
                        self._record(_Work(idx, feed.start + jj, pixels, now), ABORTED)
                    feed.offered = feed.count
                    return
                feed.offered = j + 1
                if tel is not None and tel.bus.enabled:
                    tel.bus.emit(
                        "admission", self._now(), first.name, stream=idx, frame=i
                    )
        except BaseException as exc:  # pragma: no cover - defensive
            self._fail(exc)
        finally:
            feed.boundary.set()
            self._close_input(first, idx)

    def _stream_worker(self, spec: StageSpec, idx: int):
        """Worker for one stream of a ``per_stream`` stage."""
        q = self.stage_queues[spec.name][idx]
        max_n, min_n = self._batch_bounds(spec)
        adaptive = self._adaptive_batch_stage(spec)
        scratch = {"cap": max_n}  # per-worker batch pixel buffer
        try:
            while True:
                if adaptive:
                    # The planner's EWMA batch target caps (and relaxes the
                    # floor of) the configured batch size each iteration.
                    cap = self._planner.batch_target
                    take, floor = min(max_n, cap), min(min_n, cap)
                else:
                    take, floor = max_n, min_n
                batch = q.pop_batch(take, min_n=floor, timeout=0.05)
                if not batch:
                    if self._abort.is_set() or (q.closed and len(q) == 0):
                        break
                    continue
                if not self._serve(spec, batch, scratch):
                    return
        except BaseException as exc:
            self._fail(exc)
        finally:
            self._downstream_done(spec, idx)

    def _shared_worker(self, spec: StageSpec):
        """Single worker round-robining over a ``shared_rr`` stage's queues."""
        queues = self.stage_queues[spec.name]
        wake = self._wake[spec.name]
        cap = self._shared_cap(spec)
        scratch = {"cap": cap}  # per-worker batch pixel buffer
        try:
            while True:
                all_done = True
                any_served = False
                for q in queues:
                    if not (q.closed and len(q) == 0):
                        all_done = False
                    batch = q.pop_batch(cap, min_n=1, timeout=0.0)
                    if not batch:
                        continue
                    any_served = True
                    if not self._serve(spec, batch, scratch):
                        return
                if all_done or self._abort.is_set():
                    break
                if not any_served:
                    # Park until a producer signals new work (or close);
                    # the timeout is only a safety net, not a poll interval.
                    wake.wait(timeout=0.05)
                    wake.clear()
        except BaseException as exc:
            self._fail(exc)
        finally:
            self._downstream_done(spec, None)

    def _merged_worker(self, spec: StageSpec):
        """Single worker draining a ``merged`` stage's one queue."""
        q = self.merged_queues[spec.name]
        max_n, min_n = self._batch_bounds(spec)
        adaptive = self._adaptive_batch_stage(spec)
        scratch = {"cap": max_n}  # per-worker batch pixel buffer
        try:
            while True:
                if adaptive:
                    cap = self._planner.batch_target
                    take, floor = min(max_n, cap), min(min_n, cap)
                else:
                    take, floor = max_n, min_n
                batch = q.pop_batch(take, min_n=floor, timeout=0.05)
                if not batch:
                    if self._abort.is_set() or (q.closed and len(q) == 0):
                        break
                    continue
                if not self._serve(spec, batch, scratch):
                    return
        except BaseException as exc:
            self._fail(exc)
        finally:
            self._downstream_done(spec, None)

    def _fused_worker(self, spec: StageSpec):
        """Single worker pooling all streams' queues into mega-batches.

        Batch formation is the shared :func:`decide_fused_batch` policy:
        the configured BatchSize satisfied from the aggregate of the
        per-stream queues, distributed round-robin so no stream can
        monopolize a mega-batch.  The simulator's fused branch runs the
        identical decision function over the identical queue state.
        """
        queues = self.stage_queues[spec.name]
        wake = self._wake[spec.name]
        cfg = self.config
        depth = self._depth_for(spec)
        scratch = {"cap": cfg.batch_size}
        rr = 0
        try:
            while True:
                # Only this worker pops these queues, so the observed
                # lengths are lower bounds that cannot shrink under us.
                eof = all(q.closed for q in queues)
                lens = [len(q) for q in queues]
                size = cfg.batch_size
                if self._adaptive_batch_stage(spec):
                    size = min(size, self._planner.batch_target)
                takes = decide_fused_batch(
                    cfg.batch_policy, lens, size, depth, eof=eof, start=rr
                )
                if sum(takes) == 0:
                    if self._abort.is_set() or (eof and sum(lens) == 0):
                        break
                    wake.wait(timeout=0.05)
                    wake.clear()
                    continue
                works: list[_Work] = []
                for si in fused_pop_order(takes, rr):
                    works.extend(queues[si].pop_batch(takes[si], min_n=1, timeout=0.0))
                rr = (rr + 1) % len(queues)
                # Streams can differ in resolution; a mega-batch tensor
                # needs one shape, so serve one contiguous group per shape
                # (single group in the homogeneous common case).
                groups: dict[tuple, list[_Work]] = {}
                for w in works:
                    groups.setdefault(w.pixels.shape, []).append(w)
                for group in groups.values():
                    if not self._serve(spec, group, scratch):
                        return
        except BaseException as exc:
            self._fail(exc)
        finally:
            self._downstream_done(spec, None)

    # ------------------------------------------------------------------
    # time-series sampling (telemetry only)
    # ------------------------------------------------------------------
    def _all_queues(self):
        for queues in self.stage_queues.values():
            yield from queues
        yield from self.merged_queues.values()

    def _sample(self, t: float, prev: dict, *, force: bool = False) -> dict:
        """Record one gauge sweep; returns the snapshot for the next delta."""
        tel = self.telemetry
        gauges: dict[str, float] = {}
        for q in self._all_queues():
            gauges[f"queue_depth[{q.name}]"] = len(q)
        with self._stage_lock:
            entered = {s: c.entered for s, c in self.metrics.stages.items()}
            busy = dict(self._busy)
        dt = t - prev["t"]
        if dt > 0:
            for stage, n in entered.items():
                gauges[f"stage_fps[{stage}]"] = (
                    (n - prev["entered"].get(stage, 0)) / dt
                )
            for device, b in busy.items():
                gauges[f"device_utilization[{device}]"] = min(
                    1.0, (b - prev["busy"].get(device, 0.0)) / dt
                )
        for name, fn in self._fused_eval.items():
            stats = getattr(fn, "mosaic_stats", None)
            if stats is not None:
                gauges[f"mosaic_fill_ratio[{name}]"] = stats.fill_ratio()
                gauges[f"mosaic_regions_per_canvas[{name}]"] = (
                    stats.regions_per_canvas()
                )
        tel.sampler.observe_many(t, gauges, force=force)
        return {"t": t, "entered": entered, "busy": busy}

    def _sampler_loop(self, stop: threading.Event) -> None:
        interval = self.telemetry.sampler.interval
        prev = {"t": 0.0, "entered": {}, "busy": {}}
        while not stop.wait(interval):
            t = self._now()
            prev = self._sample(t, prev)
            self.admission.poll(t)
            if self._planner is not None:
                self._planner.poll(t)
        t = self._now()
        self._sample(t, prev, force=True)
        self.admission.poll(t)
        if self._planner is not None:
            self._planner.poll(t)

    def _planner_loop(self, stop: threading.Event) -> None:
        """Feed queue-depth gauges to a telemetry-less adaptive planner.

        When telemetry is attached the planner shares its sampler and
        ``_sampler_loop`` polls it; this thread exists only so
        ``adaptive_batching`` keeps working with telemetry disabled.
        """
        planner = self._planner
        interval = planner.sampler.interval
        while not stop.wait(interval):
            t = self._now()
            planner.sampler.observe_many(
                t, {f"queue_depth[{q.name}]": len(q) for q in self._all_queues()}
            )
            planner.poll(t)

    # ------------------------------------------------------------------
    # cluster-instance control (attach / detach / seal)
    # ------------------------------------------------------------------
    def free_slots(self) -> int:
        """Reserve slots still able to accept a re-forwarded stream."""
        with self._feed_lock:
            if self._sealed:
                return 0
            return sum(
                1
                for i, c in enumerate(self.ctxs)
                if c.stream is None and self._feeds[i] is None
            )

    def active_streams(self) -> dict[str, int]:
        """stream_id -> slot for streams still offering frames here."""
        with self._feed_lock:
            return {
                self.ctxs[i].stream.stream_id: i
                for i, f in enumerate(self._feeds)
                if f is not None and f.active and self.ctxs[i].stream is not None
            }

    def stream_costs(self) -> dict[str, int]:
        """stream_id -> frames past the first stage, for active streams only.

        This is the live analogue of the position-cost the offline
        :class:`~repro.core.admission.InstanceGroup` ranks by: the stream
        that has pushed the most work into the cascade is the most
        expensive one to keep.
        """
        with self._stage_lock:
            first_pass = list(self._first_pass)
        with self._feed_lock:
            return {
                self.ctxs[i].stream.stream_id: first_pass[i]
                for i, f in enumerate(self._feeds)
                if f is not None and f.active and self.ctxs[i].stream is not None
            }

    def outcome_count(self) -> int:
        with self._outcome_lock:
            return len(self.outcomes)

    def attach_stream(
        self,
        stream: VideoStream,
        *,
        start: int = 0,
        n_frames: int | None = None,
        preloaded: list | None = None,
    ) -> int:
        """Attach a re-forwarded stream to a free reserve slot mid-run.

        Offers frames ``[start, end)`` where ``end`` is ``len(stream)``
        capped by ``n_frames``; ``preloaded`` optionally supplies pixel
        arrays for the leading frames (the shared-memory handoff window) so
        the first offers need no re-render.  Returns the slot index.
        """
        if stream.stream_id not in self.zoo:
            raise ValueError(f"stream {stream.stream_id} has no trained models")
        end = len(stream) if n_frames is None else min(n_frames, len(stream))
        if start >= end:
            raise ValueError(f"attach range [{start}, {end}) is empty")
        with self._feed_lock:
            if self._abort.is_set():
                raise RuntimeError("pipeline is aborting")
            if not self._running:
                raise RuntimeError("attach_stream requires a running pipeline")
            if self._sealed:
                raise RuntimeError("pipeline is sealed")
            slot = next(
                (
                    i
                    for i, c in enumerate(self.ctxs)
                    if c.stream is None and self._feeds[i] is None
                ),
                None,
            )
            if slot is None:
                raise RuntimeError("no free reserve slot")
            # Context first, then feed, then thread: the prefetcher and
            # stage workers read ctx/bundle through the slot index.
            self.ctxs[slot] = _StreamCtx(stream=stream, bundle=self.zoo[stream.stream_id])
            self._feeds[slot] = _Feed(start=start, count=end - start, preloaded=preloaded)
            self.metrics.frames_offered += end - start
            self.metrics.n_streams += 1
            t = threading.Thread(
                target=self._prefetch_worker, args=(slot,),
                name=f"prefetch-attach-{slot}", daemon=True,
            )
            self._dyn_threads.append(t)
        t.start()
        return slot

    def detach_stream(self, slot: int, timeout: float = 10.0) -> int:
        """Stop offering a stream's frames at the next frame boundary.

        Returns the first frame index *not* offered here — the exact index
        the receiving instance must attach at.  Frames already offered keep
        their in-flight path to an outcome on this instance; the unoffered
        remainder is subtracted from ``frames_offered`` so the
        per-instance invariant ``frames_offered == len(outcomes)`` holds on
        both sides of the handoff.
        """
        feed = self._feeds[slot]
        if feed is None:
            raise ValueError(f"slot {slot} has no active feed")
        feed.stop.set()
        if not feed.boundary.wait(timeout):
            raise RuntimeError(f"slot {slot} prefetcher missed the frame boundary")
        with self._feed_lock:
            self.metrics.frames_offered -= feed.count - feed.offered
        return feed.start + feed.offered

    def seal(self) -> None:
        """Close every never-used reserve slot; no further attach is
        possible and :meth:`run` can complete once in-flight work drains."""
        with self._feed_lock:
            if self._sealed:
                return
            self._sealed = True
            unused = [i for i, f in enumerate(self._feeds) if f is None]
        first = self.graph.first
        for i in unused:
            self._close_input(first, i)

    # ------------------------------------------------------------------
    def _drain_unfinished(self) -> None:
        """After an abort, give every still-queued frame a terminal record."""
        leftovers: list[_Work] = []
        for queues in self.stage_queues.values():
            for q in queues:
                leftovers.extend(q.drain())
        for q in self.merged_queues.values():
            leftovers.extend(q.drain())
        for work in leftovers:
            self._record(work, ABORTED)

    def run(
        self,
        n_frames: int | None = None,
        *,
        online: bool = False,
        paced_fps: float | None = None,
    ) -> RunMetrics:
        """Process every stream to completion and return metrics.

        ``online=True`` paces each prefetcher at ``paced_fps`` (default the
        config's ``stream_fps``); offline mode renders as fast as possible.
        """
        fps = (paced_fps or self.config.stream_fps) if online else None
        self._paced_fps = fps
        counts = [
            0
            if ctx.stream is None
            else (len(ctx.stream) if n_frames is None else min(n_frames, len(ctx.stream)))
            for ctx in self.ctxs
        ]
        self.metrics.frames_offered = sum(counts)
        for i, ctx in enumerate(self.ctxs):
            if ctx.stream is not None:
                self._feeds[i] = _Feed(start=0, count=counts[i])

        bundles = [ctx.bundle for ctx in self.ctxs]
        for spec in self.graph:
            if spec.fan_in == FUSED and spec.logic.build_fused is not None:
                self._fused_eval[spec.name] = spec.logic.build_fused(
                    bundles, self.zoo, self.config
                )
        # Worker processes must fork before any runtime thread exists (a
        # multi-threaded parent and the "fork" start method don't mix).
        for spec in self.graph:
            if spec.executor != "process":
                continue
            max_n, _ = self._batch_bounds(spec)
            # 8 bytes/px accommodates float64 frames; synthetic streams
            # render float32, so slabs are typically half-used.
            slot_bytes = (
                max_n
                * max(
                    h * w
                    for h, w in (c.stream.shape for c in self.ctxs if c.stream is not None)
                )
                * 8
            )
            self._pools[spec.name] = ProcPool(
                spec.name,
                spec.logic.evaluate,
                bundles,
                self.zoo,
                self.config,
                self.config.num_sdd_procs,
                slot_bytes=slot_bytes,
            )

        threads = []
        for i in range(len(self.ctxs)):
            if self._feeds[i] is None:
                continue  # reserve slot: its queue closes at attach-exhaust or seal()
            threads.append(
                threading.Thread(target=self._prefetch_worker, args=(i,), daemon=True)
            )
        for spec in self.graph:
            if spec.fan_in == PER_STREAM:
                for i in range(len(self.ctxs)):
                    threads.append(
                        threading.Thread(
                            target=self._stream_worker, args=(spec, i), daemon=True
                        )
                    )
            elif spec.fan_in == SHARED_RR:
                threads.append(
                    threading.Thread(target=self._shared_worker, args=(spec,), daemon=True)
                )
            elif spec.fan_in == FUSED:
                threads.append(
                    threading.Thread(target=self._fused_worker, args=(spec,), daemon=True)
                )
            else:
                threads.append(
                    threading.Thread(target=self._merged_worker, args=(spec,), daemon=True)
                )

        self._t0 = t0 = time.monotonic()
        self._running = True
        sampler_stop = None
        if self.telemetry is not None:
            sampler_stop = threading.Event()
            sampler = threading.Thread(
                target=self._sampler_loop, args=(sampler_stop,),
                name="telemetry-sampler", daemon=True,
            )
            sampler.start()
        planner_stop = None
        if (
            self.telemetry is None
            and self._planner is not None
            and self._planner.adaptive_batching
        ):
            planner_stop = threading.Event()
            planner_thread = threading.Thread(
                target=self._planner_loop, args=(planner_stop,),
                name="qplan-sampler", daemon=True,
            )
            planner_thread.start()
        # The stage threads are the parallelism: nested BLAS worker threads
        # would only oversubscribe the host (see runtime/_blas.py).
        with single_blas_thread():
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Prefetchers spawned by attach_stream() after the static set
            # was launched.  Stage workers only exit once *every*
            # first-stage queue has closed (including reserve slots, closed
            # by attach-exhaust or seal()), so by now no further dynamic
            # thread can appear.
            for t in list(self._dyn_threads):
                t.join()
        self._running = False
        duration = time.monotonic() - t0
        if sampler_stop is not None:
            sampler_stop.set()
            sampler.join(timeout=2.0)
        if planner_stop is not None:
            planner_stop.set()
            planner_thread.join(timeout=2.0)
        pool_stats = {
            name: pool.shutdown().as_dict() for name, pool in self._pools.items()
        }
        self._pools.clear()
        if self._abort.is_set():
            self._drain_unfinished()
        if self.store is not None:
            # After the drain, so aborted-frame rows persist too; before the
            # error raise, so a failed run still leaves a sealed store.
            self.store.close()
        if self._errors:
            raise RuntimeError(
                f"pipeline worker failed: {self._errors[0]!r}"
            ) from self._errors[0]

        terminal = self.graph.terminal.name
        m = self.metrics
        m.duration = duration
        # frames_offered is adjusted live by attach (+count) and detach
        # (-unoffered), so its final value is exactly the frames this
        # instance gave a disposition path; without attach/detach it equals
        # the static sum(counts).
        m.frames_ingested = self.metrics.frames_offered
        m.frames_to_ref = sum(1 for o in self.outcomes if o.stage == terminal)
        ref_lat = [o.latency for o in self.outcomes if o.stage == terminal]
        m.ref_latency = LatencyStats.from_samples(ref_lat)
        m.frame_latency = LatencyStats.from_samples([o.latency for o in self.outcomes])
        m.queue_high_water = {
            **{
                q.name: q.high_water
                for queues in self.stage_queues.values()
                for q in queues
            },
            **{q.name: q.high_water for q in self.merged_queues.values()},
        }
        if duration > 0 and self._busy:
            m.device_utilization = {
                dev: min(1.0, b / duration) for dev, b in self._busy.items()
            }
        if pool_stats:
            m.extra["procpool"] = pool_stats
        for fn in self._fused_eval.values():
            stats = getattr(fn, "mosaic_stats", None)
            if stats is not None:
                m.extra["mosaic"] = stats.as_dict()
        if self.telemetry is not None:
            m.extra["telemetry"] = self.telemetry.bus.stats()
            m.extra["admission"] = self.admission.summary()
            m.extra["queue_put_timeouts"] = {
                q.name: q.put_timeouts for q in self._all_queues()
            }
            m.extra["lineage"] = lineage_section(self.telemetry, terminal=terminal)
        if self._planner is not None:
            m.extra["qplan"] = self._planner.summary()
        return m

    def lineage_context(self) -> dict:
        """Stream-resolution context for the ``/lineage`` endpoint.

        The threaded runtime offers global frame indices (an attached
        stream keeps its ``[start, end)`` numbering), so every stream's
        offset is zero; the map covers every slot that ever carried a
        stream, including finished ones, so lineage stays queryable after
        a stream drains.
        """
        streams = {
            ctx.stream.stream_id: {"index": i, "offset": 0}
            for i, ctx in enumerate(self.ctxs)
            if ctx.stream is not None
        }
        return {
            "terminal": self.graph.terminal.name,
            "streams": streams,
            "qplan": (
                self._planner.summary() if self._planner is not None else None
            ),
        }
