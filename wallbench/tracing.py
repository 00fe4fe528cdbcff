"""Per-layer tracing from outside the program.

In the traced run the benchmark wraps the public calls each layer makes
into the next — nothing under ``src/`` changes.  Every wrapped call records
a span ``(name, start, end, stream, parent, frames)`` in memory; the parent
of every layer span is the span of the pipeline run it happened in.  The
spans are written out when the benchmark ends, and the per-layer metrics
are folded from them.

Layers are named after the program's modules:

==========  ==================================================  =========
layer       wrapped call                                        scope
==========  ==================================================  =========
video       ``VideoStream.pixels``                              class
models      ``SDD.passes``, ``SNM.predict_proba``,              class
            ``TYolo.count_batch``, ``ReferenceModel.count``
obs         the run's ``bus.emit`` and ``observe_latency``      instance
store       the run's ``DetStore.append`` and ``close``         instance
==========  ==================================================  =========

The wrappers only time and forward; outcomes stay bit-identical (tested).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.models.reference import ReferenceModel
from repro.models.sdd import SDD
from repro.models.snm import SNM
from repro.models.tyolo import TYolo
from repro.video.stream import VideoStream

__all__ = ["Tracer", "MODEL_STAGES", "solo_ms_per_frame"]

#: Model layer spans, keyed by the cascade stage that makes the call.
MODEL_STAGES = {"sdd": "models.sdd", "snm": "models.snm", "tyolo": "models.tyolo", "ref": "models.ref"}

SPAN_FIELDS = ("name", "start", "end", "stream", "parent", "frames")

#: A solo timing repeats the call for at least this long and this often.
SOLO_SECONDS = 0.25
SOLO_CALLS = 5


def _n_frames(frames) -> int:
    return len(frames) if np.ndim(frames) == 3 else 1


class Tracer:
    """Span recorder for one traced pipeline run."""

    def __init__(self, fleet):
        self.spans: list[tuple] = []
        self.thread_samples: list[int] = []
        self._parent: int | None = None
        bundles = fleet.zoo.streams.values()
        # Model objects and backgrounds identify the stream a call serves.
        self._owner = {id(b.sdd): b.stream_id for b in bundles}
        self._owner.update({id(b.snm): b.stream_id for b in bundles})
        self._owner.update({id(b.background): b.stream_id for b in bundles})
        self._restore: list[tuple] = []
        #: The traced run's telemetry, kept for its lineage events.
        self.telemetry = None

    # -- class-level hooks ---------------------------------------------
    def _hook(self, cls, attr: str, name: str, stream_of, frames_of, sample=False):
        orig = getattr(cls, attr)
        spans, samples = self.spans, self.thread_samples
        clock = time.perf_counter

        def wrapper(obj, *args, **kwargs):
            t0 = clock()
            out = orig(obj, *args, **kwargs)
            t1 = clock()
            spans.append(
                (name, t0, t1, stream_of(obj, args), self._parent, frames_of(args))
            )
            if sample:
                samples.append(threading.active_count())
            return out

        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, orig))

    def install(self) -> None:
        owner = self._owner.get
        self._hook(
            VideoStream, "pixels", "video.render",
            lambda obj, a: obj.stream_id, lambda a: 1, sample=True,
        )
        by_model = lambda obj, a: owner(id(obj))
        by_background = lambda obj, a: owner(id(a[1]))
        first = lambda a: _n_frames(a[0])
        self._hook(SDD, "passes", "models.sdd", by_model, first)
        self._hook(SNM, "predict_proba", "models.snm", by_model, first)
        self._hook(TYolo, "count_batch", "models.tyolo", by_background, first)
        self._hook(ReferenceModel, "count", "models.ref", by_background, lambda a: 1)

    def uninstall(self) -> None:
        while self._restore:
            cls, attr, orig = self._restore.pop()
            setattr(cls, attr, orig)

    # -- instance-level hooks ------------------------------------------
    def _wrap(self, fn, name: str, frames_of=lambda a: 0):
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            spans.append((name, t0, clock(), None, self._parent, frames_of(args)))
            return out

        return wrapper

    def attach(self, pipeline) -> None:
        """Wrap one pipeline's telemetry and store (built per run)."""
        tel = self.telemetry = pipeline.telemetry
        if tel is not None:
            tel.bus.emit = self._wrap(tel.bus.emit, "obs.emit")
            tel.observe_latency = self._wrap(tel.observe_latency, "obs.observe")
        store = pipeline.store
        if store is not None:
            store.append = self._wrap(store.append, "store.append", lambda a: 1)
            store.close = self._wrap(store.close, "store.close")

    @contextmanager
    def run_span(self, frames: int):
        """The parent span of every layer call made inside the block."""
        self._parent = parent = len(self.spans)
        self.spans.append(None)  # reserved slot, filled on exit
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[parent] = ("runtime.run", t0, time.perf_counter(), None, None, frames)
            self._parent = None

    # -- folding ---------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, int, float]]:
        """Span name -> (calls, frames, summed seconds)."""
        out: dict[str, list] = {}
        for name, t0, t1, _, _, frames in self.spans:
            acc = out.setdefault(name, [0, 0, 0.0])
            acc[0] += 1
            acc[1] += frames
            acc[2] += t1 - t0
        return {k: tuple(v) for k, v in out.items()}

    def layer_metrics(self) -> dict[str, float]:
        tot = self.totals()
        get = lambda name: tot.get(name, (0, 0, 0.0))
        m: dict[str, float] = {}
        calls, frames, busy = get("video.render")
        m["video.frames_rendered"] = frames
        m["video.render_ms_per_frame"] = busy / frames * 1e3 if frames else 0.0
        for stage, name in MODEL_STAGES.items():
            calls, frames, busy = get(name)
            m[f"models.{stage}.calls"] = calls
            m[f"models.{stage}.frames"] = frames
            m[f"models.{stage}.busy_s"] = busy
            m[f"models.{stage}.ms_per_frame"] = busy / frames * 1e3 if frames else 0.0
            m[f"models.{stage}.batch_mean"] = frames / calls if calls else 0.0
        calls, _, busy = get("obs.emit")
        m["obs.emit_calls"], m["obs.emit_busy_s"] = calls, busy
        calls, _, busy = get("obs.observe")
        m["obs.observe_calls"], m["obs.observe_busy_s"] = calls, busy
        calls, rows, busy = get("store.append")
        m["store.rows"] = rows
        m["store.append_us_per_row"] = busy / rows * 1e6 if rows else 0.0
        m["store.close_s"] = get("store.close")[2]
        m["runtime.threads"] = max(self.thread_samples, default=threading.active_count())
        return m

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": SPAN_FIELDS, "spans": self.spans}, fh)


def solo_ms_per_frame(stage: str, fleet, reached: list[tuple[str, int]], batch: float) -> float:
    """Time ``stage``'s model call alone, per frame, at ``batch`` frames.

    Uses frames that reached the stage in the reference pass (content sets
    detector cost), from the stream with the most of them.
    """
    if not reached:
        return 0.0
    zoo = fleet.zoo
    streams = {s.stream_id: s for s in fleet.streams}
    by_stream: dict[str, list[int]] = {}
    for sid, i in reached:
        by_stream.setdefault(sid, []).append(i)
    sid = max(by_stream, key=lambda k: (len(by_stream[k]), k))
    stream, bundle = streams[sid], zoo[sid]
    b = max(1, round(batch))
    idx = sorted(by_stream[sid])[: max(b, 32)]
    pool = stream.pixel_batch(np.asarray(idx))
    calls = {
        "sdd": lambda px: bundle.sdd.passes(px),
        "snm": lambda px: bundle.snm.predict_proba(px),
        "tyolo": lambda px: zoo.tyolo.count_batch(px, bundle.background),
        "ref": lambda px: zoo.reference.count(px[0], bundle.background),
    }[stage]
    times = []
    k = 0
    t_end = time.perf_counter() + SOLO_SECONDS
    while len(times) < SOLO_CALLS or time.perf_counter() < t_end:
        sel = [(k + j) % len(pool) for j in range(b)]
        px = pool[sel]
        t0 = time.perf_counter()
        calls(px)
        times.append(time.perf_counter() - t0)
        k += b
    return float(np.median(times)) / b * 1e3
