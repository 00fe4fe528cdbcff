"""Output check: the threaded run against a single-threaded pass.

The reference is the same cascade, executed stage by stage in one thread
over the same frames with the same stage logic
(:attr:`repro.core.pipeline.StageLogic.evaluate`).  It yields every
frame's expected disposition — the stage that filtered it, or the terminal
stage with its reference count — and its wall time is the
single-threaded baseline (``core.sequential_fps``).

A threaded run passes when every offered frame has exactly one outcome and
that outcome equals the expectation.  Dropped, aborted, missing, duplicated
and mismatched frames all count as failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Expected", "sequential_pass", "check_outcomes", "scene_recall"]

#: Frames per stream the single-threaded pass evaluates at once.
CHUNK = 32


@dataclass
class Expected:
    #: (stream_id, frame index) -> (disposition, reference count or None).
    outcome: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def fps(self) -> float:
        return len(self.outcome) / self.seconds if self.seconds > 0 else 0.0

    def reached(self, stage_names: list[str]) -> dict[str, list[tuple[str, int]]]:
        """Frames that entered each stage, by (stream_id, index)."""
        order = {name: i for i, name in enumerate(stage_names)}
        out: dict[str, list] = {name: [] for name in stage_names}
        for key, (stage, _) in self.outcome.items():
            for name in stage_names[: order[stage] + 1]:
                out[name].append(key)
        return out


def sequential_pass(graph, streams, zoo, config, frames: int) -> Expected:
    """Run ``graph`` single-threaded over the first ``frames`` of each stream."""
    exp = Expected()
    t0 = time.perf_counter()
    for stream in streams:
        sid = stream.stream_id
        bundle = zoo[sid]
        n = min(frames, len(stream))
        for start in range(0, n, CHUNK):
            alive = np.arange(start, min(start + CHUNK, n))
            pixels = stream.pixel_batch(alive)
            for spec in graph:
                passes, info = spec.logic.evaluate(
                    pixels, [bundle] * len(alive), zoo, config
                )
                if spec.terminal:
                    for k, i in enumerate(alive.tolist()):
                        exp.outcome[(sid, i)] = (spec.name, int(info[k]))
                    break
                passes = np.asarray(passes, dtype=bool)
                for i in alive[~passes].tolist():
                    exp.outcome[(sid, i)] = (spec.name, None)
                alive, pixels = alive[passes], pixels[passes]
                if not len(alive):
                    break
    exp.seconds = time.perf_counter() - t0
    return exp


def check_outcomes(outcomes, expected: Expected) -> list[tuple]:
    """Frames whose outcome is not exactly the expected one.

    Returns ``(stream_id, index, expected, got)`` per failed frame, where
    ``got`` lists every outcome the frame received (empty when missing).
    Outcomes for frames that were never expected are failures too.
    """
    got: dict[tuple, list] = {}
    for o in outcomes:
        got.setdefault((o.stream_id, o.index), []).append((o.stage, o.ref_count))
    bad = []
    for key, want in expected.outcome.items():
        seen = got.get(key, [])
        if seen != [want]:
            bad.append((*key, want, seen))
    for key in got.keys() - expected.outcome.keys():
        bad.append((*key, None, got[key]))
    return bad


def scene_recall(outcomes, streams, frames: int, terminal: str, min_objects: int) -> tuple[int, int]:
    """(recalled, total) ground-truth scenes within the offered frames.

    A scene is recalled when the reference stage counted at least
    ``min_objects`` objects in one of its frames.
    """
    hit_frames = {
        (o.stream_id, o.index)
        for o in outcomes
        if o.stage == terminal and o.ref_count is not None and o.ref_count >= min_objects
    }
    recalled = total = 0
    for stream in streams:
        for start, stop in stream.scenes():
            if start >= frames:
                continue
            total += 1
            if any((stream.stream_id, i) in hit_frames for i in range(start, min(stop, frames))):
                recalled += 1
    return recalled, total
