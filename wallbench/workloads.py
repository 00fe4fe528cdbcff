"""The benchmark's workloads and their set-up.

A workload is a fleet of synthetic streams, each with the models the
program trains for it, plus how the fleet is driven: offline (closed loop,
the prefetchers read as fast as the feedback queues admit) or online (open
loop, every stream paced at a fixed frame rate).

Each stream slot is one camera: a fixed background, lighting and sensor
noise.  Its models are trained on a fixed training clip of that camera, the
same for every seed, and the benchmark runs a separate evaluation clip of
the same camera whose object tracks come from ``--seed``.  So the seed
changes what happens in front of the camera, not the models the program
fits, and runs with different seeds differ by content alone.

Every clip must show at least one ground-truth scene, or there is nothing
to train on or to recall; clips are drawn from a deterministic sequence of
script seeds until one does.  This selects on the input alone, never on
what the program does with it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.models import ModelZoo
from repro.nn import TrainConfig
from repro.video import VideoStream, coral, jackson, make_stream

__all__ = ["Workload", "Fleet", "WORKLOADS", "build_fleet", "timed_setups"]

_SPECS = {"coral": coral, "jackson": jackson}

#: Length of each camera's training clip, and the frames labelled from it
#: (every fourth: the test suite's small recipe spread over the clip).
TRAIN_CLIP = 480
TRAIN_FRAMES = 120
TRAIN_CONFIG = TrainConfig(epochs=6, batch_size=32, seed=7)

#: Script seeds tried per clip before giving up on finding a scene.
_MAX_DRAWS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    #: (workload preset name, target TOR) per stream.
    streams: tuple[tuple[str, float], ...]
    #: Frames each stream offers per pipeline run.
    frames: int
    #: Paced frames per second per stream; None runs offline.
    #: Online runs also have telemetry and the detection store on.
    paced_fps: float | None = None

    @property
    def online(self) -> bool:
        return self.paced_fps is not None


#: Why each workload was chosen is written once, in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="busy_offline",
            streams=(("coral", 0.5),) * 6,
            frames=240,
        ),
        Workload(
            name="quiet_offline",
            streams=(("jackson", 0.05),) * 6,
            frames=720,
        ),
        Workload(
            name="online_observed",
            streams=(("jackson", 0.1),) * 4 + (("coral", 0.5),) * 2,
            frames=96,
            paced_fps=12.0,
        ),
    )
}


@dataclass
class Fleet:
    streams: list
    zoo: ModelZoo


def _draw_clip(preset: str, tor: float, frames: int, seed: int, stream_id: str):
    """The first clip of ``seed``'s deterministic draw sequence with a scene."""
    for draw in range(_MAX_DRAWS):
        clip = make_stream(
            _SPECS[preset](),
            frames,
            tor=tor,
            seed=(seed + draw * 104_729) % (2**31),
            stream_id=stream_id,
        )
        if clip.scenes():
            return clip
    raise RuntimeError(f"no {preset} clip with a scene in {frames} frames")


def build_fleet(workload: Workload, seed: int) -> Fleet:
    """Synthesize every camera's clips and train its models (the timed set-up)."""
    zoo = ModelZoo()
    streams = []
    for k, (preset, tor) in enumerate(workload.streams):
        sid = f"{preset}-{k}"
        train = _draw_clip(preset, tor, TRAIN_CLIP, 7919 * (k + 1), sid)
        zoo.train_for_stream(
            train,
            n_train_frames=TRAIN_FRAMES,
            stride=TRAIN_CLIP // TRAIN_FRAMES,
            train_config=TRAIN_CONFIG,
        )
        tracks = _draw_clip(preset, tor, workload.frames, seed * 1_000_003 + k, sid)
        camera = replace(tracks.script, background_seed=train.script.background_seed)
        streams.append(VideoStream(camera, stream_id=sid, fps=tracks.fps))
    return Fleet(streams=streams, zoo=zoo)


def timed_setups(workload: Workload, seed: int, repeats: int) -> tuple[Fleet, list[float]]:
    """Set the fleet up ``repeats`` times; returns the last and every time.

    Each set-up is deterministic in ``seed``, so the fleets are alike; the
    previous one is released before the next is built.
    """
    fleet, times = None, []
    for _ in range(repeats):
        fleet = None
        t0 = time.perf_counter()
        fleet = build_fleet(workload, seed)
        times.append(time.perf_counter() - t0)
    return fleet, times
