"""The threaded runtime runs its workers with single-threaded OpenBLAS.

``ThreadedPipeline.run`` pins every loaded OpenBLAS to one thread while its
workers run and restores the previous count afterwards: after a clean run,
after a failed one, and after two runs that overlap.  Where no OpenBLAS is
found the scope does nothing.  The thread count must never change a verdict,
so the SNM paths are compared bitwise across counts.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import FFSVAConfig
from repro.core.pipeline import (
    PER_STREAM,
    BatchRule,
    StageGraph,
    StageLogic,
    StageSpec,
    ref_spec,
    sdd_spec,
    tyolo_spec,
)
from repro.models.snm import SNM, FusedSNM, SNMConfig, build_snm_network
from repro.runtime import ThreadedPipeline, _blas
from repro.runtime._blas import blas_threads, locate_openblas, single_blas_thread
from tests.test_runtime_failures import _ExplodingSDD, trained  # noqa: F401

needs_openblas = pytest.mark.skipif(
    not locate_openblas(), reason="no OpenBLAS loaded in this process"
)


@contextmanager
def blas_count(n: int):
    """Set every OpenBLAS to ``n`` threads; restore afterwards."""
    libs = locate_openblas()
    saved = [lib.get() for lib in libs]
    for lib in libs:
        lib.set(n)
    try:
        yield n
    finally:
        for lib, count in zip(libs, saved):
            lib.set(count)


@pytest.fixture
def blas_at(request):
    with blas_count(request.param) as n:
        yield n


def _probing_graph(seen: list, barrier: threading.Barrier | None = None) -> StageGraph:
    """The paper's cascade behind a pass-through first stage that records
    the BLAS thread counts its worker sees (and, given a barrier, meets it
    on its first batch)."""

    def evaluate(pixels, bundles, zoo, config):
        if barrier is not None and not seen:
            barrier.wait(timeout=30)
        seen.append(blas_threads())
        return np.ones(len(pixels), dtype=bool), None

    probe = StageSpec(
        name="probe",
        device="cpu0",
        fan_in=PER_STREAM,
        batch=BatchRule("fixed", 4),
        logic=StageLogic(evaluate, lambda trace, cfg: np.ones(len(trace), dtype=bool)),
        queue_key="snm",
    )
    return StageGraph([probe, sdd_spec(), tyolo_spec(), ref_spec()], name="probe")


@needs_openblas
@pytest.mark.parametrize("blas_at", [2], indirect=True)
class TestRunScope:
    def test_workers_see_one_thread_and_run_restores(self, trained, blas_at):
        stream, zoo = trained
        before = blas_threads()
        assert set(before) == {blas_at}
        seen: list = []
        pipe = ThreadedPipeline(
            [stream], zoo, FFSVAConfig(batch_size=4), graph=_probing_graph(seen)
        )
        pipe.run(n_frames=80)
        assert seen and all(set(counts) == {1} for counts in seen)
        assert blas_threads() == before

    def test_restored_when_a_stage_raises(self, trained, blas_at):
        stream, zoo = trained
        before = blas_threads()
        pipe = ThreadedPipeline([stream], zoo, FFSVAConfig(batch_size=4))
        bundle = pipe.ctxs[0].bundle
        bundle.sdd = _ExplodingSDD(bundle.sdd)
        try:
            with pytest.raises(RuntimeError, match="injected SDD fault"):
                pipe.run(n_frames=200)
        finally:
            bundle.sdd = bundle.sdd._real
        assert blas_threads() == before

    def test_overlapping_runs_in_two_threads(self, trained, blas_at):
        stream, zoo = trained
        before = blas_threads()
        # Each run's probe stage meets the barrier on its first batch, so
        # both runs are inside their scopes at once; either may end first.
        barrier = threading.Barrier(2)
        seen = [[], []]
        errors: list = []

        def run(i):
            try:
                ThreadedPipeline(
                    [stream],
                    zoo,
                    FFSVAConfig(batch_size=4),
                    graph=_probing_graph(seen[i], barrier),
                ).run(n_frames=60 + 40 * i)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert not errors
        assert all(s and all(set(c) == {1} for c in s) for s in seen)
        assert blas_threads() == before


@needs_openblas
@pytest.mark.parametrize("blas_at", [2], indirect=True)
def test_nested_scopes_restore_only_at_the_outermost_exit(blas_at):
    before = blas_threads()
    inner_entered = threading.Event()
    outer_left = threading.Event()
    inside: list = []

    def inner():
        with single_blas_thread():
            inner_entered.set()
            outer_left.wait(timeout=30)
            inside.append(blas_threads())

    t = threading.Thread(target=inner)
    with single_blas_thread():
        t.start()
        assert inner_entered.wait(timeout=30)
    # The first scope has exited while the second is still open.
    outer_left.set()
    t.join(timeout=30)
    assert not t.is_alive()
    assert set(inside[0]) == {1}
    assert blas_threads() == before


@pytest.mark.parametrize("blas_at", [2], indirect=True)
def test_scope_reference_count_under_thread_churn(blas_at):
    # More threads than cores entering and leaving the scope with a short
    # switch interval: a lost update to the reference count would leave the
    # count pinned at one or the depth non-zero.
    before = blas_threads()
    errors: list = []

    def churn():
        try:
            for _ in range(50):
                with single_blas_thread():
                    assert set(blas_threads()) <= {1}
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert _blas._depth == 0
    assert blas_threads() == before


@pytest.mark.parametrize("blas_at", [2], indirect=True)
def test_scope_does_nothing_without_openblas(monkeypatch, blas_at):
    real = locate_openblas()
    monkeypatch.setattr(_blas, "locate_openblas", lambda: [])
    with single_blas_thread():
        assert [lib.get() for lib in real] == [blas_at] * len(real)
    assert [lib.get() for lib in real] == [blas_at] * len(real)
    assert _blas._depth == 0 and _blas._saved == []


@needs_openblas
def test_thread_count_never_changes_an_snm_verdict():
    """Single and fused SNM probabilities are bitwise equal at one BLAS
    thread and at several: the benchmark's reference pass runs at the
    host's default count while the pipeline runs at one."""
    rng = np.random.default_rng(3)
    backgrounds = [rng.random((100, 150), dtype=np.float32) for _ in range(2)]
    snms = [
        SNM(build_snm_network(SNMConfig(seed=k)), SNMConfig(seed=k), background=bg)
        for k, bg in enumerate(backgrounds)
    ]
    frames = rng.random((96, 100, 150), dtype=np.float32)
    stream_idx = np.arange(len(frames)) % 2

    def evaluate():
        single = [snm.predict_proba(frames) for snm in snms]
        fused = FusedSNM(snms).predict_proba(frames, stream_idx)
        return single, fused

    results = []
    for count in (1, 2, 4):
        with blas_count(count):
            results.append(evaluate())
    (single_1, fused_1), *others = results
    for single, fused in others:
        for a, b in zip(single_1, single):
            assert a.tobytes() == b.tobytes()
        assert fused_1.tobytes() == fused.tobytes()
