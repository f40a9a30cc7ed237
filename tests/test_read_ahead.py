"""The read-ahead normal source: the bare generator's bytes under any split and thread timing."""

import dataclasses
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etslam import harness
from etslam.harness import READ_AHEAD_PIECE, ReadAheadNormals, load_experiment, run_trial
from etslam.metrics import location_mse
from etslam.slam import run_slam


def _source(rng, piece):
    """A read-ahead source whose worker draws ``piece`` values at a time."""
    with mock.patch.object(harness, "READ_AHEAD_PIECE", piece):
        return ReadAheadNormals(rng)


def _workers():
    return [t for t in threading.enumerate() if t.name.startswith("etslam-normals")]


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous == want.flags.c_contiguous
    assert np.asarray(got).tobytes(order="A") == np.asarray(want).tobytes(order="A")


def _call(source, request):
    """One ``standard_normal`` request: ``None`` for a scalar, else its size."""
    return source.standard_normal() if request is None else source.standard_normal(request)


def _requests(max_dim, big_sizes):
    dims = st.lists(st.integers(0, max_dim), min_size=0, max_size=3).map(tuple)
    flat = st.integers(0, 8) if big_sizes is None else st.one_of(st.integers(0, 8), big_sizes)
    return st.one_of(st.none(), flat, dims)


def _check_sequence(requests, piece, seed):
    bare = np.random.default_rng(seed)
    with _source(np.random.default_rng(seed), piece) as source:
        for request in requests:
            _assert_same(_call(source, request), _call(bare, request))
    assert not _workers()


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(_requests(40, st.integers(2**15, 2**17)), min_size=1, max_size=12),
       piece=st.sampled_from([4096, READ_AHEAD_PIECE]),
       seed=st.integers(0, 2**32 - 1))
def test_any_request_sequence_matches_bare_generator(requests, piece, seed):
    """Requests of every form, some over 2^15 values, spanning many pieces."""
    _check_sequence(requests, piece, seed)


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(_requests(5, None), min_size=1, max_size=20),
       piece=st.sampled_from([1, 2, 7]), seed=st.integers(0, 2**32 - 1))
def test_any_request_sequence_matches_bare_generator_tiny_pieces(requests, piece, seed):
    """Pieces shorter than the requests: every request is served across piece ends."""
    _check_sequence(requests, piece, seed)


def test_bad_requests_raise_like_the_generator():
    with ReadAheadNormals(np.random.default_rng(0)) as source:
        with pytest.raises(ValueError, match="negative dimensions"):
            source.standard_normal(-1)
        with pytest.raises(TypeError):
            source.standard_normal(2.5)
        # nothing was consumed by the refused requests
        _assert_same(source.standard_normal(5), np.random.default_rng(0).standard_normal(5))


def test_concurrent_sources_under_fast_thread_switching():
    """Four consumer threads, each reading its own source (eight threads on fewer
    cores), switching every microsecond: each still reads its bare generator's bytes."""
    def consume(seed, results):
        bare = np.random.default_rng(seed)
        with sources[seed] as source:
            for _ in range(20):
                for request in (2, None, (2, 3, 700)):
                    _assert_same(_call(source, request), _call(bare, request))
        results[seed] = True

    # built here: _source patches a module constant, which one thread at a time may do
    sources = {seed: _source(np.random.default_rng(seed), 512) for seed in range(4)}
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume, args=(seed, results)) for seed in range(4)]
        for t in consumers:
            t.start()
        for t in consumers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in consumers)
    assert results == {seed: True for seed in range(4)}
    assert not _workers()


class _FailingDraw:
    """A generator whose draws succeed ``good`` times and then raise."""

    def __init__(self, good: int, seed: int = 0):
        self.rng, self.good = np.random.default_rng(seed), good

    def standard_normal(self, *args, **kwargs):
        if self.good == 0:
            raise RuntimeError("draw failed")
        self.good -= 1
        return self.rng.standard_normal(*args, **kwargs)


def test_worker_failure_raises_from_the_consumer():
    with ReadAheadNormals(_FailingDraw(0)) as source:
        with pytest.raises(RuntimeError, match="^draw failed$"):
            source.standard_normal(2)
    assert not _workers()


def test_values_drawn_before_a_failure_are_served_first():
    bare = np.random.default_rng(0)
    with _source(_FailingDraw(3), 10) as source:
        _assert_same(source.standard_normal(25), bare.standard_normal(25))
        _assert_same(source.standard_normal(5), bare.standard_normal(5))
        with pytest.raises(RuntimeError, match="^draw failed$"):
            source.standard_normal()
    assert not _workers()


def test_close_joins_the_worker():
    source = _source(np.random.default_rng(1), 16)
    source.standard_normal(40)
    assert len(_workers()) == 1
    source.close()
    assert not _workers()
    with pytest.raises(RuntimeError, match="shutdown"):
        source.standard_normal(1000)
    source.close()  # a second close is a no-op


def _trial_config(config, duration, **updates):
    cfg = dataclasses.replace(load_experiment(config), duration=duration, trials=1, **updates)
    if cfg.backend == "ofdm":
        assert cfg.waveform.snr_db is not None
    return cfg


@pytest.mark.parametrize("config, duration, updates", [
    ("ci.yaml", 10.0, {}),
    ("ci.yaml", 10.0, {"backend": "ofdm"}),
    ("full_scale.yaml", 1.0, {}),
], ids=["ci-parametric", "ci-ofdm", "full_scale"])
def test_run_trial_matches_run_slam_on_bare_generator(config, duration, updates):
    cfg = _trial_config(config, duration, **updates)
    rec = run_trial(cfg, 0)
    assert not _workers()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    run = run_slam(cfg.scene, cfg.make_sensor(), cfg.odometry, rng, duration=cfg.duration,
                   cfg=cfg.slam, snapshot_cadence=cfg.snapshot_cadence)
    assert len(run.map_points) > 0
    assert rec.map_points.tobytes() == run.map_points.tobytes()
    assert rec.map_times.tobytes() == run.map_times.tobytes()
    want_sq = location_mse([s.pose_truth for s in run.snapshots],
                           [s.pose_estimate for s in run.snapshots])
    assert rec.sq_error.tobytes() == want_sq.tobytes()


def test_raising_trial_leaves_no_worker(monkeypatch):
    def failing_slam(scene, sensor, odometry, rng, **kwargs):
        rng.standard_normal(3)
        raise RuntimeError("slam failed")

    monkeypatch.setattr(harness, "run_slam", failing_slam)
    with pytest.raises(RuntimeError, match="^slam failed$"):
        run_trial(_trial_config("ci.yaml", 1.0), 0)
    assert not _workers()
