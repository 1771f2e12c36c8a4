import warnings

import numpy as np

from fockdamp import _rng


def test_uniform_strictly_inside_unit_interval():
    key = _rng.stream_key(123, 0)
    us = [_rng.uniform(key, j) for j in range(2000)]
    assert min(us) > 0.0
    assert max(us) < 1.0


def test_streams_differ_between_trajectories():
    a = [_rng.uniform(_rng.stream_key(5, 0), j) for j in range(50)]
    b = [_rng.uniform(_rng.stream_key(5, 1), j) for j in range(50)]
    assert a != b


def test_uniform_mean_and_spread():
    key = _rng.stream_key(2024, 7)
    us = np.array([_rng.uniform(key, j) for j in range(20000)])
    assert abs(us.mean() - 0.5) < 0.01
    assert abs(us.var() - 1.0 / 12.0) < 0.005


def test_array_path_matches_int_path_bitwise():
    rng = np.random.default_rng(3)
    trajs = rng.integers(0, 2**64, size=100, dtype=np.uint64)
    draws = rng.integers(0, 2**64, size=100, dtype=np.uint64)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for seed in rng.integers(0, 2**64, size=50, dtype=np.uint64).tolist():
            keys = _rng.stream_key(seed, trajs)
            assert keys.dtype == np.uint64
            assert keys.tolist() == [_rng.stream_key(seed, t) for t in trajs.tolist()]
            us = _rng.uniform(keys, draws)
            assert us.tolist() == [_rng.uniform(k, d) for k, d in zip(keys.tolist(), draws.tolist())]
            key = keys.tolist()[0]
            assert _rng.uniform(key, draws).tolist() == [_rng.uniform(key, d) for d in draws.tolist()]
        z = rng.integers(0, 2**64, size=100, dtype=np.uint64)
        assert _rng.mix64(z).tolist() == [_rng.mix64(v) for v in z.tolist()]

