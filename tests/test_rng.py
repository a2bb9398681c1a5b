"""Counter-based RNG: known-answer vectors, stream layout, determinism."""

import numpy as np
import pytest

import uvol.rng as rng
from helpers import builtin
from uvol.estimators import Payoff, RunConfig, estimate_price
from uvol.normal import ndtri
from uvol.renewal import JumpSampler
from uvol.rng import (GAP_STREAM, NORMAL_STREAM, normal_pair, philox4x32,
                      uniform_pair)


def test_philox_known_answer_zeros():
    # Reference vectors for the 10-round 4x32 generator
    assert tuple(int(w) for w in philox4x32(0, 0, 0, 0, 0, 0)) == (
        0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)


def test_philox_known_answer_ones():
    ff = 0xFFFFFFFF
    assert tuple(int(w) for w in philox4x32(ff, ff, ff, ff, ff, ff)) == (
        0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)


def test_philox_known_answer_pi_digits():
    out = philox4x32(0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344,
                     0xA4093822, 0x299F31D0)
    assert tuple(int(w) for w in out) == (
        0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)


def test_philox_vectorized_counters():
    c0 = np.arange(5, dtype=np.uint64)
    out = philox4x32(c0, 0, 0, 0, 0, 0)
    for k in range(5):
        single = philox4x32(int(c0[k]), 0, 0, 0, 0, 0)
        assert all(int(a[k]) == int(b) for a, b in zip(out, single))


def test_uniform_pair_range_and_determinism():
    paths = np.arange(20000)
    u1, u2 = uniform_pair(3, paths, 1, 7)
    assert np.all((u1 > 0) & (u1 < 1))
    assert np.all((u2 > 0) & (u2 < 1))
    # same address twice gives the identical doubles
    v1, v2 = uniform_pair(3, paths, 1, 7)
    assert np.array_equal(u1, v1) and np.array_equal(u2, v2)
    # roughly uniform moments at this sample size
    assert abs(u1.mean() - 0.5) < 0.01
    assert abs(np.mean(u1 * u1) - 1.0 / 3.0) < 0.01


def test_uniform_pair_distinct_addresses():
    base = uniform_pair(0, 5, 0, 9)
    assert uniform_pair(0, 5, 0, 10) != base
    assert uniform_pair(0, 5, 1, 9) != base
    assert uniform_pair(0, 6, 0, 9) != base
    assert uniform_pair(1, 5, 0, 9) != base


def test_uniform_pair_frozen_value():
    u1, u2 = uniform_pair(0, 0, 0, 0)
    assert u1 == pytest.approx(0.39904647084896455, rel=1e-16)
    assert u2 == pytest.approx(0.7357127844834426, rel=1e-16)


def test_uniform_pair_large_path_indices():
    """Path indices beyond 2^32 must map to distinct counters."""
    lo = uniform_pair(0, 2 ** 32 - 1, 0, 0)
    hi = uniform_pair(0, 2 ** 32, 0, 0)
    assert lo != hi


def test_normal_pair_is_inverse_cdf_of_uniforms():
    paths = np.arange(100)
    u1, u2 = uniform_pair(11, paths, 1, 4)
    n1, n2 = normal_pair(11, paths, 4)
    assert np.allclose(n1, ndtri(u1), rtol=0, atol=0)
    assert np.allclose(n2, ndtri(u2), rtol=0, atol=0)


def test_normal_moments():
    paths = np.arange(200000)
    n1, n2 = normal_pair(1, paths, 0)
    for n in (n1, n2):
        assert abs(n.mean()) < 0.01
        assert abs(n.std() - 1.0) < 0.01
    assert abs(np.mean(n1 * n2)) < 0.01  # independent coordinates


def test_path_stream_layout_matches_flat_functions(monkeypatch):
    """The engine reads each path's gap uniforms at consecutive counters of
    stream 0, and the normals of interval k at index k of stream 1.  The
    final interval is integrated out, so it draws none."""
    calls = []
    real = rng.uniform_pair

    def spy(seed, path, stream, index):
        path = np.array(path, dtype=np.uint64, ndmin=1)
        calls.append((seed, stream, path, np.broadcast_to(index, path.shape)))
        return real(seed, path, stream, index)

    monkeypatch.setattr(rng, "uniform_pair", spy)
    estimate_price(RunConfig(
        model=builtin("BlackScholes"), payoff=Payoff.call(1.5),
        sampler=JumpSampler.exponential(4.0), s0=1.5, y0=0.2, T=0.5,
        n_paths=200, seed=7, chunk_size=64))
    seen = {}
    for seed, stream, path, index in calls:
        assert seed == 7
        for p, i in zip(path.tolist(), index.tolist()):
            seen.setdefault((p, stream), []).append(i)
    for p in range(200):
        gap, normal = seen[p, GAP_STREAM], seen.get((p, NORMAL_STREAM), [])
        assert gap == list(range(len(gap)))
        assert normal == list(range(len(normal)))
        # every interval, the last included, takes at least one gap draw
        assert len(gap) >= len(normal) + 1
    assert max(len(seen.get((p, NORMAL_STREAM), [])) for p in range(200)) >= 3


def test_gap_and_normal_streams_do_not_collide():
    """Gap draws and Gaussian draws sit on different substreams."""
    paths = np.arange(1000)
    for index in (0, 1, 5):
        g1, g2 = uniform_pair(9, paths, GAP_STREAM, index)
        n1, n2 = uniform_pair(9, paths, NORMAL_STREAM, index)
        assert not np.any(g1 == n1) and not np.any(g2 == n2)
        assert np.array_equal(normal_pair(9, paths, index)[0], ndtri(n1))
