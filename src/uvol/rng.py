"""Counter-based random streams keyed by (seed, path index).

Every random quantity in the simulation is addressed, not drawn: the
uniform feeding gap ``j`` of path ``p`` under seed ``s`` is a pure function
``philox(key=s, counter=(p, stream, j))``.  This makes path simulation
embarrassingly parallel and bit-reproducible regardless of chunking or
thread count, which the estimator determinism guarantees rely on.

The generator is Philox4x32-10 (counter words ``(path_lo, path_hi, stream,
index)``, key words from the 64-bit seed).  One invocation yields 128 bits,
combined into two doubles with 53-bit mantissas.  Known-answer vectors are
pinned in the test suite.

Streams: 0 carries the renewal-gap uniforms (one per draw attempt, so
resampled gaps advance the counter), 1 carries the Gaussian pair of each
grid interval (interval ``i`` uses counter index ``i``).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = ["philox4x32", "uniform_pair", "normal_pair", "GAP_STREAM",
           "NORMAL_STREAM"]

GAP_STREAM = 0
NORMAL_STREAM = 1

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_HALF = 0.5
_INV53 = 2.0 ** -53


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Ten Philox4x32 rounds; inputs are 32-bit values in uint64 arrays."""
    c0 = np.asarray(c0, dtype=np.uint64)
    c1 = np.asarray(c1, dtype=np.uint64)
    c2 = np.asarray(c2, dtype=np.uint64)
    c3 = np.asarray(c3, dtype=np.uint64)
    k0 = np.asarray(k0, dtype=np.uint64)
    k1 = np.asarray(k1, dtype=np.uint64)
    for rnd in range(10):
        if rnd:
            k0 = (k0 + _W0) & _MASK
            k1 = (k1 + _W1) & _MASK
        p0 = _M0 * c0
        p1 = _M1 * c2
        c0, c1, c2, c3 = (p1 >> _SH32) ^ c1 ^ k0, p1 & _MASK, \
                         (p0 >> _SH32) ^ c3 ^ k1, p0 & _MASK
    return c0, c1, c2, c3


def _counter_words(seed: int, path, stream: int, index):
    path = np.asarray(path, dtype=np.uint64)
    index = np.asarray(index, dtype=np.uint64)
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    k0 = np.uint64(seed & 0xFFFFFFFF)
    k1 = np.uint64(seed >> 32)
    c0 = path & _MASK
    c1 = path >> _SH32
    c2 = np.uint64(stream) + 0 * index
    c3 = index & _MASK
    return c0, c1, c2, c3, k0, k1


def uniform_pair(seed: int, path, stream: int, index):
    """Two uniforms in the open interval (0, 1) for the given address.

    Parameters
    ----------
    seed : int
        Run seed (used as the Philox key).
    path : int or ndarray
        Path index.
    stream : int
        Substream id (see module docstring).
    index : int or ndarray
        Draw counter within the substream.

    Returns
    -------
    (u1, u2) : numpy floats or ndarrays
    """
    o0, o1, o2, o3 = philox4x32(*_counter_words(seed, path, stream, index))
    x = (o0 << _SH32) | o1
    y = (o2 << _SH32) | o3
    u1 = ((x >> _SH11).astype(np.float64) + _HALF) * _INV53
    u2 = ((y >> _SH11).astype(np.float64) + _HALF) * _INV53
    return u1, u2


def normal_pair(seed: int, path, interval):
    """The two standard normals driving one grid interval of one path."""
    u1, u2 = uniform_pair(seed, path, NORMAL_STREAM, interval)
    return ndtri(u1), ndtri(u2)
