"""Counter-based random streams keyed by (seed, path index).

Every random quantity in the simulation is addressed, not drawn: the
uniform feeding gap ``j`` of path ``p`` under seed ``s`` is a pure function
``philox(key=s, counter=(p, stream, j))``.  This makes path simulation
embarrassingly parallel and bit-reproducible regardless of chunking or
thread count, which the estimator determinism guarantees rely on.

The generator is Philox4x32-10 (counter words ``(path_lo, path_hi, stream,
index)``, key words from the 64-bit seed).  One invocation yields 128 bits,
combined into two doubles with 53-bit mantissas.  Known-answer vectors are
pinned in the test suite.  The state is kept packed as two ``(2, n)`` arrays,
words ``(0, 2)`` and ``(1, 3)``, so that a round is five in-place array
passes.

Streams: 0 carries the renewal-gap uniforms (one per draw attempt, so
resampled gaps advance the counter), 1 carries the Gaussian pair of each
grid interval (interval ``i`` uses counter index ``i``).  The normals are
:func:`uvol.normal.ndtri` of those uniforms, a numpy port of Cephes' inverse
normal CDF within a few ulp of it (see :mod:`uvol.normal`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .normal import ndtri

__all__ = ["philox4x32", "uniform_pair", "normal_pair", "GAP_STREAM",
           "NORMAL_STREAM"]

GAP_STREAM = 0
NORMAL_STREAM = 1

# Multipliers of the words (0, 2), one row each of the packed state
_M = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_W = (0x9E3779B9, 0xBB67AE85)
_MASK = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_HALF = 0.5
_INV53 = 2.0 ** -53


@lru_cache(maxsize=8)
def _round_keys(seed: int) -> np.ndarray:
    """The ten rounds' key words ``(10, 2, 1)`` of a 64-bit seed: its low
    and high 32-bit words, plus ``r`` Weyl increments in round ``r``, modulo
    2**32."""
    seed &= 0xFFFFFFFFFFFFFFFF
    keys = np.array([[[(k + r * w) & 0xFFFFFFFF]
                      for k, w in zip((seed & 0xFFFFFFFF, seed >> 32), _W)]
                     for r in range(10)], dtype=np.uint64)
    keys.flags.writeable = False  # shared by every call with this seed
    return keys


def _rounds(a, b, keys):
    """Ten Philox4x32 rounds on the packed state ``a = (c0, c2)``,
    ``b = (c1, c3)``, two ``(2, ...)`` uint64 arrays of 32-bit values, which
    are overwritten; returns the output words packed the same way.

    A round multiplies ``(c0, c2)`` into ``(p0, p2)`` and sets
    ``(c0, c2) = (hi(p2) ^ c1 ^ k0, hi(p0) ^ c3 ^ k1)`` and
    ``(c1, c3) = (lo(p2), lo(p0))``: each row of the output reads the other
    row of the products, so one array pass serves both pairs of words."""
    t = np.empty_like(a)
    for key in keys:
        np.multiply(a, _M, out=a)
        b ^= key
        np.right_shift(a, _SH32, out=t)
        np.bitwise_xor(t[::-1], b, out=b)
        np.bitwise_and(a[::-1], _MASK, out=t)
        a, b, t = b, t, a
    return a, b


def _counters(path, stream: int, index):
    """The packed counter ``((path_lo, stream), (path_hi, index))``, with
    the addresses flattened: two ``(2, n)`` arrays, and their shape."""
    path, index = np.broadcast_arrays(np.asarray(path, dtype=np.uint64),
                                      np.asarray(index, dtype=np.uint64))
    a = np.empty((2, path.size), dtype=np.uint64)
    b = np.empty_like(a)
    np.bitwise_and(path.reshape(-1), _MASK, out=a[0])
    a[1] = stream
    np.right_shift(path.reshape(-1), _SH32, out=b[0])
    np.bitwise_and(index.reshape(-1), _MASK, out=b[1])
    return a, b, path.shape


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Ten Philox4x32 rounds.  The counter words ``c0..c3`` are 32-bit
    values (integers or arrays, broadcast together) and the key words
    ``k0, k1`` 32-bit integers; returns the four output words as uint64
    arrays (numpy integers for scalar counters)."""
    c = np.broadcast_arrays(*(np.asarray(w, dtype=np.uint64) for w in (c0, c1, c2, c3)))
    shape = (2,) + c[0].shape
    a = np.array((c[0], c[2])).reshape(2, -1)
    b = np.array((c[1], c[3])).reshape(2, -1)
    a, b = _rounds(a, b, _round_keys(int(k0) | int(k1) << 32))
    a, b = a.reshape(shape), b.reshape(shape)
    return a[0], b[0], a[1], b[1]


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
        The two rows of one ``(2, ...)`` array.  Each takes the 53 high bits
        of one 64-bit output word, ``(o0 << 32) | o1`` and
        ``(o2 << 32) | o3``, plus one half, times ``2**-53``.
    """
    a, b, shape = _counters(path, stream, index)
    a, b = _rounds(a, b, _round_keys(int(seed)))
    a <<= _SH32
    a |= b
    a >>= _SH11
    u = a.astype(np.float64)
    u += _HALF
    u *= _INV53
    u = u.reshape((2,) + shape)
    return u[0], u[1]


def normal_pair(seed: int, path, interval):
    """The two standard normals driving one grid interval of one path.

    They are :func:`uvol.normal.ndtri` of the two uniforms of the address
    ``(seed, path, NORMAL_STREAM, interval)``, inverted in one call.
    """
    z = ndtri(uniform_pair(seed, path, NORMAL_STREAM, interval))
    return z[0], z[1]
