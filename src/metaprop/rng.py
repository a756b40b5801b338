"""Deterministic 64-bit PRNG with index-addressed substreams.

The generator is xoshiro256** (Blackman & Vigna 2021) seeded through
splitmix64, so every stream is fully specified by the run seed plus an
integer index path such as (replicate, study, trial).  Stream state is
held in numpy uint64 arrays and updated in place, which lets many
parallel streams advance in lockstep (one lane per stream) without
Python-level loops.

:func:`binomial` takes arrays of keys, sizes and probabilities and
returns one count per key.  Each draw reads its own fixed set of lane
substreams, so it is the same whichever other draws share the call; the
lanes of all draws advance together in blocks of whole draws of at most
_BLOCK_LANES lanes, which bounds memory and changes no stream.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, applied in place to a uint64 array and returned.

    Callers pass an array they own; a numpy scalar is mixed by value.
    """
    with np.errstate(over="ignore"):
        z += _GOLDEN
        z ^= z >> _U64(30)
        z *= _MIX1
        z ^= z >> _U64(27)
        z *= _MIX2
        z ^= z >> _U64(31)
    return z


def stream_key(seed: int, *path: int) -> np.ndarray:
    """Derive a substream key from a seed and an index path.

    Accepts scalar indices or equal-length integer arrays (for building
    one key per lane in a single call).
    """
    key = _mix64(np.asarray(seed, dtype=np.int64).astype(_U64))
    for idx in path:
        with np.errstate(over="ignore"):
            idx_u = (np.asarray(idx, dtype=np.int64).astype(_U64) + _U64(1)) * _GOLDEN
        key = _mix64(key ^ _mix64(idx_u))
    return key


class Streams:
    """A bank of independent xoshiro256** streams advancing in lockstep.

    ``keys`` is the uint64 array of stream keys from :func:`stream_key`;
    each key expands into a distinct 256-bit state via splitmix64.
    """

    def __init__(self, keys: np.ndarray):
        keys = np.atleast_1d(np.asarray(keys, dtype=_U64))
        s = np.empty((4,) + keys.shape, dtype=_U64)
        s[0] = keys
        _mix64(s[0])
        for i in range(1, 4):
            s[i] = s[i - 1]
            _mix64(s[i])
        # Guard the all-zero state (xoshiro requirement); astronomically
        # unlikely but cheap to rule out.
        dead = ~np.any(s != 0, axis=0)
        if np.any(dead):
            s[0][dead] = _GOLDEN
        self._s = s

    @property
    def n(self) -> int:
        return self._s.shape[1]

    def next_u64(self) -> np.ndarray:
        s0, s1, s2, s3 = self._s                         # views: updated in place
        with np.errstate(over="ignore"):
            result = s1 * _U64(5)
            np.bitwise_or(result << _U64(7), result >> _U64(57), out=result)
            result *= _U64(9)
        t = s1 << _U64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.bitwise_or(s3 << _U64(45), s3 >> _U64(19), out=s3)
        return result

    def uniform(self) -> np.ndarray:
        """One double in [0, 1) per stream (53-bit resolution)."""
        return (self.next_u64() >> _U64(11)).astype(np.float64) * (2.0 ** -53)

    def uniform_open(self) -> np.ndarray:
        """One double in (0, 1] per stream; safe as a log() argument."""
        return ((self.next_u64() >> _U64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)

    def normal(self) -> np.ndarray:
        """One standard normal per stream via the Box-Muller transform."""
        u1 = self.uniform_open()
        u2 = self.uniform()
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def integers(self, low: int, high: int) -> np.ndarray:
        """One integer per stream, uniform over [low, high] inclusive.

        Uses the 53-bit uniform; span must be far below 2**53, which is
        always true for test-set sizes.
        """
        span = high - low + 1
        if span <= 0:
            raise ValueError("integers() requires low <= high")
        return low + np.minimum((self.uniform() * span).astype(np.int64), span - 1)


_LANES = 1024          # substreams per draw: part of every binomial stream
_BLOCK_LANES = 4096    # lanes advanced together: bounds memory, not a stream
with np.errstate(over="ignore"):
    _LANE_SALT = _mix64((np.arange(_LANES, dtype=_U64) + _U64(1)) * _GOLDEN)


def binomial(keys, n, p) -> np.ndarray:
    """Exact Binomial(n, p) draws, one per stream key.

    ``keys``, ``n`` and ``p`` broadcast together, and the result is an
    int64 array of their shape.  Draw i spreads its n_i trials over the
    min(n_i, _LANES) substreams (key_i, 0), (key_i, 1), ..., the first
    n_i mod lanes of them taking one trial more, and counts the uniforms
    below p_i that each lane reads.  So a draw depends only on its own
    key, n and p.  The lanes of all draws advance in lockstep, in blocks
    of whole draws of at most _BLOCK_LANES lanes.
    """
    keys, n, p = np.broadcast_arrays(np.asarray(keys, dtype=_U64),
                                     np.asarray(n, dtype=np.int64),
                                     np.asarray(p, dtype=np.float64))
    if np.any(n < 0):
        raise ValueError("n must be nonnegative")
    counts = np.zeros(n.size, dtype=np.int64)
    shape, drawn = n.shape, np.flatnonzero(n)            # n = 0 takes no lanes and counts 0
    # blocks of draws with alike round counts waste few uniforms on lanes already done
    drawn = drawn[np.argsort(-(-n.ravel()[drawn] // _LANES), kind="stable")]
    keys, n, p = keys.ravel()[drawn], n.ravel()[drawn], p.ravel()[drawn]
    lanes = np.minimum(n, _LANES)
    ends = np.cumsum(lanes)
    k = np.empty(drawn.size, dtype=np.int64)
    a = 0
    while a < drawn.size:
        base = ends[a] - lanes[a]
        b = int(np.searchsorted(ends, base + _BLOCK_LANES, side="right"))
        width = lanes[a:b]
        starts = ends[a:b] - width - base                 # each draw's first lane in the block
        draw = np.repeat(np.arange(b - a), width)
        lane = np.arange(draw.size) - starts[draw]
        bank = Streams(_mix64(keys[a:b][draw] ^ _LANE_SALT[lane]))
        quota, extra = np.divmod(n[a:b], width)
        quota = quota[draw] + (lane < extra[draw])
        below = p[a:b][draw]
        hits = np.zeros(draw.size, dtype=np.int64)
        for r in range(int(quota.max())):
            hits += (bank.uniform() < below) & (quota > r)
        k[a:b] = np.add.reduceat(hits, starts)
        a = b
    counts[drawn] = k
    return counts.reshape(shape)
