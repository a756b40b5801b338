"""Deterministic 64-bit PRNG with index-addressed substreams.

The generator is xoshiro256** (Blackman & Vigna 2021) seeded through
splitmix64, so every stream is fully specified by the run seed plus an
integer index path such as (replicate, study, trial).  Stream state is
held in numpy uint64 arrays and updated in place, which lets many
parallel streams advance in lockstep (one lane per stream) without
Python-level loops.

:func:`binomial` takes arrays of keys, sizes and probabilities and
returns one count per key.  Each draw reads its own fixed set of lane
substreams, so it is the same whichever other draws share the call.
The draws are the rows of a draw x lane grid of streams, and a hit is
an integer comparison of the top 53 bits of a lane's output with the
threshold ceil(p * 2**53), which needs no float uniform.  Rows advance together
in blocks of at most _BLOCK_LANES lanes, a size set by measurement that
bounds memory and changes no stream.
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

    ``keys`` is a uint64 array of stream keys, of any shape, from
    :func:`stream_key`; each key expands into a distinct 256-bit state
    via splitmix64, and every draw has the keys' shape.  The state is
    never all zero, as xoshiro requires: s1 = _mix64(s0) and _mix64(0)
    is not 0, so s0 and s1 are never both 0.
    """

    def __init__(self, keys: np.ndarray):
        keys = np.atleast_1d(np.asarray(keys, dtype=_U64))
        s = np.empty((4,) + keys.shape, dtype=_U64)
        s[0] = keys
        _mix64(s[0])
        for i in range(1, 4):
            s[i] = s[i - 1]
            _mix64(s[i])
        self._s = s

    def head(self, rows: int) -> Streams:
        """The streams of the first ``rows`` entries of the bank's first axis.

        The result shares this bank's state, so advancing it advances
        those streams here too.
        """
        view = object.__new__(Streams)
        view._s = self._s[:, :rows]
        return view

    def next_u64(self) -> np.ndarray:
        s0, s1, s2, s3 = self._s                         # views: updated in place
        with np.errstate(over="ignore"):
            result = s1 * _U64(5)
            t = result >> _U64(57)                       # the one scratch array
            result <<= _U64(7)
            result |= t
            result *= _U64(9)
        np.left_shift(s1, _U64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.right_shift(s3, _U64(19), out=t)
        s3 <<= _U64(45)
        s3 |= t
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


_LANES = 1024           # substreams per draw: part of every binomial stream
_BLOCK_LANES = 16384    # lanes advanced together: bounds memory, not a stream
with np.errstate(over="ignore"):
    _LANE_SALT = _mix64((np.arange(_LANES, dtype=_U64) + _U64(1)) * _GOLDEN)


def binomial(keys, n, p) -> np.ndarray:
    """Exact Binomial(n, p) draws, one per stream key.

    ``keys``, ``n`` and ``p`` broadcast together, and the result is an
    int64 array of their shape.  Draw i spreads its n_i trials over the
    min(n_i, _LANES) substreams (key_i, 0), (key_i, 1), ..., the first
    n_i mod lanes of them taking one trial more, and counts the uniforms
    below p_i that each lane reads.  So a draw depends only on its own
    key, n and p.

    Each draw is one row of a grid of lanes.  Round r reads one number
    from every lane of the rows still drawing: all _LANES lanes, or in a
    row's last round only its first n_i - r * _LANES.  A hit is
    ``(x >> 11) < ceil(p_i * 2**53)`` on the raw 64-bit output x, which
    is the same test as ``uniform() < p_i`` since both sides scale by
    2**53 exactly.  Rows are sorted by n, so the rows still drawing are
    always the leading ones and only they advance.  The rows go in
    blocks of at most _BLOCK_LANES lanes, which bounds memory and
    changes no stream.
    """
    keys, n, p = np.broadcast_arrays(np.asarray(keys, dtype=_U64),
                                     np.asarray(n, dtype=np.int64),
                                     np.asarray(p, dtype=np.float64))
    if np.any(n < 0):
        raise ValueError("n must be nonnegative")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    counts, shape = np.zeros(n.size, dtype=np.int64), n.shape
    order = np.argsort(-n.ravel(), kind="stable")
    drawn = order[:np.count_nonzero(n)]                  # n = 0 takes no lanes and counts 0
    keys, n = keys.ravel()[drawn], n.ravel()[drawn]
    below = np.ceil(p.ravel()[drawn] * 2.0 ** 53).astype(_U64)
    a = 0
    while a < n.size:
        b = min(n.size, a + _BLOCK_LANES // min(int(n[a]), _LANES))
        counts[drawn[a:b]] = _grid_counts(keys[a:b], n[a:b], below[a:b])
        a = b
    return counts.reshape(shape)


def _grid_counts(keys, n, below) -> np.ndarray:
    """Hits of draws sorted by n, largest first, on a grid of one row per draw."""
    width = min(int(n[0]), _LANES)
    bank = Streams(_mix64(keys[:, None] ^ _LANE_SALT[:width]))
    rounds = -(-n // _LANES)
    last = n - (rounds - 1) * _LANES                     # lanes read in a row's last round
    lane = np.arange(width)
    k = np.zeros(n.size, dtype=np.int64)
    for r in range(int(rounds[0])):
        live = int(np.count_nonzero(rounds > r))         # the leading rows, since n descends
        ending = int(np.count_nonzero(rounds > r + 1))   # rows from here on end this round
        bank = bank.head(live)
        hit = (bank.next_u64() >> _U64(11)) < below[:live, None]
        hit[ending:] &= lane < last[ending:live, None]
        k[:live] += np.count_nonzero(hit, axis=1)
    return k
