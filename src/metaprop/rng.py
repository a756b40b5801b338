"""Deterministic 64-bit PRNG with index-addressed substreams.

The generator is xoshiro256** (Blackman & Vigna 2021) seeded through
splitmix64, so every stream is set by the run seed plus an integer
index path such as (replicate, study, trial).  Stream state is
held in numpy uint64 arrays and updated in place, which lets many
parallel streams advance in lockstep (one lane per stream) without
Python-level loops.

:func:`binomial` takes arrays of keys, sizes and probabilities and
returns one count per key.  Each draw reads its own fixed set of lane
substreams, so it is the same whichever other draws share the call.
The draws are the rows of a draw x lane grid of streams.  A lane
steps only between two reads, never after its last, so it computes its
state words s2 and s3 only if it reads more than once.  A hit is an
integer comparison of the lane's raw 64-bit output with
(ceil(p * 2**53) << 11) - 1, which needs no float uniform.  Rows go in blocks of at most _BLOCK_LANES lanes, a size set
by measurement that bounds memory and changes no stream.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix64(z, out=None, t=None):
    """The splitmix64 finalizer of ``z``, a uint64 array or numpy scalar.

    The result goes to ``out`` when it is given, which may be ``z``
    itself, with ``t``, an array of its shape, as the scratch of the
    shifts; else it is new and ``z`` is left as it was.
    """
    with np.errstate(over="ignore"):
        z = np.add(z, _GOLDEN, out=out)
        z ^= np.right_shift(z, _U64(30), out=t)
        z *= _MIX1
        z ^= np.right_shift(z, _U64(27), out=t)
        z *= _MIX2
        z ^= np.right_shift(z, _U64(31), out=t)
    return z


def stream_key(seed: int, *path) -> np.ndarray:
    """Derive a substream key from a seed and an index path.

    Accepts scalar indices or equal-length integer arrays (for building
    one key per lane in a single call).  A path of scalars gives a numpy
    uint64 scalar, one with arrays an array.
    """
    return extend_key(_mix64(np.asarray(seed, dtype=np.int64).astype(_U64)), *path)


def extend_key(key, *path):
    """The key of ``path`` under ``key``, so that ``stream_key(seed, *a, *b)``
    equals ``extend_key(stream_key(seed, *a), *b)``; a negative index wraps,
    as in two's complement."""
    for idx in path:
        with np.errstate(over="ignore"):
            idx_u = (np.asarray(idx, dtype=np.int64).astype(_U64) + _U64(1)) * _GOLDEN
        key = _mix64(key ^ _mix64(idx_u))
    return key


class Streams:
    """A bank of independent xoshiro256** streams advancing in lockstep.

    ``keys`` is a uint64 array of stream keys, of any shape, from
    :func:`stream_key`; each key expands into a distinct 256-bit state
    via splitmix64, and every draw has the keys' shape.  The state words
    are s0 = _mix64(key) and s1, s2, s3, each _mix64 of the one before.
    s2 and s3 of a stream are made when it first advances, so a stream
    read once computes neither.  The state is never all zero, as xoshiro
    requires: s1 = _mix64(s0) and _mix64(0) is not 0, so s0 and s1 are
    never both 0.

    A draw is :meth:`output`, the value of the current state, followed
    by :meth:`advance`; both can act on the leading rows of the bank's
    first axis alone.
    """

    def __init__(self, keys: np.ndarray):
        keys = np.atleast_1d(np.asarray(keys, dtype=_U64))
        s = np.empty((4,) + keys.shape, dtype=_U64)
        s[0] = keys
        self._seed(s)

    @classmethod
    def grid(cls, keys: np.ndarray, salts: np.ndarray) -> Streams:
        """The streams keyed _mix64(key ^ salt): one row per key, one column per salt."""
        s = np.empty((4, keys.size, salts.size), dtype=_U64)
        np.bitwise_xor(keys[:, None], salts, out=s[0])
        _mix64(s[0], s[0], s[1])                         # s1 is free until seeded
        bank = object.__new__(cls)
        bank._seed(s)
        return bank

    def _seed(self, s: np.ndarray):
        """Take ``s``, whose s0 holds the keys, as the state, and make s0 and s1."""
        self._s, self._t = s, np.empty(s.shape[1:], dtype=_U64)   # _t: the one scratch array
        _mix64(s[0], s[0], self._t)
        _mix64(s[0], s[1], self._t)
        self._s2 = 0                                     # leading rows with s2, s3 made

    def output(self, rows: int | None = None) -> np.ndarray:
        """The xoshiro256** output of the current state of the leading ``rows``
        streams (all by default), as a new array; the state does not move."""
        t = self._t[:rows]
        x = self._s[1, :rows] * _U64(5)                  # arrays wrap without a warning
        np.right_shift(x, _U64(57), out=t)
        x <<= _U64(7)
        x |= t
        x *= _U64(9)
        return x

    def advance(self, rows: int | None = None):
        """One xoshiro256** step of the leading ``rows`` streams (all by default)."""
        s, t = self._s, self._t[:rows]
        rows = len(t)
        if self._s2 < rows:                              # rows stepping for the first time
            new = slice(self._s2, rows)
            _mix64(s[1, new], s[2, new], t[new])
            _mix64(s[2, new], s[3, new], t[new])
            self._s2 = rows
        s0, s1, s2, s3 = s[:, :rows]                     # views: updated in place
        np.left_shift(s1, _U64(17), out=t)
        s3 ^= s1
        s2 ^= s0
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.right_shift(s3, _U64(19), out=t)
        s3 <<= _U64(45)
        s3 |= t

    def next_u64(self) -> np.ndarray:
        """One uint64 per stream: the output, then a step of every stream."""
        x = self.output()
        self.advance()
        return x

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
_BLOCK_LANES = 32768    # lanes advanced together: bounds memory, not a stream
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
    row's last round only its first n_i - r * _LANES.  Rows are sorted by
    n, largest first, so the rows still drawing are always the leading
    ones.  A round computes the output of those rows, which reads s1
    alone; then only the rows that read again advance, so a row that
    reads once computes s0 and s1 only.  A hit is
    ``x <= (ceil(p_i * 2**53) << 11) - 1`` on the raw 64-bit output x, the
    same test as ``uniform() < p_i`` since both sides scale by 2**53
    exactly; for 0 < p_i < 1 the threshold lies in
    [2**11 - 1, 2**64 - 2**11 - 1], so it neither wraps nor overflows.
    Draws with p_i = 0 take no lanes and count 0, those with p_i = 1 take
    none and count n_i.  Hits add up per lane and are summed once per
    block.  The rows go in blocks of at most _BLOCK_LANES lanes, which
    bounds memory and changes no stream.
    """
    keys, n, p = np.broadcast_arrays(np.asarray(keys, dtype=_U64),
                                     np.asarray(n, dtype=np.int64),
                                     np.asarray(p, dtype=np.float64))
    if np.any(n < 0):
        raise ValueError("n must be nonnegative")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    shape = n.shape
    keys, n, p = keys.ravel(), n.ravel(), p.ravel()
    counts = np.where(p == 1.0, n, 0)                    # p = 0 or 1, or n = 0: no lanes
    drawn = np.flatnonzero((n > 0) & (p > 0.0) & (p < 1.0))
    drawn = drawn[np.argsort(-n[drawn], kind="stable")]
    keys, n = keys[drawn], n[drawn]
    limit = (np.ceil(p[drawn] * 2.0 ** 53).astype(_U64) << _U64(11)) - _U64(1)
    a = 0
    while a < n.size:
        b = min(n.size, a + _BLOCK_LANES // min(int(n[a]), _LANES))
        counts[drawn[a:b]] = _grid_counts(keys[a:b], n[a:b], limit[a:b])
        a = b
    return counts.reshape(shape)


def _grid_counts(keys, n, limit) -> np.ndarray:
    """Hits of draws sorted by n, largest first, on a grid of one row per draw."""
    width = min(int(n[0]), _LANES)
    bank = Streams.grid(keys, _LANE_SALT[:width])
    rounds = -(-n // _LANES)
    last = (n - (rounds - 1) * _LANES).astype(np.int16)   # lanes read in a row's last round
    lane = np.arange(width, dtype=np.int16)
    limit = np.repeat(limit, width).reshape(n.size, width)   # compares faster than broadcast
    hit = np.empty(limit.shape, dtype=bool)
    hits = np.zeros(limit.shape, dtype=np.min_scalar_type(int(rounds[0])))   # per lane
    alive = (n.size - np.cumsum(np.bincount(rounds))).tolist()   # [r]: rows of > r rounds
    for r in range(int(rounds[0])):
        live, ending = alive[r], alive[r + 1]            # rows drawing now, and again after
        np.less_equal(bank.output(live), limit[:live], out=hit[:live])
        hit[ending:live] &= lane < last[ending:live, None]
        hits[:live] += hit[:live].view(np.uint8)
        bank.advance(ending)
    return hits.sum(axis=1, dtype=np.int64)
