"""Counter-based random streams for the trajectory sampler.

Draw ``j`` of stream ``i`` is a pure function of ``(master_seed, i, j)``:
the SplitMix64 finalizer applied to golden-ratio-strided counters, with a
hashed per-stream starting point so distinct trajectories use effectively
disjoint slices of the sequence. No state is shared, so results do not
depend on execution order or thread count.

``mix64``, ``stream_key`` and ``uniform`` serve both Python ints and uint64
NumPy arrays: array arithmetic wraps modulo 2**64 exactly where the int
path masks, and the int constants convert to uint64. The batched sampler
draws a whole chunk of trajectories in one call through the array form.
Both forms are bit-identical; the test suite checks this.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED_SALT = 0x5851F42D4C957F2D
_INV_2_53 = 2.0**-53


def mix64(z):
    z = z & _M64
    z ^= z >> 30
    z = (z * _MIX1) & _M64
    z ^= z >> 27
    z = (z * _MIX2) & _M64
    return z ^ (z >> 31)


def stream_key(master_seed: int, traj):
    base = mix64((master_seed & _M64) ^ _SEED_SALT)
    return mix64((base + ((traj + 1) * _GOLDEN)) & _M64)


def uniform(key, draw):
    """Draw number ``draw`` of the stream ``key``, uniform strictly inside (0, 1)."""
    word = mix64((key + ((draw + 1) * _GOLDEN)) & _M64)
    return ((word >> 11) + 0.5) * _INV_2_53

