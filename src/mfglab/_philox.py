"""The uniform stream of numpy's ``Generator(Philox(key=seed)).random``, computed with numpy core alone.

Philox-4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy
as 1, 2, 3", SC'11) encrypts the counter 1, 2, 3, ... in lane 0 of its four
64-bit words under a 128-bit key: ten rounds of two 64x64 -> 128-bit products,
xor-mixed with the key, which a Weyl sequence bumps between rounds. Each block
gives four words in lane order, and a word w maps to the double
``(w >> 11) * 2**-53``, as in numpy's ``random_standard_uniform``.

Every operand is a uint64 array: an array operation wraps silently where a
numpy scalar warns on overflow, and before NumPy 2 a Python int next to a
uint64 scalar promotes to float64.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MULTIPLIERS = np.array(((0xD2E7470EE14C6C93,), (0xCA5A826395121157,)), dtype=_U64)  # lanes 0 and 2
_WEYL = np.array(((0x9E3779B97F4A7C15,), (0xBB67AE8584CAA73B,)), dtype=_U64)  # key increments between rounds
_LOW32 = np.array(0xFFFFFFFF, dtype=_U64)
_32 = np.array(32, dtype=_U64)
_11 = np.array(11, dtype=_U64)
_M_LO, _M_HI = _MULTIPLIERS & _LOW32, _MULTIPLIERS >> _32
_BUMPS = _WEYL * np.arange(10, dtype=_U64)[:, None, None]  # key offset of each of the ten rounds


def philox_uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` doubles of ``Generator(Philox(key=seed)).random``, bit for bit; ``0 <= seed < 2**128``.

    numpy keeps the unused words of a block for the next call, so one draw of
    ``n + m`` equals a draw of ``n`` followed by a draw of ``m``.
    """
    blocks = -(-count // 4)
    keys = np.array(((seed & 0xFFFFFFFFFFFFFFFF,), (seed >> 64,)), dtype=_U64) + _BUMPS
    # words (0, 2) and (1, 3) of every block as two (2, blocks) arrays
    even = np.zeros((2, blocks), dtype=_U64)
    even[0] = np.arange(1, blocks + 1, dtype=_U64)
    odd = np.zeros((2, blocks), dtype=_U64)
    for key in keys:
        # high words of the 128-bit products of lanes 0 and 2 from 32-bit halves (Hacker's Delight, mulhu)
        lo, hi = even & _LOW32, even >> _32
        low_cross = _M_HI * lo + ((_M_LO * lo) >> _32)
        high_cross = _M_LO * hi + (low_cross & _LOW32)
        high = _M_HI * hi + (low_cross >> _32) + (high_cross >> _32)
        even, odd = high[::-1] ^ odd ^ key, _MULTIPLIERS[::-1] * even[::-1]
    words = np.stack((even, odd), axis=-1).transpose(1, 0, 2).reshape(-1)[:count]  # block by block, lane order
    return (words >> _11) * 2.0**-53
