"""numpy's keyed random streams, computed over arrays of keys at once.

Every per-entry stream in the lab is a key, a tuple of non-negative
integers, handed to ``np.random.SeedSequence`` or ``np.random.default_rng``.
This module computes the same numbers for many keys at once, in uint32 and
uint64 array arithmetic:

* :func:`derived_seeds` is ``SeedSequence(key).generate_state(1)[0]``;
* :func:`uniforms` is ``[rng.uniform(lo, hi) for lo, hi in bounds]`` with
  ``rng = default_rng(key)``, that is a PCG64 stream.

It follows numpy's algorithms step by step: SeedSequence's hash-mix of the
key words into a pool of four and ``generate_state``; PCG64 seeded from
``generate_state(4, uint64)``, its 128-bit LCG step and XSL-RR output (O'Neill,
*PCG*, 2014); and ``uniform`` as ``lo + (hi - lo) * ((next64 >> 11) * 2**-53)``.
Keyed streams are independent of the order in which entries are drawn
(Salmon et al., *Parallel Random Numbers: As Easy as 1, 2, 3*, SC 2011),
which is what lets every entry be drawn in the same array step. numpy's own
``SeedSequence`` and ``default_rng`` are the test oracle.

A key part is an int or a 1-D integer array; the arrays share one length n,
and the scalars are the same for every entry. numpy turns each part into
uint32 words, one below 2**32 and two below 2**64, and the word count
matters. So a scalar part takes its exact count, and an array part takes one
word per entry, its values below 2**32. A key made of one array part takes
two words (low, high), its values below 2**64: a zero high word at the end of
a key of at most four words is what numpy's pool pads with. Any value that
is negative or beyond its limit raises a ``ValueError`` that names it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

#: Keys are made of values below this.
KEY_LIMIT = 2**64

_M32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit multiplier as (high, low) 64-bit words.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_U64 = np.uint64


def _hashes(init: int, mult: int):
    """The hash constants SeedSequence applies, in order: each one ``init * mult**k``."""
    const = init
    while True:
        yield const, (const * mult) & _M32
        const = (const * mult) & _M32


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor_const, mul_const = next(consts)
    value = (value ^ np.uint32(xor_const)) * np.uint32(mul_const)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _array_part(values, bits: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and not isinstance(values, np.ndarray):
        # A list mixing ints below and above 2**63 converts to float64;
        # read it as Python ints instead.
        arr = np.frompyfunc(operator.index, 1, 1)(np.array(values, dtype=object))
    elif arr.dtype.kind not in "iu":
        raise TypeError(f"key arrays must hold integers, got dtype {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError(f"key arrays must be 1-D, got shape {arr.shape}")
    if len(arr):
        lo, hi = arr.min(), arr.max()
        if lo < 0:
            raise ValueError(f"key value {lo} is negative")
        if hi > (1 << bits) - 1:
            raise ValueError(f"key value {hi} is not below 2**{bits}")
    return arr.astype(np.uint64)


def _scalar_words(value) -> list[int]:
    value = operator.index(value)
    if not 0 <= value < KEY_LIMIT:
        raise ValueError(f"key value {value} outside 0..2**64 - 1")
    return [value & _M32] if value <= _M32 else [value & _M32, value >> 32]


def _key_words(key: tuple) -> tuple[list, int]:
    """The key's uint32 words in numpy's order (ints or (n,) arrays), and n."""
    arrays = [np.ndim(part) > 0 for part in key]
    single = len(key) == 1 and arrays[0]
    words: list = []
    n = None
    for part, is_array in zip(key, arrays):
        if not is_array:
            words += _scalar_words(part)
            continue
        arr = _array_part(part, 64 if single else 32)
        if n is not None and len(arr) != n:
            raise ValueError(f"key arrays differ in length: {n} and {len(arr)}")
        n = len(arr)
        words.append((arr & _U64(_M32)).astype(np.uint32))
        if single:
            words.append((arr >> _U64(32)).astype(np.uint32))
    return words, 1 if n is None else n


def _generate_state(key: tuple, n_words: int) -> tuple[list[np.ndarray], int]:
    """``SeedSequence(key).generate_state(n_words)`` per entry: n_words (n,) uint32 arrays."""
    words, n = _key_words(key)
    words = [np.full(n, w, dtype=np.uint32) if isinstance(w, int) else w for w in words]
    zero = np.zeros(n, dtype=np.uint32)
    consts = _hashes(_INIT_A, _MULT_A)
    pool = [_hashmix(words[i] if i < len(words) else zero, consts) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hashes(_INIT_B, _MULT_B)
    return [_hashmix(pool[i % _POOL_SIZE], consts) for i in range(n_words)], n


def derived_seeds(key: tuple) -> np.ndarray:
    """``SeedSequence(key).generate_state(1)[0]`` for every entry, as int64."""
    (state,), _ = _generate_state(key, 1)
    return state.astype(np.int64)


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b``, from 32-bit limbs."""
    a0, a1 = a & _U64(_M32), a >> _U64(32)
    b0, b1 = _U64(b & _M32), _U64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U64(32)) + (p01 & _U64(_M32)) + (p10 & _U64(_M32))
    return a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step: state * multiplier + increment, modulo 2**128."""
    mul_hi = hi * _U64(_PCG_MULT_LO) + lo * _U64(_PCG_MULT_HI) + _mulhi(lo, _PCG_MULT_LO)
    return _add128(mul_hi, lo * _U64(_PCG_MULT_LO), inc_hi, inc_lo)


def uniforms(key: tuple, bounds: Sequence[tuple[float, float]]) -> np.ndarray:
    """``default_rng(key).uniform(lo, hi)`` for each bound in order, for every entry.

    Returns an ``(n, len(bounds))`` float64 array; row i is entry i's stream.
    """
    words, n = _generate_state(key, 8)
    w = [
        lo.astype(np.uint64) | (hi.astype(np.uint64) << _U64(32))
        for lo, hi in zip(words[::2], words[1::2])
    ]
    # PCG64 seeding: state (w0, w1), increment (w2, w3) << 1 | 1; one step,
    # add the state, one step.
    inc_hi = (w[2] << _U64(1)) | (w[3] >> _U64(63))
    inc_lo = (w[3] << _U64(1)) | _U64(1)
    hi, lo = _add128(inc_hi, inc_lo, w[0], w[1])
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    out = np.empty((n, len(bounds)))
    for col, (low, high) in enumerate(bounds):
        scale = float(high) - float(low)
        if not 0.0 <= scale < math.inf:
            raise ValueError(
                f"uniform bounds ({low}, {high}): high - low must be finite and >= 0"
            )
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: the two halves xor-ed, rotated right by the top 6 bits.
        x, rot = hi ^ lo, hi >> _U64(58)
        next64 = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        out[:, col] = float(low) + scale * ((next64 >> _U64(11)) * (1.0 / 9007199254740992.0))
    return out
