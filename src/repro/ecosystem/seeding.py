"""Batched, bit-exact reproduction of ``default_rng(SeedSequence(e)).random()``.

Every detection engine draws its per-URL verdict from
``np.random.default_rng(np.random.SeedSequence([engine_seed, url_hash]))``.
Building one ``Generator`` costs ~30 µs (SeedSequence mixing, then PCG64
seeding); a fleet of 76 engines does it 76 times per URL. This module runs
the same arithmetic for many *lanes* (one lane = one entropy list) at once
in numpy:

1. **SeedSequence mixing** — the 32-bit ``hashmix``/``mix`` pool
   construction over a 4-word pool, including the case where the entropy is
   longer than the pool, and ``generate_state(4, uint64)``.
2. **PCG64 seeding** — ``pcg_setseq_128_srandom_r`` with 128-bit integers
   held as four 32-bit limbs in ``uint64`` arrays.
3. **First draw** — one PCG64 step, the XSL-RR output function and
   ``next_double`` (top 53 bits times 2**-53).

Both algorithms are frozen by NumPy's stream-compatibility policy (NEP 19:
``SeedSequence`` and ``PCG64`` streams are stable across releases), and
the test suite pins this kernel against the installed numpy. The kernel
also returns each lane's PCG64 state after the draw, so a caller can resume
that lane's stream in a real ``Generator`` without re-seeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

MASK32 = 0xFFFFFFFF
_U32 = np.uint32

# SeedSequence constants (numpy/random/bit_generator.pyx).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16

#: PCG_DEFAULT_MULTIPLIER_128 (numpy/random/src/pcg64/pcg64.h).
PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341

#: 2**-53, the scale ``next_double`` applies to the top 53 output bits.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


def entropy_words(value: int) -> List[int]:
    """The 32-bit words SeedSequence assembles from one non-negative int.

    Little-endian, no high zero words; zero is the single word ``[0]``
    (``numpy.random.bit_generator._int_to_uint32_array``).
    """
    if value < 0:
        raise ValueError("entropy must be a non-negative integer")
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & MASK32)
        value >>= 32
    return words


def _const_chain(init: int, mult: int, n: int) -> np.ndarray:
    """``[init, init*mult, init*mult**2, ...]`` modulo 2**32, ``n`` long."""
    out = [init]
    for _ in range(n - 1):
        out.append((out[-1] * mult) & MASK32)
    return np.array(out, dtype=_U32)


# hashmix call k multiplies by the (k+1)-th chain constant after xoring the
# k-th. Pool fill and cross mix make 4 + 12 = 16 calls; each entropy word
# past the pool makes 4 more, so longer entropy builds a longer chain.
_HASH_A = _const_chain(INIT_A, MULT_A, 17)
_HASH_B = _const_chain(INIT_B, MULT_B, 2 * POOL_SIZE + 1)
_CROSS_DST = [[d for d in range(POOL_SIZE) if d != s] for s in range(POOL_SIZE)]


def _hashmix(value: np.ndarray, chain: np.ndarray, k: int, n: int) -> np.ndarray:
    """``hashmix`` calls ``k .. k+n-1`` applied along the last axis."""
    value = (value ^ chain[k:k + n]) * chain[k + 1:k + n + 1]
    return value ^ (value >> _U32(XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _U32(MIX_MULT_L) * x - _U32(MIX_MULT_R) * y
    return result ^ (result >> _U32(XSHIFT))


def _mix_pools(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """SeedSequence ``mix_entropy`` for each row: the (n, 4) uint32 pools."""
    n, width = entropy.shape
    head = np.zeros((n, POOL_SIZE), dtype=_U32)
    head[:, :min(width, POOL_SIZE)] = entropy[:, :POOL_SIZE]
    chain = _HASH_A if width <= POOL_SIZE else _const_chain(
        INIT_A, MULT_A, POOL_SIZE * width + 1)
    # Pool fill: entropy words, or hashmix(0) past the end of the entropy.
    # Rows are zero-padded, so both cases are the same expression.
    pool = _hashmix(head, chain, 0, POOL_SIZE)
    # Cross mix: source word i_src is not written by its own inner loop, so
    # its three destination updates are independent and run together.
    k = POOL_SIZE
    for i_src, dsts in enumerate(_CROSS_DST):
        hashed = _hashmix(pool[:, i_src:i_src + 1], chain, k, POOL_SIZE - 1)
        pool[:, dsts] = _mix(pool[:, dsts], hashed)
        k += POOL_SIZE - 1
    # Entropy past the pool is mixed into every pool word, row by row only
    # where that row's entropy is long enough.
    for i_src in range(POOL_SIZE, width):
        hashed = _hashmix(entropy[:, i_src:i_src + 1], chain, k, POOL_SIZE)
        live = (lengths > i_src)[:, None]
        pool = np.where(live, _mix(pool, hashed), pool)
        k += POOL_SIZE
    return pool


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, uint64)`` as 8 uint32 words per row."""
    data = np.tile(pool, 2) ^ _HASH_B[:-1]
    data = data * _HASH_B[1:]
    return data ^ (data >> _U32(XSHIFT))


# -- 128-bit arithmetic ---------------------------------------------------
#
# A 128-bit value is eight 16-bit limbs, least significant first. Limb
# products are below 2**32 and a result limb sums at most 16 of them, so a
# float64 matrix product computes every limb sum exactly (all partial sums
# are integers below 2**53, whatever order or FMA the BLAS uses).

_MOD = 1 << 128


def _toeplitz16(constant: int) -> np.ndarray:
    """(8, 8) matrix T with ``x16 @ T`` = limb sums of ``x * constant``."""
    limbs = [(constant >> (16 * i)) & 0xFFFF for i in range(8)]
    out = np.zeros((8, 8))
    for i in range(8):
        for k in range(i, 8):
            out[i, k] = limbs[k - i]
    return out


# srandom_r runs state = 0; step; state += initstate; step, and random()
# steps once more before its output. With step(s) = s*M + inc, the state
# the first draw outputs from is initstate*M**2 + inc*(M**2 + M + 1).
_SEED_MATRIX = np.vstack([
    _toeplitz16(PCG_MULTIPLIER ** 2 % _MOD),
    _toeplitz16((PCG_MULTIPLIER ** 2 + PCG_MULTIPLIER + 1) % _MOD),
])


def _first_draw_state(seed_limbs: np.ndarray) -> np.ndarray:
    """``initstate*M**2 + inc*(M**2 + M + 1)`` mod 2**128.

    ``seed_limbs`` is a C-contiguous (n, 8) ``<u4`` array: initstate's four
    32-bit limbs then inc's, least significant first. Returns the result's
    (n, 4) 32-bit limbs as uint64.
    """
    n = seed_limbs.shape[0]
    limbs16 = seed_limbs.view("<u2").astype(np.float64)
    columns = (limbs16 @ _SEED_MATRIX).astype(np.uint64)
    # Fold 16-bit limb sums into 32-bit limb sums (< 2**53), then carry.
    sums = columns[:, 0::2] + (columns[:, 1::2] << np.uint64(16))
    out = np.empty_like(sums)
    carry = np.zeros(n, dtype=np.uint64)
    for k in range(4):
        total = sums[:, k] + carry
        out[:, k] = total & MASK32
        carry = total >> np.uint64(32)
    return out


def _join(limbs: np.ndarray) -> List[int]:
    """Rows of limbs as Python ints."""
    return [
        a | (b << 32) | (c << 64) | (d << 96)
        for a, b, c, d in limbs.tolist()
    ]


@dataclass
class FirstDraws:
    """Per-lane first ``random()`` and the PCG64 state right after it."""

    uniforms: np.ndarray
    #: (n, 4) 32-bit limbs of the PCG64 state after the first draw,
    #: least significant first.
    state: np.ndarray
    #: (n, 4) 32-bit limbs of the PCG64 increment.
    inc: np.ndarray

    def resume_states(self, lanes: Sequence[int]) -> List[Dict[str, object]]:
        """``PCG64.state`` dicts continuing each of ``lanes`` after its draw.

        Assigning one to a ``PCG64``'s ``state`` makes that generator
        produce exactly what the lane's own ``default_rng`` would produce
        after its first ``random()``.
        """
        lanes = np.asarray(lanes, dtype=np.intp)
        return [
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            for state, inc in zip(_join(self.state[lanes]), _join(self.inc[lanes]))
        ]


def first_draws(entropy: np.ndarray, lengths: np.ndarray) -> FirstDraws:
    """First ``default_rng(SeedSequence(row)).random()`` of every row.

    ``entropy`` is an (n, L) uint32 matrix of assembled entropy words,
    zero-padded past each row's ``lengths`` entry (L >= 1).
    """
    entropy = np.asarray(entropy, dtype=_U32)
    lengths = np.asarray(lengths)
    w = _generate_state(_mix_pools(entropy, lengths))
    # PCG64 seeds from generate_state's uint64 pairs (low word first):
    # initstate = val[0] << 64 | val[1], initseq = val[2] << 64 | val[3],
    # so initstate's limbs are [w2, w3, w0, w1] and initseq's [w6, w7, w4, w5].
    seed_limbs = np.empty((w.shape[0], 8), dtype="<u4")
    seed_limbs[:, :4] = w[:, [2, 3, 0, 1]]
    # inc = initseq << 1 | 1
    one = _U32(1)
    seed_limbs[:, 4] = (w[:, 6] << one) | one
    seed_limbs[:, 5] = (w[:, 7] << one) | (w[:, 6] >> _U32(31))
    seed_limbs[:, 6] = (w[:, 4] << one) | (w[:, 7] >> _U32(31))
    seed_limbs[:, 7] = (w[:, 5] << one) | (w[:, 4] >> _U32(31))
    state = _first_draw_state(seed_limbs)
    low = state[:, 0] | (state[:, 1] << np.uint64(32))
    high = state[:, 2] | (state[:, 3] << np.uint64(32))
    xored = high ^ low
    rotation = state[:, 3] >> np.uint64(26)
    output = (xored >> rotation) | (xored << ((np.uint64(64) - rotation) & np.uint64(63)))
    uniforms = (output >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE
    return FirstDraws(uniforms=uniforms, state=state, inc=seed_limbs[:, 4:])


def entropy_matrix(rows: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble integer entropy lists into ``first_draws``'s arguments.

    Row r of the matrix holds the words SeedSequence assembles from
    ``rows[r]``, zero-padded to the longest row; lengths count the words.
    """
    assembled = [[w for value in row for w in entropy_words(int(value))] for row in rows]
    lengths = np.array([len(words) for words in assembled], dtype=np.intp)
    matrix = np.zeros((len(assembled), int(lengths.max(initial=1))), dtype=_U32)
    for r, words in enumerate(assembled):
        matrix[r, :len(words)] = words
    return matrix, lengths
