"""Threshold procedure for preparing fixed-Hamming-weight states with garbage.

Each of n registers holds a uniformly random seed in [0, f) where f is the
smallest power of two >= c*n.  The procedure builds a threshold bit string
b_1..b_{n_seed} most-significant-bit first: at stage j it counts how many
registers have their first j bits >= b_1..b_{j-1}1 and sets b_j = 1 iff that
count is >= k.  At the end the registers >= b are selected; the run succeeds
iff exactly k registers are selected, which happens iff the k-th and (k+1)-th
largest seed values differ (ties at that boundary cannot be split by any
threshold).

The Monte Carlo reads its seeds straight from PCG64's raw 64-bit words, a
chunk of about CHUNK_SEEDS seeds at a time, and gets the same seeds as
``Generator.integers(0, f, size=(trials, n))``.  For f = 2^b that call uses
Lemire's multiply-shift bounded draw, x * 2^b >> w on a w-bit word x, whose
rejection threshold (2^w - 2^b) mod 2^b is 0: it never rejects and keeps the
top b bits of x.  For b <= 32 the words are 32-bit, and PCG64 hands them out
as the low half of each 64-bit word and then its high half; for 32 < b <= 63
they are whole 64-bit words.  An odd number of 32-bit draws leaves a high
half buffered for the next call, so every chunk but the last spans an even
number of them.  The raw stream is what NumPy keeps stable across versions;
``Generator.integers`` only reproduces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EXACT_MAX_N = 8  # dicke_success_prob adds the exact failure law up to this n
CHUNK_SEEDS = 1 << 16  # seeds per Monte Carlo chunk, which bounds its memory
MAX_SEED_BITS = 63  # widest seed register the Monte Carlo draws


def seed_modulus(n: int, c: int) -> int:
    """f(n): smallest power of two >= c*n."""
    if n < 2 or c < 1:
        raise ValueError("need n >= 2 registers and c >= 1")
    f = 1
    while f < c * n:
        f *= 2
    return f


@dataclass(frozen=True)
class ThresholdRun:
    """Deterministic trace of one threshold preparation."""

    seeds: tuple[int, ...]
    k: int
    bits: tuple[int, ...]  # b_1..b_{n_seed}, most significant first
    selected: int  # bit mask over registers, bit i <=> register i selected
    success: bool

    @property
    def threshold(self) -> int:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value


def dicke_threshold_run(seeds, k: int, n_seed: int | None = None) -> ThresholdRun:
    """Run the threshold procedure on explicit register seeds.

    ``n_seed`` is the register width in bits; when omitted it is inferred from
    the default constant c = 8 via f(n) = next power of two >= 8n.
    """
    seeds = tuple(int(s) for s in seeds)
    n = len(seeds)
    if n_seed is None:
        n_seed = seed_modulus(n, 8).bit_length() - 1
    if not 1 <= k <= n:
        raise ValueError(f"target weight k={k} outside 1..{n}")
    f = 1 << n_seed
    if any(not 0 <= s < f for s in seeds):
        raise ValueError(f"seeds must lie in [0, {f})")

    bits = []
    prefix = 0  # integer value of b_1..b_{j-1}
    for j in range(1, n_seed + 1):
        shift = n_seed - j
        probe = (prefix << 1) | 1  # b_1..b_{j-1}1 as a j-bit value
        count = sum(1 for s in seeds if (s >> shift) >= probe)
        b = 1 if count >= k else 0
        bits.append(b)
        prefix = (prefix << 1) | b

    selected = 0
    for i, s in enumerate(seeds):
        if s >= prefix:
            selected |= 1 << i
    success = selected.bit_count() == k
    return ThresholdRun(seeds, k, tuple(bits), selected, success)


def threshold_success_batch(seeds: np.ndarray, k: int) -> np.ndarray:
    """Vectorized success indicator for a (trials, n) array of seeds.

    Uses the order-statistic characterization (k-th and (k+1)-th largest
    differ), which the test suite checks exhaustively against
    dicke_threshold_run.
    """
    if seeds.ndim != 2:
        raise ValueError("expected a (trials, n) seed array")
    n = seeds.shape[1]
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n for the tie criterion")
    part = np.sort(seeds, axis=1)
    return part[:, n - k] != part[:, n - k - 1]


def exact_failure_prob(n: int, k: int, c: int) -> Fraction:
    """Exact probability that the k/(k+1) boundary of n iid seeds is tied.

    Summing over the value v of the k-th largest seed: failure needs at most
    k-1 seeds strictly above v and at least k+1 seeds >= v.  With A counting
    the seeds above v and A+B those at or above v, that event has probability
    P(A <= k-1) - P(A+B <= k) + P(A = k, B = 0).  Each term is a binomial sum
    whose numerator over f^n is an integer polynomial of degree n in v, so
    the sum over v < f is Faulhaber's in the binomial basis: the forward
    differences D^j of the summand at v = 0 weigh the power sums
    sum_{v<f} C(v, j) = C(f, j+1), for j = 0..n.
    """
    f = seed_modulus(n, c)
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    binom = [math.comb(n, a) for a in range(k + 1)]

    def tie_count(v: int) -> int:
        above = f - 1 - v
        return (
            sum(binom[a] * above**a * (v + 1) ** (n - a) for a in range(k))
            - sum(binom[a] * (above + 1) ** a * v ** (n - a) for a in range(k + 1))
            + binom[k] * above**k * v ** (n - k)
        )

    diffs = [tie_count(v) for v in range(n + 1)]
    total = 0
    for j in range(n + 1):
        total += diffs[0] * math.comb(f, j + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return Fraction(total, f**n)


@dataclass(frozen=True)
class SuccessProbResult:
    n: int
    k: int
    c: int
    trials: int
    seed: int
    failure_rate: float
    exact_failure: Fraction | None


def _seed_chunks(bitgen: np.random.BitGenerator, n: int, bits: int, trials: int):
    """Yield the seeds of ``trials`` n-register tuples as (rows, n) chunks.

    Each chunk holds about CHUNK_SEEDS seeds, as uint32 up to 32 bits and
    uint64 above (NumPy 2.4 sorts the rows no faster as uint16 and up to 20x
    slower as uint8), and together they are the array that
    ``Generator.integers(0, 2**bits, size=(trials, n))`` returns from the
    same PCG64 state (see the module docstring).
    """
    rows = max(1, CHUNK_SEEDS // n)
    rows += rows & 1  # whole 64-bit words in every chunk but the last
    for start in range(0, trials, rows):
        count = min(rows, trials - start) * n
        if bits <= 32:
            words = bitgen.random_raw((count + 1) // 2).astype("<u8", copy=False)
            keys = words.view("<u4")[:count] >> (32 - bits)  # low half, then high half
        else:
            keys = bitgen.random_raw(count) >> (64 - bits)
        yield keys.reshape(-1, n)


def dicke_success_prob(n: int, k: int, c: int, trials: int, seed: int) -> SuccessProbResult:
    """Monte-Carlo failure frequency of the threshold preparation.

    Draws ``trials`` independent n-register seed tuples from PCG64 and applies
    the tie criterion.  For n <= EXACT_MAX_N the exact combinatorial failure
    probability is computed alongside.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    f = seed_modulus(n, c)
    bits = f.bit_length() - 1
    if bits > MAX_SEED_BITS:
        raise ValueError(
            f"seed modulus f = {f} needs a {bits}-bit register; the Monte Carlo draws at most {MAX_SEED_BITS} bits"
        )
    failures = 0
    for draws in _seed_chunks(np.random.PCG64(seed), n, bits, trials):
        failures += int(np.count_nonzero(~threshold_success_batch(draws, k)))
    exact = exact_failure_prob(n, k, c) if n <= EXACT_MAX_N else None
    return SuccessProbResult(n, k, c, trials, seed, failures / trials, exact)
