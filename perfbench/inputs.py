"""Seeded input generation for every workload.

Everything the program converts is made here from ``--seed``: the same
seed gives the same batches, heads, long literals and send schedules.
All values are IEEE binary64.
"""

from __future__ import annotations

import itertools
import random
from array import array

#: Zipf exponent and head size of bulk-zipf.  The exponent is the
#: repo's own serving-workload shape (``repro.workloads.corpus.zipf_random``
#: and ``tools/bench_serve.py`` default to 1.3).  The head is far larger
#: than any cache a converter keeps, so the stream has a long tail of
#: rare values as real data does: under zipf(1.3) the ranks past 65536
#: would carry only 3 % of an unbounded stream's draws.
ZIPF_S = 1.3
HEAD_SIZE = 65536
#: Rank (0-based) of the head's ``0``; ``-0`` follows it.
ZERO_RANK = 40
#: One literal of 20..25 significant digits after every this many rows
#: of the bulk-flat parse plane (a 1/33 share).
LONG_EVERY = 32

_EXP_MASK = 0x7FF << 52


def _rng(seed: int, stream: str, index: int = 0) -> random.Random:
    # One independent generator per (seed, stream, index): batches can be
    # made in any order and still be the same for a given seed.
    return random.Random(f"{seed}:{stream}:{index}")


def flat_batch(seed: int, index: int, n: int) -> array:
    """``n`` distinct bit patterns drawn uniformly from the finite
    binary64 values (NaN and infinity are the only patterns left out)."""
    rng = _rng(seed, "flat", index)
    seen = set()
    out = array("Q")
    while len(out) < n:
        b = rng.getrandbits(64)
        if b & _EXP_MASK != _EXP_MASK and b not in seen:
            seen.add(b)
            out.append(b)
    return out


def long_literals(seed: int, index: int, n: int) -> list:
    """``n`` decimal literals of 20..25 significant digits, normal range."""
    rng = _rng(seed, "long", index)
    out = []
    for _ in range(n):
        nd = rng.randint(20, 25)
        digits = str(rng.randint(1, 9)) + "".join(
            rng.choice("0123456789") for _ in range(nd - 1))
        sign = "-" if rng.random() < 0.5 else ""
        out.append(f"{sign}{digits[0]}.{digits[1:]}e{rng.randint(-300, 300)}")
    return out


#: Every (digit count, decimal exponent of the leading digit, sign) a
#: head literal can have, in an order fixed for all seeds: rank ``k``
#: gets shape ``k % len(_SHAPES)`` (or, once that shape has no unused
#: literal left, the next one that has), so every seed puts the same mix
#: of shapes at the same ranks and only the digits change.
_SHAPES = [(nd, point, sign) for nd in range(1, 8)
           for point in range(-8, 13) for sign in ("", "-")]
random.Random("shapes").shuffle(_SHAPES)


def _capacity(nd: int) -> int:
    """Literals of exactly ``nd`` significant digits per shape."""
    return 9 if nd == 1 else 81 * 10 ** (nd - 2)


def _digits(rng: random.Random, nd: int) -> str:
    """``nd`` significant digits, neither the first nor the last a zero,
    so no two shapes make the same value."""
    if nd == 1:
        return str(rng.randint(1, 9))
    return (str(rng.randint(1, 9))
            + "".join(rng.choice("0123456789") for _ in range(nd - 2))
            + str(rng.randint(1, 9)))


def _short_decimal(digits: str, point: int, sign: str) -> str:
    nd = len(digits)
    if 0 <= point < 7:
        whole, frac = digits[:point + 1], digits[point + 1:]
        whole = whole + "0" * (point + 1 - len(whole))
        return sign + whole + ("." + frac if frac else "")
    if -5 <= point < 0:
        return sign + "0." + "0" * (-point - 1) + digits
    return f"{sign}{digits[0]}{'.' + digits[1:] if nd > 1 else ''}e{point}"


class ZipfHead:
    """A fixed head of distinct short decimals (1..7 significant digits,
    made with host ``float()``) and a zipf(:data:`ZIPF_S`) sampler over
    it.

    The head holds ``0`` and ``-0`` (at ranks :data:`ZERO_RANK` and the
    next) so the sign of zero is exercised.
    """

    def __init__(self, seed: int, size: int = HEAD_SIZE, s: float = ZIPF_S):
        rng = _rng(seed, "head")
        texts = []
        used = dict.fromkeys(_SHAPES, 0)
        seen = set()
        for rank in range(size - 2):
            k = rank
            while used[_SHAPES[k % len(_SHAPES)]] == _capacity(
                    _SHAPES[k % len(_SHAPES)][0]):
                k += 1
            shape = _SHAPES[k % len(_SHAPES)]
            used[shape] += 1
            nd, point, sign = shape
            while True:
                t = _short_decimal(_digits(rng, nd), point, sign)
                if t not in seen:
                    break
            seen.add(t)
            texts.append(t)
        texts[ZERO_RANK:ZERO_RANK] = ["0", "-0"]
        self.values = [float(t) for t in texts]
        self.bits = array("Q", array("d", self.values).tobytes())
        self.cum = list(itertools.accumulate(
            1.0 / (k ** s) for k in range(1, size + 1)))
        self.seed = seed

    def draw(self, stream: str, index: int, n: int) -> list:
        """``n`` head indices, zipf-skewed toward the low ranks."""
        rng = _rng(self.seed, stream, index)
        return rng.choices(range(len(self.bits)), cum_weights=self.cum, k=n)

    def batch(self, stream: str, index: int, n: int) -> array:
        bits = self.bits
        return array("Q", [bits[i] for i in self.draw(stream, index, n)])


def poisson_schedule(seed: int, rate: float, count: int) -> list:
    """``count`` open-loop send offsets (seconds) of a Poisson stream."""
    rng = _rng(seed, "poisson")
    return list(itertools.accumulate(rng.expovariate(rate)
                                     for _ in range(count)))
