"""Output checkers that do not use the program: host ``float()``,
``repr()``, ``%`` formatting and exact ``fractions.Fraction`` arithmetic.

Each checker returns None for a correct output and a one-line reason
otherwise.  :func:`self_test` plants wrong answers and requires each
checker to catch them; run this file to see it.
"""

from __future__ import annotations

import struct
import sys
from fractions import Fraction

_D = struct.Struct("<d")
_Q = struct.Struct("<Q")


def bits_of(x: float) -> int:
    return _Q.unpack(_D.pack(x))[0]


def float_of(bits: int) -> float:
    return _D.unpack(_Q.pack(bits))[0]


def _decimal(text: str):
    """``(negative, digits, exponent)`` with ``value = digits * 10**exponent``
    and no trailing zeros in ``digits`` (zero is ``(neg, 0, 0)``)."""
    s = text.strip().lower()
    neg = s.startswith("-")
    s = s.lstrip("+-")
    mant, _, exp = s.partition("e")
    whole, _, frac = mant.partition(".")
    digits = int(whole + frac or "0")
    e = int(exp or "0") - len(frac)
    if digits == 0:
        return neg, 0, 0
    while digits % 10 == 0:
        digits //= 10
        e += 1
    return neg, digits, e


def check_shortest(x: float, row: str):
    """``row`` must read back to ``x`` bit for bit (sign of zero too),
    have as many significant digits as ``repr(x)`` and be no farther
    from ``x`` than ``repr(x)`` is."""
    try:
        y = float(row)
    except ValueError:
        return f"{row!r} is not a literal"
    if bits_of(y) != bits_of(x):
        return f"{row!r} reads back as {y!r}, not {x!r}"
    ref = repr(x)
    got, want = _decimal(row), _decimal(ref)
    if got == want:
        return None
    if len(str(got[1])) != len(str(want[1])):
        return (f"{row!r} has {len(str(got[1]))} significant digits, "
                f"repr has {len(str(want[1]))}")
    exact = Fraction(x)
    if abs(Fraction(row) - exact) > abs(Fraction(ref) - exact):
        return f"{row!r} is farther from {x!r} than {ref!r}"
    return None


def check_read(text: str, bits: int):
    """``bits`` must equal the host ``float()`` of ``text``."""
    want = bits_of(float(text))
    if bits != want:
        return f"{text!r} read as {bits:#018x}, host says {want:#018x}"
    return None


def check_fixed(x: float, row: str):
    """``row`` must equal the host's ``'%.6e' % x`` byte for byte."""
    want = "%.6e" % x
    if row != want:
        return f"%.6e of {x!r} gave {row!r}, host says {want!r}"
    return None


def check_plane_shortest(values, plane: bytes):
    """Check a delimited plane against the values it should print;
    returns the failed row count and the first reason."""
    rows = plane.decode("ascii").split("\n")
    if rows[-1] != "" or len(rows) - 1 != len(values):
        return len(values), f"plane has {len(rows) - 1} rows for {len(values)}"
    failed, first = 0, None
    for x, row in zip(values, rows):
        why = check_shortest(x, row)
        if why is not None:
            failed += 1
            first = first or why
    return failed, first


def check_plane_read(texts, bits):
    if len(bits) != len(texts):
        return len(texts), f"{len(bits)} results for {len(texts)} rows"
    failed, first = 0, None
    for t, b in zip(texts, bits):
        why = check_read(t, b)
        if why is not None:
            failed += 1
            first = first or why
    return failed, first


def _flip_last_digit(row: str) -> str:
    mant, e, exp = row.partition("e")
    i = max(i for i, c in enumerate(mant) if c.isdigit())
    d = "1" if mant[i] == "0" else str(int(mant[i]) - 1)
    return mant[:i] + d + mant[i + 1:] + e + exp


def self_test():
    """Plant wrong answers; returns the list of plants a checker missed."""
    missed = []
    for x in (0.3, 1e23, 5e-324, -2.5, 1.7976931348623157e308, 123.456):
        right = repr(x)
        if check_shortest(x, right) is not None:
            missed.append(f"shortest rejects repr({x!r})")
        for label, wrong in (("flipped last digit", _flip_last_digit(right)),
                             ("non-shortest", "%.17g" % x)):
            if wrong != right and _decimal(wrong) != _decimal(right) \
                    and check_shortest(x, wrong) is None:
                missed.append(f"shortest accepts {label} {wrong!r}")
        fixed = "%.6e" % x
        if check_fixed(x, fixed) is not None:
            missed.append(f"fixed rejects {fixed!r}")
        if check_fixed(x, _flip_last_digit(fixed)) is None:
            missed.append(f"fixed accepts {_flip_last_digit(fixed)!r}")
        if check_read(right, bits_of(x)) is not None:
            missed.append(f"read rejects {right!r}")
        if check_read(right, bits_of(x) ^ 1) is None:
            missed.append(f"read accepts one ulp off for {right!r}")
    # Same digit count, reads back, but not the closest: 4e-324 and
    # 5e-324 both read as the least subnormal.
    if check_shortest(5e-324, "4e-324") is None:
        missed.append("shortest accepts the farther 4e-324")
    if check_shortest(0.0, "-0") is None:
        missed.append("shortest accepts -0 for +0")
    if check_shortest(0.1, "0.10000000000000001") is None:
        missed.append("shortest accepts 17 digits for 0.1")
    return missed


if __name__ == "__main__":
    missed = self_test()
    for m in missed:
        print("MISSED:", m)
    print("self-test:", "ok" if not missed else f"{len(missed)} missed")
    sys.exit(1 if missed else 0)
