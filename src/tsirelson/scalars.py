"""Scalar helpers: exact rationals, float mode, parsing and rendering.

Rational mode works in ``fractions.Fraction`` throughout and is exact.
Float mode uses binary64; comparisons against bounds use a relative
tolerance of ``FLOAT_RTOL`` (1e-12), the tolerance documented for the
whole package.  ``leq`` and ``close`` are the only places that apply it:
exact values on both sides compare exactly.
"""

from __future__ import annotations

from fractions import Fraction

FLOAT_RTOL = 1e-12

RATIONAL = "rational"
FLOAT64 = "float64"


def as_fraction(value) -> Fraction:
    """Coerce to an exact Fraction; floats are rejected to avoid silent noise."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot treat {value!r} as an exact rational")


def parse_scalar(text: str) -> Fraction:
    """Parse ``p/q`` or a decimal literal into an exact Fraction."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar {text!r}: {exc}") from None


def render_scalar(value) -> str:
    """Render a scalar for JSON: exact ``p/q`` or a 17-significant-digit float."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return f"{value}/1"
    return format(float(value), ".17g")


def close(a, b, exact: bool) -> bool:
    """Equality, exact or within the documented float tolerance."""
    if exact:
        return a == b
    a = float(a)
    b = float(b)
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b), 1.0)


def leq(a, b) -> bool:
    """``a <= b``: exact when neither side is a float, else within the
    documented relative float tolerance."""
    if not isinstance(a, float) and not isinstance(b, float):
        return a <= b
    return a - b <= FLOAT_RTOL * max(abs(a), abs(b))


def integer_root(n: int, k: int):
    """Return the exact integer k-th root of n, or None if n is not a perfect power."""
    if n < 1 or k < 1:
        return None
    r = round(n ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 1 and cand**k == n:
            return cand
    return None
