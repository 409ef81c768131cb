"""Finitely supported vectors with exact or float coefficients."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

from .errors import ParseError
from .records import Record
from .scalars import render_scalar


class SparseVector(Record):
    """A finitely supported vector; coordinates strictly increasing, no zeros."""

    entries: Tuple[Tuple[int, object], ...]

    def __post_init__(self):
        last = 0
        for coord, value in self.entries:
            if not isinstance(coord, int) or coord < 1:
                raise ValueError(f"coordinates must be positive integers: {coord!r}")
            if coord <= last:
                raise ValueError("coordinates must be strictly increasing")
            if value == 0:
                raise ValueError("zero values must not be stored")
            last = coord

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, object]]) -> "SparseVector":
        cleaned = sorted(((c, v) for c, v in pairs if v != 0), key=lambda cv: cv[0])
        return cls(tuple(cleaned))

    @classmethod
    def basis(cls, coord: int, value=1) -> "SparseVector":
        return cls(((coord, value),))

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(c for c, _ in self.entries)

    @property
    def values(self) -> Tuple[object, ...]:
        return tuple(v for _, v in self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __lt__(self, other: "SparseVector") -> bool:
        """Block order: every coordinate of self precedes every one of other."""
        if not self.entries or not other.entries:
            raise ValueError("block order is defined for nonempty vectors")
        return self.entries[-1][0] < other.entries[0][0]

    def scale(self, factor) -> "SparseVector":
        if factor == 0:
            return SparseVector(())
        return SparseVector(tuple((c, v * factor) for c, v in self.entries))

    def restrict(self, coords) -> "SparseVector":
        keep = set(coords)
        return SparseVector(tuple((c, v) for c, v in self.entries if c in keep))

    def sup_norm(self):
        return max((abs(v) for _, v in self.entries), default=0)

    def ell1(self):
        return sum((abs(v) for _, v in self.entries), start=0)

    def ellp(self, p: float) -> float:
        if p == 1:
            return float(self.ell1())
        return float(sum(abs(float(v)) ** p for _, v in self.entries)) ** (1.0 / p)

    def range(self) -> Tuple[int, int]:
        if not self.entries:
            raise ValueError("empty vector has no range")
        return self.entries[0][0], self.entries[-1][0]


def sum_vectors(vectors: Iterable[SparseVector]) -> SparseVector:
    """Coordinatewise sum, added left to right from 0; zero sums are dropped."""
    total: dict = {}
    for v in vectors:
        for c, value in v.entries:
            total[c] = total.get(c, 0) + value
    return SparseVector.from_pairs(total.items())


def pattern_sums(patterns, *sequences):
    """Yield ``(a, sums)`` for the first pattern ``a`` of each |a|, where
    ``sums[k]`` is the sum of ``a[i] * sequences[k][i]`` over i; a pattern
    with a zero sum, the zero pattern among them, is skipped.  Under a
    1-unconditional norm on successive vectors, a repeated |a| repeats
    every norm."""
    firsts = {}
    for a in patterns:
        firsts.setdefault(tuple(map(abs, a)), a)
    for a in firsts.values():
        sums = [sum_vectors([v.scale(c) for v, c in zip(seq, a) if c != 0]) for seq in sequences]
        if all(sums):
            yield a, sums


def parse_vector(text: str, arithmetic: str = "rational") -> SparseVector:
    """Parse the tab-separated vector format; `#` starts a comment."""
    pairs = []
    last = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'coordinate<TAB>value', got {line!r}", line=lineno)
        try:
            coord = int(parts[0])
            value = Fraction(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), line=lineno) from None
        if coord <= last:
            raise ParseError(f"coordinates out of order at {coord}", line=lineno)
        last = coord
        if value == 0:
            continue
        if arithmetic != "rational":
            try:
                value = float(value)
            except OverflowError:
                raise ParseError(f"value {parts[1]} is outside the float range", line=lineno) from None
            if value == 0:
                raise ParseError(f"value {parts[1]} underflows to zero in float64", line=lineno)
        pairs.append((coord, value))
    return SparseVector(tuple(pairs))


def format_vector(x: SparseVector) -> str:
    return "\n".join(f"{c}\t{render_scalar(v)}" for c, v in x.entries) + "\n"
