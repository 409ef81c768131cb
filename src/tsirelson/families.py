"""Regular families of finite subsets of the positive integers.

Supported families: ``An(n)`` (sets of cardinality at most n), the Schreier
families ``Sn(n)`` for finite n, and compositions ``Compose(M, N)`` whose
members are unions of successive N-sets whose minima form an M-set.  All of
them are hereditary (closed under subsets), spreading (closed under
coordinatewise right shifts) and compact, which is what the decision
procedures below exploit.

Membership is decided by greedy left-to-right peeling of maximal pieces.
Correctness of the greedy rests on hereditarity and spreading: the greedy
piece minima dominate (pointwise, after truncation) the minima of any valid
decomposition, so if any decomposition witnesses membership the greedy one
does too.  Tests certify this against a pure exhaustive search oracle.

Sets are represented as tuples of strictly increasing positive integers
(1-based coordinates, matching the sequence-space conventions); the empty
tuple is a member of every family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple, Union

from .errors import NonSuccessive, ParseError, Unbounded

FiniteSet = Tuple[int, ...]

# Membership memo is bounded to small sets so exhaustive audits stay fast
# without letting long consecutive runs blow up memory.
_MEMO_MAX_LEN = 24
_member_memo: dict = {}


@dataclass(frozen=True)
class An:
    """Sets of cardinality at most ``n``."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("An requires n >= 1")

    def __str__(self):
        return f"A{self.n}"


@dataclass(frozen=True)
class Sn:
    """Schreier family of finite order ``n``.

    ``Sn(0)`` is singletons plus the empty set; ``Sn(1)`` is
    ``{F : #F <= min F}``; ``Sn(n+1)`` is the composition of ``Sn(1)``
    with ``Sn(n)``.
    """

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("Sn requires n >= 0")

    def __str__(self):
        return f"S{self.n}"


@dataclass(frozen=True)
class Compose:
    """Unions of successive inner-family sets whose minima form an outer-family set."""

    outer: "FamilyExpr"
    inner: "FamilyExpr"

    def __str__(self):
        return f"{self.outer}[{self.inner}]"


FamilyExpr = Union[An, Sn, Compose]


def _cached_hash(family) -> int:
    """The dataclass hash of the fields, computed once per instance: every
    memo lookup hashes a family, and a nested composition would otherwise
    rehash its whole tree each time."""
    try:
        return family.__dict__["_hash"]
    except KeyError:
        fields = tuple(getattr(family, name) for name in family.__dataclass_fields__)
        h = family.__dict__["_hash"] = hash(fields)
        return h


An.__hash__ = Sn.__hash__ = Compose.__hash__ = _cached_hash


@dataclass(frozen=True)
class Decomposition:
    """Witness for membership: the successive pieces, recursively decomposed.

    ``pieces`` is None for the flat base families (An, S0) where no
    piece structure exists.
    """

    family: FamilyExpr
    elements: FiniteSet
    pieces: Optional[Tuple["Decomposition", ...]] = None

    def piece_sets(self) -> Tuple[FiniteSet, ...]:
        if self.pieces is None:
            return (self.elements,)
        return tuple(p.elements for p in self.pieces)


def check_finite_set(elements: Iterable[int]) -> FiniteSet:
    """Validate and normalize a finite set of coordinates."""
    elems = tuple(elements)
    for i, e in enumerate(elems):
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"coordinates must be positive integers, got {e!r}")
        if i > 0 and elems[i - 1] >= e:
            raise ValueError(f"coordinates must be strictly increasing: {elems}")
    return elems


def is_member(family: FamilyExpr, elements: Iterable[int]) -> bool:
    """Decide whether the set belongs to the denoted family."""
    elems = check_finite_set(elements)
    return _member(family, elems)


def _member(family: FamilyExpr, elems: FiniteSet) -> bool:
    if not elems:
        return True
    small = len(elems) <= _MEMO_MAX_LEN
    key = (family, elems) if small else None
    if small and key in _member_memo:
        return _member_memo[key]
    result = _member_raw(family, elems)
    if small:
        _member_memo[key] = result
    return result


def _member_raw(family: FamilyExpr, elems: FiniteSet) -> bool:
    if isinstance(family, An):
        return len(elems) <= family.n
    if isinstance(family, Sn):
        if family.n == 0:
            return len(elems) <= 1
        if family.n == 1:
            return len(elems) <= elems[0]
        return _greedy_pieces(Sn(family.n - 1), elems, budget=elems[0]) is not None
    if isinstance(family, Compose):
        pieces = _greedy_pieces(family.inner, elems, budget=None)
        if pieces is None:
            return False
        minima = tuple(p[0] for p in pieces)
        return _member(family.outer, minima)
    raise TypeError(f"not a family: {family!r}")


def _max_prefix_len(family: FamilyExpr, elems: FiniteSet, start: int) -> int:
    """Length of the longest prefix of elems[start:] that is a member.

    Since families are hereditary the valid prefix lengths form an initial
    segment, so exponential-then-binary search is sound.
    """
    remaining = len(elems) - start
    if isinstance(family, An):
        return min(family.n, remaining)
    if isinstance(family, Sn) and family.n == 0:
        return 1
    if isinstance(family, Sn) and family.n == 1:
        return min(elems[start], remaining)
    lo = 1  # singletons belong to every family here
    hi = 2
    while hi <= remaining and _member(family, elems[start : start + hi]):
        lo = hi
        hi *= 2
    hi = min(hi, remaining)
    # invariant: prefix of length lo is a member, length hi+1 (if any) is not
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _member(family, elems[start : start + mid]):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _greedy_pieces(inner: FamilyExpr, elems: FiniteSet, budget):
    """Peel maximal inner-family pieces left to right.

    Returns the piece tuple, or None when a piece budget is given and
    exceeded.  With ``budget=None`` the peeling always succeeds and the
    caller checks the minima separately.
    """
    pieces = []
    pos = 0
    while pos < len(elems):
        if budget is not None and len(pieces) >= budget:
            return None
        length = _max_prefix_len(inner, elems, pos)
        pieces.append(elems[pos : pos + length])
        pos += length
    return tuple(pieces)


def is_admissible(family: FamilyExpr, sets: Iterable[Iterable[int]]) -> bool:
    """Decide admissibility: successive sets whose minima form a family member.

    Raises NonSuccessive when the sets overlap or are out of order, which is
    an input error distinct from a false verdict.
    """
    normalized = [check_finite_set(s) for s in sets]
    for s in normalized:
        if not s:
            raise ValueError("admissibility is defined for nonempty sets")
    for a, b in zip(normalized, normalized[1:]):
        if a[-1] >= b[0]:
            raise NonSuccessive(f"sets not successive: max {a[-1]} >= min {b[0]}")
    minima = tuple(s[0] for s in normalized)
    return is_member(family, minima)


def decompose(family: FamilyExpr, elements: Iterable[int]) -> Optional[Decomposition]:
    """Return a nested membership witness, or None for non-members.

    The witness re-validates: its pieces are admissible for the outer family
    and members of the inner family, recursively.
    """
    elems = check_finite_set(elements)
    if not _member(family, elems):
        return None
    return _decompose_member(family, elems)


def _decompose_member(family: FamilyExpr, elems: FiniteSet) -> Decomposition:
    if not elems:
        return Decomposition(family, elems, None)
    if isinstance(family, An) or (isinstance(family, Sn) and family.n == 0):
        return Decomposition(family, elems, None)
    if isinstance(family, Sn):
        inner = Sn(family.n - 1)
        pieces = _greedy_pieces(inner, elems, budget=elems[0])
        return Decomposition(
            family, elems, tuple(_decompose_member(inner, p) for p in pieces)
        )
    pieces = _greedy_pieces(family.inner, elems, budget=None)
    return Decomposition(
        family, elems, tuple(_decompose_member(family.inner, p) for p in pieces)
    )


def max_weight_subset(family: FamilyExpr, weights: Mapping[int, object]):
    """Maximize the weight of a family member inside the support of ``weights``.

    Ties break toward smaller cardinality, then the lexicographically
    smallest element sequence, so the result is deterministic.  Non-member
    extensions are pruned, which is sound because the families are
    hereditary.
    """
    coords = sorted(c for c, w in weights.items() if w > 0)
    for c in coords:
        check_finite_set((c,))
    best_set: FiniteSet = ()
    best_value = 0

    def consider(candidate: FiniteSet, value):
        nonlocal best_set, best_value
        if value > best_value or (
            value == best_value
            and (len(candidate), candidate) < (len(best_set), best_set)
        ):
            best_set, best_value = candidate, value

    def extend(current: FiniteSet, value, start_idx: int):
        for idx in range(start_idx, len(coords)):
            c = coords[idx]
            cand = current + (c,)
            if not _member(family, cand):
                continue
            cand_value = value + weights[c]
            consider(cand, cand_value)
            extend(cand, cand_value, idx + 1)

    extend((), 0, 0)
    return best_set, best_value


_MAXIMAL_GUARD = 10**6


def maximal_member(family: FamilyExpr, start: int) -> FiniteSet:
    """The maximal member made of consecutive integers from ``start``.

    Computed by greedy packing over the family structure and certified by
    membership of the result plus non-membership of its one-step extension.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    size = _max_run(family, start)
    if size > _MAXIMAL_GUARD:
        raise Unbounded(f"maximal consecutive member from {start} exceeds guard")
    run = tuple(range(start, start + size))
    if not _member(family, run) or _member(family, run + (start + size,)):
        raise Unbounded(f"greedy packing failed for {family} from {start}")
    return run


def _max_run(family: FamilyExpr, start: int) -> int:
    """Size of the maximal consecutive run from ``start`` inside the family."""
    if isinstance(family, An):
        return family.n
    if isinstance(family, Sn):
        if family.n == 0:
            return 1
        if family.n == 1:  # a run of S_1 from `start` has `start` elements
            if start > _MAXIMAL_GUARD:
                raise Unbounded("consecutive run exceeds guard")
            return start
        inner = Sn(family.n - 1)
        pos = start
        for _ in range(start):  # at most `start` pieces
            pos += _max_run(inner, pos)
            if pos - start > _MAXIMAL_GUARD:
                raise Unbounded("consecutive run exceeds guard")
        return pos - start
    if isinstance(family, Compose):
        pos = start
        minima = []
        while True:
            if not _member(family.outer, tuple(minima + [pos])):
                break
            minima.append(pos)
            pos += _max_run(family.inner, pos)
            if pos - start > _MAXIMAL_GUARD:
                raise Unbounded("consecutive run exceeds guard")
        return pos - start
    raise TypeError(f"not a family: {family!r}")


def parse_family(text: str) -> FamilyExpr:
    """Parse the family grammar: ``A<n>``, ``S<n>``, ``M[N]``, nested."""
    expr, pos = _parse_family_at(text, 0)
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos:]!r}", position=pos)
    return expr


def _parse_family_at(text: str, pos: int):
    if pos >= len(text):
        raise ParseError("unexpected end of family expression", position=pos)
    head = text[pos]
    if head not in "AS":
        raise ParseError(f"expected 'A' or 'S', got {head!r}", position=pos)
    pos += 1
    digits_start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if digits_start == pos:
        raise ParseError("expected an index after family letter", position=pos)
    index = int(text[digits_start:pos])
    try:
        expr: FamilyExpr = An(index) if head == "A" else Sn(index)
    except ValueError as exc:
        raise ParseError(str(exc), position=digits_start) from None
    while pos < len(text) and text[pos] == "[":
        inner, inner_end = _parse_family_at(text, pos + 1)
        if inner_end >= len(text) or text[inner_end] != "]":
            raise ParseError("expected ']'", position=inner_end)
        expr = Compose(expr, inner)
        pos = inner_end + 1
    return expr, pos


def family_members(family: FamilyExpr, ground: int):
    """Yield every member within {1..ground}, empty set first.

    Used by the exhaustive audits; ground stays small by contract.
    """
    coords = list(range(1, ground + 1))

    def extend(current: FiniteSet, start_idx: int):
        yield current
        for idx in range(start_idx, len(coords)):
            cand = current + (coords[idx],)
            if _member(family, cand):
                yield from extend(cand, idx + 1)

    yield from extend((), 0)
