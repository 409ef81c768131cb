"""Regular families of finite subsets of the positive integers.

Supported families: ``An(n)`` (sets of cardinality at most n), the Schreier
families ``Sn(n)`` for finite n, and compositions ``Compose(M, N)`` whose
members are unions of successive N-sets whose minima form an M-set.  All of
them are hereditary (closed under subsets), spreading (closed under
coordinatewise right shifts) and compact, which is what the decision
procedures below exploit.

Membership is decided left to right by a pushed state: each family is
compiled once into a transition program, and pushing an element onto the
state of a member gives the state of the extended set, or None once that
set is no member.  ``A_n`` counts free slots, ``S_1`` too (its first
element e opens e slots), ``S_0`` is ``A_1`` and ``S_n`` is ``S_1[S_{n-1}]``.
A composition ``M[N]`` keeps the M-state of the piece minima and the
N-state of the last piece; an element extends that piece if it can, and
otherwise opens a new piece whose minimum is pushed to the M-state.  This
is greedy peeling of maximal pieces, done incrementally.  The greedy is
correct by hereditarity and spreading: its piece minima dominate
(pointwise, after truncation) the minima of any valid decomposition.  It is
incremental by hereditarity: every earlier piece already failed to extend
by its successor, so appending on the right can only lengthen the last
piece.  Tests certify the states against an exhaustive search oracle.

Sets are represented as tuples of strictly increasing positive integers
(1-based coordinates, matching the sequence-space conventions); the empty
tuple is a member of every family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple, Union

from .errors import NonSuccessive, ParseError, Unbounded

FiniteSet = Tuple[int, ...]

# Always empty (membership keeps no memo); the benchmark worker reads its size.
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
    """The dataclass hash of the fields, computed once per instance: dict
    lookups keyed by families (the norm engine's chain table) would otherwise
    rehash a nested composition's whole tree each time."""
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


def _program(family: FamilyExpr) -> tuple:
    """The transition program ``(start, outer, inner)``, cached on the
    instance.  A flat program (``outer`` None) counts free slots from
    ``start``: n for ``A_n``, 1 for ``S_0`` and -1 for ``S_1``, whose first
    element e opens e slots.  A composition starts at ``(outer start, None)``."""
    try:
        return family.__dict__["_program"]
    except KeyError:
        pass
    if isinstance(family, An):
        prog = (family.n, None, None)
    elif isinstance(family, Sn) and family.n < 2:
        prog = (1 if family.n == 0 else -1, None, None)
    elif isinstance(family, Sn):
        prog = _program(Compose(Sn(1), Sn(family.n - 1)))
    elif isinstance(family, Compose):
        outer, inner = _program(family.outer), _program(family.inner)
        prog = ((outer[0], None), outer, inner)
    else:
        raise TypeError(f"not a family: {family!r}")
    family.__dict__["_program"] = prog
    return prog


def _push(prog: tuple, state, e: int):
    """The state of the set with ``e`` (above its maximum) appended, or None
    when the extended set is not a member."""
    _, outer, inner = prog
    if outer is None:
        if state > 0:
            return state - 1
        return e - 1 if state < 0 else None
    minima, piece = state
    if piece is not None:
        piece = _push(inner, piece, e)
        if piece is not None:
            return minima, piece
    minima = _push(outer, minima, e)
    if minima is None:
        return None
    return minima, _push(inner, inner[0], e)


def _fold(prog: tuple, elems: FiniteSet):
    """The state of ``elems``, or None when it is not a member."""
    state = prog[0]
    for e in elems:
        state = _push(prog, state, e)
        if state is None:
            return None
    return state


def _member(family: FamilyExpr, elems: FiniteSet) -> bool:
    return _fold(_program(family), elems) is not None


def _greedy_pieces(inner: FamilyExpr, elems: FiniteSet) -> Tuple[FiniteSet, ...]:
    """Peel maximal inner-family pieces left to right: push each element
    onto the current piece until the first refusal, which opens the next."""
    prog = _program(inner)
    pieces = []
    first = 0
    state = prog[0]
    for pos, e in enumerate(elems):
        state = _push(prog, state, e)
        if state is None:
            pieces.append(elems[first:pos])
            first = pos
            state = _push(prog, prog[0], e)
    if elems:
        pieces.append(elems[first:])
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
    inner = Sn(family.n - 1) if isinstance(family, Sn) else family.inner
    pieces = _greedy_pieces(inner, elems)
    return Decomposition(
        family, elems, tuple(_decompose_member(inner, p) for p in pieces)
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

    prog = _program(family)

    def extend(current: FiniteSet, state, value, start_idx: int):
        for idx in range(start_idx, len(coords)):
            c = coords[idx]
            cand_state = _push(prog, state, c)
            if cand_state is None:
                continue
            cand = current + (c,)
            cand_value = value + weights[c]
            consider(cand, cand_value)
            extend(cand, cand_state, cand_value, idx + 1)

    extend((), prog[0], 0, 0)
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
    prog = _program(family)
    state = _fold(prog, run)
    if state is None or _push(prog, state, start + size) is not None:
        raise Unbounded(f"greedy packing failed for {family} from {start}")
    return run


def _max_run(family: FamilyExpr, start: int) -> int:
    """Size of the maximal consecutive run from ``start`` inside the family."""
    if isinstance(family, Sn) and family.n >= 2:
        family = Compose(Sn(1), Sn(family.n - 1))
    if isinstance(family, Compose):
        outer = _program(family.outer)
        minima = outer[0]
        pos = start
        while True:
            minima = _push(outer, minima, pos)
            if minima is None:
                return pos - start
            pos += _max_run(family.inner, pos)
            if pos - start > _MAXIMAL_GUARD:
                raise Unbounded("consecutive run exceeds guard")
    if isinstance(family, An):
        return family.n
    if isinstance(family, Sn):
        if family.n == 0:
            return 1
        if start > _MAXIMAL_GUARD:  # a run of S_1 from `start` has `start` elements
            raise Unbounded("consecutive run exceeds guard")
        return start
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
    prog = _program(family)

    def extend(current: FiniteSet, state, first: int):
        yield current
        for e in range(first, ground + 1):
            cand_state = _push(prog, state, e)
            if cand_state is not None:
                yield from extend(current + (e,), cand_state, e + 1)

    yield from extend((), prog[0], 1)
