"""Regular families of finite subsets of the positive integers.

Supported families: ``An(n)`` (sets of cardinality at most n), the Schreier
families ``Sn(n)`` for finite n, and compositions ``Compose(M, N)`` whose
members are unions of successive N-sets whose minima form an M-set.  All of
them are hereditary (closed under subsets), spreading (closed under
coordinatewise right shifts) and compact, which is what the decision
procedures below exploit.

``chain`` and ``budget`` are the one statement of a family's levels, which
the norm engine, ``maximal_member`` and the random functionals of
``generators`` all read: a family is a chain of ``A_n`` and ``S_1``
levels, and a level admits at most n pieces (``A_n``) or as many pieces as
its first element (``S_1``).

Membership is decided left to right by a pushed state: each family is
compiled once into a transition program, and pushing an element onto the
state of a member gives the state of the extended set, or None once that
set is no member.  ``A_n`` counts free slots, ``S_1`` too (its first
element e opens e slots), ``S_0`` is ``A_1`` and ``S_n`` is ``S_1[S_{n-1}]``,
compiled as ``S_{n-h}[S_h]`` with h = n // 2.
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

from functools import cache
from typing import Callable, Iterable, Mapping, Optional, Tuple, Union

from .errors import NonSuccessive, ParseError, SupportTooLarge, Unbounded
from .records import Record

FiniteSet = Tuple[int, ...]

# Always empty (membership keeps no memo); the benchmark worker reads its size.
_member_memo: dict = {}

# Most positive weights ``max_weight_subset`` takes: it may walk 2^20 members.
MAX_WEIGHT_SUPPORT = 20


class An(Record):
    """Sets of cardinality at most ``n``."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("An requires n >= 1")

    def __str__(self):
        return f"A{self.n}"


class Sn(Record):
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


class Compose(Record):
    """Unions of successive inner-family sets whose minima form an outer-family set."""

    outer: "FamilyExpr"
    inner: "FamilyExpr"

    def __str__(self):
        return f"{self.outer}[{self.inner}]"


FamilyExpr = Union[An, Sn, Compose]


def chain(family: FamilyExpr) -> Tuple[FamilyExpr, ...]:
    """The levels of the family, outermost first, each ``A_n`` or ``S_1``.

    Compositions are flattened, which is sound because composition is
    associative; ``S_0`` gives no level and ``S_n`` gives n levels of
    ``S_1``, as S_n = S_1[S_{n-1}].  The empty chain is the singletons."""
    if isinstance(family, Compose):
        return chain(family.outer) + chain(family.inner)
    if isinstance(family, Sn):
        return (Sn(1),) * family.n
    if isinstance(family, An):
        return (family,)
    raise TypeError(f"not a family: {family!r}")


def budget(level: FamilyExpr, first: int) -> int:
    """The most pieces a level of a chain admits when the first piece
    starts at ``first``: n for ``A_n`` and ``first`` for ``S_1``."""
    return level.n if isinstance(level, An) else first


class Decomposition(Record):
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
    """Decide whether the set belongs to the denoted family.

    ``S_n`` with n above the set's size k is decided as ``S_k``, whose
    state is bounded by the input: the two admit the same sets of at most
    k elements.  ``S_k`` is contained in ``S_n``.  Conversely, by
    induction on n, a k-element member of ``S_n`` either is one
    ``S_{n-1}`` piece, hence an ``S_k`` set, or splits into at least two
    ``S_{n-1}`` pieces of fewer than k elements, hence ``S_{k-1}`` sets,
    with ``S_1`` minima: an ``S_k`` set again."""
    elems = check_finite_set(elements)
    if isinstance(family, Sn) and family.n > len(elems):
        return _fold(_schreier(len(elems)), elems) is not None
    return _member(family, elems)


# the compiled program of a family, cached on the instance by ``_program``
An._program = Sn._program = Compose._program = None


def _program(family: FamilyExpr) -> tuple:
    """The transition program ``(start, outer, inner)``, cached on the
    instance.  A flat program (``outer`` None) counts free slots from
    ``start``: n for ``A_n``, 1 for ``S_0`` and -1 for ``S_1``, whose first
    element e opens e slots.  A composition starts at ``(outer start, None)``.
    ``S_n`` comes from ``_schreier``.  The cache is set with
    ``object.__setattr__``, as ``Record`` sets its hash, so that the field
    values stay inline in the instance."""
    prog = getattr(family, "_program", None)
    if prog is not None:
        return prog
    if isinstance(family, An):
        prog = (family.n, None, None)
    elif isinstance(family, Sn):
        prog = _schreier(family.n)
    elif isinstance(family, Compose):
        outer, inner = _program(family.outer), _program(family.inner)
        prog = ((outer[0], None), outer, inner)
    else:
        raise TypeError(f"not a family: {family!r}")
    object.__setattr__(family, "_program", prog)
    return prog


@cache
def _schreier(n: int) -> tuple:
    """The program of ``S_n``: flat for n < 2, else that of ``S_{n-h}[S_h]``
    with h = n // 2, since S_a[S_b] = S_{a+b} (``S_2`` is ``S_1[S_1]``).
    Halving keeps the program, and so the recursion of compiling and of
    pushing it, about log2(n) deep, with about 2 log2(n) distinct parts, so
    no index meets the recursion limit.  A state still has O(n) counters,
    so opening a piece costs time linear in n."""
    if n < 2:
        return (1 if n == 0 else -1, None, None)
    outer, inner = _schreier(n - n // 2), _schreier(n // 2)
    return ((outer[0], None), outer, inner)


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


def greedy_pieces(
    family: FamilyExpr, elems: FiniteSet, cut_ok: Optional[Callable[[int], bool]] = None
) -> Optional[Tuple[FiniteSet, ...]]:
    """Peel the longest family members off ``elems``, left to right.

    A piece may end before position ``pos`` only where ``cut_ok(pos)``
    holds (everywhere when ``cut_ok`` is None); each piece ends at the last
    allowed position its run of members reaches, and None means some piece
    can end nowhere.  The greedy splits into the fewest pieces: its j-th
    piece ends no earlier than the j-th piece of any other split, since the
    part of that piece past the greedy's previous end is a member (a subset
    of one) that ends at an allowed position."""
    prog = _program(family)
    pieces = []
    first = 0
    while first < len(elems):
        state, pos, end = prog[0], first, None
        while pos < len(elems):
            state = _push(prog, state, elems[pos])
            if state is None:
                break
            pos += 1
            if cut_ok is None or pos == len(elems) or cut_ok(pos):
                end = pos
        if end is None:
            return None
        pieces.append(elems[first:end])
        first = end
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
    pieces = greedy_pieces(inner, elems)
    return Decomposition(
        family, elems, tuple(_decompose_member(inner, p) for p in pieces)
    )


def max_weight_subset(family: FamilyExpr, weights: Mapping[int, object]):
    """Maximize the weight of a family member inside the support of ``weights``.

    Ties break toward smaller cardinality, then the lexicographically
    smallest element sequence, so the result is deterministic.  Non-member
    extensions are pruned, which is sound because the families are
    hereditary.  Refuses more than ``MAX_WEIGHT_SUPPORT`` positive weights.
    """
    coords = sorted(c for c, w in weights.items() if w > 0)
    if len(coords) > MAX_WEIGHT_SUPPORT:
        raise SupportTooLarge(
            f"max-weight search handles up to {MAX_WEIGHT_SUPPORT} positive weights, "
            f"got {len(coords)}"
        )
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

    Computed by greedy packing over the family's ``chain`` and certified by
    membership of the result plus non-membership of its one-step extension.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    size = _max_run(chain(family), start)
    if size > _MAXIMAL_GUARD:
        raise Unbounded(f"maximal consecutive member from {start} exceeds guard")
    run = tuple(range(start, start + size))
    prog = _program(family)
    state = _fold(prog, run)
    if state is None or _push(prog, state, start + size) is not None:
        raise Unbounded(f"greedy packing failed for {family} from {start}")
    return run


def _max_run(levels: tuple, start: int) -> int:
    """Size of the maximal consecutive run from ``start`` in the family of
    the chain ``levels``: a run of no level is one point, else at most
    ``budget`` greedy runs of the inner chain, each from where the last
    ended (a last level's runs are single points)."""
    if not levels:
        return 1
    count = budget(levels[0], start)
    if len(levels) == 1:
        return count
    pos = start
    for _ in range(count):
        pos += _max_run(levels[1:], pos)
        if pos - start > _MAXIMAL_GUARD:
            raise Unbounded("consecutive run exceeds guard")
    return pos - start


# Deepest family ``parse_family`` accepts: ``S_n`` counts n levels (``S_0``
# and ``A_n`` one), and a composition the levels of both its parts.  The
# parser, ``decompose`` and ``maximal_member`` recurse once per level, so a
# deeper expression is a parse error, not a RecursionError.  (Membership
# compiles ``S_n`` about log2(n) deep, ``_schreier``, and takes any index.)
MAX_FAMILY_DEPTH = 200


def parse_family(text: str) -> FamilyExpr:
    """Parse the family grammar: ``A<n>``, ``S<n>``, ``M[N]``, nested, at
    most ``MAX_FAMILY_DEPTH`` levels deep."""
    expr, pos, _ = _parse_family_at(text, 0, MAX_FAMILY_DEPTH)
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos:]!r}", position=pos)
    return expr


def _parse_family_at(text: str, pos: int, budget: int):
    """The expression at ``pos``, the position after it and its depth,
    refused once the depth passes ``budget``."""
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
    try:
        index = int(text[digits_start:pos])
        expr: FamilyExpr = An(index) if head == "A" else Sn(index)
    except ValueError as exc:
        raise ParseError(str(exc), position=digits_start) from None
    depth = max(index, 1) if head == "S" else 1
    if depth > budget:
        raise ParseError(f"family nested deeper than {MAX_FAMILY_DEPTH} levels", position=pos)
    while pos < len(text) and text[pos] == "[":
        inner, inner_end, inner_depth = _parse_family_at(text, pos + 1, budget - depth)
        if inner_end >= len(text) or text[inner_end] != "]":
            raise ParseError("expected ']'", position=inner_end)
        expr = Compose(expr, inner)
        depth += inner_depth
        pos = inner_end + 1
    return expr, pos, depth


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


def members_against(lhs: FamilyExpr, rhs: FamilyExpr, ground: int):
    """Yield ``(member, member in rhs)`` for every member of ``lhs`` within
    {1..ground}, in the order of ``family_members``.

    The members arrive depth first, each after its prefixes, so the rhs
    state of a member is one push onto that of the member without its last
    element; a dead state stays dead below it, since rhs is hereditary.
    """
    prog = _program(rhs)
    states = [prog[0]]  # the rhs states of the current member's prefixes
    for member in family_members(lhs, ground):
        if member:
            del states[len(member) :]
            state = states[-1]
            states.append(None if state is None else _push(prog, state, member[-1]))
        yield member, states[-1] is not None
