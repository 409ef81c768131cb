"""Norming functionals as tree-analyses, plus the functional surgery.

A functional is a tree whose leaves are signed unit functionals and whose
internal nodes carry a weight index n; a node evaluates to theta_n times the
sum of its children.  Validation checks the admissibility of every node's
children against the space's family ladder.  The tree core (``Leaf``,
``Node``, ``fold``, ``leaves``, ``support``, ``format_functional``) lives in
``trees`` and is re-exported here.

The surgery operations:

* ``split_xk`` rewrites a functional that is valid in the auxiliary space
  (inner ``A_k`` composed into every level family) as a sum of at most k+1
  successive functionals valid in the plain space, by regrouping the
  inductively split children greedily; given blocks, a group never ends
  between two points of one block.
* ``make_comparable`` rewrites a functional so that no node support straddles
  a block of a given block sequence partially, losing at most a factor 6
  (A-type ladder, by local split/erase moves at covering nodes) or 4 (S-type
  ladder).  On S-type ladders the boundary splitting into the inner-A_3
  auxiliary space leaves every node with points of one block only or with
  all of f's points of each block it meets; a node of one block is valid in
  the plain space and kept whole, so every part of the block-aware
  ``split_xk`` is comparable, and the best of at most 4 parts gives the
  constant by construction.  Both constants are still checked per instance,
  against |f(v)| for the value f(v) of the functional rewritten.

The surgery reads block containment off subtree ends.  Every tree it handles
has successive children at every node: ``make_comparable`` validates its
input, and restriction, boundary cuts and regrouping keep children in order.
So the leaves of f increase left to right, and a subtree whose first and last
leaves are lo and hi (``_ends``) holds exactly f's support points in [lo, hi].
It holds all of f's points in block i exactly when their least and greatest
(the block's span, ``_spans``) lie in [lo, hi].
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence, Tuple

from . import families
from .errors import InvalidInput, ParseError, SurgeryFailed
from .records import Record
from .spaces import A_TYPE, SINGLE, SpaceSpec
from .trees import (  # noqa: F401  (re-exported: the tree core lives in ``trees``)
    Leaf,
    Node,
    TreeFunctional,
    fold,
    format_functional,
    leaves,
    support,
)
from .vectors import SparseVector, sum_vectors


def _rebuild(g: Node, children) -> Node:
    return Node(g.weight_index, tuple(children))


def eval_functional(space: SpaceSpec, f: TreeFunctional, x: SparseVector):
    """A leaf picks a signed coordinate of x, a node multiplies the sum of
    its children, added left to right from zero, by its weight.  The
    coordinates are taken in the space's arithmetic, so the value is a
    ``Fraction`` in an exact space and a ``float`` in a float space."""
    scalar = space.scalar
    lookup = {c: scalar(v) for c, v in x.entries}
    zero = scalar(0)

    def node(g: Node, values):
        total = zero
        for value in values:
            total = total + value
        return space.theta_for_index(g.weight_index) * total

    return fold(f, lambda g: g.sign * lookup.get(g.coordinate, zero), node)


class Violation(Record):
    path: Tuple[int, ...]
    reason: str


def _checks(space: SpaceSpec):
    """Fold callbacks behind ``validate``: a subtree folds to its least and
    greatest coordinates and its violations in pre-order, as (reversed path
    list, reason).  A node with an unavailable index or children that are
    not successive reports only that."""
    top = space.max_index()

    def node(g: Node, kids):
        lo, hi = min(kid[0] for kid in kids), max(kid[1] for kid in kids)
        if top is not None and g.weight_index > top:
            return lo, hi, [([], f"weight index {g.weight_index} not available")]
        for a, b in zip(kids, kids[1:]):
            if a[1] >= b[0]:
                return lo, hi, [([], "children supports not successive")]
        # the children are successive, so their minima increase
        minima = tuple(kid[0] for kid in kids)
        fam = space.family_for_index(g.weight_index)
        out = []
        if not families.is_member(fam, minima):
            out.append(([], f"children minima {minima} not a member of {fam}"))
        for i, (_, _, below) in enumerate(kids):
            for path, _ in below:
                path.append(i)
            out.extend(below)
        return lo, hi, out

    return (lambda g: (g.coordinate, g.coordinate, [])), node


def validate(space: SpaceSpec, f: TreeFunctional) -> List[Violation]:
    """Structured admissibility check; an empty list means the functional is
    in the norming set of the space."""
    found = fold(f, *_checks(space))[2]
    return [Violation(tuple(reversed(path)), reason) for path, reason in found]


def restrict_functional(f: TreeFunctional, coords) -> Optional[TreeFunctional]:
    """Restriction to a coordinate set; None when nothing survives.

    Valid functionals stay valid: each node keeps a subset of its children
    with weakly raised minima, and the families are hereditary and spreading.
    """
    keep = set(coords)

    def node(g: Node, kids):
        kept = [c for c in kids if c is not None]
        return _rebuild(g, kept) if kept else None

    return fold(f, lambda g: g if g.coordinate in keep else None, node)


def is_comparable(f: TreeFunctional, blocks: Sequence[SparseVector]) -> bool:
    """Three-way condition: each node support lies inside one block's range,
    or contains all the functional's support points of every block it meets,
    or meets no block range at all.  Raises ``ValueError`` when some node's
    children are not successive."""
    if any(not a < b for a, b in zip(blocks, blocks[1:])):
        raise ValueError("blocks must be successive")
    return not _partially_met(f, blocks)


# ---------------------------------------------------------------------------
# s-expression round trip


# Deepest nesting ``parse_functional`` accepts (a leaf alone has depth 1).
# The parser recurses once per level, so deeper input is a parse error, not
# a RecursionError; a norm witness on m coordinates has depth at most m.
MAX_FUNCTIONAL_DEPTH = 200

# Largest weight index ``parse_functional`` accepts.  Checking a node of
# index n recurses only about log2(n) deep, but costs time linear in n, and
# theta_n is an exact power whose size grows with n (ratio**n), so a larger
# index is a parse error; a norm witness on m points uses indices up to m.
MAX_WEIGHT_INDEX = 10_000


def parse_functional(text: str) -> TreeFunctional:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse(depth: int) -> TreeFunctional:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != "(":
            raise ParseError("expected '('", position=pos)
        if depth > MAX_FUNCTIONAL_DEPTH:
            raise ParseError(
                f"functional nested deeper than {MAX_FUNCTIONAL_DEPTH}", position=pos
            )
        pos += 1
        if pos >= len(tokens):
            raise ParseError("unexpected end of functional", position=pos)
        tag = tokens[pos]
        pos += 1
        if tag == "l":
            if pos + 1 >= len(tokens):
                raise ParseError("leaf needs a sign and a coordinate", position=pos)
            sign_tok, coord_tok = tokens[pos], tokens[pos + 1]
            pos += 2
            if sign_tok not in ("+", "-"):
                raise ParseError(f"bad sign {sign_tok!r}", position=pos)
            try:
                coord = int(coord_tok)
            except ValueError:
                raise ParseError(f"bad coordinate {coord_tok!r}", position=pos) from None
            node: TreeFunctional = Leaf(1 if sign_tok == "+" else -1, coord)
        elif tag == "n":
            if pos >= len(tokens):
                raise ParseError("node needs a weight index", position=pos)
            try:
                weight = int(tokens[pos])
            except ValueError:
                raise ParseError(f"bad weight index {tokens[pos]!r}", position=pos) from None
            if weight > MAX_WEIGHT_INDEX:
                raise ParseError(
                    f"weight index {weight} exceeds {MAX_WEIGHT_INDEX}", position=pos
                )
            pos += 1
            children = []
            while pos < len(tokens) and tokens[pos] == "(":
                children.append(parse(depth + 1))
            if not children:
                raise ParseError("node needs at least one child", position=pos)
            node = Node(weight, tuple(children))
        else:
            raise ParseError(f"unknown tag {tag!r}", position=pos)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ParseError("expected ')'", position=pos)
        pos += 1
        return node

    result = parse(1)
    if pos != len(tokens):
        raise ParseError("trailing tokens after functional", position=pos)
    return result


# ---------------------------------------------------------------------------
# X_k splitting


def split_xk(
    space: SpaceSpec, f: TreeFunctional, blocks: Optional[Sequence[SparseVector]] = None
) -> List[TreeFunctional]:
    """Split a functional valid in the inner-A_k auxiliary space into at most
    k+1 successive functionals valid in the plain space, summing to it.

    Subtrees valid in the plain space are kept whole.  At any other node the
    collected child parts are regrouped left to right, each group the longest
    run of parts whose minima the level family admits (the greedy of
    ``families.greedy_pieces``, at most k+1 groups because k(k+1) < 2^{k+1}),
    and each group is wrapped under the original weight.  With ``blocks``, a
    group ends only between parts whose facing points lie in different
    blocks, so no group splits the points of a block that its node holds.
    """
    k = space.inner_ak
    if k is None:
        raise InvalidInput("split_xk needs a space with inner_ak set")
    if validate(space, f):
        raise InvalidInput("functional is not valid in the auxiliary space")
    plain = space.with_inner_ak(None)
    check_leaf, check_node = _checks(plain)
    owner = {c: i for i, b in enumerate(blocks or ()) for c in b.support}

    def node(g: Node, kids):
        """The check of g and its parts, each with its first and last point."""
        checked = check_node(g, [c for c, _ in kids])
        if not checked[2]:
            return checked, [(g, checked[0], checked[1])]
        parts = [p for _, split in kids for p in split]

        def cut_ok(i):  # no block runs on from part i-1 into part i
            left = owner.get(parts[i - 1][2])
            return left is None or left != owner.get(parts[i][1])

        minima = tuple(lo for _, lo, _ in parts)
        fam = plain.family_for_index(g.weight_index)
        pieces = families.greedy_pieces(fam, minima, cut_ok)
        if pieces is None or len(pieces) > k + 1:
            raise SurgeryFailed(
                f"minima {minima} admit no A_{k + 1}-regrouping at level {g.weight_index}"
            )
        rest = iter(parts)
        groups = [list(islice(rest, len(piece))) for piece in pieces]
        return checked, [
            (_rebuild(g, (p for p, _, _ in group)), group[0][1], group[-1][2])
            for group in groups
        ]

    def leaf(g: Leaf):
        return check_leaf(g), [(g, g.coordinate, g.coordinate)]

    parts = [p for p, _, _ in fold(f, leaf, node)[1]]
    for part in parts:
        if validate(plain, part):
            raise SurgeryFailed("split produced an invalid part")
    return parts


# ---------------------------------------------------------------------------
# make_comparable


def negate_functional(f: TreeFunctional) -> TreeFunctional:
    """Flip every leaf sign; the norming set is symmetric, so validity and
    comparability are preserved and the evaluation changes sign."""
    return fold(f, lambda g: Leaf(-g.sign, g.coordinate), _rebuild)


def make_comparable(
    space: SpaceSpec, f: TreeFunctional, blocks: Sequence[SparseVector]
) -> TreeFunctional:
    """Rewrite f into a functional comparable with the blocks.

    Certifies per instance: the output validates, is comparable, and
    c * f'(v) >= |f(v)| for v the sum of the blocks, with c = 6 on the A-type
    ladder and c = 4 on the S-type ladder.  Functionals acting negatively on
    v are sign-flipped first (the norming set is symmetric), which is the
    normalization under which the split/erase accounting is meaningful.
    """
    if validate(space, f):
        raise InvalidInput("make_comparable needs a valid functional")
    if any(not a < b for a, b in zip(blocks, blocks[1:])):
        raise InvalidInput("blocks must be successive")
    if not blocks:
        raise InvalidInput("need at least one block")
    v = sum_vectors(blocks)
    value = eval_functional(space, f, v)
    work = negate_functional(f) if value < 0 else f
    target = abs(value)
    if is_comparable(work, blocks):
        return work
    constant = comparability_constant(space)
    restricted = restrict_functional(work, {c for b in blocks for c in b.support})
    if restricted is not None:
        # drop leaves acting against v: a valid restriction that only raises
        # the value and makes every chunk's action nonnegative, which is the
        # setting in which the split/erase accounting certifies the constant
        lookup = dict(v.entries)
        keep = {
            g.coordinate for g in leaves(restricted) if g.sign * lookup.get(g.coordinate, 0) > 0
        }
        restricted = restrict_functional(restricted, keep)
    if restricted is None:
        coord, value = blocks[0].entries[0]
        return Leaf(1 if value >= 0 else -1, coord)
    family = space.single_family
    if space.kind == SINGLE and not isinstance(family, (families.An, families.Sn)):
        raise ValueError(f"the surgery needs a ladder or a single A_n or S_n family, not {family}")
    if constant == 6:
        result = _comparable_atype(space, restricted, blocks)
    else:
        result = _comparable_stype(space, restricted, blocks, v)
    if validate(space, result):
        raise SurgeryFailed("surgery produced an invalid functional")
    if not is_comparable(result, blocks):
        raise SurgeryFailed("surgery failed to reach comparability")
    achieved = eval_functional(space, result, v)
    if not constant * achieved >= target:
        raise SurgeryFailed(
            f"constant {constant} not certified: {constant}*{achieved} < {target}"
        )
    return result


def comparability_constant(space: SpaceSpec) -> int:
    """6 for the A_n ladder, 4 for S-type ladders (including single-S)."""
    if space.kind == A_TYPE or (
        space.kind == SINGLE and isinstance(space.single_family, families.An)
    ):
        return 6
    return 4


def _ends(g: TreeFunctional) -> Tuple[int, int]:
    """The first and last leaf coordinates of g, off its two outer spines."""
    first = last = g
    while isinstance(first, Node):
        first = first.children[0]
    while isinstance(last, Node):
        last = last.children[-1]
    return first.coordinate, last.coordinate


def _spans(f: TreeFunctional, blocks) -> List[Optional[Tuple[int, int]]]:
    """Per block, the least and greatest of f's support points in the
    block's support; None where f has none.  The leaves are read once, in
    their increasing order."""
    owner = {c: i for i, b in enumerate(blocks) for c in b.support}
    spans: List[Optional[Tuple[int, int]]] = [None] * len(blocks)
    for g in leaves(f):
        i = owner.get(g.coordinate)
        if i is not None:
            spans[i] = (g.coordinate if spans[i] is None else spans[i][0], g.coordinate)
    return spans


def _partial_blocks(lo, hi, block_ranges, spans) -> List[int]:
    """Blocks whose range a subtree with ends lo, hi meets without lying
    inside it, while some of f's points in the block lie outside [lo, hi]."""
    return [
        i
        for i, ((blo, bhi), span) in enumerate(zip(block_ranges, spans))
        if not (hi < blo or lo > bhi)  # ranges meet
        and not (lo >= blo and hi <= bhi)  # not inside the block's range
        and span is not None
        and not (lo <= span[0] and span[1] <= hi)  # misses some block point
    ]


def _partially_met(f: TreeFunctional, blocks) -> set:
    """Indices of the blocks that some node of f meets partially, in one
    pass that folds each subtree to its ends; ``ValueError`` where a node's
    children are not successive, since ends then say nothing."""
    block_ranges = [b.range() for b in blocks]
    spans = _spans(f, blocks)
    bad: set = set()

    def node(g: Node, kids):
        for (_, last), (first, _) in zip(kids, kids[1:]):
            if last >= first:
                raise ValueError("children supports not successive")
        lo, hi = kids[0][0], kids[-1][1]
        bad.update(_partial_blocks(lo, hi, block_ranges, spans))
        return lo, hi

    fold(f, lambda g: (g.coordinate, g.coordinate), node)
    return bad


def _comparable_atype(space, f, blocks):
    """Split/erase surgery at the per-block covering nodes, A_n ladder.

    For each block, the deepest node containing all of the block's support
    points has at most two children straddling the block (one per side);
    cutting those children at the block boundary restricts their whole
    subtrees at once, so every deeper straddle for that block disappears in
    the same move.  Each split pairs with the erasure of a fully-inside
    sibling (or drops the weaker cut part), so child counts never grow and
    A_n-admissibility is preserved.  Edits touch only the block's own
    coordinates, so blocks are processed independently left to right.  Every
    pass erases at least one point of f, so the passes end.
    """
    for block in blocks:
        while (edited := _fix_block_atype(space, f, block)) is not None:
            f = edited
    return f


def _covering_path(f, lo: int, hi: int) -> Tuple[int, ...]:
    """Path to the deepest node that holds every point of f in [lo, hi]."""
    path: Tuple[int, ...] = ()
    node = f
    while isinstance(node, Node):
        for i, child in enumerate(node.children):
            first, last = _ends(child)
            if first <= lo and hi <= last:
                node, path = child, path + (i,)
                break
        else:
            break
    return path


def _fix_block_atype(space, f, block):
    """One editing pass for a single block; None when the block is clean.

    A straddler reaches past the block's range on one side only (its
    siblings are successive), so both of its cut parts are nonempty; a lone
    straddler with no inside sibling would hold every block point, and the
    cover would have descended into it.
    """
    blo, bhi = block.range()
    span = _spans(f, [block])[0]
    if span is None:
        return None
    path = _covering_path(f, *span)
    node = f
    for i in path:
        node = node.children[i]
    if isinstance(node, Leaf):
        return None
    straddlers = []
    inside = []
    for i, child in enumerate(node.children):
        first, last = _ends(child)
        if last < blo or first > bhi:
            continue
        if first >= blo and last <= bhi:
            inside.append(i)
        else:
            straddlers.append(i)
    if not straddlers:
        return None

    def val_on_block(g):
        return eval_functional(space, g, block)

    def cut(child):
        """The parts of child inside and outside the block's range."""
        sup = support(child)
        return (
            restrict_functional(child, {c for c in sup if blo <= c <= bhi}),
            restrict_functional(child, {c for c in sup if c < blo or c > bhi}),
        )

    kids = list(node.children)
    if not inside:
        # two straddlers, nothing inside: erase the block part of the
        # weaker one; the cover then descends and the cut case applies next
        i = min(straddlers, key=lambda t: val_on_block(kids[t]))
        kids[i] = cut(kids[i])[1]
        return _rebuild_children(f, path, kids)
    # cut one straddler at the boundary; keep the cut part only if it
    # beats the weakest inside sibling (which then makes room)
    i = straddlers[0]
    c_in, c_out = cut(kids[i])
    weakest = min(inside, key=lambda t: val_on_block(kids[t]))
    if val_on_block(c_in) >= val_on_block(kids[weakest]):
        kids[i : i + 1] = [c_out, c_in] if _ends(c_out)[0] < blo else [c_in, c_out]
        del kids[weakest if weakest < i else weakest + 1]
    else:
        kids[i] = c_out
    return _rebuild_children(f, path, kids)


def _rebuild_children(f, path, new_children: Sequence[TreeFunctional]):
    """Replace the children tuple of the node at path."""
    spine = [f]
    for i in path:
        spine.append(spine[-1].children[i])
    g = _rebuild(spine.pop(), new_children)
    for i in reversed(path):
        parent = spine.pop()
        g = _rebuild(parent, parent.children[:i] + (g,) + parent.children[i + 1 :])
    return g


def _comparable_stype(space, f, blocks, v):
    """Boundary splitting into the inner-A_3 auxiliary tree, then the block-aware split_xk."""
    aux = space.with_inner_ak(3)
    expanded = _expand_boundaries(f, blocks)
    if validate(aux, expanded):
        raise SurgeryFailed("boundary expansion left the auxiliary space")
    parts = split_xk(aux, expanded, blocks)
    return max(parts, key=lambda p: eval_functional(space, p, v))


def _expand_boundaries(f: TreeFunctional, blocks) -> TreeFunctional:
    """Split every child at the boundaries of the blocks it meets partially.

    Preserves the functional exactly; each child becomes at most three
    successive parts, so the result is valid in the inner-A_3 auxiliary
    space.  Requires the support to be inside the union of block supports.
    """
    block_ranges = [b.range() for b in blocks]
    spans = _spans(f, blocks)

    def pieces(g: TreeFunctional):
        """The children of g, each cut at the boundaries it straddles."""
        if isinstance(g, Leaf):
            return None
        out: List[TreeFunctional] = []
        for child in g.children:
            partial = _partial_blocks(*_ends(child), block_ranges, spans)
            if not partial:
                out.append(child)
                continue
            # cut at a <= b: around the one block met partially, or
            # between the first and the last of several
            flo, fhi = block_ranges[partial[0]]
            a, b = (flo, fhi + 1) if len(partial) == 1 else (fhi + 1, block_ranges[partial[-1]][0])
            sup = support(child)
            for seg in (
                {c for c in sup if c < a},
                {c for c in sup if a <= c < b},
                {c for c in sup if c >= b},
            ):
                part = restrict_functional(child, seg)
                if part is not None:
                    out.append(part)
        return out

    return fold(f, lambda g: g, _rebuild, children=pieces)
