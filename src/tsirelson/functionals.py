"""Norming functionals as tree-analyses, plus the functional surgery.

A functional is a tree whose leaves are signed unit functionals and whose
internal nodes carry a weight index n; a node evaluates to theta_n times the
sum of its children.  Validation checks the admissibility of every node's
children against the space's family ladder.

The surgery operations:

* ``split_xk`` rewrites a functional that is valid in the auxiliary space
  (inner ``A_k`` composed into every level family) as a sum of at most k+1
  successive functionals valid in the plain space, by regrouping the
  inductively split children along a family decomposition.
* ``make_comparable`` rewrites a functional so that no node support straddles
  a block of a given block sequence partially, losing at most a factor 6
  (A-type ladder, by local split/erase moves at covering nodes) or 4 (S-type
  ladder, by boundary splitting into the inner-A_3 auxiliary space followed
  by ``split_xk``).  Both constants are certified per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from . import families
from .errors import InvalidInput, ParseError, SurgeryFailed
from .spaces import A_TYPE, SINGLE, SpaceSpec
from .vectors import SparseVector, sum_vectors


@dataclass(frozen=True)
class Leaf:
    sign: int
    coordinate: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("leaf sign must be +1 or -1")
        if self.coordinate < 1:
            raise ValueError("leaf coordinate must be a positive integer")


@dataclass(frozen=True)
class Node:
    weight_index: int
    children: Tuple["TreeFunctional", ...]

    def __post_init__(self):
        if self.weight_index < 1:
            raise ValueError("weight index must be >= 1")
        if not self.children:
            raise ValueError("nodes need at least one child")


TreeFunctional = Union[Leaf, Node]


def support(f: TreeFunctional) -> Tuple[int, ...]:
    if isinstance(f, Leaf):
        return (f.coordinate,)
    out: List[int] = []
    for child in f.children:
        out.extend(support(child))
    return tuple(out)


def eval_functional(space: SpaceSpec, f: TreeFunctional, x: SparseVector):
    """Recursive evaluation: a leaf picks a signed coordinate of x, a node
    multiplies the sum of its children by its weight."""
    lookup = dict(x.entries)
    zero = 0 if space.exact else 0.0

    def rec(g: TreeFunctional):
        if isinstance(g, Leaf):
            return g.sign * lookup.get(g.coordinate, zero)
        total = zero
        for child in g.children:
            total = total + rec(child)
        return space.theta_for_index(g.weight_index) * total

    return rec(f)


@dataclass(frozen=True)
class Violation:
    path: Tuple[int, ...]
    reason: str


def validate(space: SpaceSpec, f: TreeFunctional) -> List[Violation]:
    """Structured admissibility check; an empty list means the functional is
    in the norming set of the space."""
    out: List[Violation] = []

    def rec(g: TreeFunctional, path: Tuple[int, ...]):
        if isinstance(g, Leaf):
            return
        if space.max_index() is not None and g.weight_index > space.max_index():
            out.append(Violation(path, f"weight index {g.weight_index} not available"))
            return
        supports = [support(c) for c in g.children]
        for a, b in zip(supports, supports[1:]):
            if a[-1] >= b[0]:
                out.append(Violation(path, "children supports not successive"))
                return
        minima = tuple(s[0] for s in supports)
        fam = space.family_for_index(g.weight_index)
        if not families.is_member(fam, minima):
            out.append(
                Violation(path, f"children minima {minima} not a member of {fam}")
            )
        for i, child in enumerate(g.children):
            rec(child, path + (i,))

    rec(f, ())
    return out


def restrict_functional(f: TreeFunctional, coords) -> Optional[TreeFunctional]:
    """Restriction to a coordinate set; None when nothing survives.

    Valid functionals stay valid: each node keeps a subset of its children
    with weakly raised minima, and the families are hereditary and spreading.
    """
    keep = set(coords)

    def rec(g: TreeFunctional) -> Optional[TreeFunctional]:
        if isinstance(g, Leaf):
            return g if g.coordinate in keep else None
        kept = tuple(c for c in (rec(ch) for ch in g.children) if c is not None)
        if not kept:
            return None
        return Node(g.weight_index, kept)

    return rec(f)


def cover_map(
    f: TreeFunctional, blocks: Sequence[SparseVector]
) -> dict:
    """For each block index, the path to the node covering it: the deepest
    tree element whose support contains every point the functional's support
    shares with the block (None when they are disjoint)."""
    out = {}
    global_support = set(support(f))
    for idx, block in enumerate(blocks):
        w_n = set(block.support) & global_support
        out[idx] = _covering_path(f, w_n) if w_n else None
    return out


def node_supports(f: TreeFunctional) -> List[Tuple[int, ...]]:
    """Supports of every element of the tree-analysis, root included."""
    out: List[Tuple[int, ...]] = []

    def rec(g: TreeFunctional):
        out.append(support(g))
        if isinstance(g, Node):
            for c in g.children:
                rec(c)

    rec(f)
    return out


def is_comparable(f: TreeFunctional, blocks: Sequence[SparseVector]) -> bool:
    """Three-way condition: each node support lies inside one block's range,
    or contains all the functional's support points of every block it meets,
    or meets no block range at all."""
    for a, b in zip(blocks, blocks[1:]):
        if not a < b:
            raise ValueError("blocks must be successive")
    block_ranges = [b.range() for b in blocks]
    block_supports = [set(b.support) for b in blocks]
    global_support = set(support(f))
    return not any(
        _partial_blocks(sup, block_ranges, block_supports, global_support)
        for sup in node_supports(f)
    )


# ---------------------------------------------------------------------------
# s-expression round trip


def format_functional(f: TreeFunctional) -> str:
    if isinstance(f, Leaf):
        return f"(l {'+' if f.sign > 0 else '-'} {f.coordinate})"
    inner = " ".join(format_functional(c) for c in f.children)
    return f"(n {f.weight_index} {inner})"


# Deepest nesting ``parse_functional`` accepts (a leaf alone has depth 1).
# The tree walks recurse, so deeper input is a parse error, not a
# RecursionError; a norm witness on m coordinates has depth at most m.
MAX_FUNCTIONAL_DEPTH = 200


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


def split_xk(space: SpaceSpec, f: TreeFunctional) -> List[TreeFunctional]:
    """Split a functional valid in the inner-A_k auxiliary space into at most
    k+1 successive functionals valid in the plain space, summing to it.

    The regrouping decomposes the collected child-part minima inside
    A_{k+1}[S_n] (possible because k(k+1) < 2^{k+1}) and wraps each group
    under the original weight.
    """
    k = space.inner_ak
    if k is None:
        raise InvalidInput("split_xk needs a space with inner_ak set")
    if validate(space, f):
        raise InvalidInput("functional is not valid in the auxiliary space")
    plain = space.with_inner_ak(None)
    parts = _split_rec(space, plain, k, f)
    for part in parts:
        if validate(plain, part):
            raise SurgeryFailed("split produced an invalid part")
    return parts


def _base_family(space: SpaceSpec, n: int) -> families.FamilyExpr:
    """The level-n family of the plain space (no inner A_k)."""
    return space.with_inner_ak(None).family_for_index(n)


def _split_rec(space: SpaceSpec, plain: SpaceSpec, k: int, f: TreeFunctional) -> List[TreeFunctional]:
    if isinstance(f, Leaf):
        return [f]
    if not validate(plain, f):
        return [f]
    all_parts: List[TreeFunctional] = []
    for child in f.children:
        all_parts.extend(_split_rec(space, plain, k, child))
    minima = tuple(support(p)[0] for p in all_parts)
    grouping = families.Compose(families.An(k + 1), _base_family(space, f.weight_index))
    witness = families.decompose(grouping, minima)
    if witness is None:
        raise SurgeryFailed(
            f"minima {minima} admit no A_{k + 1}-regrouping at level {f.weight_index}"
        )
    groups: List[TreeFunctional] = []
    idx = 0
    for piece in witness.piece_sets():
        group = all_parts[idx : idx + len(piece)]
        idx += len(piece)
        groups.append(Node(f.weight_index, tuple(group)))
    return groups


# ---------------------------------------------------------------------------
# make_comparable


def negate_functional(f: TreeFunctional) -> TreeFunctional:
    """Flip every leaf sign; the norming set is symmetric, so validity and
    comparability are preserved and the evaluation changes sign."""
    if isinstance(f, Leaf):
        return Leaf(-f.sign, f.coordinate)
    return Node(f.weight_index, tuple(negate_functional(c) for c in f.children))


def make_comparable(
    space: SpaceSpec, f: TreeFunctional, blocks: Sequence[SparseVector]
) -> TreeFunctional:
    """Rewrite f into a functional comparable with the blocks.

    Certifies per instance: the output validates, is comparable, and
    c * f'(v) >= f(v) for v the sum of the blocks, with c = 6 on the A-type
    ladder and c = 4 on the S-type ladder.  Functionals acting negatively on
    v are sign-flipped first (the norming set is symmetric), which is the
    normalization under which the split/erase accounting is meaningful.
    """
    if validate(space, f):
        raise InvalidInput("make_comparable needs a valid functional")
    for a, b in zip(blocks, blocks[1:]):
        if not a < b:
            raise InvalidInput("blocks must be successive")
    if not blocks:
        raise InvalidInput("need at least one block")
    v = sum_vectors(blocks)
    target = eval_functional(space, f, v)
    work = f
    if target < 0:
        work = negate_functional(f)
    if is_comparable(work, blocks):
        return work
    constant = comparability_constant(space)
    block_support = set()
    for b in blocks:
        block_support |= set(b.support)
    restricted = restrict_functional(work, block_support)
    if restricted is not None:
        # drop leaves acting against v: a valid restriction that only raises
        # the value and makes every chunk's action nonnegative, which is the
        # setting in which the split/erase accounting certifies the constant
        lookup = dict(v.entries)
        keep = {
            c
            for c, sign in _leaf_sign_map(restricted).items()
            if sign * lookup.get(c, 0) > 0
        }
        restricted = restrict_functional(restricted, keep)
    if restricted is None:
        return _degenerate_comparable(blocks)
    if constant == 6:
        result = _comparable_atype(space, restricted, blocks, v)
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


def _degenerate_comparable(blocks: Sequence[SparseVector]) -> TreeFunctional:
    coord, value = blocks[0].entries[0]
    return Leaf(1 if value >= 0 else -1, coord)


def _leaf_sign_map(f: TreeFunctional) -> dict:
    signs: dict = {}

    def rec(g):
        if isinstance(g, Leaf):
            signs[g.coordinate] = g.sign
        else:
            for c in g.children:
                rec(c)

    rec(f)
    return signs


def _block_of(coord: int, block_ranges) -> Optional[int]:
    for i, (lo, hi) in enumerate(block_ranges):
        if lo <= coord <= hi:
            return i
    return None


def _partial_blocks(sup, block_ranges, block_supports, global_support):
    """Blocks whose range the support meets without satisfying any clause."""
    out = []
    lo, hi = sup[0], sup[-1]
    sup_set = set(sup)
    for i, ((blo, bhi), bsupp) in enumerate(zip(block_ranges, block_supports)):
        if hi < blo or lo > bhi:
            continue  # ranges disjoint
        if lo >= blo and hi <= bhi:
            continue  # inside the block's range
        if (bsupp & global_support) <= sup_set:
            continue  # contains every global-support point of the block
        out.append(i)
    return out


def _comparable_atype(space, f, blocks, v):
    """Split/erase surgery at the per-block covering nodes, A_n ladder.

    For each block, the deepest node containing all of the block's support
    points has at most two children straddling the block (one per side);
    cutting those children at the block boundary restricts their whole
    subtrees at once, so every deeper straddle for that block disappears in
    the same move.  Each split pairs with the erasure of a fully-inside
    sibling (or drops the weaker cut part), so child counts never grow and
    A_n-admissibility is preserved.  Edits touch only the block's own
    coordinates, so blocks are processed independently left to right.
    """
    for block_idx, block in enumerate(blocks):
        guard = 0
        while True:
            guard += 1
            if guard > len(support(f)) + 8:
                raise SurgeryFailed("covering-node surgery did not terminate")
            edited = _fix_block_atype(space, f, blocks, block_idx, v)
            if edited is None:
                break
            f = edited
            if f is _EMPTY:
                return _degenerate_comparable(blocks)
    return f


_EMPTY = object()


def _covering_path(f, w_n: set) -> Optional[Tuple[int, ...]]:
    """Path to the deepest node whose support contains the set w_n."""
    if not w_n <= set(support(f)):
        return None
    path: Tuple[int, ...] = ()
    node = f
    while isinstance(node, Node):
        descended = False
        for i, child in enumerate(node.children):
            if w_n <= set(support(child)):
                node = child
                path = path + (i,)
                descended = True
                break
        if not descended:
            break
    return path


def _fix_block_atype(space, f, blocks, block_idx, v):
    """One editing pass for a single block; None when the block is clean."""
    block = blocks[block_idx]
    blo, bhi = block.range()
    w_n = set(block.support) & set(support(f))
    if not w_n:
        return None
    path = _covering_path(f, w_n)
    node = _node_at(f, path)
    if isinstance(node, Leaf):
        return None
    straddlers = []
    inside = []
    for i, child in enumerate(node.children):
        sup = support(child)
        if sup[-1] < blo or sup[0] > bhi:
            continue
        if sup[0] >= blo and sup[-1] <= bhi:
            inside.append(i)
        else:
            straddlers.append(i)
    if not straddlers:
        return None

    def val_on_block(g):
        return eval_functional(space, g, block)

    kids = list(node.children)
    if inside:
        # cut one straddler at the boundary; keep the cut part only if it
        # beats the weakest inside sibling (which then makes room)
        i = straddlers[0]
        child = kids[i]
        child_sup = support(child)
        c_in = restrict_functional(child, {c for c in child_sup if blo <= c <= bhi})
        c_out = restrict_functional(child, {c for c in child_sup if c < blo or c > bhi})
        weakest = min(inside, key=lambda t: val_on_block(kids[t]))
        if val_on_block(c_in) >= val_on_block(kids[weakest]):
            pieces = (
                [c_out, c_in] if support(c_out)[-1] < support(c_in)[0] else [c_in, c_out]
            )
            kids[i : i + 1] = pieces
            del kids[weakest if weakest < i else weakest + 1]
        else:
            kids[i] = c_out
        return _rebuild_children(f, path, kids)
    if len(straddlers) >= 2:
        # two straddlers, nothing inside: erase the block part of the
        # weaker one; the cover then descends and the cut case applies next
        i = min(straddlers, key=lambda t: val_on_block(kids[t]))
        child = kids[i]
        child_sup = support(child)
        c_out = restrict_functional(child, {c for c in child_sup if c < blo or c > bhi})
        if c_out is None:
            del kids[i]
        else:
            kids[i] = c_out
        if not kids:
            return _EMPTY
        return _rebuild_children(f, path, kids)
    # single straddler and no inside sibling: it holds every block point the
    # subtree has, so the cover should have descended; cut it loose anyway
    i = straddlers[0]
    child = kids[i]
    child_sup = support(child)
    c_in = restrict_functional(child, {c for c in child_sup if blo <= c <= bhi})
    c_out = restrict_functional(child, {c for c in child_sup if c < blo or c > bhi})
    kids[i] = max((c_in, c_out), key=lambda g: eval_functional(space, g, v))
    return _rebuild_children(f, path, kids)


def _node_at(f, path):
    for i in path:
        f = f.children[i]
    return f


def _rebuild_children(f, path, new_children: Sequence[TreeFunctional]):
    """Replace the children tuple of the node at path."""
    if not path:
        return Node(f.weight_index, tuple(new_children))
    head, rest = path[0], path[1:]
    kids = list(f.children)
    kids[head] = _rebuild_children(f.children[head], rest, new_children)
    return Node(f.weight_index, tuple(kids))


def _comparable_stype(space, f, blocks, v):
    """Boundary splitting into the inner-A_3 auxiliary tree, then split_xk."""
    aux = space.with_inner_ak(3)
    expanded = _expand_boundaries(f, blocks)
    if validate(aux, expanded):
        raise SurgeryFailed("boundary expansion left the auxiliary space")
    parts = split_xk(aux, expanded)
    comparable_parts = [p for p in parts if is_comparable(p, blocks)]
    if not comparable_parts:
        repaired = [
            _prune_partial_blocks(space, p, blocks) for p in parts
        ]
        comparable_parts = [
            p for p in repaired if p is not None and is_comparable(p, blocks)
        ]
    if not comparable_parts:
        raise SurgeryFailed("no comparable part after X_3 splitting")
    return max(comparable_parts, key=lambda p: eval_functional(space, p, v))


def _expand_boundaries(f: TreeFunctional, blocks) -> TreeFunctional:
    """Split every child at the boundaries of the blocks it meets partially.

    Preserves the functional exactly; each child becomes at most three
    successive parts, so the result is valid in the inner-A_3 auxiliary
    space.  Requires the support to be inside the union of block supports.
    """
    block_ranges = [b.range() for b in blocks]
    block_supports = [set(b.support) for b in blocks]
    global_support = set(support(f))

    def rec(g: TreeFunctional) -> TreeFunctional:
        if isinstance(g, Leaf):
            return g
        new_children: List[TreeFunctional] = []
        for child in g.children:
            sup = support(child)
            partial = _partial_blocks(sup, block_ranges, block_supports, global_support)
            if not partial:
                new_children.append(rec(child))
                continue
            first, last = partial[0], partial[-1]
            flo, fhi = block_ranges[first]
            llo, lhi = block_ranges[last]
            segments = []
            if first == last:
                segments = [
                    {c for c in sup if c < flo},
                    {c for c in sup if flo <= c <= fhi},
                    {c for c in sup if c > fhi},
                ]
            else:
                segments = [
                    {c for c in sup if c <= fhi},
                    {c for c in sup if fhi < c < llo},
                    {c for c in sup if c >= llo},
                ]
            for seg in segments:
                part = restrict_functional(child, seg)
                if part is not None:
                    new_children.append(rec(part))
        return Node(g.weight_index, tuple(new_children))

    return rec(f)


def _prune_partial_blocks(space, g, blocks):
    """Repair pass: for blocks met partially by some node, keep only the
    best-evaluating maximal fully-inside chunk and erase the rest of the
    block's coordinates from g."""
    block_ranges = [b.range() for b in blocks]
    block_supports = [set(b.support) for b in blocks]
    for _ in range(len(blocks) + 1):
        global_support = set(support(g))
        bad = set()
        for sup in node_supports(g):
            bad.update(
                _partial_blocks(sup, block_ranges, block_supports, global_support)
            )
        if not bad:
            return g
        for block_idx in sorted(bad):
            blo, bhi = block_ranges[block_idx]
            chunks = _max_inside_chunks(g, blo, bhi)
            if not chunks:
                keep: set = set()
            else:
                best = max(
                    chunks, key=lambda c: eval_functional(space, c, blocks[block_idx])
                )
                keep = set(support(best))
            drop = {c for c in support(g) if blo <= c <= bhi and c not in keep}
            g2 = restrict_functional(g, set(support(g)) - drop)
            if g2 is None:
                return None
            g = g2
    return g


def _max_inside_chunks(g: TreeFunctional, lo: int, hi: int) -> List[TreeFunctional]:
    """Maximal subtrees of g whose support lies inside [lo, hi]."""
    out: List[TreeFunctional] = []

    def rec(node):
        sup = support(node)
        if sup[0] >= lo and sup[-1] <= hi:
            out.append(node)
            return
        if isinstance(node, Node):
            for c in node.children:
                rec(c)

    rec(g)
    return out
