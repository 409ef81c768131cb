"""Constructive special vectors: l_r-averages, averaging trees, special
convex combinations, equal-norm partitions, and c_0-average associates.

Constructions are deterministic given the pool order and seed; every
constructed object has a separate checker, and the checkers (not the
construction recipes) are the normative side.  The norm engine and the
functionals are imported by the functions that use them, so that the
``scc`` and ``avg`` commands load neither.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import families
from .audit import AuditReport, AuditRow
from .errors import (
    HypothesisViolated,
    InsufficientPool,
    ParseError,
    PoolExhausted,
    SizeOverflow,
    SupportTooLarge,
    TsirelsonError,
)
from .records import Record
from .scalars import close, leq
from .spaces import SpaceSpec, derived_params
from .vectors import SparseVector, pattern_sums, sum_vectors

if TYPE_CHECKING:
    from .trees import TreeFunctional


def basis_pool(start: int = 1) -> Iterator[SparseVector]:
    """Endless pool of unit basis vectors from a starting coordinate."""
    c = start
    while True:
        yield SparseVector.basis(c)
        c += 1


# ---------------------------------------------------------------------------
# l_r averages


def estimate_equiv_const(
    space: SpaceSpec,
    blocks: Sequence[SparseVector],
    r,
    samples: int = 1000,
    seed: int = 0,
) -> float:
    """Certified lower bound on the constant of equivalence between the
    blocks and the unit basis of l_r^m.

    Tests the all-ones vector, unit vectors, random sign patterns and random
    sparse rational coefficient vectors; the true constant can only be
    larger.  The norm is 1-unconditional and the blocks are successive, so
    a pattern's ratio depends on its absolute values only: each distinct
    |pattern| is computed once.
    """
    from .norm import norm

    m = len(blocks)
    if m == 0:
        raise ValueError("need at least one block")
    for a, b in zip(blocks, blocks[1:]):
        if not a < b:
            raise ValueError("blocks must be successive")
    rng = random.Random(seed)
    patterns: List[Tuple] = [tuple([1] * m)]
    patterns.extend(tuple(1 if i == t else 0 for i in range(m)) for t in range(m))
    while len(patterns) < samples:
        kind = rng.randrange(3)
        if kind == 0:
            patterns.append(tuple(rng.choice((-1, 1)) for _ in range(m)))
        elif kind == 1:
            keep = rng.sample(range(m), rng.randint(1, m))
            patterns.append(tuple(1 if i in keep else 0 for i in range(m)))
        else:
            patterns.append(
                tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m))
            )
    best = 1.0
    for a, (combo,) in pattern_sums(patterns, blocks):
        nrm = float(norm(space, combo).value)
        lr = SparseVector.from_pairs(enumerate(a, 1)).ellp(r)
        if nrm == 0 or lr == 0:
            continue
        best = max(best, nrm / lr, lr / nrm)
    return best


def build_lr_average(space: SpaceSpec, pool: Iterable[SparseVector], r, length: int):
    """Normalized sum of the first `length` pool blocks with its measured
    equivalence constant (a lower bound)."""
    from .norm import norm

    blocks = list(itertools.islice(iter(pool), length))
    if len(blocks) < length:
        raise InsufficientPool(f"pool provided {len(blocks)} of {length} blocks")
    total = sum_vectors(blocks)
    x = total.scale(1 / norm(space, total).value)
    c_est = estimate_equiv_const(space, blocks, r)
    return x, c_est


def _bounds_row(row_id: str, value, lower, upper) -> AuditRow:
    return AuditRow(
        row_id,
        {"value": value, "lower": lower, "upper": upper},
        leq(lower, value) and leq(value, upper),
    )


def check_lr_average_bounds(
    space: SpaceSpec, x: SparseVector, C: float, r, N: int, M: int
) -> AuditReport:
    """Admissible-sum bounds for a C-l_r-average of length N, per level j <= M.

    The hypothesis requires N >= (2M)**r; with 1/s + 1/r = 1, the level-j
    admissible sum must lie within [j^(1/s)/(2C^2), 2C^2 j^(1/s)].  The values
    stay in the space's arithmetic; the bounds are floats, since j^(1/s) is
    irrational in general and C is a float estimate.
    """
    from .norm import admissible_sum

    if N < (2 * M) ** r:
        raise HypothesisViolated(f"need N >= (2M)^r = {(2 * M) ** r}, got {N}")
    rows = []
    for j in range(1, M + 1):
        value = admissible_sum(space, x, families.An(j)).value
        js = 1.0 if r == 1 else float(j) ** (1.0 - 1.0 / float(r))
        rows.append(_bounds_row(f"j={j}", value, js / (2 * C * C), 2 * C * C * js))
    return AuditReport("lr-bounds", {"C": C, "r": r, "N": N, "M": M}, tuple(rows))


# ---------------------------------------------------------------------------
# averaging trees


class AvgNode(Record):
    level: int
    vector: SparseVector
    children: Tuple["AvgNode", ...] = ()

    @property
    def k(self) -> int:
        return len(self.children)


class AveragingTree(Record):
    depth: int
    epsilon: object
    theta: object
    root: AvgNode
    relaxed_scale: Optional[int] = None

    @property
    def conforming(self) -> bool:
        return self.relaxed_scale is None

    def level_nodes(self, j: int) -> List[AvgNode]:
        nodes = [self.root]
        for _ in range(self.depth - j):
            nodes = [c for n in nodes for c in n.children]
        return nodes

    def leaf_count(self) -> int:
        return len(self.level_nodes(0))


def _size_bound(i: int, j: int, theta, epsilon, prev_max_supp: Optional[int], scale):
    if i == 1:
        bound = 6 * 2 ** (2 + j) / (theta * epsilon)
    else:
        bound = 6 * 2 ** (1 + i + j) * prev_max_supp / (theta * epsilon)
    if scale is not None:
        bound = bound / scale
    return bound


def build_averaging_tree(
    space: SpaceSpec,
    pool: Iterable[SparseVector],
    M: int,
    epsilon,
    relaxed_scale: Optional[int] = None,
    leaf_budget: int = 100_000,
) -> AveragingTree:
    """Build a nested uniform average with the explicit size lower bounds.

    In exact mode the bounds are enforced verbatim; ``relaxed_scale`` divides
    the right-hand sides for desk-scale experiments and marks the tree
    non-conforming.  The sibling groups are kept admissible by advancing the
    pool until the first block of a group starts late enough.
    """
    theta_est = derived_params(space, 8).theta_limit_estimate
    if space.exact and not isinstance(theta_est, Fraction):
        theta_est = Fraction(theta_est).limit_denominator(10**6)
    eps = space.scalar(epsilon)
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if M < 0:
        raise ValueError(f"the tree needs levels >= 0, got {M}")
    if relaxed_scale is not None and relaxed_scale < 1:
        raise ValueError(f"the relaxed scale must be positive, got {relaxed_scale}")
    pool_iter = iter(pool)
    counters = {j: 0 for j in range(M + 1)}
    prev_max: dict = {j: None for j in range(M + 1)}
    leaves_used = 0

    def next_block(min_start: int) -> SparseVector:
        nonlocal leaves_used
        for block in pool_iter:
            if block.support[0] >= min_start:
                leaves_used += 1
                if leaves_used > leaf_budget:
                    raise SizeOverflow(
                        f"averaging tree exceeds the leaf budget {leaf_budget}"
                    )
                return block
        raise PoolExhausted("block pool exhausted")

    def build(level: int, min_start: int) -> AvgNode:
        counters[level] += 1
        if level == 0:
            node = AvgNode(0, next_block(min_start))
            prev_max[0] = node.vector.support[-1]
            return node
        i = counters[level]
        bound = _size_bound(i, level, theta_est, eps, prev_max[level], relaxed_scale)
        k = int(bound) + 1
        if k < 2:
            k = 2
        children = [build(level - 1, max(min_start, k))]
        for _ in range(k - 1):
            children.append(build(level - 1, 1))
        vector = sum_vectors([c.vector for c in children]).scale(1 / space.scalar(k))
        node = AvgNode(level, vector, tuple(children))
        prev_max[level] = vector.support[-1]
        return node

    root = build(M, 1)
    return AveragingTree(M, eps, theta_est, root, relaxed_scale)


def tree_to_dict(tree: AveragingTree) -> dict:
    """JSON-ready form: per-level node records with child intervals and the
    leaf vectors with exact coefficients."""
    from .scalars import render_scalar

    levels = []
    for j in range(tree.depth, -1, -1):
        nodes = tree.level_nodes(j)
        offset = 0
        records = []
        for node in nodes:
            if j == 0:
                records.append(
                    {
                        "support": list(node.vector.support),
                        "values": [render_scalar(v) for v in node.vector.values],
                    }
                )
            else:
                records.append(
                    {"interval": [offset + 1, offset + node.k]}
                )
                offset += node.k
        levels.append({"level": j, "nodes": records})
    return {
        "depth": tree.depth,
        "epsilon": render_scalar(tree.epsilon),
        "theta": render_scalar(tree.theta),
        "relaxed_scale": tree.relaxed_scale,
        "levels": levels,
    }


def tree_from_dict(data: dict, exact: bool = True) -> AveragingTree:
    """The tree that ``tree_to_dict`` wrote, in exact or float arithmetic.
    Missing keys and values of the wrong shape raise ``ParseError``."""
    from .scalars import parse_scalar

    scalar = Fraction if exact else float

    def number(text):
        if not isinstance(text, str):
            raise ParseError(f"not an averaging tree: the number {text!r} is not a string")
        return scalar(parse_scalar(text))

    try:
        depth, relaxed = data["depth"], data.get("relaxed_scale")
        if not (relaxed is None or isinstance(relaxed, int) and relaxed > 0):
            raise ParseError("relaxed_scale must be a positive integer")
        by_level = {entry["level"]: entry["nodes"] for entry in data["levels"]}
        current = []
        for leaf in by_level[0]:
            entries = zip(leaf["support"], map(number, leaf["values"]), strict=True)
            current.append(AvgNode(0, SparseVector(tuple(entries))))
        for j in range(1, depth + 1):
            nodes = []
            for record in by_level[j]:
                lo, hi = record["interval"]
                if not 1 <= lo <= hi <= len(current):
                    raise ParseError(f"level {j} has the interval {[lo, hi]} out of range")
                children = tuple(current[lo - 1 : hi])
                vector = sum_vectors([c.vector for c in children]).scale(1 / scalar(len(children)))
                nodes.append(AvgNode(j, vector, children))
            current = nodes
        epsilon, theta = number(data["epsilon"]), number(data["theta"])
        return AveragingTree(depth, epsilon, theta, current[0], relaxed)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"not an averaging tree: {type(exc).__name__}: {exc}") from None


def check_averaging_tree(space: SpaceSpec, tree: AveragingTree) -> AuditReport:
    """Verify the averaging-tree conditions on the stored structure."""
    level_sizes = [len(tree.level_nodes(j)) for j in range(tree.depth + 1)]
    ok_sizes = level_sizes[tree.depth] == 1 and all(
        level_sizes[j] > level_sizes[j + 1] for j in range(tree.depth)
    )
    rows = [AuditRow("level-sizes", {"N_j": list(reversed(level_sizes))}, ok_sizes)]
    leaves = tree.level_nodes(0)
    ok_leaves = all(a.vector < b.vector for a, b in zip(leaves, leaves[1:]))
    rows.append(AuditRow("leaves-successive", {}, ok_leaves))
    ok_admissible = True
    ok_average = True
    for j in range(1, tree.depth + 1):
        for node in tree.level_nodes(j):
            kids = node.children
            if not kids:
                ok_admissible = False
                continue
            if any(not a.vector < b.vector for a, b in zip(kids, kids[1:])):
                ok_admissible = False
            if len(kids) > kids[0].vector.support[0]:
                ok_admissible = False
            k = len(kids)
            avg = sum_vectors([c.vector for c in kids]).scale(1 / space.scalar(k))
            if avg.support != node.vector.support or not all(
                close(a, b, space.exact) for a, b in zip(avg.values, node.vector.values)
            ):
                ok_average = False
    rows.append(AuditRow("siblings-s1-admissible", {}, ok_admissible))
    rows.append(AuditRow("uniform-averages", {}, ok_average))
    violations = []
    for j in range(1, tree.depth + 1):
        prev_supp = None
        for i, node in enumerate(tree.level_nodes(j), start=1):
            bound = _size_bound(
                i, j, tree.theta, tree.epsilon, prev_supp, tree.relaxed_scale
            )
            if not node.k > bound:
                violations.append(f"k_{{{i},{j}}}={node.k} <= {float(bound):.3g}")
            prev_supp = node.vector.support[-1]
    rows.append(
        AuditRow(
            "size-bounds" + ("" if tree.conforming else " (relaxed)"),
            {"violations": violations},
            not violations,
        )
    )
    params = {"levels": tree.depth, "leaves": len(leaves), "conforming": tree.conforming}
    return AuditReport("averaging-tree", params, tuple(rows))


def audit_tav(space: SpaceSpec, tree: AveragingTree, delta) -> AuditReport:
    """Check the special-average bounds for the normalized tree root.

    Per level j the S_j-admissible sum of the normalized vector must lie in
    [theta_1 theta^(1-j)/4, 4 theta_1^(-1) theta^(-j-1)]; node norms are
    checked against the (1-delta)^j theta^j lower bound.  Values and bounds
    stay in the space's arithmetic, so an exact space compares them exactly.

    Each distinct vector is solved once, for the norm and every S_j at
    once.  The norm is homogeneous, and an exact space computes it exactly,
    so there the rows of y = x/||x|| are x's divided by ||x||; a float
    space solves y itself.  The root node is x.
    """
    from .saturated import solve

    x = tree.root.vector
    fams = [families.Sn(j) for j in range(1, tree.depth + 1)]
    solved = solve(space, x, fams)
    norm_x = solved.value(0, solved.m)
    if space.exact:
        scale = norm_x
    else:
        solved, scale = solve(space, x.scale(1 / norm_x), fams), 1
    m = solved.m
    theta = space.scalar(tree.theta)
    theta1 = space.theta_for_index(1)
    rows = []
    for j in range(0, tree.depth + 1):
        if j == 0:
            value = solved.value(0, m) / scale
        else:
            # admissible_sum's value: the best start of the first piece
            value = max(solved.value(s, m, fams[j - 1]) for s in range(m)) / scale
        lower = theta1 * theta ** (1 - j) / 4
        upper = 4 * theta ** (-j - 1) / theta1
        rows.append(_bounds_row(f"j={j}", value, lower, upper))
    for j in range(1, tree.depth + 1):
        bound = (1 - space.scalar(delta)) ** j * theta**j
        for i, node in enumerate(tree.level_nodes(j), start=1):
            if node is tree.root:
                value = norm_x
            else:
                node_solved = solve(space, node.vector)
                value = node_solved.value(0, node_solved.m)
            values = {"value": value, "lower": bound}
            rows.append(AuditRow(f"node:j={j},i={i}", values, leq(bound, value)))
    params = {"delta": delta, "levels": tree.depth, "conforming": tree.conforming}
    return AuditReport("tav", params, tuple(rows))


# ---------------------------------------------------------------------------
# special convex combinations


class SCC(Record):
    """An (epsilon, j) special convex combination on the unit vector basis."""

    j: int
    epsilon: object
    support: Tuple[int, ...]
    coefficients: Tuple[object, ...]


# the largest support ``build_scc`` builds: from a start s, a level-1
# combination has s points and a level-2 one s * (2**s - 1), s greedy S_1
# runs each twice as long as the last
SCC_SUPPORT_BOUND = 100_000


def build_scc(j: int, epsilon, start: int) -> SCC:
    """Repeated uniform averaging along maximal consecutive members.

    Level 1 puts uniform weights on a maximal S_1 run; level j averages the
    level-(j-1) combinations built on the greedy pieces of a maximal S_j
    run.  From a start s either level has S_{j-1} mass exactly 1/s: level 1
    puts 1/s on each point, and level 2 puts 1/(sL) on each point of a
    greedy piece [L, 2L), so 1/s on the piece, in coefficients that do not
    increase along the support.  There an S_1 set of t <= s points takes at
    most t/s^2, and one of t > s points at most the mass of [t, 2t), which
    meets two adjacent pieces [L, 2L) and [2L, 4L) and takes
    (2L - t)/(sL) + (t - L)/(sL) = 1/s from them.  So the combination is
    built at the first s from ``start`` on with s > 1/epsilon, and the
    checker confirms it.  Levels above 2 explode combinatorially and are
    rejected, and so is a support past ``SCC_SUPPORT_BOUND`` points.
    """
    if j < 1:
        raise ValueError("scc level must be >= 1")
    if j > 2:
        raise ValueError("maximal-member supports explode beyond level 2")
    if start < 1:
        raise ValueError("start must be >= 1")
    eps = Fraction(epsilon)
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    s = max(start, math.floor(1 / eps) + 1)
    if s > SCC_SUPPORT_BOUND or j == 2 and s * (2**s - 1) > SCC_SUPPORT_BOUND:
        raise SizeOverflow(
            f"the level-{j} combination from start {s} exceeds the support bound "
            f"{SCC_SUPPORT_BOUND}"
        )
    candidate = SCC(j, eps, *_repeated_average(j, s))
    if not check_scc(candidate):
        raise TsirelsonError(f"the level-{j} combination from start {s} fails the checker")
    return candidate


def _repeated_average(j: int, start: int):
    if j == 1:
        F = families.maximal_member(families.Sn(1), start)
        return F, (Fraction(1, len(F)),) * len(F)
    outer = families.maximal_member(families.Sn(j), start)
    pieces = families.decompose(families.Sn(j), outer).piece_sets()
    d = len(pieces)
    support: List[int] = []
    coeffs: List[Fraction] = []
    for piece in pieces:
        # greedy pieces of a maximal member are themselves maximal runs, so
        # the nested combination lives exactly on the piece
        _, sub_coeffs = _repeated_average(j - 1, piece[0])
        if len(sub_coeffs) != len(piece):
            raise TsirelsonError("nested average does not align with its piece")
        support.extend(piece)
        coeffs.extend(Fraction(1, d) * c for c in sub_coeffs)
    return tuple(support), tuple(coeffs)


def max_s1_mass(support: Tuple[int, ...], coeffs: Tuple) -> object:
    """Exact maximum of sum of weights over S_1 subsets of the support.

    An S_1 set of size t has all elements >= t, so the maximum is
    max over t of (sum of the t largest weights among coordinates >= t);
    computed by a descending sweep with a shrinking top-t selection.
    """
    import heapq

    n = len(support)
    best = max(coeffs) if coeffs else 0
    pairs = sorted(zip(support, coeffs))
    idx = n - 1
    selected: List = []  # min-heap of the current top-t weights
    sel_sum = 0
    for t in range(n, 0, -1):
        while idx >= 0 and pairs[idx][0] >= t:
            w = pairs[idx][1]
            idx -= 1
            if len(selected) < t:
                heapq.heappush(selected, w)
                sel_sum += w
            elif selected and w > selected[0]:
                sel_sum += w - heapq.heapreplace(selected, w)
        while len(selected) > t:
            sel_sum -= heapq.heappop(selected)
        if len(selected) == t and sel_sum > best:
            best = sel_sum
    return best


def check_scc(candidate: SCC) -> bool:
    """Membership of the support in S_j plus the epsilon mass condition on
    every S_{j-1} subset, via an exact maximum-mass computation."""
    if any(a < 0 for a in candidate.coefficients):
        return False
    if sum(candidate.coefficients) != 1:
        return False
    if not families.is_member(families.Sn(candidate.j), candidate.support):
        return False
    j = candidate.j
    if j == 1:
        mass = max(candidate.coefficients)
    elif j == 2:
        mass = max_s1_mass(candidate.support, candidate.coefficients)
    else:
        coeffs = dict(zip(candidate.support, candidate.coefficients))
        _, mass = families.max_weight_subset(families.Sn(j - 1), coeffs)
    return mass < candidate.epsilon


# ---------------------------------------------------------------------------
# equal-norm partitions


def equal_norm_partition(
    space: SpaceSpec, z: SparseVector, m: int, delta
) -> List[Tuple[int, ...]]:
    """Split the support into m successive sets with pairwise norm ratios in
    [1-delta, 1+delta].

    Constructive prefix sweep: partitions of every prefix into m-1 pieces
    are refined along the sign change of ||tail|| - max piece norm; the
    hypothesis ||z|| >= 1/2 and ||z||_inf < delta/(8 m^2) makes the additive
    norm gaps small relative to the largest piece.  Its sup-norm half is
    checked first, before the interval table is filled.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0 < float(delta) < 1):
        raise ValueError("delta must lie in (0,1)")
    delta = space.scalar(delta)
    eps = z.sup_norm()
    bound = delta / (8 * m * m)
    if not eps < bound:
        raise HypothesisViolated(
            f"need ||z||_inf < delta/(8 m^2) = {float(bound)}, got {float(eps)}"
        )
    coords, d = interval_norm_table(space, z)
    J = len(coords)
    total = d(0, J)
    if not 2 * total >= 1:
        raise HypothesisViolated(f"need ||z|| >= 1/2, got {float(total)}")
    if m == 1:
        return [coords]

    memo: dict = {}

    def partition_prefix(j: int, parts: int) -> List[Tuple[int, int]]:
        """Partition [0, j) into `parts` intervals with norm gaps <= 2*parts*eps."""
        key = (j, parts)
        if key in memo:
            return memo[key]
        if parts == 2:
            split = _two_part_split(d, j)
            result = [(0, split), (split, j)]
        else:
            if d(parts - 1, j) < eps:
                result = [(t, t + 1) for t in range(parts - 1)] + [(parts - 1, j)]
            else:
                result = None
                for e in range(parts - 1, j):
                    prefix_parts = partition_prefix(e, parts - 1)
                    sup = max(d(a, b) for a, b in prefix_parts)
                    if not d(e, j) > sup:
                        result = prefix_parts + [(e, j)]
                        break
                if result is None:
                    result = partition_prefix(j - 1, parts - 1) + [(j - 1, j)]
        memo[key] = result
        return result

    parts = partition_prefix(J, m)
    norms = [d(a, b) for a, b in parts]
    sup, inf = max(norms), min(norms)
    lo_ok = inf >= (1 - delta) * sup
    hi_ok = sup <= (1 + delta) * inf
    if not (lo_ok and hi_ok):
        raise TsirelsonError(
            f"partition sweep missed the ratio bound: norms {[float(v) for v in norms]}"
        )
    return [coords[a:b] for a, b in parts]


def _two_part_split(d, j: int) -> int:
    """The first e in [1, j) with d(e, j) <= d(0, e), or j - 1 if none.

    Restriction never raises the norm, so d(e, j) falls and d(0, e) rises
    with e: the condition is monotone in e and bisection finds its first e.
    """
    lo, hi = 1, j - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if d(mid, j) > d(0, mid):
            lo = mid + 1
        else:
            hi = mid
    return hi


def interval_norm_table(space: SpaceSpec, z: SparseVector):
    """(coords, d) with d(a, b) the norm of z restricted to the support
    positions [a, b): O(1) per query on a saturated support where the
    closed form applies (``saturated.solve``), else read off one filled
    DP."""
    from .saturated import solve

    solved = solve(space, z)
    return solved.coords, solved.value


# ---------------------------------------------------------------------------
# c_0-average associates


C0_SUPPORT_BOUND = 12


def c0_average_associate(space: SpaceSpec, f_parts: Sequence[TreeFunctional]):
    """Associate a near-l_1 vector with a sum of successive functionals.

    Each part gets a norming-candidate vector found by searching the
    sign-matched indicator vectors on its support (exact on supports up to
    12); when a part is a norm witness the search attains eval = norm.
    Returns the normalized sum plus the achieved constant Sum f_k(x_k) over
    the norm of the sum.
    """
    from .functionals import eval_functional, leaves, support
    from .norm import norm

    if not f_parts:
        raise ValueError("need at least one functional part")
    sups = [support(f) for f in f_parts]
    for a, b in zip(sups, sups[1:]):
        if a[-1] >= b[0]:
            raise ValueError("parts must be successive")
    chosen: List[SparseVector] = []
    achieved_sum = space.scalar(0)
    for f, sup in zip(f_parts, sups):
        if len(sup) > C0_SUPPORT_BOUND:
            raise SupportTooLarge(
                f"coordinate search handles supports up to {C0_SUPPORT_BOUND}"
            )
        signs = {g.coordinate: g.sign for g in leaves(f)}
        best_ratio = None
        best_vec = None
        for mask in range(1, 1 << len(sup)):
            coords = [sup[i] for i in range(len(sup)) if mask >> i & 1]
            vec = SparseVector(tuple((c, signs[c]) for c in coords))
            value = eval_functional(space, f, vec)
            nrm = norm(space, vec).value
            ratio = value / nrm
            if best_ratio is None or ratio > best_ratio:
                best_ratio = ratio
                best_vec = vec.scale(1 / nrm)
        chosen.append(best_vec)
        achieved_sum = achieved_sum + eval_functional(space, f, best_vec)
    total = sum_vectors(chosen)
    total_norm = norm(space, total).value
    return total.scale(1 / total_norm), achieved_sum / total_norm
