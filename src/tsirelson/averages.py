"""Constructive special vectors: l_r-averages, averaging trees, special
convex combinations, equal-norm partitions, and c_0-average associates.

Constructions are deterministic given the pool order and seed; every
constructed object has a separate checker, and the checkers (not the
construction recipes) are the normative side.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import families
from .audit import AuditReport, AuditRow
from .errors import (
    HypothesisViolated,
    InsufficientPool,
    PoolExhausted,
    SizeOverflow,
    SupportTooLarge,
    TsirelsonError,
)
from .functionals import TreeFunctional, _leaf_sign_map, eval_functional, support
from .norm import _Engine, admissible_sum, norm
from .scalars import close, leq
from .spaces import SpaceSpec, derived_params
from .vectors import SparseVector, sum_vectors


def basis_pool(start: int = 1) -> Iterator[SparseVector]:
    """Endless pool of unit basis vectors from a starting coordinate."""
    c = start
    while True:
        yield SparseVector.basis(c)
        c += 1


# ---------------------------------------------------------------------------
# l_r averages


def _lr_norm(a: Sequence, r) -> float:
    if r == 1:
        return float(sum(abs(float(v)) for v in a))
    return float(sum(abs(float(v)) ** r for v in a)) ** (1.0 / r)


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
    larger.
    """
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
    for a in patterns:
        if all(v == 0 for v in a):
            continue
        combo = sum_vectors([blocks[i].scale(a[i]) for i in range(m) if a[i] != 0])
        if not combo:
            continue
        nrm = float(norm(space, combo).value)
        lr = _lr_norm(a, r)
        if nrm == 0 or lr == 0:
            continue
        best = max(best, nrm / lr, lr / nrm)
    return best


def build_lr_average(space: SpaceSpec, pool: Iterable[SparseVector], r, length: int):
    """Normalized sum of the first `length` pool blocks with its measured
    equivalence constant (a lower bound)."""
    blocks = list(itertools.islice(iter(pool), length))
    if len(blocks) < length:
        raise InsufficientPool(f"pool provided {len(blocks)} of {length} blocks")
    total = sum_vectors(blocks)
    nrm = norm(space, total).value
    x = total.scale(Fraction(1) / nrm if space.exact else 1.0 / float(nrm))
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
    admissible sum must lie within [j^(1/s)/(2C^2), 2C^2 j^(1/s)].
    """
    if N < (2 * M) ** r:
        raise HypothesisViolated(f"need N >= (2M)^r = {(2 * M) ** r}, got {N}")
    rows = []
    for j in range(1, M + 1):
        value = float(admissible_sum(space, x, families.An(j)).value)
        js = 1.0 if r == 1 else float(j) ** (1.0 - 1.0 / float(r))
        rows.append(_bounds_row(f"j={j}", value, js / (2 * C * C), 2 * C * C * js))
    return AuditReport("lr-bounds", {"C": C, "r": r, "N": N, "M": M}, tuple(rows))


# ---------------------------------------------------------------------------
# averaging trees


@dataclass(frozen=True)
class AvgNode:
    level: int
    vector: SparseVector
    children: Tuple["AvgNode", ...] = ()

    @property
    def k(self) -> int:
        return len(self.children)


@dataclass(frozen=True)
class AveragingTree:
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
    eps = Fraction(epsilon) if space.exact else float(epsilon)
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
        vector = sum_vectors([c.vector for c in children]).scale(
            Fraction(1, k) if space.exact else 1.0 / k
        )
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
    from .scalars import parse_scalar

    by_level = {entry["level"]: entry["nodes"] for entry in data["levels"]}
    leaves = []
    for record in by_level[0]:
        values = [parse_scalar(v) for v in record["values"]]
        if not exact:
            values = [float(v) for v in values]
        leaves.append(
            AvgNode(0, SparseVector(tuple(zip(record["support"], values))))
        )
    current = leaves
    for j in range(1, data["depth"] + 1):
        nodes = []
        for record in by_level[j]:
            lo, hi = record["interval"]
            children = tuple(current[lo - 1 : hi])
            k = len(children)
            vector = sum_vectors([c.vector for c in children]).scale(
                Fraction(1, k) if exact else 1.0 / k
            )
            nodes.append(AvgNode(j, vector, children))
        current = nodes
    epsilon = parse_scalar(data["epsilon"])
    theta = parse_scalar(data["theta"])
    if not exact:
        epsilon = float(epsilon)
        theta = float(theta)
    return AveragingTree(
        data["depth"], epsilon, theta, current[0], data.get("relaxed_scale")
    )


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
            avg = sum_vectors([c.vector for c in kids]).scale(
                Fraction(1, k) if space.exact else 1.0 / k
            )
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
    checked against the (1-delta)^j theta^j lower bound.
    """
    x = tree.root.vector
    nrm = norm(space, x).value
    y = x.scale(Fraction(1) / nrm if space.exact else 1.0 / float(nrm))
    theta = float(tree.theta)
    theta1 = float(space.theta_for_index(1))
    rows = []
    for j in range(0, tree.depth + 1):
        if j == 0:
            value = float(norm(space, y).value)
        else:
            value = float(admissible_sum(space, y, families.Sn(j)).value)
        lower = theta1 * theta ** (1 - j) / 4
        upper = 4 * theta ** (-j - 1) / theta1
        rows.append(_bounds_row(f"j={j}", value, lower, upper))
    for j in range(1, tree.depth + 1):
        bound = (1 - float(delta)) ** j * theta**j
        for i, node in enumerate(tree.level_nodes(j), start=1):
            value = float(norm(space, node.vector).value)
            values = {"value": value, "lower": bound}
            rows.append(AuditRow(f"node:j={j},i={i}", values, leq(bound, value)))
    params = {"delta": delta, "levels": tree.depth, "conforming": tree.conforming}
    return AuditReport("tav", params, tuple(rows))


# ---------------------------------------------------------------------------
# special convex combinations


@dataclass(frozen=True)
class SCC:
    """An (epsilon, j) special convex combination on the unit vector basis."""

    j: int
    epsilon: object
    support: Tuple[int, ...]
    coefficients: Tuple[object, ...]

    def as_vector(self) -> SparseVector:
        return SparseVector(tuple(zip(self.support, self.coefficients)))


def build_scc(j: int, epsilon, start: int) -> SCC:
    """Repeated uniform averaging along maximal consecutive members.

    Level 1 puts uniform weights on a maximal S_1 run; level j averages the
    level-(j-1) combinations built on the greedy pieces of a maximal S_j
    run.  The start advances until the checker confirms the epsilon mass
    condition.  Levels above 2 explode combinatorially and are rejected.
    """
    if j < 1:
        raise ValueError("scc level must be >= 1")
    if j > 2:
        raise ValueError("maximal-member supports explode beyond level 2")
    if start < 1:
        raise ValueError("start must be >= 1")
    eps = Fraction(epsilon)
    s = start
    while True:
        support, coeffs = _repeated_average(j, s)
        candidate = SCC(j, eps, support, coeffs)
        if check_scc(candidate):
            return candidate
        s += 1


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
        if len(candidate.support) > 20:
            raise SupportTooLarge(
                "exact mass search above level 2 handles supports up to 20"
            )
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
    norm gaps small relative to the largest piece.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0 < float(delta) < 1):
        raise ValueError("delta must lie in (0,1)")
    coords, d = interval_norm_table(space, z)
    J = len(coords)
    total = d(0, J)
    eps = z.sup_norm()
    bound = (Fraction(delta) if space.exact else float(delta)) / (8 * m * m)
    if not total >= (Fraction(1, 2) if space.exact else 0.5):
        raise HypothesisViolated(f"need ||z|| >= 1/2, got {float(total)}")
    if not eps < bound:
        raise HypothesisViolated(
            f"need ||z||_inf < delta/(8 m^2) = {float(bound)}, got {float(eps)}"
        )
    if m == 1:
        return [coords]

    memo: dict = {}

    def partition_prefix(j: int, parts: int) -> List[Tuple[int, int]]:
        """Partition [0, j) into `parts` intervals with norm gaps <= 2*parts*eps."""
        key = (j, parts)
        if key in memo:
            return memo[key]
        if parts == 1:
            result = [(0, j)]
        elif parts == 2:
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
    lo_ok = inf >= (1 - Fraction(delta) if space.exact else 1 - float(delta)) * sup
    hi_ok = sup <= (1 + Fraction(delta) if space.exact else 1 + float(delta)) * inf
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
    positions [a, b).

    When the space is a single-S_1 space and the whole support is
    S_1-saturated (first coordinate at least the support size), every
    admissible partition of every interval refines to singletons, so the
    norm collapses to max(sup-norm, theta * l1) and d is O(1) per query via
    prefix sums and a sparse max table.  Other cases fill the interval DP.
    """
    coords = z.support
    m = len(coords)
    saturated = (
        space.kind == "single"
        and isinstance(space.single_family, families.Sn)
        and space.single_family.n == 1
        and m > 0
        and coords[0] >= m
    )
    if not saturated:
        engine = _Engine(space, z)
        engine.fill()
        return engine.coords, engine.value
    theta = space.theta_for_index(1)
    values = [abs(v) for v in z.values]
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + v)
    sparse = [values]
    k = 1
    while (1 << k) <= m:
        prev = sparse[-1]
        half = 1 << (k - 1)
        sparse.append(
            [max(prev[i], prev[i + half]) for i in range(m - (1 << k) + 1)]
        )
        k += 1

    def d(a: int, b: int):
        if a >= b:
            return 0
        span = b - a
        level = span.bit_length() - 1
        biggest = max(sparse[level][a], sparse[level][b - (1 << level)])
        return max(biggest, theta * (prefix[b] - prefix[a]))

    return coords, d


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
    if not f_parts:
        raise ValueError("need at least one functional part")
    sups = [support(f) for f in f_parts]
    for a, b in zip(sups, sups[1:]):
        if a[-1] >= b[0]:
            raise ValueError("parts must be successive")
    chosen: List[SparseVector] = []
    achieved_sum = 0
    for f, sup in zip(f_parts, sups):
        if len(sup) > C0_SUPPORT_BOUND:
            raise SupportTooLarge(
                f"coordinate search handles supports up to {C0_SUPPORT_BOUND}"
            )
        signs = _leaf_sign_map(f)
        best_ratio = None
        best_vec = None
        for mask in range(1, 1 << len(sup)):
            coords = [sup[i] for i in range(len(sup)) if mask >> i & 1]
            vec = SparseVector(tuple((c, signs[c]) for c in coords))
            value = eval_functional(space, f, vec)
            nrm = norm(space, vec).value
            ratio = (Fraction(value) / nrm) if space.exact else float(value) / float(nrm)
            if best_ratio is None or ratio > best_ratio:
                best_ratio = ratio
                best_vec = vec.scale(Fraction(1) / nrm if space.exact else 1.0 / float(nrm))
        chosen.append(best_vec)
        achieved_sum = achieved_sum + eval_functional(space, f, best_vec)
    total = sum_vectors(chosen)
    total_norm = norm(space, total).value
    x = total.scale(Fraction(1) / total_norm if space.exact else 1.0 / float(total_norm))
    if space.exact:
        return x, Fraction(achieved_sum) / total_norm
    return x, float(achieved_sum) / float(total_norm)
