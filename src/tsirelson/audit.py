"""Batch verification suites for the quantitative bounds, at desk scale.

Each audit is deterministic given its parameters and seed, returns a
structured report, and distinguishes in-hypothesis rows (which carry a
pass flag) from negative controls and regression rows (recorded but never
counted toward pass/fail).
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import families
from .errors import BudgetExceeded, GroundTooLarge, LengthMismatch
from .records import Record
from .scalars import leq, render_scalar

# The suites import the norm, generator, tree, space and vector modules
# where they use them, so that a suite loads only its own share of the
# package (``audit sch1`` needs just ``families``).
if TYPE_CHECKING:
    from .spaces import SpaceSpec
    from .trees import TreeFunctional
    from .vectors import SparseVector


class AuditRow(Record):
    id: str
    values: Dict[str, object]
    ok: Optional[bool]  # None marks controls / regression rows

    def to_dict(self):
        rendered = {}
        for key, value in sorted(self.values.items()):
            if isinstance(value, (Fraction, float)):
                rendered[key] = render_scalar(value)
            else:
                rendered[key] = value
        return {"id": self.id, "ok": self.ok, "values": rendered}


class AuditReport(Record):
    suite: str
    params: Dict[str, object]
    rows: Tuple[AuditRow, ...]
    seed: Optional[int] = None

    @property
    def checked(self) -> int:
        return sum(1 for r in self.rows if r.ok is not None)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows if r.ok is False)

    @property
    def all_pass(self) -> bool:
        return self.failed == 0

    def to_dict(self):
        return {
            "suite": self.suite,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "seed": self.seed,
            "rows": [r.to_dict() for r in self.rows],
            "checked": self.checked,
            "failed": self.failed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def table(self) -> str:
        lines = [f"suite: {self.suite}  checked={self.checked} failed={self.failed}"]
        for row in self.rows:
            flag = "-" if row.ok is None else ("ok" if row.ok else "FAIL")
            detail = " ".join(f"{k}={v}" for k, v in sorted(row.to_dict()["values"].items()))
            lines.append(f"  [{flag:4}] {row.id}: {detail}")
        return "\n".join(lines)


MAX_GROUND = 14


def audit_family_inclusion(
    lhs: families.FamilyExpr, rhs: families.FamilyExpr, ground: int
) -> AuditReport:
    """Exhaustively list members of lhs within {1..ground} missing from rhs."""
    if ground > MAX_GROUND:
        raise GroundTooLarge(f"exhaustive enumeration capped at ground {MAX_GROUND}")
    counterexamples = []
    total = 0
    for member, in_rhs in families.members_against(lhs, rhs, ground):
        total += 1
        if not in_rhs:
            counterexamples.append(member)
    rows = [
        AuditRow(
            "inclusion",
            {
                "lhs": str(lhs),
                "rhs": str(rhs),
                "ground": ground,
                "members": total,
                "counterexamples": len(counterexamples),
                "first_counterexample": str(counterexamples[0]) if counterexamples else "",
            },
            not counterexamples,
        )
    ]
    return AuditReport(
        "family-inclusion", {"lhs": str(lhs), "rhs": str(rhs), "ground": ground}, tuple(rows)
    )


# The grid of audit_sch1_grid: k and m of the inner A_k and A_m, and n of S_n
SCH1_KS = (1, 2)
SCH1_MS = (1, 2)
SCH1_N_MAX = 2


def audit_sch1_grid(ground: int = 12) -> AuditReport:
    """The composition-absorption inclusion over a small parameter grid,
    with the smallest admissible l per pair, plus a negative control where
    the inequality k*m < 2^l fails."""
    rows = []
    for k in SCH1_KS:
        for m in SCH1_MS:
            for n in range(1, SCH1_N_MAX + 1):
                l = 1
                while k * m >= 2**l:
                    l += 1
                lhs = families.Compose(
                    families.Compose(families.Sn(n), families.An(k)), families.An(m)
                )
                rhs = families.Compose(families.An(l), families.Sn(n))
                sub = audit_family_inclusion(lhs, rhs, ground)
                count = sub.rows[0].values["counterexamples"]
                rows.append(
                    AuditRow(
                        f"k={k},m={m},n={n},l={l}",
                        {"counterexamples": count},
                        count == 0,
                    )
                )
    # negative control: l too small for k = m = 2 (k*m = 4 >= 2^2)
    lhs = families.Compose(
        families.Compose(families.Sn(1), families.An(2)), families.An(2)
    )
    rhs = families.Compose(families.An(2), families.Sn(1))
    sub = audit_family_inclusion(lhs, rhs, ground)
    count = sub.rows[0].values["counterexamples"]
    rows.append(
        AuditRow(
            "control:k=2,m=2,l=2",
            {"counterexamples": count, "expected": "nonzero"},
            None,
        )
    )
    return AuditReport("sch1-grid", {"ground": ground}, tuple(rows))


def audit_l3(m: int, trials: int, seed: int) -> AuditReport:
    """Randomized check of the two gap-union conclusions.

    Instances: F in S_m split into successive pieces of exact ranks m_i,
    random G_i in S_{m_i - 1}; variant 1 places G_{i+1} beyond 3 max F_i and
    expects the union (without G_1) in S_m and the full union in A_2[S_m];
    variant 2 places G_i beyond 2 max F_i and expects the union in S_m.
    Gap-1 instances are generated as negative controls and excluded.
    """
    from .generators import random_family_member

    if m > 3:
        raise ValueError("membership cost caps the level at 3")
    rng = random.Random(seed)
    rows: List[AuditRow] = []
    for trial in range(trials):
        start = rng.randint(2, 6)
        F = random_family_member(rng, families.Sn(m), start, max_size=12)
        pieces = _random_partition(rng, F)
        ranks = [_exact_rank(piece, m) for piece in pieces]
        d = len(pieces)
        variant = trial % 3  # 0, 1 in-hypothesis; 2 = negative control
        gap = 1 if variant == 2 else (3 if variant == 0 else 2)
        gs: List[Tuple[int, ...]] = []
        pos = 0
        for i, (piece, rank) in enumerate(zip(pieces, ranks)):
            fam = families.Sn(max(rank - 1, 0))
            if variant == 0:
                anchor = 1 if i == 0 else gap * pieces[i - 1][-1] + 1
            else:
                anchor = gap * piece[-1] + 1
            g_start = max(anchor, pos + 1, 2)
            g = random_family_member(rng, fam, g_start, max_size=8)
            gs.append(g)
            pos = g[-1]
        union_all = tuple(sorted(set().union(*gs)))
        union_tail = tuple(sorted(set().union(*gs[1:]))) if d > 1 else ()
        if variant == 0:
            ok = families.is_member(
                families.Compose(families.An(2), families.Sn(m)), union_all
            ) and families.is_member(families.Sn(m), union_tail)
            rows.append(
                AuditRow(f"t{trial}:part1", {"d": d, "union": len(union_all)}, ok)
            )
        elif variant == 1:
            ok = families.is_member(families.Sn(m), union_all)
            rows.append(
                AuditRow(f"t{trial}:part2", {"d": d, "union": len(union_all)}, ok)
            )
        else:
            holds = families.is_member(families.Sn(m), union_all)
            rows.append(
                AuditRow(
                    f"t{trial}:control-gap1",
                    {"d": d, "in_sm": holds},
                    None,
                )
            )
    return AuditReport("l3", {"m": m, "trials": trials}, tuple(rows), seed)


def _random_partition(rng, elems: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    if len(elems) == 1:
        return [elems]
    d = rng.randint(1, min(3, len(elems)))
    cuts = sorted(rng.sample(range(1, len(elems)), d - 1))
    pieces = []
    prev = 0
    for c in cuts + [len(elems)]:
        pieces.append(elems[prev:c])
        prev = c
    return pieces


def _exact_rank(piece: Tuple[int, ...], cap: int) -> int:
    for r in range(cap + 1):
        if families.is_member(families.Sn(r), piece):
            return r
    return cap


def estimate_domination(
    space: SpaceSpec,
    ys: Sequence[SparseVector],
    zs: Sequence[SparseVector],
    trials: int,
    seed: int,
) -> float:
    """Empirical lower bound for the constant with which (ys) dominates (zs).

    Samples the fixed nonnegative grid (unit vectors, all-ones) plus random
    simplex and sparse-corner coefficient vectors; the estimate is the max
    ratio and can only grow with more samples.  The coefficients are
    nonnegative, so a pattern that repeats repeats |a|, and the norm is
    1-unconditional: each distinct pattern's ratio is computed once.
    """
    from .norm import norm
    from .vectors import pattern_sums

    if len(ys) != len(zs):
        raise LengthMismatch(f"{len(ys)} blocks vs {len(zs)}")
    m = len(ys)
    rng = random.Random(seed)
    patterns = [tuple(1 if i == t else 0 for i in range(m)) for t in range(m)]
    patterns.append(tuple([1] * m))
    while len(patterns) < m + 1 + trials:
        if rng.random() < 0.5:
            patterns.append(
                tuple(Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(m))
            )
        else:
            keep = rng.sample(range(m), rng.randint(1, m))
            patterns.append(tuple(1 if i in keep else 0 for i in range(m)))
    best = 0.0
    for _, (y, z) in pattern_sums(patterns, ys, zs):
        ratio = float(norm(space, z).value) / float(norm(space, y).value)
        best = max(best, ratio)
    return best


# ---------------------------------------------------------------------------
# Krivine-set audit


GENERIC_NORM_SUPPORT_CAP = 72
# Longest block whose flat norm table audit_kriv builds.  The table takes
# O(L^3) time and O(L^2) floats: 2.5 s at L = 511 on a 2-vCPU Xeon, and
# about eight times as long per doubling of L.
FLAT_TABLE_MAX_LEN = 1024
# Largest total support of the blocks that audit_kriv builds
KRIV_LEAF_BUDGET = 300_000


def audit_kriv(space: SpaceSpec, N: int, r: int, seed: int = 0) -> AuditReport:
    """Construct the block sequence of normalized flat l_r-average candidates
    satisfying the decay conditions and check the universal N^(1/p) bound.

    The decay conditions pin the weight indices m_n; their exact sizes grow
    beyond any budget for N >= 2 (see the report rows), so the audit scales
    the conditions down by powers of ten until the construction fits, and
    flags every row with the scale used.  The bound rows and the per-subset
    table are always exact.
    """
    from .norm import flat_norm_table, norm
    from .spaces import A_TYPE, ScaledPowerLaw
    from .vectors import SparseVector, sum_vectors

    if space.kind != A_TYPE or space.p_hint is None:
        raise ValueError("the Krivine audit needs an A-type p-space preset")
    if N < 1 or r < 1:
        raise ValueError(f"the Krivine audit needs N >= 1 and r >= 1, got N={N}, r={r}")
    p = float(space.p_hint)
    scale = 1
    while True:
        plan = _kriv_plan(space, N, r, scale)
        if plan is not None:
            lengths = [L for _, L in plan]
            total = sum(lengths)
            if total <= KRIV_LEAF_BUDGET and (N == 1 or total <= GENERIC_NORM_SUPPORT_CAP):
                break
        scale *= 10
        if scale > 10**12:
            raise BudgetExceeded("no feasible scale found")
    ms = [m for m, _ in plan]
    lengths = [L for _, L in plan]
    if max(lengths) > FLAT_TABLE_MAX_LEN:
        raise BudgetExceeded(
            f"block length {max(lengths)} exceeds the flat norm table cap "
            f"{FLAT_TABLE_MAX_LEN}"
        )
    table = flat_norm_table(space, max(lengths))
    blocks: List[SparseVector] = []
    start = 1
    for L in lengths:
        value = 1.0 / table[L]
        blocks.append(
            SparseVector(tuple((start + t, value) for t in range(L)))
        )
        start += L + 1
    rows: List[AuditRow] = []
    conforming = scale == 1
    for n, (m_n, L) in enumerate(zip(ms, lengths), start=1):
        theta_mn = float(space.theta_for_index(m_n))
        cond2 = leq(N * theta_mn, 2.0 ** -(n + 2) * scale)
        prev_supp = sum(lengths[: n - 1])
        cond3 = leq(theta_mn * prev_supp, 2.0 ** -(n + 2) * scale)
        c_meas = max(
            max(t ** (1.0 / r) / table[t], table[t] / t ** (1.0 / r))
            for t in range(1, L + 1)
        )
        rows.append(
            AuditRow(
                f"y{n}-conditions",
                {
                    "m_n": m_n,
                    "length": L,
                    "scale": scale,
                    "cond2": cond2,
                    "cond3": cond3,
                    "C_measured": c_meas,
                },
                (cond2 and cond3) if conforming else None,
            )
        )
    # the 99 N^{1/p} bound, for every subset J
    c_inf = None
    if isinstance(space.thetas, ScaledPowerLaw):
        c_inf = float(space.thetas.c)
    for mask in range(1, 1 << N):
        J = [n for n in range(N) if mask >> n & 1]
        if len(J) == 1:
            value = 1.0
        else:
            vec = sum_vectors([blocks[n] for n in J])
            value = float(norm(space, vec).value)
        bound = 99.0 * len(J) ** (1.0 / p)
        values = {"norm": value, "bound": bound, "J": str([n + 1 for n in J])}
        ok = leq(value, bound)
        if c_inf is not None:
            tz_bound = 6.0 / c_inf * len(J) ** (1.0 / p)
            values["tz_bound"] = tz_bound
            ok = ok and leq(value, tz_bound)
        rows.append(AuditRow(f"J={[n + 1 for n in J]}", values, ok))
    return AuditReport(
        "kriv",
        {"N": N, "r": r, "p": p, "scale": scale, "leaf_budget": KRIV_LEAF_BUDGET},
        tuple(rows),
        seed,
    )


def _kriv_plan(space: SpaceSpec, N: int, r: int, scale: int):
    """(m_n, length_n) pairs for the decay conditions scaled by `scale`."""
    plan = []
    prev_support = 0
    for n in range(1, N + 1):
        bound = 2.0 ** -(n + 2) * scale
        target = bound / N
        if prev_support:
            target = min(target, bound / prev_support)
        m_n = _smallest_theta_below(space, target)
        if m_n is None:
            return None
        L = (2 * m_n) ** r + 1
        if L > 10**7:
            return None
        plan.append((m_n, L))
        prev_support += L
    return plan


def _smallest_theta_below(space: SpaceSpec, bound: float) -> Optional[int]:
    if bound >= float(space.theta_for_index(1)):
        return 1
    lo, hi = 1, 2
    while float(space.theta_tail_sup(hi)) > bound:
        lo = hi
        hi *= 2
        if hi > 10**7:
            return None
    while lo < hi:
        mid = (lo + hi) // 2
        if float(space.theta_tail_sup(mid)) <= bound:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# path-weight inequality audit


def audit_pest(space: SpaceSpec, instances: int, seed: int) -> AuditReport:
    """Random disjoint sibling-group selections in random valid functionals,
    checked against the path-weight Holder inequality."""
    from .generators import random_valid_functional
    from .spaces import A_TYPE

    if space.kind != A_TYPE or space.p_hint is None:
        raise ValueError("this audit needs an A-type p-space preset")
    p = float(space.p_hint)
    q = p / (p - 1) if p > 1 else math.inf
    rng = random.Random(seed)
    rows = []
    for trial in range(instances):
        size = rng.randint(3, 9)
        start = rng.randint(1, 5)
        coords = []
        c = start
        for _ in range(size):
            coords.append(c)
            c += rng.randint(1, 3)
        f = random_valid_functional(space, rng, tuple(coords), leaf_prob=0.1, signs=False)
        groups = _random_group_cut(space, rng, f)
        if not groups:
            rows.append(AuditRow(f"t{trial}", {"skipped": "leaf root"}, None))
            continue
        scalars = [
            [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in groups]
            for _ in range(4)
        ]
        scalars.append([Fraction(1)] * len(groups))
        ok = True
        worst = 0.0
        for a in scalars:
            lhs = sum(
                float(a_n) * gamma * (len(J) ** (1.0 / q) if q != math.inf else 1.0)
                for a_n, (gamma, J) in zip(a, groups)
            )
            rhs = (
                sum(float(a_n) ** p for a_n in a) ** (1.0 / p)
                if p > 1
                else sum(float(a_n) for a_n in a)
            )
            worst = max(worst, lhs - rhs)
            ok = ok and leq(lhs, rhs)
        rows.append(
            AuditRow(f"t{trial}", {"groups": len(groups), "max_excess": worst}, ok)
        )
    return AuditReport("pest", {"instances": instances, "p": p}, tuple(rows), seed)


def _random_group_cut(space, rng, f: TreeFunctional):
    """Random antichain cut: (gamma_n, J_n) with J_n the full child sets of
    the cut nodes, gammas the root-to-node weight products (node included).
    Nodes are visited in pre-order, each drawing at most once."""
    from .trees import Leaf, Node

    if isinstance(f, Leaf):
        return []
    groups = []
    stack = [(f, 1.0)]
    while stack:
        node, gamma = stack.pop()
        g = gamma * float(space.theta_for_index(node.weight_index))
        if all(isinstance(c, Node) for c in node.children) and rng.random() < 0.5:
            stack.extend((c, g) for c in reversed(node.children))
        else:
            groups.append((g, node.children))
    return groups
