"""Evaluation of the implicit mixed-Tsirelson norm by dynamic programming.

The norm solves

    ||x|| = max( ||x||_inf , sup_n theta_n * sup { sum_i ||E_i x|| } )

with the inner sup over level-n-family-admissible successive sets.  Two
reductions make this computable on the support alone:

* admissible sets may be replaced by consecutive runs of support
  coordinates: intersecting with the support keeps the value and weakly
  raises minima (spreading preserves admissibility), and extending each set
  rightward to the next set's first support point weakly raises the value
  (1-unconditionality) without moving minima;
* weight indices beyond a cutoff cannot win because every level-n candidate
  is bounded by theta_n times the l1 norm of the segment; the engine
  explores n until the tail sup of the weights times the segment's l1 norm
  is dominated and records that bound as a certificate.

The DP state is a support-index interval [i, j).  ``D[i][j]`` is the norm of
x restricted to it, filled with j ascending and i descending, so that every
proper sub-interval is final when [i, j) is reached.

Chains.  A family is expanded into its chain of levels (``families.chain``).
A level partitions an interval into at most ``budget`` groups (the
``families.budget`` of the level at the interval's first coordinate), each
group partitioned by the inner chain; the innermost pieces are worth their
``D`` value.  With ``C_k(a)`` the best sum over partitions of [a, j) into
exactly k inner-chain groups, ``C_1(a)`` is the inner chain's own value on
[a, j) and ``C_k(a) = max_e A[a][e] + C_{k-1}(e)`` (first maximizing
split e).  The families are hereditary and spreading, so splitting a group
never lowers a sum (triangle inequality on restrictions; the halves keep
admissible minima): ``C_k(a)`` is nondecreasing in k, and a level's value
on [i, j) is ``C_K(i)`` at the group cap ``K = min(budget, j - i)``.  When
the all-singletons partition is admissible it is optimal (every piece is
worth at most its l1 norm), and the level's value is the l1 norm.  The level
takes it on [i, j) for j up to ``fast[i]``: the end of at most ``budget``
greedy runs from i, each to the inner chain's ``fast`` limit (a run over
the base is one point), at most m.  The families are hereditary, so
``fast`` is nondecreasing and greedy runs reach furthest: i + n for A_n
over the base, i + min(k * coords[i], m - i) for S_1[A_k], and past the
budget for S_n (n >= 2) and A_n[S_1] too.  This limit holds in an exact
space whose weights are all below 1 (``theta_tail_sup(1) < 1``): there a
piece of two or more points is worth strictly less than its l1 norm, so
``C_K(i)`` attains the l1 norm through singletons only, and the values,
witnesses and pieces are those of the capped limit.  Every other space
caps ``fast[i]`` at ``i + budget``, since a float sum must keep the order
of addition: uncapped, the float64 geometric-s:1/2 space with an inner
A_2 moved a golden norm at m = 24 by one ulp (25.458333333333332 to
25.458333333333336).

Tables.  Only a chain that is the inner chain of some level keeps its value
table ``A[i][j]``.  The values ``C_k(a)`` exist for the current right end j
only, one row list per level k, computed on demand; no split point and no
decision is kept.  A read of ``C_K(i)`` needs level k only at rows
i + K - k .. j - k, so each level k < K is extended down to that row, a
band that only grows as i falls, and the one cell ``C_K(i)`` is computed;
an interval within the level's ``fast`` limit reads none.
An A-ladder's weight loop computes row i of every level up to its reach in
one pass over the row.  Every cell is the same maximum over the same
splits, whichever order the band takes, so its value does not depend on
the reads before it.  The witness reads each decision off the final
tables, with the tie rules of a first maximum over k = 1, 2, ...: all
singletons when they are admissible, else the inner chain on the whole
interval when its value attains the level's, else the least k whose
``C_k(a)`` does, split at the first e with ``A[a][e] + C_{k-1}(e)`` equal
to ``C_k(a)`` at each step.  It rebuilds these from the column of the
node's right end.  Chains are created when the weight loop first reaches
their level, and a new table is backfilled over the intervals already done.

Exclusive and full values.  Only one candidate of [i, j) reads ``D[i][j]``:
the single piece, through k = 1 at every level of the chain.  The weight
loop therefore uses each head's *exclusive* value (that candidate left out),
and the *full* table values at [i, j) are finalized right after ``D[i][j]``.
The decision of ``D[i][j]`` is (n, chain, split): the weight index of the
winning exclusive value, never the single piece itself, and how its node
cuts [i, j): into singletons (split None) or into the groups of ``chain``
whose C_k sum is split (``_split``).  An A-ladder's chain is the base.

Pruning.  Each weight loop carries, for each left end i, a value of each
head on [i, j - 1), or the bound that stood in for it, to the next right
end j: in an S-type or single-family space the head's exclusive value, in
an A-ladder the cell ``C_n(i)`` of the base column at j - 1.  A candidate
of [i, j) other than the single piece loses its last support point j - 1
to a candidate of [i, j - 1) (the families are hereditary): the single
piece [i, j - 1), or one with a group fewer, or one with as many groups.
Only the innermost piece that held j - 1 changes, and the implicit norm is
a norm (Figiel-Johnson), so by the triangle inequality the value drops by
at most |x_{j-1}|.  The carried value sums two or more pieces of
[i, j - 1), so by the same inequality it is at least ``D[i][j-1]``, and
``C_k(i)`` is nondecreasing in k; so ``U = carried + |x_{j-1}|`` bounds the
head's value on [i, j).  A candidate needs a strictly greater value than
the best so far to win, so a head with ``p * U <= q * best`` cannot, and
the loop skips its value and carries U instead.  The best, the decision,
``max_n_explored`` and the point where the loop stops do not change.  An
exact space compares the scaled integers.  A float fill adds nonnegative
terms only, so its values are within a relative error of about
m^2 * 2^-53 of the exact ones; a float space widens U by the factor
1 + 2^-20, far above that error, so that U also bounds the computed value,
and a bound carried from a bound by induction.  An A-ladder tests its
cells only until the interval's row fill, and not where [i, j - 1) has n
points or fewer: there U would be the l1 norm, which the explore test has
already found above the best.  A cell it skipped is computed when a later
read needs it.

A-ladders.  In an A-type space every head ``A_n`` cuts into pieces of D
itself, so its exclusive value on [i, j) is the l1 norm when j - i <= n and
otherwise ``C_n(i)``.  Such a space has a weight loop of its own
(``_weigh_ladder``), with the n order, the tests and the first-maximum rule
of the general one but no chain level and no exclusive values; it keeps
the base column of the right end before for its carried bounds.  Unless the
carried bounds rule out every ``C_n(i)`` it would read, it fills row i of
the base column in one call per interval, up to the last n whose tail
bound beats a lower bound of ``D[i][j]``: its best so far (at least
``D[i+1][j]``) or ``D[i][j-1]``, whichever is larger.  It reads each
explored n off that fill, and fills further only if its own best is still
below the bound there.

Arithmetic.  The engine converts each coordinate of x once, on entry, to
the space's arithmetic (``SpaceSpec.scalar``): a rational vector in a float
space fills in floats, and a float vector in an exact space in the exact
value of each float.  Every result is a ``Fraction`` in an exact space and
a ``float`` in a float space, whatever the input type.
Float spaces fill in floats, in the order of addition above, and take
``C_K(i)`` even where rounding puts some ``C_k(i)``, k < K, an ulp above it.
Exact spaces fill in integers over one scale ``G = L * Q**(m-1)``: L is the
common denominator of |x|, and Q that of theta_n over the weight indices
that can be explored (those with ``theta_tail_sup(n) > 1/m``, since an
explored n needs ``tail * l1 > best >= l1 / len``).  A tree over an interval
of length len has depth at most len - 1 (a node has at least two pieces),
so every value is an integer multiple of 1/G and a node's value
``p * S // q`` is an exact division.  Values become
``Fraction`` only at the interface; the cutoff certificate is computed in
the space's own arithmetic.
The weight loops read every weight through one table (``_Weights``):
theta_n = p/q and its tail sup tp/tq, as integers in an exact space and
with q = tq = 1.0 in a float space.  So one test ``p * ell > q * best``
serves both arithmetics, and so does one node-value step: a candidate
``p * S`` wins only if ``p * S > q * best``, and only a winner is divided
by q (``_divide``, which checks the division), so an index that cannot
win computes no node value.  In floats ``1.0 * best`` is ``best`` exactly
and the division by 1.0 is skipped, so every comparison and value is the
one a float weight gives.  The table alone knows where the weights end:
past a zero tail sup (a single-family space from n = 2 on) it gives zero
weights.  Both loops run until the first n
whose tail bound fails and return it with the last n they explored.
``fill`` keeps the largest explored n as ``max_n_explored``, and takes the
certificate ``tail_n * ||x||_1`` at the n where the loop stopped on the
root [0, m), the last interval it fills; a one-point support, whose root
no loop reaches, takes the certificate of n = 2.

Saturated supports.  When the first coordinate is at least the support
size, every chain that leads with S_1 is in its all-singletons case on
every interval.  Where ``saturated.applies`` says so, the norm is then
``max(||x||_inf, theta_1 ||x||_1)`` on every interval, and
``saturated.solve`` answers ``norm``, ``admissible_sum`` and the interval
tables from ``saturated.Saturated`` in O(m), with the engine's witness,
``max_n_explored`` and cutoff certificate; everything else fills the
engine.

``brute_norm`` is an independent oracle that enumerates tree functionals
over the support directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from operator import add
from typing import Dict, List, Optional, Tuple

from . import families
from .errors import EmptyVector, SupportTooLarge
from .records import Record
from .saturated import solve
from .spaces import A_TYPE, SINGLE, SpaceSpec
from .trees import Leaf, Node, TreeFunctional, fold
from .vectors import SparseVector

Interval = Tuple[int, int]


class NormResult(Record):
    value: object
    witness: TreeFunctional
    max_n_explored: int
    cutoff_bound: object

    def as_dict(self):
        from .scalars import render_scalar
        from .trees import format_functional

        return {
            "value": render_scalar(self.value),
            "witness": format_functional(self.witness),
            "max_n_explored": self.max_n_explored,
            "cutoff_bound": render_scalar(self.cutoff_bound),
        }


class AdmissibleSumResult(Record):
    value: object
    pieces: Tuple[Tuple[int, ...], ...]


# the engine's work counters: C_k cells computed, weight-loop candidates
# ruled out by a carried bound, A-ladder row fills and ``_Column.best`` reads
STATS = ("cells", "skips", "row_fills", "reads")

# decisions of D[i][j] that are not nodes
_LEAF = 0
_SUFFIX = 1


class _Level:
    """One level of a family chain over one support.

    ``budgets[i]`` bounds the groups of a partition of [i, j); the level
    takes the all-singletons partition of [i, j), worth the l1 norm, iff
    j <= fast[i]: the end of greedy runs to the inner chain's fast limits
    in an exact space whose weights are all below 1, else i + budgets[i]
    (see Chains).
    The value table ``F``/``FT`` (rows/columns) exists once the level is
    the inner chain of another; ``live`` is the column of the right end in
    progress.  The base level (empty stack) has D as its table.  A head of
    an S-type weight loop keeps, by left end, its exclusive values (or the
    bounds that stood in for them, see Pruning) at the right end in
    progress in ``carry`` and at the one before in ``carried``.
    """

    __slots__ = ("budgets", "inner", "fast", "F", "FT", "live", "carry", "carried")

    def __init__(self, budgets, inner, fast):
        self.budgets = budgets
        self.inner = inner
        self.fast = fast
        self.F = self.FT = None
        self.live = None
        self.carry = self.carried = None


class _Column:
    """The values C_k(a) of one inner chain for one right end j.

    C[1] is the chain's table column j.  Level k >= 2 holds the band of
    rows low[k] .. j - k of C[k], which only grows downward, and at most
    single cells below it.  ``best(i, K)`` is C_K(i), the best sum over at
    most K groups: splitting a group never lowers a sum, so C_k(i) is
    nondecreasing in k.  The cell reads level k only at rows
    i + K - k .. j - k, so ``best`` extends each level k < K whose band
    stops short of that and computes that one cell.  ``fill_row(i, K)``
    extends each level k < K down to row i + 1 the same way and computes
    row i of every level up to K.  ``U[k]``, made at the first skip in
    level k, holds the bounds that stood in for the cells an A-ladder
    skipped (see Pruning).
    The column holds the chain's table and the engine's counters, not the
    chain or the engine, so that the chain's ``live`` column makes no
    reference cycle.
    """

    __slots__ = ("F", "j", "C", "U", "low", "stats")

    def __init__(self, level: _Level, j: int, stats: dict):
        self.F = level.F
        self.j = j
        self.C = [None, level.FT[j]]
        self.U = [None] * j
        self.low = [0, 0]  # level 1 is the whole table column
        self.stats = stats

    def _grow(self, K: int):
        C, low, j = self.C, self.low, self.j
        while len(C) <= K:
            low.append(j - len(C) + 1)  # empty: row j - k is the top one
            C.append([None] * j)

    def best(self, i: int, K: int):
        """C_K(i), with the bands it reads extended."""
        C = self.C
        if len(C) <= K:
            self._grow(K)
        stats = self.stats
        stats["reads"] += 1
        cell = C[K][i]
        if cell is None:
            # level k must reach row i + K - k: extend each one short of
            # that downward, keeping the single cells met; row e takes the
            # splits e + 1 .. j - k + 1 of level k - 1
            F, low, top, j = self.F, self.low, i + K, self.j
            cells = 1
            for k in range(2, K):
                if low[k] > top - k:
                    cur, prev, end = C[k], C[k - 1], j - k + 2
                    for e in range(low[k] - 1, top - k - 1, -1):
                        if cur[e] is None:
                            cur[e] = max(map(add, F[e][e + 1 : end], prev[e + 1 : end]))
                            cells += 1
                    low[k] = top - k
            end = j - K + 2
            cell = C[K][i] = max(map(add, F[i][i + 1 : end], C[K - 1][i + 1 : end]))
            stats["cells"] += cells
            if low[K] == i + 1:
                low[K] = i
        return cell

    def fill_row(self, i: int, K: int):
        """C_k(i) for k = 2 .. K, K < j - i, in one pass over the row."""
        C, low, j = self.C, self.low, self.j
        if len(C) <= K:
            self._grow(K)
        # levels 2 .. K - 1 must hold rows i + 1 and above
        F, cells = self.F, K - 1
        for k in range(2, K):
            if low[k] > i + 1:
                cur, prev, end = C[k], C[k - 1], j - k + 2
                for e in range(low[k] - 1, i, -1):
                    if cur[e] is None:
                        cur[e] = max(map(add, F[e][e + 1 : end], prev[e + 1 : end]))
                        cells += 1
                low[k] = i + 1
        # map stops at the shorter operand
        row = F[i][i + 1 : j]
        prev = C[1]
        end = j
        for cur in C[2 : K + 1]:
            cur[i] = max(map(add, row, prev[i + 1 : end]))
            prev = cur
            end -= 1
        low[2:K] = [i] * (K - 2)
        if low[K] == i + 1:
            low[K] = i
        stats = self.stats
        stats["cells"] += cells
        stats["row_fills"] += 1


class _Weights(dict):
    """n -> (tp, tq, p, q), filled on its first read: theta_tail_sup(n) =
    tp/tq and theta_for_index(n) = p/q, integers in an exact space and with
    tq = q = 1.0 in a float space (see Arithmetic above).  Past a zero tail
    sup the weights are zero, and theta_for_index is not asked: a
    single-family space has index 1 only."""

    def __init__(self, space: SpaceSpec):
        self.space = space

    def __missing__(self, n: int):
        tail = self.space.theta_tail_sup(n)
        theta = self.space.theta_for_index(n) if tail else tail
        if self.space.exact:
            self[n] = (tail.numerator, tail.denominator, theta.numerator, theta.denominator)
        else:
            self[n] = (tail, 1.0, theta, 1.0)
        return self[n]


def _divide(value, q):
    """A winning node value p * S divided by q (see Arithmetic above): an
    exact division, which is checked, in an exact space; q = 1.0 in a
    float space."""
    if q != 1:
        value, rem = divmod(value, q)
        if rem:
            raise ArithmeticError("node value is not a multiple of the scale")
    return value


class _Engine:
    """Interval DP over the support of one vector in one space."""

    # the largest weight index a loop explores, and 1 where none does
    max_n_explored = 1

    def __init__(self, space: SpaceSpec, x: SparseVector):
        if not x:
            raise EmptyVector("norm of the empty vector is not defined")
        self.space = space
        self.coords = x.support
        self.values = x.values
        self.m = len(self.coords)
        scalar = space.scalar
        self.abs_values = tuple(abs(scalar(v)) for v in self.values)

    # -- set-up --------------------------------------------------------------

    def _setup(self):
        """Scale, prefix sums, the base level and the weight table."""
        space, m = self.space, self.m
        self._weights = _Weights(space)
        self.stats = dict.fromkeys(STATS, 0)
        # the float margin of a carried bound (see Pruning above)
        self._widen = 1 if space.exact else 1.0 + 2.0**-20
        if space.exact:
            values = self.abs_values
            self._scale = math.lcm(*(v.denominator for v in values)) * self._theta_lcd() ** (m - 1)
            absv = [v.numerator * (self._scale // v.denominator) for v in values]
            prefix = [0]
        else:
            absv = list(self.abs_values)
            prefix = [0.0]
        for v in absv:
            prefix.append(prefix[-1] + v)
        self._absv = absv
        self._prefix = prefix
        base = self._base = _Level(None, None, None)
        self._new_table(base)
        self._levels: Dict[tuple, _Level] = {(): base}
        self._heads: Dict[int, _Level] = {}
        self._carriers: List[_Level] = []  # the heads of an S-type weight loop
        self._tables: List[_Level] = []
        self._decisions = [[None] * (m + 1) for _ in range(m)]
        self._i, self._j = -1, 0  # the interval in progress
        self._top = 2  # the reach of the last A-ladder row fill

    def _theta_lcd(self) -> int:
        """Common denominator of theta_n over the weight indices that can be
        explored: n with theta_tail_sup(n) > 1/m.  A rational space has
        rational weights only: ``SpaceSpec`` refuses the others."""
        lcd = 1
        n = 2 if self.space.kind == A_TYPE else 1
        while True:
            tp, tq, _, q = self._weights[n]
            if not tp * self.m > tq:
                break
            lcd = math.lcm(lcd, q)
            n += 1
        return lcd

    def _new_table(self, level: _Level):
        size = self.m + 1
        level.F = [[None] * size for _ in range(size)]
        level.FT = [[None] * size for _ in range(size)]

    # -- chains --------------------------------------------------------------

    def _level(self, stack: tuple) -> _Level:
        """The level of the families ``stack``, composed outermost first,
        shared by every stack with the same ``families.chain``."""
        key = sum(map(families.chain, stack), ())
        level = self._levels.get(key)
        if level is None:
            budgets = [families.budget(key[0], c) for c in self.coords]
            inner = self._level(key[1:])
            level = _Level(budgets, inner, self._fast_limits(budgets, inner))
            self._levels[key] = level
        return level

    def _fast_limits(self, budgets, inner: _Level) -> List[int]:
        """fast[i] (see Chains above): i + budgets[i], or in an exact space
        whose weights are all below 1 the end of at most budgets[i] greedy
        runs from i, each to the inner chain's fast limit; at most m.  Over
        the base, where a run is one point, the two agree."""
        m = self.m
        limits = [i + min(budgets[i], m - i) for i in range(m)]
        if inner is self._base or not self.space.exact:
            return limits
        tp, tq, _, _ = self._weights[1]
        if tp < tq:
            for i in range(m):
                end = i
                for _ in range(budgets[i]):
                    end = inner.fast[end]
                    if end == m:
                        break
                limits[i] = end
        return limits

    def _head(self, n: int) -> _Level:
        """The chain of weight index n, met for the first time."""
        head = self._heads[n] = self._level((self.space.family_for_index(n),))
        if head is not self._base:
            self._need_table(head.inner)
            if head.carry is None:
                head.carry = [None] * self.m
                self._carriers.append(head)
        return head

    def _need_table(self, level: _Level):
        """Give the level a table, backfilled over the intervals done."""
        if level.F is not None:
            return
        self._need_table(level.inner)
        self._new_table(level)
        prefix = self._prefix
        for j in range(1, self._j + 1):
            column = self._column(level.inner, j)
            stop = self._i if j == self._j else -1
            for a in range(j - 1, stop, -1):
                level.F[a][j] = level.FT[j][a] = self._full(level, a, j, prefix[j] - prefix[a], column)
        self._tables.append(level)

    # -- exactly-k values ----------------------------------------------------

    def _column(self, level: _Level, j: int) -> _Column:
        """C_k values of the inner chain `level` at right end j; the one of
        the column in progress is kept, earlier columns are recomputed."""
        if j != self._j:
            return _Column(level, j, self.stats)
        column = level.live
        if column is None or column.j != j:
            column = level.live = _Column(level, j, self.stats)
        return column

    def _full(self, level: _Level, i: int, j: int, ell, column: _Column):
        """The level's value on [i, j), D[i][j] included: C_K(i) at the
        group cap K."""
        if j <= level.fast[i]:
            return ell
        return column.best(i, min(level.budgets[i], j - i))

    # -- the fill --------------------------------------------------------------

    def _exclusive(self, level: _Level, i: int, j: int, ell):
        """The level's value on the interval in progress without the single
        piece [i, j) itself, as (value, chain, split), or None if nothing is
        left.  The value is attained by a partition into singletons (split =
        None) or into two or more groups of the chain (split = value), of
        the level whose inner chain that is; an inner chain on the whole
        interval wins ties."""
        if level is self._base:
            return None
        if j <= level.fast[i]:
            return (ell, level.inner, None)
        inner = self._exclusive(level.inner, i, j, ell)
        K = min(level.budgets[i], j - i)
        rest = self._column(level.inner, j).best(i, K) if K >= 2 else None
        if rest is None or inner is not None and inner[0] >= rest:
            return inner
        return (rest, level.inner, rest)

    def fill(self):
        self._setup()
        absv, prefix = self._absv, self._prefix
        decisions = self._decisions
        base = self._base
        D, DT = base.F, base.FT
        weigh = self._weigh_ladder if self.space.kind == A_TYPE else self._weigh
        # where the last weight loop stopped: on the root [0, m), the last
        # interval filled; a one-point root is a leaf, which no loop
        # reaches, and takes the stop of n = 2
        stop = 2
        for j in range(1, self.m + 1):
            self._j = j
            for head in self._carriers:
                head.carried, head.carry = head.carry, [None] * self.m
            # the base column of the right end before, which an A-ladder's
            # carried bounds read (see Pruning)
            self._prev_column, base.live = base.live, _Column(base, j, self.stats)
            for i in range(j - 1, -1, -1):
                self._i = i
                ell = prefix[j] - prefix[i]
                if i == j - 1:
                    best, decision = absv[i], _LEAF
                else:
                    # the sup-norm candidates, then the weight loop
                    best, decision = D[i + 1][j], _SUFFIX
                    if absv[i] >= best:
                        best, decision = absv[i], _LEAF
                    best, decision, explored, stop = weigh(i, j, ell, best, decision)
                    if explored > self.max_n_explored:
                        self.max_n_explored = explored
                D[i][j] = DT[j][i] = best
                decisions[i][j] = decision
                for level in self._tables:
                    level.F[i][j] = level.FT[j][i] = self._full(
                        level, i, j, ell, self._column(level.inner, j)
                    )
        self._i = -1
        # the certificate: the tail bound at the stop times the l1 norm, in
        # the space's own arithmetic
        tp, tq, _, _ = self._weights[stop]
        ell1 = Fraction(prefix[self.m], self._scale) if self.space.exact else prefix[self.m]
        self.cutoff_bound = tp * ell1 / tq

    def _weigh(self, i: int, j: int, ell, best, decision):
        """(D[i][j], decision, the last n explored, the n where the loop
        stopped) for j - i >= 2 in an S-type or single-family space, from
        the best sup-norm candidate: theta_n times each head's exclusive
        value, n ascending until the tail bound is dominated."""
        weights, heads = self._weights, self._heads
        # the bound on [i, j) of an exclusive value carried from [i, j - 1)
        last, widen = self._absv[j - 1], self._widen
        explored = 0
        n = 1
        while True:
            tp, tq, p, q = weights[n]
            if not tp * ell > tq * best:
                break
            if p * ell > q * best:
                explored = n
                head = heads.get(n)
                if head is None:
                    head = self._head(n)
                carried = head.carried
                if carried is not None and carried[i] is not None:
                    bound = (carried[i] + last) * widen
                    if p * bound <= q * best:
                        # the head's value cannot beat best
                        head.carry[i] = bound
                        self.stats["skips"] += 1
                        n += 1
                        continue
                cand = self._exclusive(head, i, j, ell)
                if cand is not None:
                    head.carry[i] = cand[0]
                    value = p * cand[0]
                    if value > q * best:
                        best = _divide(value, q)
                        decision = (n, cand[1], cand[2])
            n += 1
        return best, decision, explored, n

    def _weigh_ladder(self, i: int, j: int, ell, best, decision):
        """``_weigh`` in an A-type space: the exclusive value of A_n is ell
        when j - i <= n, else C_n(i), read off one row fill of the base
        column or ruled out by the bound carried from C_n(i) at j - 1."""
        weights = self._weights
        base = self._base
        column = base.live
        length = j - i
        filled = 0  # the reach of the row fill, once there is one
        explored = 0
        n = 2
        while True:
            tp, tq, p, q = weights[n]
            if not tp * ell > tq * best:
                break
            if p * ell > q * best:
                explored = n
                if length <= n:
                    # A_n takes all singletons when they fit
                    c = ell
                    split = None
                else:
                    if not filled:
                        if n < length - 1:
                            # C_n(i) at j - 1, or the bound that stood in for it
                            prev = self._prev_column
                            carried = prev.C[n][i] if n < len(prev.C) else None
                            if carried is None and prev.U[n] is not None:
                                carried = prev.U[n][i]
                            if carried is not None:
                                bound = (carried + self._absv[j - 1]) * self._widen
                                if p * bound <= q * best:
                                    if column.U[n] is None:
                                        column.U[n] = [None] * j
                                    column.U[n][i] = bound
                                    self.stats["skips"] += 1
                                    n += 1
                                    continue
                        filled = self._reach(i, j, ell, n, best)
                        column.fill_row(i, filled)
                        C = column.C
                    if n <= filled:
                        c = C[n][i]
                    else:
                        c = column.best(i, n)
                    split = c
                value = p * c
                if value > q * best:
                    best = _divide(value, q)
                    decision = (n, base, split)
            n += 1
        return best, decision, explored, n

    def _reach(self, i: int, j: int, ell, n: int, best) -> int:
        """The last weight index from n on, below j - i, whose tail bound
        beats max(best, D[i][j-1]), a lower bound of D[i][j]: the weight
        loop passes it only while its own best stays below that bound.  The
        tails are nonincreasing, so a scan from the last reach, down while
        the bound fails and then up while it holds, finds it in a few
        steps."""
        lower = self._base.F[i][j - 1]
        if best > lower:
            lower = best
        weights = self._weights
        cap = j - i - 1
        top = self._top if self._top < cap else cap
        if top < n:
            top = n
        while top > n:
            tp, tq, _, _ = weights[top]
            if tp * ell > tq * lower:
                break
            top -= 1
        while top < cap:
            tp, tq, _, _ = weights[top + 1]
            if not tp * ell > tq * lower:
                break
            top += 1
        self._top = top
        return top

    # -- results ---------------------------------------------------------------

    def _best(self, i: int, j: int, family):
        """(level, value) of [i, j): D, or the family's chain."""
        level = self._base if family is None else self._level((family,))
        if level.F is not None:
            return level, level.F[i][j]
        self._need_table(level.inner)
        prefix = self._prefix
        return level, self._full(level, i, j, prefix[j] - prefix[i], self._column(level.inner, j))

    def value(self, i: int, j: int, family: Optional[families.FamilyExpr] = None):
        """The norm of x restricted to the support positions [i, j) or, with
        a family, the best sum of piece norms over partitions of [i, j) into
        successive runs whose minima are family-admissible.  Exact spaces
        give a Fraction, float spaces a float."""
        v = self._best(i, j, family)[1]
        return Fraction(v, self._scale) if self.space.exact else v

    def pieces(self, i: int, j: int, family: families.FamilyExpr) -> List[Interval]:
        """The support-position intervals of the partition behind
        value(i, j, family)."""
        level, value = self._best(i, j, family)
        return self._expand(level, i, j, value, [])

    def _expand(self, level: _Level, a: int, b: int, value, out: List[Interval]):
        """Append the base pieces of the level's partition of [a, b) worth
        `value`, read off the final tables with the fill's tie rules: all
        singletons when they are admissible, else the inner chain on the
        whole interval when it attains the value, else a split."""
        if level is self._base:
            out.append((a, b))
        elif b <= level.fast[a]:
            out.extend((t, t + 1) for t in range(a, b))
        elif level.inner.F[a][b] == value:
            self._expand(level.inner, a, b, value, out)
        else:
            self._split(level.inner, a, b, value, out)
        return out

    def _split(self, inner: _Level, a: int, b: int, value, out: List[Interval]):
        """Append the base pieces of a split of [a, b) into groups of the
        chain `inner` worth `value`: into the least k >= 2 groups whose
        C_k(a) attains it (the fill's first maximum over k, as C_k(a) is
        nondecreasing in k), at the first split whose sum attains C_k(a) at
        each step.  The column reads only final entries and so repeats the
        fill's values."""
        column = self._column(inner, b)
        k = 2
        while column.best(a, k) != value:
            k += 1
        C = column.C
        bounds = [a]
        for k in range(k, 1, -1):
            row, rest, target = inner.F[a], C[k - 1], C[k][a]
            a = next(e for e in range(a + 1, b - k + 2) if row[e] + rest[e] == target)
            bounds.append(a)
        bounds.append(b)
        for s, e in zip(bounds, bounds[1:]):
            self._expand(inner, s, e, inner.F[s][e], out)
        return out

    def witness(self, i: int, j: int) -> TreeFunctional:
        decisions = self._decisions

        def resolve(i: int, j: int):
            while decisions[i][j] == _SUFFIX:
                i += 1
            return i, j, decisions[i][j]

        def pieces(span):
            i, j, d = span
            if d == _LEAF:
                return None
            _, chain, split = d
            if split is None:
                return [resolve(t, t + 1) for t in range(i, j)]
            return [resolve(*p) for p in self._split(chain, i, j, split, [])]

        def leaf(span):
            return Leaf(1 if self.values[span[0]] >= 0 else -1, self.coords[span[0]])

        return fold(resolve(i, j), leaf, lambda span, kids: Node(span[2][0], tuple(kids)), pieces)


# the largest support the ``norm`` and ``witness`` commands take; the fill
# grows as about m^4.  At 224 points, on a flat vector (coordinates 1..224,
# all ones) and on ``random_vector(first=1, gap=3)``, geometric-s:1/2 took
# 3.5 s and 4.5 s (2.6 s and 5.0 s with an inner A_3) on a 2-vCPU Xeon.
# Weights that decay more slowly explore more levels and cost more per
# point: geometric-s:9/10 took 6.0 s on both at 128 points, and 100 s and
# 116 s at 224.
NORM_SUPPORT_BOUND = 224


def norm(space: SpaceSpec, x: SparseVector) -> NormResult:
    """Norm of a finitely supported vector, with a witness functional and a
    cutoff certificate for the unexplored weight indices."""
    solved = solve(space, x)
    return NormResult(
        value=solved.value(0, solved.m),
        witness=solved.witness(0, solved.m),
        max_n_explored=solved.max_n_explored,
        cutoff_bound=solved.cutoff_bound,
    )


def admissible_sum(
    space: SpaceSpec, x: SparseVector, family: families.FamilyExpr
) -> AdmissibleSumResult:
    """sup of sums of piece norms over family-admissible successive sets,
    with the maximizing pieces (as coordinate sets)."""
    return admissible_of(solve(space, x, (family,)), family)


def admissible_of(solved, family: families.FamilyExpr) -> AdmissibleSumResult:
    """``admissible_sum`` read off a ``solve`` result for that family."""
    best = best_start = None
    for s in range(solved.m):
        value = solved.value(s, solved.m, family)
        if best is None or value > best:
            best, best_start = value, s
    pieces = tuple(solved.coords[a:b] for a, b in solved.pieces(best_start, solved.m, family))
    return AdmissibleSumResult(best, pieces)


# ---------------------------------------------------------------------------
# independent brute-force oracle

BRUTE_SUPPORT_BOUND = 8


def brute_norm(space: SpaceSpec, x: SparseVector, depth_cap: int):
    """Exhaustive enumeration of tree functionals of height <= depth_cap.

    Sound but exponential; supports up to 8 coordinates.  Every functional
    of weight theta_n is bounded by theta_n times the l1 norm, so weight
    indices stop being explored once their tail sup cannot beat the best
    value found; this is the only pruning used.
    """
    if not x:
        raise EmptyVector("norm of the empty vector is not defined")
    if len(x) > BRUTE_SUPPORT_BOUND:
        raise SupportTooLarge(f"brute_norm handles supports up to {BRUTE_SUPPORT_BOUND}")
    coords = x.support
    absval = {c: abs(v) for c, v in x.entries}
    memo: Dict[tuple, object] = {}

    single = space.kind == SINGLE

    def least_index(minima: Tuple[int, ...], n_cap: int) -> Optional[int]:
        """The least weight index n <= n_cap admitting these minima, or
        None; admissibility is monotone in n, so every n up to n_cap from
        there admits them too."""
        if single:
            return 1 if families.is_member(space.family_for_index(1), minima) else None
        if space.kind == A_TYPE:
            lo = max(len(minima), 1)
            return lo if lo <= n_cap else None
        # S-type: binary search the threshold
        lo, hi = 1, n_cap
        if not families.is_member(space.family_for_index(hi), minima):
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if families.is_member(space.family_for_index(mid), minima):
                hi = mid
            else:
                lo = mid + 1
        return lo

    @cache
    def best_theta(lo: int, n_cap: int):
        """max theta_n over lo <= n <= n_cap."""
        return max(space.theta_for_index(n) for n in range(lo, n_cap + 1))

    def rec(sub: Tuple[int, ...], depth: int):
        key = (sub, depth)
        if key in memo:
            return memo[key]
        best = max(absval[c] for c in sub)
        if depth > 0:
            ell1 = sum(absval[c] for c in sub)
            # static sound cap: beyond n_cap, theta tail * l1 <= best already
            n_cap = 1
            while space.theta_tail_sup(n_cap + 1) * ell1 > best and n_cap < 4096:
                n_cap += 1
            if single:
                n_cap = 1
            for subset in _nonempty_subsets(sub):
                for pieces in _successive_splits(subset):
                    minima = tuple(p[0] for p in pieces)
                    lo = least_index(minima, n_cap)
                    if lo is None:
                        continue
                    theta = best_theta(lo, n_cap)
                    total = sum(rec(p, depth - 1) for p in pieces)
                    cand = theta * total
                    if cand > best:
                        best = cand
        memo[key] = best
        return best

    return rec(coords, depth_cap)


def _nonempty_subsets(elems: Tuple[int, ...]):
    n = len(elems)
    for mask in range(1, 1 << n):
        yield tuple(elems[i] for i in range(n) if mask >> i & 1)


def _successive_splits(elems: Tuple[int, ...]):
    """All partitions of the tuple into consecutive runs (successive sets)."""
    n = len(elems)
    for mask in range(1 << (n - 1)):
        pieces = []
        start = 0
        for i in range(n - 1):
            if mask >> i & 1:
                pieces.append(elems[start : i + 1])
                start = i + 1
        pieces.append(elems[start:])
        yield tuple(pieces)


# ---------------------------------------------------------------------------
# flat vectors in A-type spaces

def flat_norm_table(space: SpaceSpec, max_len: int) -> List[object]:
    """Norms of flat 0/1 vectors of length 1..max_len in an A-type space.

    A_n-admissibility depends only on piece counts, so the norm of a flat
    vector depends only on its length; g[L] is computed by an exact-count
    max-plus convolution over piece lengths.  Used by the large-scale audit
    constructions where the generic interval DP is out of reach.  The
    norms are in the space's arithmetic.
    """
    if space.kind != A_TYPE:
        raise ValueError("flat_norm_table applies to A-type spaces")
    g = [None] * (max_len + 1)
    g[1] = space.scalar(1)
    # a k-piece split is admissible for every level n >= k, so the best
    # weight for it is the tail sup of the weights from k on
    theta_from = [None] + [space.theta_tail_sup(k) for k in range(1, max_len + 1)]
    # H[k][l] = best sum of piece norms over exactly k pieces of total
    # length l; each row fills one entry per l, H[1] aliases g
    H = [None, g] + [[None] * (max_len + 1) for _ in range(2, max_len + 1)]
    for L in range(2, max_len + 1):
        best = g[1]
        for k in range(2, L + 1):
            if k == L:
                H[k][L] = space.scalar(L)
            else:
                # first piece of length s = 1..L-k+1 against H[k-1][L-s]
                H[k][L] = max(map(add, g[1 : L - k + 2], H[k - 1][L - 1 : k - 2 : -1]))
            cand = theta_from[k] * H[k][L]
            if cand > best:
                best = cand
        g[L] = best
    return g
