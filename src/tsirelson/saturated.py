"""The norm on a saturated support, in closed form.

A support is saturated when its first coordinate is at least its size m.
A family whose chain (``families.chain``) leads with S_1, such as S_n,
S_n[A_k], S_1[A_k] or S_2[S_1], then admits the all-singletons partition
of every interval: the outer S_1 level allows coords[i] >= m pieces from
any position i, and every singleton lies in every family.  The engine
takes such a level's value to be the interval's l1 norm ell(i, j) (see
Chains in ``norm``), and no partition exceeds it.  A chain led by A_n
caps its pieces at n and does not qualify.

When the space's first family leads with S_1 and theta_n <= theta_1 for
every n >= 2 (``theta_tail_sup(2) <= theta_1``), the weight loop explores
n = 1 at most and stops by n = 2, so ``D[i][j] = max(D[i+1][j], |x_i|,
theta_1 * ell(i, j))``, that is

    D[i][j] = max(max |x| on [i, j), theta_1 * ell(i, j)).

In a float space the prefix sums are added left to right as the engine
adds them; they are nondecreasing and rounding is monotone, so a suffix
never reads a larger l1 norm and the identity holds bit for bit.  The
witness and the cutoff certificate replay the engine's decisions on the
column of the right end m, which need ``D[i+1][m]`` only.  A family
whose chain leads with S_1 is worth ell(i, j) with singleton pieces.

``solve`` answers from the closed form when ``applies`` says that it gives
the engine's results, and from a filled engine otherwise; ``norm``,
``admissible_sum`` and ``averages`` ask it, so that a command whose vectors
are all saturated never loads the engine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import families
from .spaces import SpaceSpec
from .trees import Leaf, Node, TreeFunctional
from .vectors import SparseVector


def applies(space: SpaceSpec, x: SparseVector, fams) -> bool:
    """Whether the closed form gives the engine's results: a saturated
    support, a space whose first family and every family of ``fams`` lead
    with S_1 in their chains, and later weights at or below theta_1."""
    coords = x.support
    if not coords or coords[0] < len(coords):
        return False
    lead = (families.Sn(1),)
    if any(families.chain(f)[:1] != lead for f in (space.family_for_index(1), *fams)):
        return False
    return space.theta_tail_sup(2) <= space.theta_for_index(1)


def solve(space: SpaceSpec, x: SparseVector, fams=()):
    """An object answering ``value(i, j, family)``, ``pieces(i, j,
    family)``, ``witness(i, m)``, ``max_n_explored`` and ``cutoff_bound``
    for x, for the families ``fams`` (and the norm itself): the closed form
    where it applies, else a filled ``norm._Engine``.  The engine's module
    is imported only then."""
    if applies(space, x, fams):
        return Saturated(space, x)
    from .norm import _Engine

    engine = _Engine(space, x)
    engine.fill()
    return engine


class Saturated:
    """The closed form of one vector: the queries of ``norm._Engine`` that
    ``solve`` answers, from prefix sums and suffix maxima."""

    max_n_explored = 1

    def __init__(self, space: SpaceSpec, x: SparseVector):
        self.space = space
        self.coords = x.support
        self.values = x.values
        self.m = m = len(self.coords)
        scalar = space.scalar
        absv = self.abs_values = tuple(abs(scalar(v)) for v in self.values)
        prefix = [scalar(0)]
        for v in absv:
            prefix.append(prefix[-1] + v)
        self._prefix = prefix
        # the largest |x| on each suffix [i, m), and a sparse table for
        # other intervals, built when first asked
        suffix = list(absv)
        for i in range(m - 2, -1, -1):
            if suffix[i + 1] > suffix[i]:
                suffix[i] = suffix[i + 1]
        self._suffix = suffix
        self._sparse = None
        self._theta = space.theta_for_index(1)
        self.cutoff_bound = self._cutoff()

    def _cutoff(self):
        """The root's certificate: the weight loop stops at n = 1 when the
        tail bound does not beat the sup-norm candidates, else at n = 2 (as
        the engine's does in a single-family space, whose tail sup is 0
        there, and on a one-point support)."""
        space, ell1 = self.space, self._prefix[self.m]
        tail1 = space.theta_tail_sup(1)
        if self.m >= 2 and not tail1 * ell1 > max(self.value(1, self.m), self.abs_values[0]):
            return tail1 * ell1
        return space.theta_tail_sup(2) * ell1

    def value(self, i: int, j: int, family: Optional[families.FamilyExpr] = None):
        ell = self._prefix[j] - self._prefix[i]
        if family is not None:
            return ell
        return max(self._biggest(i, j), self._theta * ell)

    def _biggest(self, i: int, j: int):
        """max |x| on the positions [i, j)."""
        if j == self.m:
            return self._suffix[i]
        sparse = self._sparse
        if sparse is None:
            sparse = self._sparse = [list(self.abs_values)]
            k = 1
            while (1 << k) <= self.m:
                prev, half = sparse[-1], 1 << (k - 1)
                sparse.append([max(prev[t], prev[t + half]) for t in range(self.m - (1 << k) + 1)])
                k += 1
        level = (j - i).bit_length() - 1
        return max(sparse[level][i], sparse[level][j - (1 << level)])

    def pieces(self, i: int, j: int, family: families.FamilyExpr) -> List[Tuple[int, int]]:
        return [(t, t + 1) for t in range(i, j)]

    def witness(self, i: int, j: int) -> TreeFunctional:
        """The engine's witness of [i, m) (j is m): from i, pass each
        position whose decision defers to its suffix; at the first that
        does not, a leaf there, or one node over the leaves from there on
        when theta_1 * ell beats the sup-norm candidates (strictly, as the
        engine's first maximum; theta_tail_sup(1) >= theta_1, so the loop
        always reaches n = 1 then)."""
        m, absv, prefix = self.m, self.abs_values, self._prefix
        while i < m - 1:
            best = self.value(i + 1, m)
            if self._theta * (prefix[m] - prefix[i]) > max(best, absv[i]):
                return Node(1, tuple(self._leaf(t) for t in range(i, m)))
            if absv[i] >= best:
                break
            i += 1
        return self._leaf(i)

    def _leaf(self, t: int) -> Leaf:
        return Leaf(1 if self.values[t] >= 0 else -1, self.coords[t])
