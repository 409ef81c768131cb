"""Cross-space identities as an oracle past ``brute_norm``'s 8 coordinates.

Classical facts relate spaces that the engine evaluates through different
paths; each is checked exactly, on seeded vectors of 16 to 64 points.

* An isometry (Casazza-Shura, *Tsirelson's Space*, LNM 1363):
  T[(S_n, theta^n)_n] = T[S_1, theta], since S_1[S_{n-1}] = S_n and
  theta^n = theta * theta^(n-1).  With an inner A_k too, since
  S_n[A_k] = S_{n-1}[S_1[A_k]].  The geometric S-ladder runs a chain per
  weight index and carries a bound per head; the single-family space runs
  one chain, at index 1, and stops where its tail sup is zero.
* A sandwich: on a regular S-ladder (nonincreasing, with
  theta_{m+n} >= theta_m theta_n) Fekete's lemma gives theta_n <= theta^n
  for theta = sup theta_n^(1/n), and the norm is nondecreasing in every
  weight and in the family, so
  ||x||_{T[S_1, theta_1]} <= ||x|| <= ||x||_{T[S_1, theta]}.
* Monotonicity: the norm is the limit of the Figiel-Johnson iterates,
  each nondecreasing in every theta_n, so raising one weight never lowers
  a norm.
"""

import random
from fractions import Fraction

import pytest

import tsirelson as t
from tsirelson.generators import random_vector
from tsirelson.norm import norm
from tsirelson.spaces import SUM

# theta_n = (3/4)(2/3)^n: explicit through n = 4, then the tail 2/3 keeps
# the same formula; regular, with theta_1 = 1/2 and theta = 2/3
RATIO = Fraction(2, 3)
LADDER_WEIGHTS = tuple(Fraction(3, 4) * RATIO**n for n in range(1, 5))


def single(theta, inner_ak=None):
    """T[S_1, theta], or T[S_1[A_k], theta] with an inner A_k."""
    return t.SpaceSpec("single", single_family=t.Sn(1), single_theta=theta, inner_ak=inner_ak)


def vector(label, m):
    """A seeded vector whose support starts below its size, so that no
    closed form answers and the engine fills."""
    return random_vector(random.Random(f"identities:{label}:{m}"), m, first=1, gap=2)


ISOMETRY_CASES = [
    (theta, k, m)
    for theta in ("1/3", "1/2", "2/3")
    for k, sizes in ((None, (16, 40, 64)), (2, (16, 48)), (3, (24, 40)))
    for m in sizes
] + [("9/10", k, m) for k in (None, 2, 3) for m in (16, 24)]


@pytest.mark.parametrize("theta, k, m", ISOMETRY_CASES)
def test_geometric_s_ladder_is_the_single_s1_space(theta, k, m):
    x = vector(f"iso:{theta}:{k}", m)
    assert x.support[0] < m
    got = norm(t.preset(f"geometric-s:{theta}").with_inner_ak(k), x).value
    assert got == norm(single(Fraction(theta), k), x).value


def test_regular_ladder_lies_between_its_first_weight_and_its_limit():
    space = t.SpaceSpec("S", thetas=t.ExplicitSeq(LADDER_WEIGHTS, RATIO))
    assert t.check_regularity(space.thetas, SUM, 12).regular
    for n, theta in enumerate(LADDER_WEIGHTS, start=1):
        assert theta <= RATIO**n
    strict_lower = strict_upper = False
    for m in (16, 24, 32, 40):
        for s in range(3):
            x = vector(f"sandwich:{s}", m)
            lower, value, upper = (norm(sp, x).value for sp in (single(LADDER_WEIGHTS[0]), space, single(RATIO)))
            assert lower <= value <= upper, (m, s)
            strict_lower |= lower < value
            strict_upper |= value < upper
    # the later weights win somewhere, and the limit is not attained
    assert strict_lower and strict_upper


# a ladder whose weights decay slowly enough that A_n with n >= 2 and S_n
# with n <= 2 win on these vectors, so that raising one of them shows
SLOW_WEIGHTS = (Fraction(3, 4), Fraction(2, 3), Fraction(1, 2), Fraction(2, 5))
SLOW_TAIL = Fraction(9, 10)


@pytest.mark.parametrize("kind, n", [("S", 1), ("S", 2), ("S", 3), ("A", 2), ("A", 3), ("A", 4)])
def test_raising_one_weight_never_lowers_a_norm(kind, n):
    raised = list(SLOW_WEIGHTS)
    raised[n - 1] *= Fraction(5, 4)
    base, higher = (t.SpaceSpec(kind, thetas=t.ExplicitSeq(w, SLOW_TAIL)) for w in (SLOW_WEIGHTS, tuple(raised)))
    for m in (16, 20, 24):
        x = vector(f"raise:{kind}:{n}", m)
        assert norm(higher, x).value >= norm(base, x).value
