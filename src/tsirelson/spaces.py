"""Weight sequences, their regularizations, and full space definitions.

A space is determined by a family kind (the full ladder ``A_n`` or ``S_n``,
optionally composed with an inner ``A_k``, or a single family with a single
weight) together with a weight sequence.  Each weight-sequence class
computes its own weights: ``theta(n, exact)`` is theta_n and
``sup_from(n, exact)`` the sup of theta_m over m >= n, which is theta_n
for the four decreasing sequences.  ``theta`` and ``theta_sup_from`` are
the module's entry points to them.  Weight sequences are exact in rational
mode; variants whose values are irrational raise
``IrrationalInRationalMode`` there and are meant for float mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple, Union

from . import families
from .errors import IrrationalInRationalMode, OverBudget, ParseError
from .records import Record
from .scalars import FLOAT64, RATIONAL, as_fraction, integer_root, leq, parse_scalar


class Geometric(Record):
    """theta_n = ratio**n."""

    ratio: Fraction

    def __post_init__(self):
        object.__setattr__(self, "ratio", as_fraction(self.ratio))
        if not (0 < self.ratio < 1):
            raise ValueError("geometric ratio must lie in (0,1)")

    def theta(self, n: int, exact: bool):
        value = self.ratio**n
        return value if exact else float(value)

    sup_from = theta  # decreasing


class PowerLaw(Record):
    """theta_n = n**(-1/q) with q > 1.  Note theta_1 = 1; see ledger note."""

    q: float

    def __post_init__(self):
        if not self.q > 1:
            raise ValueError("power law requires q > 1")

    def theta(self, n: int, exact: bool):
        return _power_theta(1, self.q, n, exact)

    sup_from = theta  # decreasing


class ScaledPowerLaw(Record):
    """theta_n = c * n**(-1/q); the Tzafriri family has q = 2."""

    c: float
    q: float

    def __post_init__(self):
        if not (0 < self.c < 1):
            raise ValueError("scale must lie in (0,1)")
        if not self.q > 1:
            raise ValueError("scaled power law requires q > 1")

    def theta(self, n: int, exact: bool):
        return _power_theta(self.c, self.q, n, exact)

    sup_from = theta  # decreasing


class LogReciprocal(Record):
    """theta_n = 1/log2(n+1), the Schlumprecht weights.  theta_1 = 1."""

    def theta(self, n: int, exact: bool):
        if not exact:
            return 1.0 / math.log2(n + 1)
        j = (n + 1).bit_length() - 1
        if (1 << j) == n + 1:
            return Fraction(1, j)
        raise IrrationalInRationalMode(f"1/log2({n + 1}) is irrational; use float mode")

    sup_from = theta  # decreasing


class ExplicitSeq(Record):
    """Finitely many explicit weights continued by a geometric tail."""

    values: Tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        object.__setattr__(self, "tail", as_fraction(self.tail))
        if not self.values:
            raise ValueError("explicit sequence needs at least one value")
        for v in self.values:
            if not (0 < v < 1):
                raise ValueError("explicit weights must lie in (0,1)")
        if not (0 < self.tail < 1):
            raise ValueError("tail ratio must lie in (0,1)")

    def theta(self, n: int, exact: bool):
        k = len(self.values)
        value = self.values[n - 1] if n <= k else self.values[-1] * self.tail ** (n - k)
        return value if exact else float(value)

    def sup_from(self, n: int, exact: bool):
        # the geometric tail decreases, so its first index from n on bounds it
        best = max(self.values[n - 1 :] + (self.theta(max(n, len(self.values) + 1), True),))
        return best if exact else float(best)


ThetaSeq = Union[Geometric, PowerLaw, ScaledPowerLaw, LogReciprocal, ExplicitSeq]


def theta(seq: ThetaSeq, n: int, arithmetic: str = RATIONAL):
    """The n-th weight, exact in rational mode or float in float mode."""
    if n < 1:
        raise ValueError("weights are indexed from 1")
    return seq.theta(n, arithmetic == RATIONAL)


def _power_theta(c, q, n, exact):
    if exact:
        if isinstance(c, float):
            raise IrrationalInRationalMode(f"the scale {c!r} is a float; use float mode")
        if isinstance(q, int) or float(q).is_integer():
            root = integer_root(n, int(q))
            if root is not None:
                return as_fraction(c) / root
        raise IrrationalInRationalMode(
            f"{n}**(-1/{q}) is irrational; use float mode"
        )
    return float(c) * float(n) ** (-1.0 / float(q))


def theta_sup_from(seq: ThetaSeq, n: int, arithmetic: str):
    """sup of theta_m over m >= n; used as a sound tail bound by the norm engine."""
    return seq.sup_from(max(n, 1), arithmetic == RATIONAL)


PRODUCT = "product"
SUM = "sum"

# regularize's loops are quadratic in the horizon; a norm takes at most 224 points
REGULARIZE_HORIZON_BOUND = 512


def regularize(seq: ThetaSeq, mode: str, horizon: int, arithmetic: str = RATIONAL):
    """Regularized weights theta-hat_1..theta-hat_N.

    Product mode takes the sup of products of weights over index tuples whose
    product reaches n; sum mode over tuples whose sum reaches n.  Factors and
    summands are truncated at the horizon, which loses nothing for the
    finitely supported vectors this drives (only indices up to the support
    span matter).  Refuses horizons above ``REGULARIZE_HORIZON_BOUND``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > REGULARIZE_HORIZON_BOUND:
        raise OverBudget(
            f"horizon {horizon} exceeds the regularization bound {REGULARIZE_HORIZON_BOUND}"
        )
    th = [theta(seq, n, arithmetic) for n in range(1, 2 * horizon)]
    if mode == SUM:
        # g[s] = best product with summands <= horizon summing exactly to s;
        # minimal combinations have total < n + horizon, so 2N-1 suffices.
        g = [None] * (2 * horizon)
        for s in range(1, 2 * horizon):
            best = th[s - 1] if s <= horizon else None
            for m in range(1, min(s - 1, horizon) + 1):
                cand = th[m - 1] * g[s - m]
                if best is None or cand > best:
                    best = cand
            g[s] = best
        return [max(g[n : 2 * horizon]) for n in range(1, horizon + 1)]
    if mode == PRODUCT:
        memo: dict = {}

        def hat(n: int):
            if n <= 1:
                return max(th[:horizon])
            if n in memo:
                return memo[n]
            best = None
            for m in range(2, horizon + 1):
                if m >= n:
                    cand = th[m - 1]
                else:
                    cand = th[m - 1] * hat(-(-n // m))  # ceil(n/m) < n
                if best is None or cand > best:
                    best = cand
            memo[n] = best
            return best

        return [hat(n) for n in range(1, horizon + 1)]
    raise ValueError(f"unknown regularization mode {mode!r}")


class RegularityReport(Record):
    mode: str
    horizon: int
    monotonicity_violations: Tuple[Tuple[int, object, object], ...]
    supermultiplicativity_violations: Tuple[Tuple[int, int, object, object], ...]
    cn_nonincreasing: bool
    theta_limit_estimate: float

    @property
    def regular(self) -> bool:
        return not self.monotonicity_violations and not self.supermultiplicativity_violations


def check_regularity(seq: ThetaSeq, mode: str, horizon: int, arithmetic: str = RATIONAL) -> RegularityReport:
    """Check monotone decrease and super-multiplicativity within the horizon.

    Both comparisons go through ``scalars.leq``: exact in rational mode,
    within the float tolerance in float mode, where geometric weights meet
    super-multiplicativity with equality up to rounding.  Also reports
    whether theta_n/theta^n is non-increasing (the hypothesis under which
    the special-average machinery applies), using the finite-horizon
    estimate of theta.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    th = [theta(seq, n, arithmetic) for n in range(1, horizon + 1)]
    mono = tuple(
        (n + 1, th[n - 1], th[n])
        for n in range(1, horizon)
        if not leq(th[n], th[n - 1])
    )
    super_viol = []
    for n in range(1, horizon + 1):
        for m in range(n, horizon + 1):
            idx = n + m if mode == SUM else n * m
            if idx > horizon:
                continue
            product = th[n - 1] * th[m - 1]
            if not leq(product, th[idx - 1]):
                super_viol.append((n, m, th[idx - 1], product))
    theta_lim, cns = _theta_estimate(th)
    cn_mono = all(leq(b, a) for a, b in zip(cns, cns[1:]))
    return RegularityReport(mode, horizon, mono, tuple(super_viol), cn_mono, theta_lim)


def _theta_estimate(th):
    """(theta, c_n) in floats from theta_1..theta_H: the finite-horizon
    estimate theta = max over n <= H of theta_n^(1/n), which is the limit
    lim theta_n^(1/n) for super-multiplicative weights (Fekete), and
    c_n = theta_n / theta^n."""
    theta_lim = max(float(t) ** (1.0 / n) for n, t in enumerate(th, start=1))
    return theta_lim, tuple(float(t) / theta_lim**n for n, t in enumerate(th, start=1))


A_TYPE = "A"
S_TYPE = "S"
SINGLE = "single"


class SpaceSpec(Record):
    """A full space definition.

    ``kind`` selects the family ladder: ``A`` uses A_n, ``S`` uses S_n
    (optionally composed with an inner A_k when ``inner_ak`` is set, the
    auxiliary spaces used by the functional surgery), and ``single`` uses one
    family with one weight.  ``p_hint`` records the exponent p for p-space
    presets, where known.  ``arithmetic`` fixes the space's one arithmetic
    (``scalar``); the single weight is converted to it where it is read,
    and a float weight, or a weight sequence with irrational values, is
    refused in rational mode.
    """

    kind: str
    thetas: Optional[ThetaSeq] = None
    single_family: Optional[families.FamilyExpr] = None
    single_theta: object = None
    inner_ak: Optional[int] = None
    arithmetic: str = RATIONAL
    name: str = ""
    p_hint: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (A_TYPE, S_TYPE, SINGLE):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == SINGLE:
            if self.single_family is None or self.single_theta is None:
                raise ValueError("single-family spaces need a family and a weight")
        elif self.thetas is None:
            raise ValueError("A/S spaces need a weight sequence")
        if self.inner_ak is not None:
            if self.kind == A_TYPE or (
                self.kind == SINGLE and not isinstance(self.single_family, families.Sn)
            ):
                raise ValueError("inner_ak applies to S-type (and single-S_n) spaces only")
            if self.inner_ak < 1:
                raise ValueError("inner_ak must be >= 1")
        if self.arithmetic not in (RATIONAL, FLOAT64):
            raise ValueError(f"unknown arithmetic mode {self.arithmetic!r}")
        if self.kind == SINGLE and self.exact and isinstance(self.single_theta, float):
            raise IrrationalInRationalMode(
                f"the weight {self.single_theta!r} is a float; use float mode"
            )
        if self.kind != SINGLE and self.exact:
            # theta_2 is irrational for every power-law and log-reciprocal
            # sequence, so such a space is refused whatever the vector
            theta(self.thetas, 2, RATIONAL)

    @property
    def exact(self) -> bool:
        return self.arithmetic == RATIONAL

    def scalar(self, v):
        """v in the space's arithmetic: a ``Fraction`` in rational spaces, a
        ``float`` in float64 spaces.  A value that already has that type is
        returned as it is."""
        if self.exact:
            return v if isinstance(v, Fraction) else Fraction(v)
        return v if isinstance(v, float) else float(v)

    def max_index(self) -> Optional[int]:
        return 1 if self.kind == SINGLE else None

    def family_for_index(self, n: int) -> families.FamilyExpr:
        if self.kind == SINGLE:
            if n != 1:
                raise ValueError("single-family spaces only have index 1")
            base = self.single_family
        elif self.kind == A_TYPE:
            base = families.An(n)
        else:
            base = families.Sn(n)
        if self.inner_ak is not None:
            base = families.Compose(base, families.An(self.inner_ak))
        return base

    def theta_for_index(self, n: int):
        if self.kind == SINGLE:
            if n != 1:
                raise ValueError("single-family spaces only have index 1")
            return self.scalar(self.single_theta)
        return theta(self.thetas, n, self.arithmetic)

    def theta_tail_sup(self, n: int):
        if self.kind == SINGLE:
            return self.theta_for_index(1) if n <= 1 else 0
        return theta_sup_from(self.thetas, n, self.arithmetic)

    def with_inner_ak(self, k: Optional[int]) -> "SpaceSpec":
        return self.replace(inner_ak=k)


class DerivedParams(Record):
    """Finite-horizon estimates of the derived space parameters.

    Every field is an estimate (sup over n <= horizon) except where the
    weight sequence makes the limit exact (geometric).
    """

    horizon: int
    theta_limit_estimate: object
    c_n: Tuple[object, ...]
    q_estimate: Optional[float]
    p_estimate: Optional[float]
    exact_limit: bool = False


def derived_params(spec: SpaceSpec, horizon: int) -> DerivedParams:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if spec.kind == SINGLE:
        th = spec.theta_for_index(1)
        return DerivedParams(horizon, th, (1,), None, None, exact_limit=True)
    th = [theta(spec.thetas, n, spec.arithmetic) for n in range(1, horizon + 1)]
    if spec.kind == A_TYPE:
        if isinstance(spec.thetas, (PowerLaw, ScaledPowerLaw)):
            q_est: Optional[float] = float(spec.thetas.q)
        else:
            q_n = [
                math.log(n) / -math.log(float(th[n - 1]))
                for n in range(2, horizon + 1)
                if float(th[n - 1]) < 1
            ]
            q_est = max(q_n) if q_n else None
        if q_est is None or math.isinf(q_est):
            p_est = 1.0
            c_n = tuple(th)
        else:
            p_est = q_est / (q_est - 1) if q_est > 1 else None
            c_n = tuple(float(th[n - 1]) * n ** (1.0 / q_est) for n in range(1, horizon + 1))
        if isinstance(spec.thetas, LogReciprocal):
            p_est = 1.0
            c_n = tuple(th)
        theta_lim, _ = _theta_estimate(th)
        return DerivedParams(horizon, theta_lim, c_n, q_est, p_est)
    # S-type: theta = lim theta_n^{1/n}; exact for geometric sequences.
    if isinstance(spec.thetas, Geometric):
        theta_lim = spec.scalar(spec.thetas.ratio)
        c_n = tuple(th[n - 1] / theta_lim**n for n in range(1, horizon + 1))
        return DerivedParams(horizon, theta_lim, c_n, None, None, exact_limit=True)
    theta_lim, c_n = _theta_estimate(th)
    return DerivedParams(horizon, theta_lim, c_n, None, None)


def preset(name: str) -> SpaceSpec:
    """Built-in spaces by name.

    ``tsirelson`` (T[S_1,1/2]), ``schlumprecht``, ``tzafriri:<c>``,
    ``geometric-s:<theta>``; additionally ``geometric-a:<theta>`` and
    ``ellp:<q>`` (the single-family T[A_2, 2^(-1/q)] presets) for tests.
    """
    base, _, arg = name.partition(":")
    if base == "tsirelson":
        return SpaceSpec(
            SINGLE,
            single_family=families.Sn(1),
            single_theta=Fraction(1, 2),
            name="tsirelson",
        )
    if base == "schlumprecht":
        return SpaceSpec(
            A_TYPE,
            thetas=LogReciprocal(),
            arithmetic=FLOAT64,
            name="schlumprecht",
            p_hint=1.0,
        )
    if base == "tzafriri":
        c = parse_scalar(arg) if arg else Fraction(1, 2)
        return SpaceSpec(
            A_TYPE,
            thetas=ScaledPowerLaw(float(c), 2),
            arithmetic=FLOAT64,
            name=f"tzafriri:{c}",
            p_hint=2.0,
        )
    if base == "geometric-s":
        ratio = parse_scalar(arg) if arg else Fraction(1, 2)
        return SpaceSpec(
            S_TYPE,
            thetas=Geometric(ratio),
            name=f"geometric-s:{ratio}",
        )
    if base == "geometric-a":
        ratio = parse_scalar(arg) if arg else Fraction(1, 2)
        return SpaceSpec(
            A_TYPE,
            thetas=Geometric(ratio),
            name=f"geometric-a:{ratio}",
        )
    if base == "ellp":
        q = float(parse_scalar(arg)) if arg else 2.0
        if not q > 0:
            raise ValueError(f"ellp needs q > 0, got {arg}")
        return SpaceSpec(
            SINGLE,
            single_family=families.An(2),
            single_theta=2.0 ** (-1.0 / q),
            arithmetic=FLOAT64,
            name=f"ellp:{q}",
            p_hint=q / (q - 1) if q > 1 else None,
        )
    raise ValueError(f"unknown preset {name!r}")


def parse_space_config(text: str, arithmetic: Optional[str] = None) -> SpaceSpec:
    """Parse the key=value space configuration format.

    ``arithmetic``, when given, overrides the file's ``arithmetic`` line (or
    its rational default) before the space is built, so a file whose weights
    are irrational loads in float mode without naming it."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    kind = entries.get("kind")
    if kind not in ("A", "S", "single"):
        raise ParseError(f"kind must be A, S or single, got {kind!r}")
    written = entries.get("arithmetic", RATIONAL)
    if written not in (RATIONAL, FLOAT64):
        raise ParseError(f"bad arithmetic {written!r}")
    arithmetic = arithmetic or written
    inner_ak = int(entries["inner_ak"]) if "inner_ak" in entries else None
    if kind == "single":
        if "single_family" not in entries or "single_theta" not in entries:
            raise ParseError("single kind needs single_family and single_theta")
        return SpaceSpec(
            SINGLE,
            single_family=families.parse_family(entries["single_family"]),
            single_theta=parse_scalar(entries["single_theta"]),
            inner_ak=inner_ak,
            arithmetic=arithmetic,
        )
    if "theta" not in entries:
        raise ParseError("A/S kinds need a theta entry")
    seq = _parse_theta_entry(entries["theta"])
    return SpaceSpec(
        A_TYPE if kind == "A" else S_TYPE,
        thetas=seq,
        inner_ak=inner_ak,
        arithmetic=arithmetic,
    )


def _parse_theta_entry(entry: str) -> ThetaSeq:
    base, _, arg = entry.partition(":")
    if base == "geometric":
        return Geometric(parse_scalar(arg))
    if base == "powerlaw":
        return PowerLaw(float(parse_scalar(arg)))
    if base == "scaledpowerlaw":
        c_text, _, q_text = arg.partition(",")
        return ScaledPowerLaw(float(parse_scalar(c_text)), float(parse_scalar(q_text)))
    if base == "logreciprocal":
        return LogReciprocal()
    if base == "explicit":
        with open(arg, "r", encoding="utf-8") as fh:
            return parse_explicit_file(fh.read())
    raise ParseError(f"unknown theta spec {entry!r}")


def parse_explicit_file(text: str) -> ExplicitSeq:
    values = []
    tail = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("tail"):
            tail = parse_scalar(line[len("tail") :])
            continue
        if tail is not None:
            raise ParseError("tail must be the final line", line=lineno)
        values.append(parse_scalar(line))
    if tail is None:
        raise ParseError("explicit file needs a final 'tail <ratio>' line")
    return ExplicitSeq(tuple(values), tail)
