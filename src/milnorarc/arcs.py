"""The bounded arc space, asymptotic membership conditions and arc search.

An arc xi(t) = sum a_k t^k with exponents in the window
[-(d-1)*d^(n-1), d^(n-1)] is an asymptotic arc for f when, after rescaling
the parameter so the positive-exponent coefficients lie on the unit sphere,

  (b) f(xi(t)) has no positive power of t (its constant term is the limit b0),
  (c) every partial derivative of f composed with xi has only negative powers,
  (d) every product x_j * df/dx_i composed with xi has only negative powers.

These are vanishing conditions on finitely many Laurent coefficients and are
decided exactly over Q.  The sphere normalization itself generally requires
an irrational scale, so the membership check works on the un-normalized arc
(the vanishing conditions are scale invariant) and reports the scale as a
float.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .poly import CompiledPolynomials, LaurentScalar, Polynomial, RationalArc, compose_arc, compose_laurent


class WindowViolationError(ValueError):
    """An arc exponent lies outside the admissible window."""

    def __init__(self, exponent: int, window: "ArcWindow"):
        super().__init__(
            f"arc exponent {exponent} outside window ({window.k_min}, {window.k_max})"
        )
        self.exponent = exponent
        self.window = window


@dataclass(frozen=True)
class ArcWindow:
    """Admissible exponent range for arcs attached to degree-d maps of n variables."""

    n: int
    d: int
    k_min: int
    k_max: int


def arc_window(n: int, d: int) -> ArcWindow:
    """Exponent window [-(d-1)*d^(n-1), d^(n-1)]."""
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    top = d ** (n - 1)
    return ArcWindow(n=n, d=d, k_min=-(d - 1) * top, k_max=top)


def dims(n: int, d: int) -> Tuple[int, int]:
    """Coefficient-space dimensions: the bounded arc space versus the larger
    arc variety it replaces; both exact integers."""
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    dim_arc = n * (1 + d ** n)
    dim_av = n * (2 + d * (d + 1) ** n * (d ** n + 2) ** (n - 1))
    return dim_arc, dim_av


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


@dataclass
class ArcMembershipReport:
    normalized: bool
    escapes: bool
    cond_b: bool
    cond_c: bool
    cond_d: bool
    witnesses_b: List[Tuple[int, Fraction]]
    witnesses_c: List[Tuple[int, Fraction]]
    witnesses_d: List[Tuple[int, Fraction]]
    b0: Optional[Fraction]
    lambda_estimate: Optional[float]

    @property
    def is_member(self) -> bool:
        return self.escapes and self.cond_b and self.cond_c and self.cond_d

    def to_dict(self) -> dict:
        return {
            "normalized": self.normalized,
            "escapes": self.escapes,
            "cond_b": self.cond_b,
            "cond_c": self.cond_c,
            "cond_d": self.cond_d,
            "witnesses_b": [[k, str(c)] for k, c in self.witnesses_b],
            "witnesses_c": [[k, str(c)] for k, c in self.witnesses_c],
            "witnesses_d": [[k, str(c)] for k, c in self.witnesses_d],
            "b0": None if self.b0 is None else str(self.b0),
            "b0_float": None if self.b0 is None else float(self.b0),
            "lambda_estimate": self.lambda_estimate,
            "is_member": self.is_member,
        }


def _positive_sphere_sum(xi: RationalArc) -> Fraction:
    total = Fraction(0)
    for k, vec in xi.coeffs.items():
        if k > 0:
            total += sum(v * v for v in vec)
    return total


def _lambda_estimate(xi: RationalArc) -> Optional[float]:
    """Scale lam > 0 with sum_{k>0} |a_k|^2 lam^(2k) = 1; None if no escape."""
    powers = {}
    for k, vec in xi.coeffs.items():
        if k > 0:
            powers[k] = powers.get(k, 0.0) + float(sum(v * v for v in vec))
    if not powers:
        return None

    def g(lam: float) -> float:
        return sum(s * lam ** (2 * k) for k, s in powers.items())

    hi = 1.0
    while g(hi) < 1.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_membership(f: Polynomial, xi: RationalArc, enforce_window: bool = True) -> ArcMembershipReport:
    """Exact membership report for the asymptotic conditions (b)-(d)."""
    if f.num_vars != xi.num_vars:
        raise ValueError("num_vars mismatch between polynomial and arc")
    d = f.degree
    if d == float("-inf") or d < 2:
        raise ValueError("polynomial degree must be at least 2")
    window = arc_window(f.num_vars, int(d))
    if enforce_window:
        for k in xi.support():
            if not window.k_min <= k <= window.k_max:
                raise WindowViolationError(k, window)

    F = compose_arc(f, xi)
    witnesses_b = [(k, F.coefficient(k)) for k in F.support() if k >= 1]
    cond_b = not witnesses_b
    b0 = F.coefficient(0) if cond_b else None

    witnesses_c: List[Tuple[int, Fraction]] = []
    witnesses_d: List[Tuple[int, Fraction]] = []
    components = xi.components()
    for i in range(f.num_vars):
        g = compose_arc(f.partial(i), xi)
        witnesses_c.extend((k, g.coefficient(k)) for k in g.support() if k >= 0)
        for j in range(f.num_vars):
            h = components[j] * g
            witnesses_d.extend((k, h.coefficient(k)) for k in h.support() if k >= 0)

    return ArcMembershipReport(
        normalized=(_positive_sphere_sum(xi) == 1),
        escapes=xi.escapes_to_infinity(),
        cond_b=cond_b,
        cond_c=not witnesses_c,
        cond_d=not witnesses_d,
        witnesses_b=witnesses_b,
        witnesses_c=sorted(set(witnesses_c)),
        witnesses_d=sorted(set(witnesses_d)),
        b0=b0,
        lambda_estimate=_lambda_estimate(xi),
    )


def truncate(xi: RationalArc, window: ArcWindow) -> RationalArc:
    """Drop coefficients below the window's left bound; keep everything else."""
    coeffs = {k: vec for k, vec in xi.coeffs.items() if k >= window.k_min}
    hi = max([window.k_max] + list(coeffs)) if coeffs else window.k_max
    return RationalArc(xi.num_vars, coeffs, (window.k_min, hi))


# ---------------------------------------------------------------------------
# Symbolic coefficient constraints
# ---------------------------------------------------------------------------


def unknown_name(k: int, j: int) -> str:
    """Coefficient symbol for exponent k, component j (1-based); negative
    exponents spell their absolute value with an m prefix."""
    tag = f"m{-k}" if k < 0 else str(k)
    return f"a_{tag}_{j}"


@dataclass
class ConstraintSystem:
    """Vanishing equations on the unknown arc coefficients, plus the sphere."""

    num_vars: int
    window: ArcWindow
    unknowns: List[str]
    equations: List[Tuple[str, Polynomial]]   # (label, polynomial in the unknowns)
    sphere: Polynomial
    b0: Polynomial   # t^0 coefficient of f(xi(t)); the limit value along a solution

    @property
    def num_unknowns(self) -> int:
        return len(self.unknowns)

    @property
    def num_equations(self) -> int:
        return len(self.equations)

    def export_text(self) -> str:
        """One equation per line in the polynomial grammar; sphere last."""
        lines = [poly.to_text(self.unknowns) for _, poly in self.equations]
        lines.append(self.sphere.to_text(self.unknowns))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "num_unknowns": self.num_unknowns,
            "num_equations": self.num_equations,
            "window": [self.window.k_min, self.window.k_max],
            "unknowns": list(self.unknowns),
            "equations": [
                {"label": label, "poly": poly.to_text(self.unknowns)}
                for label, poly in self.equations
            ],
            "sphere": self.sphere.to_text(self.unknowns),
        }


def _generic_arc(n: int, window: ArcWindow) -> Tuple[List[str], List[LaurentScalar]]:
    """Unknown names and the components of the arc whose coefficients are the
    unknowns.  The unknowns run k-major: a_k occupies indices
    (k - k_min) * n .. (k - k_min) * n + n - 1, so the positive-exponent
    block is the tail."""
    ks = range(window.k_min, window.k_max + 1)
    names = [unknown_name(k, j + 1) for k in ks for j in range(n)]
    N = len(names)
    comps = [LaurentScalar({k: Polynomial.variable(N, (k - window.k_min) * n + j) for k in ks})
             for j in range(n)]
    return names, comps


def emit_constraints(f: Polynomial) -> ConstraintSystem:
    """Symbolic composition of f and its derivative products with a
    generic-coefficient arc; one equation per forbidden power of t."""
    d = f.degree
    if d == float("-inf") or d < 2:
        raise ValueError("polynomial degree must be at least 2")
    n = f.num_vars
    window = arc_window(n, int(d))
    names, comps = _generic_arc(n, window)
    N = len(names)
    zero = Polynomial.zero(N)  # adding it lifts a Fraction coefficient into the unknowns' ring

    equations: List[Tuple[str, Polynomial]] = []

    def forbid(label: str, L: LaurentScalar, lowest: int) -> None:
        equations.extend((f"{label}t^{m}", zero + L.terms[m]) for m in L.support() if m >= lowest)

    F = compose_laurent(f, comps)
    forbid("b:", F, 1)
    for i in range(n):
        g = compose_laurent(f.partial(i), comps)
        forbid(f"c:{i + 1}:", g, 0)
        for j in range(n):
            forbid(f"d:{i + 1},{j + 1}:", comps[j] * g, 0)

    sphere = Polynomial.constant(N, -1)
    for idx in range((1 - window.k_min) * n, N):
        v = Polynomial.variable(N, idx)
        sphere = sphere + v * v

    return ConstraintSystem(
        num_vars=n, window=window, unknowns=names, equations=equations, sphere=sphere,
        b0=zero + F.coefficient(0),
    )


# ---------------------------------------------------------------------------
# Numerical arc search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcSearchConfig:
    """Multistart settings; construction raises ValueError on a bad value."""

    seed: int = 0
    starts: int = 32
    tol: float = 1e-8        # acceptance threshold on the sum of squared violations
    max_nfev: int = 400
    dedupe_dist: float = 1e-6

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be at least 1, got {self.starts}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_nfev < 1:
            raise ValueError(f"max_nfev must be at least 1, got {self.max_nfev}")
        if not (math.isfinite(self.dedupe_dist) and self.dedupe_dist >= 0):
            raise ValueError(f"dedupe_dist must be finite and nonnegative, got {self.dedupe_dist}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ArcCandidate:
    coeffs: Dict[int, Tuple[float, ...]]
    b0_estimate: float
    residual: float
    start_index: int

    def to_dict(self) -> dict:
        return {
            "coeffs": {str(k): list(v) for k, v in sorted(self.coeffs.items())},
            "b0_estimate": self.b0_estimate,
            "residual": self.residual,
            "start_index": self.start_index,
        }


def search_arcs(f: Polynomial, config: Optional[ArcSearchConfig] = None) -> List[ArcCandidate]:
    """Multistart least-squares minimization of the constraint violations.

    Approximate and deliberately incomplete: finding a candidate proves
    nothing about exhausting the asymptotic arc set, and an empty result does
    not certify emptiness.  Deterministic given the seed.
    """
    from scipy.optimize import least_squares

    config = config or ArcSearchConfig()
    cs = emit_constraints(f)
    N = cs.num_unknowns
    window = cs.window
    compiled = CompiledPolynomials([poly for _, poly in cs.equations] + [cs.sphere])

    def residuals(u: np.ndarray) -> np.ndarray:
        return compiled.values(u[None, :])[0]

    def jacobian(u: np.ndarray) -> np.ndarray:
        return compiled.jacobians(u[None, :])[0]

    b0 = CompiledPolynomials([cs.b0])

    rng = np.random.default_rng(config.seed)
    starts = rng.standard_normal((config.starts, N)) * 0.5
    # normalize the positive-exponent block toward the sphere for a sane start
    n = f.num_vars
    for s in starts:
        positive = s[(1 - window.k_min) * n:]
        norm = np.linalg.norm(positive)
        if norm > 1e-9:
            positive /= norm

    candidates: List[ArcCandidate] = []
    kept_points: List[np.ndarray] = []
    for si in range(config.starts):
        res = least_squares(
            residuals,
            starts[si],
            jac=jacobian,
            method="trf",
            max_nfev=config.max_nfev,
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-14,
        )
        u = res.x
        residual = float(np.sum(residuals(u) ** 2))
        if residual >= config.tol:
            continue
        if any(np.linalg.norm(u - p) < config.dedupe_dist for p in kept_points):
            continue
        kept_points.append(u)
        coeffs: Dict[int, Tuple[float, ...]] = {}
        for k, block in zip(range(window.k_min, window.k_max + 1), u.reshape(-1, n)):
            vec = tuple(float(v) for v in block)
            if any(abs(v) > 1e-12 for v in vec):
                coeffs[k] = vec
        b0_est = float(b0.values(u[None, :])[0, 0])
        candidates.append(ArcCandidate(coeffs=coeffs, b0_estimate=b0_est,
                                       residual=residual, start_index=si))
    return candidates
