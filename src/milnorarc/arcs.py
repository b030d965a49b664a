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

`_conditions` is the one list of the polynomials P = f, df/dx_i and
x_j * df/dx_i with the lowest forbidden power of t of each; the numerical
search reads it, and the exact check (`check_membership`) and the symbolic
system (`emit_constraints`) compose it with an arc by `_composed_conditions`,
one call of `poly.composed_coefficients` over either coefficient ring.

The numerical search (`search_arcs`) solves the same conditions plus the
sphere by a numpy Levenberg-Marquardt loop over the arc coefficients.  It
composes float Laurent arcs: each residual and Jacobian entry is a Laurent
coefficient of a polynomial of degree <= d composed with the current arc, so
the system is never expanded in the unknowns.  `emit_constraints` is that
expansion, exact over Q, by `_composed_conditions` on an arc whose
coefficients are the unknowns; it is the tests' oracle for the search's
rows.  The starts are solved by this process and one forked child per
further usable core (`_cores.map_on_cores`), then filtered and deduplicated
in start order, so the candidates do not depend on the core count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _cores
from .poly import ExactEvaluator, LaurentScalar, Polynomial, RationalArc, composed_coefficients, float_or_none


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


def _window_of(f: Polynomial) -> ArcWindow:
    """The window of f's degree and variable count; f must have degree >= 2."""
    d = f.degree
    if d == float("-inf") or d < 2:
        raise ValueError("polynomial degree must be at least 2")
    return arc_window(f.num_vars, int(d))


def _conditions(f: Polynomial) -> List[Tuple[str, Polynomial, Optional[int], int]]:
    """Conditions (b)-(d) as (label, g, j, lowest forbidden power of t): P(xi)
    may have no power of t at or above the lowest, for P = g, or x_j * g when j
    is given.  (b) is P = f with lowest 1, then for each i (c) P = df/dx_i and
    (d) P = x_j * df/dx_i for each j, with lowest 0.  A label's first letter
    names its condition."""
    n = f.num_vars
    conditions = [("b:", f, None, 1)]
    for i in range(n):
        g = f.partial(i)
        conditions.append((f"c:{i + 1}:", g, None, 0))
        conditions.extend((f"d:{i + 1},{j + 1}:", g, j, 0) for j in range(n))
    return conditions


def _composed_conditions(f: Polynomial, components: Sequence[LaurentScalar]) -> Iterator[Tuple[str, dict, int]]:
    """(label, the coefficients of P(xi) at t^0 and above, lowest) for each of
    `_conditions` (every lowest is 0 or 1; t^0 of f(xi) is b0), by one
    `composed_coefficients` call."""
    conditions = _conditions(f)
    composed = composed_coefficients(components, [(g, j) for _, g, j, _ in conditions], 0)
    return ((label, terms, lowest) for (label, _, _, lowest), terms in zip(conditions, composed))


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
            "b0_float": None if self.b0 is None else float_or_none(self.b0),
            "lambda_estimate": self.lambda_estimate,
            "is_member": self.is_member,
        }


def _lambda_estimate(sums: Dict[int, Fraction]) -> Optional[float]:
    """The float nearest the scale lam > 0 with sum_k sums[k] lam^(2k) = 1.

    None if there are no sums (the arc does not escape), or if lam rounds to
    0 or overflows (inf stands for 2^1024); a tie goes to the lower float.
    With 4^E near the least (1 / sums[k])^(1/k), read from bit lengths,
    lam = 2^E * sqrt(y) for the root y of sum_k c_k y^k = 1, c_k = sums[k] *
    4^(E k) <= 2.  Newton's method falls to it in u = ln y, with ln c_k from
    a mantissa in (1/2, 2) and a small multiple of ln 2, so no c_k underflows.
    The walk then moves the seed one float at a time until lam lies between
    the midpoints to its neighbours.  Every comparison of the sum with 1 is
    exact (`ExactEvaluator`), so nothing overflows.
    """
    if not sums:
        return None
    bits = [(k, s, s.numerator.bit_length() - s.denominator.bit_length()) for k, s in sums.items()]   # s ~ 2^e
    E = min(-e // (2 * k) for k, _, e in bits)
    logs = [(k, math.log((s.numerator << max(-e, 0)) / (s.denominator << max(e, 0))) + (e + 2 * E * k) * math.log(2))
            for k, s, e in bits]
    u = min(-l / k for k, l in logs)
    while (v := u - (sum(math.exp(l + k * u) for k, l in logs) - 1)
           / sum(k * math.exp(l + k * u) for k, l in logs)) < u:
        u = v
    try:
        lam = math.ldexp(math.exp(u / 2), E)
    except OverflowError:
        lam = math.inf
    g = ExactEvaluator(Polynomial(1, {(2 * k,): s for k, s in sums.items()}))

    def below_midpoint(a: float, b: float) -> bool:   # is the sum below 1 halfway from a to b > a?
        return g.at([(Fraction(a) + (Fraction(2 ** 1024) if b == math.inf else Fraction(b))) / 2]) < 1

    while lam > 0 and not below_midpoint(down := math.nextafter(lam, 0), lam):
        lam = down
    while lam < math.inf and below_midpoint(lam, up := math.nextafter(lam, math.inf)):
        lam = up
    return None if lam in (0, math.inf) else lam


def _merged(runs: List[Tuple[int, Fraction]]) -> List[Tuple[int, Fraction]]:
    """sorted(set(runs)) for (power, rational) pairs, with no Fraction compared: the values
    of one power are keyed by the exact ints numerator * (lcm of their denominators // denominator)."""
    by_power: Dict[int, List[Fraction]] = {}
    for k, c in runs:
        by_power.setdefault(k, []).append(c)
    merged = []
    for k in sorted(by_power):
        values = by_power[k]
        lcm = math.lcm(*(c.denominator for c in values))
        keyed = {c.numerator * (lcm // c.denominator): c for c in values}
        merged.extend((k, keyed[key]) for key in sorted(keyed))
    return merged


def check_membership(f: Polynomial, xi: RationalArc, enforce_window: bool = True) -> ArcMembershipReport:
    """Exact membership report for the asymptotic conditions (b)-(d)."""
    if f.num_vars != xi.num_vars:
        raise ValueError("num_vars mismatch between polynomial and arc")
    window = _window_of(f)
    if enforce_window:
        for k in xi.support():
            if not window.k_min <= k <= window.k_max:
                raise WindowViolationError(k, window)

    witnesses: Dict[str, List[Tuple[int, Fraction]]] = {"b": [], "c": [], "d": []}
    for label, terms, lowest in _composed_conditions(f, xi.components()):
        witnesses[label[0]].extend((k, c) for k, c in terms.items() if k >= lowest)
        if label == "b:":
            b0 = terms.get(0, Fraction(0))

    sums = {k: sum(v * v for v in vec) for k, vec in xi.coeffs.items() if k > 0}   # |a_k|^2, k > 0
    return ArcMembershipReport(
        normalized=(sum(sums.values()) == 1),
        escapes=xi.escapes_to_infinity(),
        cond_b=not witnesses["b"],
        cond_c=not witnesses["c"],
        cond_d=not witnesses["d"],
        witnesses_b=witnesses["b"],
        witnesses_c=_merged(witnesses["c"]),
        witnesses_d=_merged(witnesses["d"]),
        b0=None if witnesses["b"] else b0,
        lambda_estimate=_lambda_estimate(sums),
    )


def truncate(xi: RationalArc, window: ArcWindow) -> RationalArc:
    """Drop coefficients below the window's left bound; keep everything else."""
    return RationalArc(xi.num_vars, {k: vec for k, vec in xi.coeffs.items() if k >= window.k_min})


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
    """Symbolic composition of each of `_conditions` with a
    generic-coefficient arc; one equation per forbidden power of t."""
    n = f.num_vars
    window = _window_of(f)
    names, comps = _generic_arc(n, window)
    N = len(names)
    zero = Polynomial.zero(N)  # adding it lifts a Fraction coefficient into the unknowns' ring

    equations: List[Tuple[str, Polynomial]] = []
    for label, terms, lowest in _composed_conditions(f, comps):
        equations.extend((f"{label}t^{m}", zero + c) for m, c in terms.items() if m >= lowest)
        if label == "b:":
            b0 = zero + terms.get(0, Fraction(0))

    sphere = Polynomial.constant(N, -1)
    for idx in range((1 - window.k_min) * n, N):
        v = Polynomial.variable(N, idx)
        sphere = sphere + v * v

    return ConstraintSystem(
        num_vars=n, window=window, unknowns=names, equations=equations, sphere=sphere, b0=b0,
    )


# ---------------------------------------------------------------------------
# Numerical arc search
# ---------------------------------------------------------------------------


MAX_ITER = 400        # Levenberg-Marquardt iterations per start
LAMBDA0 = 3e-2        # initial damping, relative to the largest eigenvalue of J^T J
STOP_REL = 1e-14      # relative step or cost change that ends a run
POLISH = 1e-8         # a start is finished below POLISH * tol, its acceptance threshold
DEDUPE_DIST = 1e-6    # candidates closer than this in the unknowns are one


@dataclass(frozen=True)
class ArcSearchConfig:
    """Multistart settings; construction raises ValueError on a bad value."""

    seed: int = 0
    starts: int = 32
    tol: float = 1e-8        # acceptance threshold on the sum of squared violations

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.starts < 1:
            raise ValueError(f"starts must be at least 1, got {self.starts}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")

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


class _LaurentSystem:
    """The rows of `emit_constraints` plus the sphere, by float Laurent composition.

    Each row is one coefficient [P(xi)]_m, m >= lowest, for each
    (label, P, lowest) of `_conditions`, with `emit_constraints`' labels.  For a
    generic arc P(xi) has support exactly [deg P * k_min, deg P * k_max] (the
    coefficients of different monomials of P are different monomials in the
    unknowns, so nothing cancels), and a zero P gives no row.  By the chain
    rule d[P(xi)]_m / da_{k,l} = [(dP/dx_l)(xi)]_{m-k}, so every residual and
    Jacobian entry is a coefficient of some polynomial of degree <= d composed
    with xi.  The setup lowers all of them to one coefficient matrix C over
    the monomials of degree <= d, and fixes the gather indices of the
    residuals and the Jacobian into S = C @ M, where M holds the series of
    every monomial.  Column c of M and S holds t^(c + d * k_min); one more
    column is always zero and is where out-of-range entries read.
    """

    def __init__(self, f: Polynomial):
        window = _window_of(f)
        n, d = f.num_vars, int(f.degree)
        K = window.k_max - window.k_min + 1
        L = d * (K - 1) + 1
        self.window = window
        self.num_unknowns = n * K
        self._L = L
        self._lo = d * window.k_min

        # monomials of degree <= d, level by level: a monomial of degree s is
        # a monomial of degree s - 1 times x_j, with j its last variable
        monos: List[Tuple[int, ...]] = [(0,) * n]
        prev = slice(0, 1)
        self._levels = []
        for _ in range(d):
            first, pick = len(monos), []
            for j in range(n):
                for p in range(prev.start, prev.stop):
                    if not any(monos[p][j + 1:]):
                        e = list(monos[p])
                        e[j] += 1
                        monos.append(tuple(e))
                        pick.append((p - prev.start) * n + j)
            self._levels.append((prev, slice(first, len(monos)), np.array(pick)))
            prev = slice(first, len(monos))
        column = {e: c for c, e in enumerate(monos)}

        polys: List[Polynomial] = []
        index: Dict[tuple, int] = {}

        def register(P: Polynomial) -> int:
            key = tuple(P.sorted_terms())
            if key not in index:
                index[key] = len(polys)
                polys.append(P)
            return index[key]

        self.labels: List[str] = []
        rows, partials = [], []
        for label, g, j, lowest in _conditions(f):
            P = g if j is None else Polynomial.variable(n, j) * g
            if P.is_zero():
                continue
            p = register(P)
            dP = [register(dPl) if dPl else -1 for dPl in P.gradient()]
            for m in range(max(lowest, P.degree * window.k_min), P.degree * window.k_max + 1):
                self.labels.append(f"{label}t^{m}")
                rows.append((p, m))
                partials.append(dP)

        self._C = np.zeros((len(polys), len(monos)))
        for p, P in enumerate(polys):
            for e, c in P.terms.items():
                if (value := float_or_none(c)) is None:
                    raise ValueError("a coefficient of f, of a partial or of an x_j * df/dx_i is past the float range")
                self._C[p, column[e]] = value

        # Toeplitz gather from u plus a trailing zero: column j * L + c of
        # T = (u, 0)[toeplitz] multiplies a series by xi_j into column c,
        # since row i holds a_{k,j} for k = c - i
        shift = np.arange(L)[None, :] - np.arange(L)[:, None] - window.k_min
        inside = (shift >= 0) & (shift < K)
        self._toeplitz = np.concatenate(
            [np.where(inside, shift * n + j, n * K) for j in range(n)], axis=1)
        self._u = np.zeros(n * K + 1)   # u and the zero the gather reads outside the window

        zero = L   # the zero cell (0, L) of S
        p, m = np.array(rows).T
        self._res_index = p * (L + 1) + m - self._lo
        ks = np.repeat(np.arange(window.k_min, window.k_max + 1), n)
        q = np.array(partials)[:, np.tile(np.arange(n), K)]
        col = m[:, None] - ks[None, :] - self._lo
        ok = (q >= 0) & (col >= 0) & (col < L)
        self._jac_index = np.where(ok, q * (L + 1) + col, zero)
        self._sphere = (1 - window.k_min) * n

    def _series(self, u: np.ndarray) -> np.ndarray:
        """S = C @ M at u, flattened."""
        L = self._L
        self._u[:-1] = u
        T = self._u[self._toeplitz]
        M = np.zeros((self._C.shape[1], L + 1))
        M[0, -self._lo] = 1.0
        for prev, level, pick in self._levels:
            M[level, :L] = (M[prev, :L] @ T).reshape(-1, L)[pick]
        return (self._C @ M).ravel()

    def evaluate(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The residuals and the Jacobian at u, from one composition."""
        S = self._series(u)
        positive = u[self._sphere:]
        r, J = np.empty(len(self._res_index) + 1), np.zeros((len(self._res_index) + 1, self.num_unknowns))
        S.take(self._res_index, out=r[:-1])
        S.take(self._jac_index, out=J[:-1])
        r[-1], J[-1, self._sphere:] = positive @ positive - 1.0, 2.0 * positive
        return r, J

    def b0(self, u: np.ndarray) -> float:
        """The t^0 coefficient of f(xi); f was registered first, as row 0 of S."""
        return float(self._series(u)[-self._lo])


def _damped_step(J: np.ndarray, r: np.ndarray, lam: float) -> Tuple[np.ndarray, float]:
    """The step h of (J^T J + lam I) h = -J^T r and the decrease h^T (lam h - J^T r) it predicts."""
    A, g = J.T @ J, J.T @ r
    A.flat[::len(g) + 1] += lam
    h = np.linalg.solve(A, -g)
    return h, h @ (lam * h - g)


def _levenberg_marquardt(system: _LaurentSystem, stop: float, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize the sum of squares from u; returns the last point and its residuals.

    Each iteration takes the step of the damped normal equations (`_damped_step`;
    lam starts at LAMBDA0 times the largest eigenvalue of J^T J), keeps it only if
    the sum of squares falls, and updates lam by Nielsen's gain ratio (Madsen,
    Nielsen and Tingleff, "Methods for non-linear least squares problems", 2004,
    section 3.2).  A sum of squares below `stop`, a relative step or decrease below
    STOP_REL, or a LinAlgError (J = 0 with lam = 0, or J^T J overflows) ends the run.
    """
    r, J = system.evaluate(u)
    cost, lam, nu = r @ r, None, 2.0
    for _ in range(MAX_ITER):
        if cost < stop:
            break
        try:
            lam = LAMBDA0 * np.linalg.eigvalsh(J.T @ J)[-1] if lam is None else lam
            step, predicted = _damped_step(J, r, lam)
        except np.linalg.LinAlgError:
            break
        done = math.sqrt(step @ step) <= STOP_REL * math.sqrt(u @ u)
        r_new, J_new = system.evaluate(u + step)
        cost_new = r_new @ r_new
        if cost_new < cost:
            rho = (cost - cost_new) / predicted   # the actual decrease over the linear model's
            lam, nu = lam * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
            done = done or cost - cost_new <= STOP_REL * cost
            u, r, J, cost = u + step, r_new, J_new, cost_new
        else:
            lam, nu = lam * nu, 2.0 * nu
        if done:
            break
    return u, r


def search_arcs(f: Polynomial, config: Optional[ArcSearchConfig] = None) -> List[ArcCandidate]:
    """Multistart Levenberg-Marquardt minimization of the constraint violations.

    The residuals are the rows of `emit_constraints` plus the sphere, but they
    are computed by composing float Laurent arcs, never by expanding the
    system symbolically (`emit_constraints` is the exact expansion and the
    tests' oracle for these rows).  A start ends once its sum of squares is
    below POLISH * `config.tol`, and is a candidate when its sum of squares
    ends below `config.tol`, unless it is within DEDUPE_DIST of one.

    Approximate and deliberately incomplete: finding a candidate proves
    nothing about exhausting the asymptotic arc set, and an empty result does
    not certify emptiness.  Deterministic given the seed.
    """
    config = config or ArcSearchConfig()
    system = _LaurentSystem(f)
    N = system.num_unknowns
    window = system.window

    rng = np.random.default_rng(config.seed)
    try:
        starts = rng.standard_normal((config.starts, N)) * 0.5
    except MemoryError as exc:   # numpy refuses an array past the memory at once
        raise ValueError(f"{config.starts} starts of {N} unknowns do not fit in memory: {exc}") from exc
    # normalize the positive-exponent block toward the sphere for a sane start
    n = f.num_vars
    for positive in starts[:, (1 - window.k_min) * n:]:
        norm = np.linalg.norm(positive)
        if norm > 1e-9:
            positive /= norm

    candidates: List[ArcCandidate] = []
    kept_points: List[np.ndarray] = []
    solved = _cores.map_on_cores(functools.partial(_levenberg_marquardt, system, POLISH * config.tol), starts)
    for si, (u, r) in enumerate(solved):
        residual = float(np.sum(r ** 2))
        if residual >= config.tol:
            continue
        if any(np.linalg.norm(u - p) < DEDUPE_DIST for p in kept_points):
            continue
        kept_points.append(u)
        blocks = zip(range(window.k_min, window.k_max + 1), u.reshape(-1, n).tolist())
        coeffs = {k: tuple(vec) for k, vec in blocks if any(abs(v) > 1e-12 for v in vec)}
        candidates.append(ArcCandidate(coeffs=coeffs, b0_estimate=system.b0(u),
                                       residual=residual, start_index=si))
    return candidates
