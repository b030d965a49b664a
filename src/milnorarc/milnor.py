"""Milnor set equations and the Rabier distance-to-singularity.

For a polynomial f: R^n -> R and a center a, the Milnor set is the locus
where grad f is parallel to x - a, that is where the 2 x n matrix
[grad f; x - a] has rank at most 1.  Both descriptions are 2x2 minors

    m_ij = (df/dx_i) * (x_j - a_j) - (df/dx_j) * (x_i - a_i):

the pivot chart (valid where the pivot partial df/dx_i does not vanish)
takes the n-1 minors m_ij, j != i; the minors description takes all C(n, 2)
minors m_ij, i < j.

For n = 2 the Milnor set meets the circle ||x - a|| = R where the one
equation's restriction to it vanishes; `HalfAngleTable` gives that
restriction exactly, as polynomials in R, once per center.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .poly import ClearedComponents, CompiledPolynomials, ExactEvaluator, LaurentScalar, Polynomial, Rational

PIVOT_MINORS = "minors"


class DegenerateCenterError(RuntimeError):
    """No candidate center passed the genericity screen."""

    def __init__(self, message: str, diagnostics: List[str]):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class MilnorSystem:
    """Defining equations of the Milnor set of f for a chosen center.

    `pivot` is the 0-based pivot variable index of the pivot chart, or the
    string "minors" for the description by all 2x2 minors.  For n = 2 the
    tracer keeps the circle crossings it solves in `_crossings`, by radius,
    and reads the circles' equations from `half_angle`.
    """

    f: Polynomial
    center: Tuple[Fraction, ...]
    pivot: Union[int, str]
    equations: Tuple[Polynomial, ...]
    _crossings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_vars(self) -> int:
        return self.f.num_vars

    def has_zero_equation(self) -> bool:
        return any(eq.is_zero() for eq in self.equations)

    # float evaluators, compiled on first use and kept with the system

    @cached_property
    def compiled(self) -> CompiledPolynomials:
        """The equations."""
        return CompiledPolynomials(self.equations)

    @cached_property
    def compiled_f(self) -> CompiledPolynomials:
        """f itself; its Jacobian is the row grad f."""
        return CompiledPolynomials([self.f])

    @cached_property
    def exact_f(self) -> ExactEvaluator:
        """f's exact values, with its coefficients cleared once."""
        return ExactEvaluator(self.f)

    @cached_property
    def half_angle(self) -> HalfAngleTable:
        """n = 2 only: the one equation restricted to the circles about the center."""
        return HalfAngleTable(self.equations[0], self.center)

    @cached_property
    def compiled_revalidation(self) -> CompiledPolynomials:
        """Pivot mode with n >= 3 only: the pivot partial followed by all the
        minors, which recheck points where the pivot chart degenerates."""
        minors = milnor_equations([self.f], self.center, pivot=PIVOT_MINORS)
        return CompiledPolynomials([self.f.partial(self.pivot), *minors.equations])

    def to_dict(self, var_names: Optional[Sequence[str]] = None) -> dict:
        return {
            "center": [str(c) for c in self.center],
            "pivot": self.pivot if isinstance(self.pivot, str) else int(self.pivot),
            "equations": [eq.to_text(var_names) for eq in self.equations],
            "num_vars": self.num_vars,
        }


class HalfAngleTable:
    """A two-variable equation of degree D on the circles ||x - a|| = R, as
    polynomials in R.

    Under tau = tan(theta/2), x = a1 + R(1-tau^2)/(1+tau^2) and
    y = a2 + 2R tau/(1+tau^2), the equation times (1+tau^2)^D is
    sum_k c_k(R) tau^k, k = 0..2D: the homogenised equation at
    X = a1(1+tau^2) + R(1-tau^2), Y = a2(1+tau^2) + 2R tau, W = 1+tau^2.
    Each c_k(R) = sum_j c_kj R^j has degree <= D in R, so one exact
    composition (`ClearedComponents`, as in `compose_laurent`) with R
    replaced by tau^M, M = 2D + 1, holds them all: its term m is
    c_{m mod M, m div M}.  A radius then costs one integer dot product per
    coefficient.
    """

    def __init__(self, eq: Polynomial, center: Sequence[Fraction]):
        self.degree = D = int(eq.degree)
        M = 2 * D + 1
        a1, a2 = center
        homogenised = Polynomial(3, {(i, j, D - i - j): c for (i, j), c in eq.terms.items()})
        X = LaurentScalar({0: a1, 2: a1, M: Fraction(1), M + 2: Fraction(-1)})
        Y = LaurentScalar({0: a2, 2: a2, M + 1: Fraction(2)})
        W = LaurentScalar({0: Fraction(1), 2: Fraction(1)})
        sums, self.divisor = ClearedComponents([X, Y, W]).sums(homogenised)
        self._rows = [[sums.terms.get(k + M * j, 0) for j in range(D + 1)] for k in range(M)]

    def at(self, radius) -> Tuple[List[int], int]:
        """(N, Q) with c_k(radius) = N_k / Q exactly, k = 0..2D, for an int,
        float or Fraction radius."""
        num, den = radius.as_integer_ratio()
        D = self.degree
        powers = [num ** j * den ** (D - j) for j in range(D + 1)]
        return [sum(c * w for c, w in zip(row, powers)) for row in self._rows], self.divisor * den ** D


def default_pivot(f: Polynomial) -> int:
    """Pivot variable: the one whose partial derivative has maximal degree.

    Ties break to the lowest index.  For n >= 3 the tracer re-validates points
    where the pivot partial vanishes against the minors description.
    """
    degrees = []
    for i in range(f.num_vars):
        d = f.partial(i).degree
        degrees.append(d if d != float("-inf") else -1)
    return int(max(range(f.num_vars), key=lambda i: (degrees[i], -i)))


def _the_polynomial(source: Sequence[Polynomial]) -> Polynomial:
    fs = list(source)
    if len(fs) != 1:
        raise ValueError(f"need exactly one polynomial f, got {len(fs)}")
    return fs[0]


def milnor_equations(
    source: Sequence[Polynomial],
    center: Sequence[Rational],
    pivot: Union[int, str] = PIVOT_MINORS,
) -> MilnorSystem:
    """Build the Milnor system of `source` = [f] for the given center.

    Every equation is a 2x2 minor f_i * (x_j - a_j) - f_j * (x_i - a_i) of
    [grad f; x - a].  With `pivot` an integer i (0-based) these are the n-1
    pairs (i, j), j != i, in increasing j; with `pivot` PIVOT_MINORS they are
    all C(n, 2) pairs i < j in lexicographic order.
    """
    f = _the_polynomial(source)
    n = f.num_vars
    if n < 2:
        raise ValueError(f"need at least two variables, got {n}")
    a = tuple(Fraction(c) for c in center)
    if len(a) != n:
        raise ValueError(f"center has length {len(a)}, expected {n}")

    if pivot == PIVOT_MINORS:
        pairs = itertools.combinations(range(n), 2)
    else:
        pivot = int(pivot)
        if not 0 <= pivot < n:
            raise IndexError(f"pivot index {pivot} out of range for {n} variables")
        pairs = [(pivot, j) for j in range(n) if j != pivot]
    grad = f.gradient()
    shifts = [Polynomial.variable(n, j) - Polynomial.constant(n, a[j]) for j in range(n)]
    equations = tuple(grad[i] * shifts[j] - grad[j] * shifts[i] for i, j in pairs)
    return MilnorSystem(f, a, pivot, equations)


def rabier_nu(J) -> float:
    """Rabier's nu(Df) for one polynomial: the Euclidean norm of grad f.

    `J` is the Jacobian of f, a single gradient row (shape (n,) or (1, n)).
    Raises ValueError for any other row count or a non-finite entry.  The
    norm is inf only when it exceeds the float range, not when its squares do.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    if J.ndim != 2 or J.shape[0] != 1:
        raise ValueError(f"need a single gradient row, got shape {J.shape}")
    return rabier_nus(J)[0]


def rabier_nus(gradients: np.ndarray) -> List[float]:
    """`rabier_nu` at each row of `gradients` (m, n), grad f at m points.

    Each norm is sqrt(g . g), the bits of np.linalg.norm(g); ValueError when
    any entry is not finite.
    """
    if not np.all(np.isfinite(gradients)):
        raise ValueError("non-finite entries in Jacobian")
    with np.errstate(over="ignore"):
        norms = [math.sqrt(g.dot(g)) for g in gradients]
    # the plain norm squares the entries, past about 1e154 to inf
    return [v if math.isfinite(v) else math.hypot(*g) for v, g in zip(norms, gradients)]


def malgrange_quantity(source: Sequence[Polynomial], x: Sequence[float]) -> float:
    """The product ||x|| * nu(Df(x)) = ||x|| * ||grad f(x)|| for `source` = [f],
    monitored along branches at infinity."""
    f = _the_polynomial(source)
    point = np.asarray([float(v) for v in x], dtype=float)
    if not np.all(np.isfinite(point)):
        raise ValueError("non-finite point")
    J = CompiledPolynomials([f]).jacobians(point[None, :])[0]
    return float(np.linalg.norm(point)) * rabier_nu(J)
