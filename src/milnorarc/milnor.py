"""Milnor set equations and the Rabier distance-to-singularity.

For a single polynomial f and a center a, the Milnor set is the locus where
grad f is parallel to x - a.  In the pivot chart (valid where one chosen
partial derivative does not vanish) it is cut out by the n-1 equations

    m_j = (df/dx_i) * (x_j - a_j) - (df/dx_j) * (x_i - a_i),   j != i.

For maps with several components the general description uses the maximal
minors of the Jacobian of (f, rho_a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .poly import CompiledPolynomials, Polynomial, Rational

PIVOT_MINORS = "minors"


class DegenerateCenterError(RuntimeError):
    """No candidate center passed the genericity screen."""

    def __init__(self, message: str, diagnostics: List[str]):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class MilnorSystem:
    """Defining equations of the Milnor set for a chosen center.

    `pivot` is the 0-based pivot variable index in single-polynomial mode, or
    the string "minors" for the general maximal-minor description.
    """

    source: Tuple[Polynomial, ...]
    center: Tuple[Fraction, ...]
    pivot: Union[int, str]
    equations: Tuple[Polynomial, ...]

    @property
    def num_vars(self) -> int:
        return self.source[0].num_vars

    def has_zero_equation(self) -> bool:
        return any(eq.is_zero() for eq in self.equations)

    # float evaluators, compiled on first use and kept with the system

    @cached_property
    def compiled(self) -> CompiledPolynomials:
        """The equations."""
        return CompiledPolynomials(self.equations)

    @cached_property
    def compiled_source(self) -> CompiledPolynomials:
        """The source map; its Jacobian rows are the gradients of f."""
        return CompiledPolynomials(self.source)

    @cached_property
    def compiled_revalidation(self) -> CompiledPolynomials:
        """Pivot mode only: the pivot partial followed by the maximal minors,
        which recheck points where the pivot chart degenerates."""
        minors = milnor_equations(self.source, self.center, pivot=PIVOT_MINORS)
        return CompiledPolynomials([self.source[0].partial(self.pivot), *minors.equations])

    def to_dict(self, var_names: Optional[Sequence[str]] = None) -> dict:
        return {
            "center": [str(c) for c in self.center],
            "pivot": self.pivot if isinstance(self.pivot, str) else int(self.pivot),
            "equations": [eq.to_text(var_names) for eq in self.equations],
            "num_vars": self.num_vars,
        }


def default_pivot(f: Polynomial) -> int:
    """Pivot variable: the one whose partial derivative has maximal degree.

    Ties break to the lowest index.  The tracer re-validates points where the
    pivot partial vanishes against the minors description.
    """
    degrees = []
    for i in range(f.num_vars):
        d = f.partial(i).degree
        degrees.append(d if d != float("-inf") else -1)
    return int(max(range(f.num_vars), key=lambda i: (degrees[i], -i)))


def _shift_terms(num_vars: int, index: int, a_i: Fraction) -> Polynomial:
    # x_index - a_index
    return Polynomial.variable(num_vars, index) - Polynomial.constant(num_vars, a_i)


def _det(matrix: List[List[Polynomial]]) -> Polynomial:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    nv = matrix[0][0].num_vars
    total = Polynomial.zero(nv)
    for col in range(n):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in matrix[1:]]
        term = entry * _det(minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def milnor_equations(
    source: Sequence[Polynomial],
    center: Sequence[Rational],
    pivot: Union[int, str, None] = None,
) -> MilnorSystem:
    """Build the Milnor system for the given center.

    With `pivot` an integer (0-based, requires a single polynomial) the n-1
    pivot-chart equations m_j are produced.  With `pivot` None or "minors"
    all (p+1)x(p+1) minors of the stacked matrix [Df(x); x - a] are used.
    """
    fs = list(source)
    if not fs:
        raise ValueError("need at least one polynomial")
    n = fs[0].num_vars
    p = len(fs)
    if any(f.num_vars != n for f in fs):
        raise ValueError("all polynomials must share num_vars")
    if p >= n:
        raise ValueError(f"need p < n, got p={p}, n={n}")
    a = tuple(Fraction(c) for c in center)
    if len(a) != n:
        raise ValueError(f"center has length {len(a)}, expected {n}")

    if pivot is None or pivot == PIVOT_MINORS:
        rows = [f.gradient() for f in fs]
        rows.append([_shift_terms(n, j, a[j]) for j in range(n)])
        equations = []
        for cols in itertools.combinations(range(n), p + 1):
            minor = [[row[c] for c in cols] for row in rows]
            equations.append(_det(minor))
        return MilnorSystem(tuple(fs), a, PIVOT_MINORS, tuple(equations))

    i = int(pivot)
    if p != 1:
        raise ValueError("pivot mode requires a single polynomial")
    if not 0 <= i < n:
        raise IndexError(f"pivot index {i} out of range for {n} variables")
    f = fs[0]
    f_i = f.partial(i)
    x_i = _shift_terms(n, i, a[i])
    equations = []
    for j in range(n):
        if j == i:
            continue
        m_j = f_i * _shift_terms(n, j, a[j]) - f.partial(j) * x_i
        equations.append(m_j)
    return MilnorSystem(tuple(fs), a, i, tuple(equations))


def rabier_nu(J) -> float:
    """Smallest singular value of the Jacobian matrix J (p x n, p <= n).

    Computed from the eigenvalues of J J^T; for p = 1 this is the Euclidean
    norm of the single row.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    if not np.all(np.isfinite(J)):
        raise ValueError("non-finite entries in Jacobian")
    p, n = J.shape
    if p > n:
        raise ValueError(f"need p <= n, got shape {J.shape}")
    if p == 1:
        return float(np.linalg.norm(J[0]))
    w = np.linalg.eigvalsh(J @ J.T)
    return float(np.sqrt(max(w[0], 0.0)))


def jacobian_at(source, x: Sequence[float]) -> np.ndarray:
    """Float Jacobian matrix of the map at x (rows are gradients).

    `source` is a Polynomial, a sequence of them, or their compiled form.
    """
    if not isinstance(source, CompiledPolynomials):
        source = CompiledPolynomials([source] if isinstance(source, Polynomial) else source)
    return source.jacobians(np.asarray(x, dtype=float)[None, :])[0]


def malgrange_quantity(source, x: Sequence[float]) -> float:
    """The product ||x|| * nu(Df(x)) monitored along branches at infinity."""
    point = np.asarray([float(v) for v in x], dtype=float)
    if not np.all(np.isfinite(point)):
        raise ValueError("non-finite point")
    J = jacobian_at(source, point)
    return float(np.linalg.norm(point)) * rabier_nu(J)
