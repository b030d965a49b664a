"""Seeded workload inputs, built without calling the package under test.

Planted maps are g(p) = c0 + lam * h(T(A p + s)) for a base map h whose
bifurcation values at infinity are known ({0}), an invertible integer matrix
A, a rational shift s, a scalar lam and, for every third 2-variable map, the
triangular automorphism T(x, y) = (x, y + eps*x^2).  The bifurcation set is
invariant under polynomial automorphisms, so the planted answer is {c0}.
The composition is done here with a small dict-based exact polynomial type,
so a defect in the package's own polynomial code cannot hide in the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Poly = Dict[Tuple[int, ...], Fraction]

FLAGSHIP = "x + x^2*y"
FLAGSHIP3 = "x + x^2*y + z^2"
TANGENT = "y*(x^2*y^2 + 3*x*y + 3)"
CRITERION10 = "x - 3*x^3*y^2 + 2*x^4*y^3 + y*z"

# the flagship witness arc ((1/2) t^-1, -t), and its 3-variable analogue for
# x + x^2*y + z^2; both have limit value b0 = 0
WITNESS2 = {-1: (Fraction(1, 2), Fraction(0)), 1: (Fraction(0), Fraction(-1))}
WITNESS3 = {-1: (Fraction(1, 2), Fraction(0), Fraction(0)),
            1: (Fraction(0), Fraction(-1), Fraction(0))}

LAMBDAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


# -- tiny exact polynomial arithmetic -----------------------------------------


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def p_const(n: int, c) -> Poly:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def p_var(n: int, i: int) -> Poly:
    return {tuple(1 if k == i else 0 for k in range(n)): Fraction(1)}


def p_compose(h: Poly, subs: Sequence[Poly], n: int) -> Poly:
    """h(subs[0], ..., subs[m-1]) as a polynomial in n variables."""
    out: Poly = {}
    for exp, c in h.items():
        term = p_const(n, c)
        for base, k in zip(subs, exp):
            for _ in range(k):
                term = p_mul(term, base)
        out = p_add(out, term)
    return out


def p_text(p: Poly, names: Sequence[str]) -> str:
    """Render in the package's input grammar (grlex order, rational coeffs)."""
    if not p:
        return "0"
    parts = []
    for exp in sorted(p, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = p[exp]
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(names, exp) if k)
        mag = abs(c)
        coef = str(mag)
        body = mono if (mono and mag == 1) else (f"{coef}*{mono}" if mono else coef)
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def flagship_poly(n: int) -> Poly:
    """x + x^2*y (n = 2) or x + x^2*y + z^2 (n = 3)."""
    h = p_add(p_var(n, 0), p_mul(p_mul(p_var(n, 0), p_var(n, 0)), p_var(n, 1)))
    if n == 3:
        h = p_add(h, p_mul(p_var(n, 2), p_var(n, 2)))
    return h


# -- planted maps ---------------------------------------------------------------


@dataclass(frozen=True)
class PlantedMap:
    name: str
    n: int
    text: str
    c0: Fraction
    lam: Fraction
    A: Tuple[Tuple[int, ...], ...]
    s: Tuple[Fraction, ...]
    eps: int                      # triangular automorphism y -> y + eps*x^2 (0: none)
    poly: Poly = field(compare=False, repr=False)

    @property
    def degree(self) -> int:
        return 4 if self.eps else 3

    def witness(self) -> Dict[int, Tuple[Fraction, ...]]:
        """Image A^-1 (T^-1(xi) - s) of the base witness arc xi, as Laurent
        coefficients {k: vector}.  It is an asymptotic arc of this map with
        limit value exactly c0."""
        base = WITNESS2 if self.n == 2 else WITNESS3
        comps = [{k: v[j] for k, v in base.items() if v[j]} for j in range(self.n)]
        if self.eps:
            # T^-1(x, y) = (x, y - eps*x^2)
            sq = l_mul(comps[0], comps[0])
            comps[1] = l_add(comps[1], {k: -self.eps * c for k, c in sq.items()})
        comps = [l_add(c, {0: -sj}) for c, sj in zip(comps, self.s)]
        inv = mat_inverse(self.A)
        out: Dict[int, List[Fraction]] = {}
        for i in range(self.n):
            row: Dict[int, Fraction] = {}
            for j in range(self.n):
                row = l_add(row, {k: inv[i][j] * c for k, c in comps[j].items()})
            for k, c in row.items():
                out.setdefault(k, [Fraction(0)] * self.n)[i] = c
        return {k: tuple(v) for k, v in sorted(out.items()) if any(v)}


def l_add(a: Dict[int, Fraction], b: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def l_mul(a: Dict[int, Fraction], b: Dict[int, Fraction]) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def mat_inverse(A) -> List[List[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over Q."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                fac = M[r][col]
                M[r] = [a - fac * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def _det(A) -> Fraction:
    n = len(A)
    if n == 1:
        return Fraction(A[0][0])
    return sum((-1) ** j * A[0][j] * _det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(n))


def _small_rational(rng: random.Random, num: int, den: int, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if v or not nonzero:
            return v


def _dense_matrix(rng: random.Random, n: int) -> Tuple[Tuple[int, ...], ...]:
    """Invertible integer matrix with entries in {-2, -1, 1, 2} and |det| in
    {1, 2}.  No entry is zero, so every planted map of one shape has the same
    monomial support and a similar cost: the workload's run time then varies
    little with the seed."""
    while True:
        A = tuple(tuple(rng.choice((-2, -1, 1, 2)) for _ in range(n)) for _ in range(n))
        if abs(_det([list(r) for r in A])) in (1, 2):
            return A


def planted_map(rng: random.Random, n: int, index: int, eps: int = 0,
                A: Optional[Tuple[Tuple[int, ...], ...]] = None,
                s: Optional[Tuple[Fraction, ...]] = None) -> PlantedMap:
    """One planted map; lam cycles through LAMBDAS by index, c0 and (unless
    given) A and s are drawn from rng."""
    names = ["x", "y", "z"][:n]
    if A is None:
        A = _dense_matrix(rng, n)
    if s is None:
        s = tuple(_small_rational(rng, 3, 4) for _ in range(n))
    c0 = _small_rational(rng, 5, 4)
    lam = LAMBDAS[index % len(LAMBDAS)]
    q = []
    for i in range(n):
        row = p_const(n, s[i])
        for j in range(n):
            row = p_add(row, p_mul(p_const(n, A[i][j]), p_var(n, j)))
        q.append(row)
    if eps:
        q[1] = p_add(q[1], p_mul(p_const(n, eps), p_mul(q[0], q[0])))
    g = p_add(p_const(n, c0), p_mul(p_const(n, lam), p_compose(flagship_poly(n), q, n)))
    return PlantedMap(name=f"planted{n}-{index}", n=n, text=p_text(g, names), c0=c0, lam=lam,
                      A=A, s=s, eps=eps, poly=g)


def random_arc(rng: random.Random, n: int, d: int) -> Dict[int, Tuple[Fraction, ...]]:
    """Rational arc with a nonzero coefficient at every exponent of the window
    [-(d-1) d^(n-1), d^(n-1)] in every component."""
    top = d ** (n - 1)
    return {k: tuple(_small_rational(rng, 5, 5, nonzero=True) for _ in range(n))
            for k in range(-(d - 1) * top, top + 1)}
