"""Exact sparse multivariate polynomials over Q, Laurent scalars and rational arcs.

A polynomial is a finite map from exponent tuples to nonzero Fraction
coefficients; the zero polynomial is the empty map.  Every result of this
module is exact, apart from the float lowering `CompiledPolynomials`.

`LaurentScalar` is the one Laurent polynomial in t.  Its coefficients are
Fractions (arcs, the n=2 circle restriction) or Polynomials (the generic arc
whose coefficients are unknowns); `compose_laurent` substitutes Laurent
components into a polynomial, and `ClearedComponents` into several, on one power table.

Exact evaluation over Q runs in Python integers: `Polynomial.evaluate` and
`compose_laurent` with Fraction coefficients clear the common denominators
(`Polynomial.cleared`), sum integer products and divide once per result.
`compose_laurent` runs the same sums over Polynomial coefficients, with no
denominator to clear.

`real_roots` isolates the real roots of a univariate polynomial over Q
exactly, by Sturm sequences, and refines each by secant jumps from a float
Newton seed, every jump verified by exact signs, to the Fraction that exact
sign bisection would return.

`CompiledPolynomials` is the float lowering of a `Polynomial` at points: the
tracer and `milnor` evaluate values, Jacobians and scale bounds at float
points only through it.  (The numerical arc search composes float Laurent
arcs instead; see `arcs.py`.)

Terms are ordered by graded lexicographic order on the exponent tuple (total
degree first, then the tuple itself), which fixes printing and iteration
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

Exponent = Tuple[int, ...]
Rational = Union[int, Fraction]

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _grlex_key(exp: Exponent) -> Tuple[int, Exponent]:
    return (sum(exp), exp)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Optional[Mapping[Exponent, Rational]] = None):
        if num_vars < 1:
            raise ValueError("num_vars must be positive")
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != num_vars:
                    raise ValueError(f"exponent {exp} has length {len(exp)}, expected {num_vars}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = Fraction(coeff)
                if c != 0:
                    clean[exp] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Polynomial is immutable")

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, value: Rational) -> "Polynomial":
        return cls(num_vars, {(0,) * num_vars: Fraction(value)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < num_vars:
            raise IndexError(f"variable index {index} out of range for {num_vars} variables")
        exp = [0] * num_vars
        exp[index] = 1
        return cls(num_vars, {tuple(exp): Fraction(1)})

    # ----- basic queries ------------------------------------------------

    @property
    def degree(self) -> Union[int, float]:
        """Total degree; NEG_INFINITY for the zero polynomial."""
        if not self.terms:
            return NEG_INFINITY
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        """Terms in ascending graded lexicographic order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_grlex_key)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"Polynomial({self.num_vars}, {self.to_text()!r})"

    # ----- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise ValueError("num_vars mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.num_vars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return Polynomial(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial(self.num_vars, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: Dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = out.get(exp, Fraction(0)) + ca * cb
        return Polynomial(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.num_vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ----- calculus and evaluation -------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable `index` (0-based)."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range")
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[index]
            if e == 0:
                continue
            new = list(exp)
            new[index] = e - 1
            out[tuple(new)] = c * e
        return Polynomial(self.num_vars, out)

    def gradient(self) -> List["Polynomial"]:
        return [self.partial(i) for i in range(self.num_vars)]

    def cleared(self, D: int) -> Tuple[List[Tuple[Exponent, int]], int]:
        """Integer terms for substituting arguments of common denominator D.

        With L the common denominator of the coefficients and d the degree,
        L * D^d * f(x) = sum (L * c_e * D^(d - |e|)) * prod (D * x_k)^e_k.
        Returns the terms (e, L * c_e * D^(d - |e|)) and the divisor L * D^d.
        """
        L = math.lcm(*(c.denominator for c in self.terms.values()))
        d = max(map(sum, self.terms), default=0)
        terms = [(exp, c.numerator * (L // c.denominator) * D ** (d - sum(exp)))
                 for exp, c in self.terms.items()]
        return terms, L * D ** d

    def evaluate(self, point: Sequence) -> Fraction:
        """The exact value at a point of ints, Fractions or floats.

        Each entry goes through `Fraction`, so a float entry stands for its
        exact binary value.  The sum runs in integers over common
        denominators (`cleared`) and is divided once at the end.
        """
        if len(point) != self.num_vars:
            raise ValueError(f"point has length {len(point)}, expected {self.num_vars}")
        point = [Fraction(v) for v in point]
        D = math.lcm(*(v.denominator for v in point))
        p = [v.numerator * (D // v.denominator) for v in point]
        terms, divisor = self.cleared(D)
        return Fraction(sum(C * math.prod(pk ** e for pk, e in zip(p, exp)) for exp, C in terms), divisor)

    # ----- printing -----------------------------------------------------

    def to_text(self, var_names: Optional[Sequence[str]] = None) -> str:
        """Render in the input grammar, terms in ascending graded lex order."""
        if var_names is None:
            var_names = default_var_names(self.num_vars)
        if len(var_names) != self.num_vars:
            raise ValueError("wrong number of variable names")
        if not self.terms:
            return "0"
        pieces: List[str] = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(var_names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_text()


def default_var_names(num_vars: int) -> List[str]:
    if num_vars <= 3:
        return ["x", "y", "z"][:num_vars]
    return [f"x{i + 1}" for i in range(num_vars)]


# ---------------------------------------------------------------------------
# Compiled float evaluation
# ---------------------------------------------------------------------------


class _TermTable:
    """Float terms c * x^e, each summed into one output cell.

    Terms are stored cell by cell; a cell without terms holds one 0 * x^0
    term, so every cell is a nonempty contiguous segment for reduceat.  A
    term is ((x_1^e_1 * x_2^e_2) * ...) * c, gathered and multiplied one
    variable at a time, left to right: the order in which `prod` reduces a
    term's gathered powers, so both give the same bits.
    """

    def __init__(self, cells: Sequence[List[Tuple[Exponent, Fraction]]], num_vars: int, stride: int):
        zero = [((0,) * num_vars, Fraction(0))]
        exps, coeffs, starts = [], [], []
        for terms in cells:
            starts.append(len(coeffs))
            for exp, c in terms or zero:
                exps.append(exp)
                coeffs.append(float(c))
        exps = np.array(exps, dtype=np.int64)
        # column of x_k^e in the flattened power table is k * stride + e
        self.columns = list((exps + stride * np.arange(num_vars)).T.copy())
        self.degrees = exps.sum(axis=1)
        self.coeffs = np.array(coeffs, dtype=float)
        self.starts = np.array(starts, dtype=np.int64)

    def evaluate(self, powers: np.ndarray) -> np.ndarray:
        """Cell sums (m, cells) from a power table (m, num_vars * stride)."""
        terms = powers[:, self.columns[0]]
        for column in self.columns[1:]:
            terms *= powers[:, column]
        terms *= self.coeffs
        return np.add.reduceat(terms, self.starts, axis=1)


class CompiledPolynomials:
    """Polynomials in the same variables lowered once to float term tables.

    Built from p polynomials in n variables; evaluates a batch of m points
    X (m, n) to values (m, p) and Jacobians (m, p, n), the derivative table
    coming from the exact partials.  Both read one table of the powers
    x_k^e, 0 <= e <= the largest exponent, built by repeated multiplication
    (relative error at most (e - 1) ulp, exact on small integers);
    `values_and_jacobians` builds that table once for both.  Each term
    table is built on first use, since most callers need only one of them.
    Every row of X is evaluated on its own: a row's result does not depend on
    the other rows, not even on an inf or nan among them.
    """

    def __init__(self, polys: Sequence[Polynomial]):
        polys = list(polys)
        if not polys:
            raise ValueError("need at least one polynomial")
        n = polys[0].num_vars
        if any(f.num_vars != n for f in polys):
            raise ValueError("all polynomials must share num_vars")
        self.num_vars = n
        self.num_polys = len(polys)
        self._polys = polys
        self._stride = max((max(e) for f in polys for e in f.terms), default=0) + 1

    @cached_property
    def _values(self) -> _TermTable:
        return _TermTable([f.sorted_terms() for f in self._polys], self.num_vars, self._stride)

    @cached_property
    def _jacobians(self) -> _TermTable:
        partials = [f.partial(k).sorted_terms() for f in self._polys for k in range(self.num_vars)]
        return _TermTable(partials, self.num_vars, self._stride)

    def _power_table(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        P = np.empty((len(X), self.num_vars, self._stride))
        P[:, :, 0] = 1.0
        for e in range(1, self._stride):
            P[:, :, e] = P[:, :, e - 1] * X
        return P.reshape(len(X), self.num_vars * self._stride)

    def values(self, X) -> np.ndarray:
        """Values at the rows of X (m, n): shape (m, p)."""
        return self._values.evaluate(self._power_table(X))

    def jacobians(self, X) -> np.ndarray:
        """Jacobian matrices at the rows of X (m, n): shape (m, p, n)."""
        J = self._jacobians.evaluate(self._power_table(X))
        return J.reshape(-1, self.num_polys, self.num_vars)

    def values_and_jacobians(self, X) -> Tuple[np.ndarray, np.ndarray]:
        """`values(X)` and `jacobians(X)`, bit for bit, from one power table."""
        P = self._power_table(X)
        return self._values.evaluate(P), self._jacobians.evaluate(P).reshape(-1, self.num_polys, self.num_vars)

    def scales(self, bound: float) -> np.ndarray:
        """Magnitude bounds sum |c| * bound^deg + 1, one per polynomial.

        Scale-aware residuals divide by these; an overflow gives inf.
        """
        table = self._values
        with np.errstate(over="ignore"):
            terms = np.abs(table.coeffs) * float(bound) ** table.degrees
        return np.add.reduceat(terms, table.starts) + 1.0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_WHITESPACE = " \t\r\n"
_OPS = "+-*/^()"


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _WHITESPACE:
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch in _OPS:
            tokens.append(("OP", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*           (implicit '*' after a number)
    factor := rational | var | '(' expr ')' | factor '^' uint
    """

    def __init__(self, text: str, var_names: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_index = {name: i for i, name in enumerate(var_names)}
        self.num_vars = len(var_names)
        if self.num_vars == 0:
            raise ValueError("var_names must be non-empty")

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        poly = self.parse_expr()
        kind, value, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected token {value!r}", pos)
        return poly

    def parse_expr(self) -> Polynomial:
        sign = 1
        kind, value, _ = self.peek()
        if kind == "OP" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        poly = self.parse_term() * sign
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value in "+-":
                self.next()
                term = self.parse_term()
                poly = poly + term if value == "+" else poly - term
            else:
                break
        return poly

    def parse_term(self) -> Polynomial:
        poly, was_number = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value == "*":
                self.next()
                nxt, was_number = self.parse_factor()
                poly = poly * nxt
            elif was_number and kind == "NAME":
                # implicit multiplication between a number and a variable
                nxt, was_number = self.parse_factor()
                poly = poly * nxt
            else:
                break
        return poly

    def parse_factor(self) -> Tuple[Polynomial, bool]:
        kind, value, pos = self.next()
        was_number = False
        if kind == "NUM":
            num = int(value)
            den = 1
            k2, v2, _ = self.peek()
            if k2 == "OP" and v2 == "/":
                self.next()
                k3, v3, p3 = self.next()
                if k3 != "NUM":
                    raise ParseError("expected denominator after '/'", p3)
                den = int(v3)
                if den == 0:
                    raise ParseError("zero denominator", p3)
            poly = Polynomial.constant(self.num_vars, Fraction(num, den))
            was_number = True
        elif kind == "NAME":
            if value not in self.var_index:
                raise ParseError(f"unknown variable {value!r}", pos)
            poly = Polynomial.variable(self.num_vars, self.var_index[value])
        elif kind == "OP" and value == "(":
            poly = self.parse_expr()
            k2, v2, p2 = self.next()
            if not (k2 == "OP" and v2 == ")"):
                raise ParseError("expected ')'", p2)
        else:
            raise ParseError(f"unexpected token {value!r}", pos)
        # postfix powers: factor '^' uint, possibly repeated
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value == "^":
                self.next()
                k2, v2, p2 = self.next()
                if k2 != "NUM":
                    raise ParseError("exponent must be a nonnegative integer", p2)
                poly = poly ** int(v2)
                was_number = False
            else:
                break
        return poly, was_number


def parse(text: str, var_names: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the given ordered variable names."""
    return _Parser(text, var_names).parse()


# ---------------------------------------------------------------------------
# Laurent scalars
# ---------------------------------------------------------------------------


class LaurentScalar:
    """Finite Laurent polynomial in one variable t over a coefficient ring.

    The coefficients are Fractions (arcs, the circle restriction) or
    Polynomials (the generic arc of the constraint system); int and Fraction
    scalars enter at t^0.  A falsy coefficient is dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        clean = {int(k): c for k, c in terms.items() if c} if terms else {}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentScalar is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, power: int):
        """The coefficient of t^power; Fraction(0) when absent."""
        return self.terms.get(power, Fraction(0))

    def support(self) -> List[int]:
        return sorted(self.terms)

    def _coerce(self, other) -> Optional["LaurentScalar"]:
        if isinstance(other, LaurentScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentScalar({0: Fraction(other)})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return LaurentScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentScalar({k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: Dict[int, object] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k, c = ka + kb, ca * cb
                out[k] = out[k] + c if k in out else c
        return LaurentScalar(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent scalar")
        result = LaurentScalar({0: Fraction(1)})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if k == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*t^{k}" if k != 1 else f"{c}*t")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentScalar({dict(sorted(self.terms.items()))})"


def _convolve(a: list, b: list) -> list:
    """Coefficient list of the product of two nonempty coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


class ClearedComponents:
    """Laurent components over their common denominator D (1 over Polynomials,
    the generic arc), whose powers are built by convolution on first use and
    kept, so every polynomial composed with them reads one power table."""

    def __init__(self, components: Sequence[LaurentScalar]):
        rational = all(isinstance(c, (int, Fraction)) for xi in components for c in xi.terms.values())
        self.D = D = math.lcm(*(c.denominator for xi in components for c in xi.terms.values())) if rational else 1
        self._lows = [min(xi.terms, default=0) for xi in components]
        self._powers = [[[1], [c.numerator * (D // c.denominator) if rational else c for c in
                               [xi.terms.get(m, 0) for m in range(low, max(xi.terms, default=0) + 1)]]]
                        for xi, low in zip(components, self._lows)]

    @cached_property
    def series(self) -> List[LaurentScalar]:
        """D * xi_k for each component k."""
        return [LaurentScalar(dict(enumerate(table[1], low))) for table, low in zip(self._powers, self._lows)]

    def sums(self, f: Polynomial) -> Tuple[LaurentScalar, int]:
        """(S, divisor) with f(components) = S / divisor, from `Polynomial.cleared`."""
        terms, divisor = f.cleared(self.D)
        sums: Dict[int, object] = {}
        for exp, C in terms:
            product = [C]
            for table, e in zip(self._powers, exp):
                while len(table) <= e:
                    table.append(_convolve(table[-1], table[1]))
                product = _convolve(product, table[e]) if e else product
            for m, v in enumerate(product, sum(lo * e for lo, e in zip(self._lows, exp))):
                sums[m] = sums.get(m, 0) + v
        return LaurentScalar(sums), divisor


def divided(S: LaurentScalar, divisor: int, lowest: float = -math.inf) -> dict:
    """The coefficients of S / divisor at the powers >= lowest, in increasing order."""
    scale = Fraction(1, divisor)
    return {m: S.terms[m] * scale for m in sorted(S.terms) if m >= lowest}


def compose_laurent(f: Polynomial, components: Sequence[LaurentScalar]) -> LaurentScalar:
    """f(components) as a LaurentScalar: the sums of `ClearedComponents`,
    each divided once.  Over Fractions every product is an integer product,
    as in `Polynomial.evaluate`."""
    if len(components) != f.num_vars:
        raise ValueError("wrong number of substitution values")
    return LaurentScalar(divided(*ClearedComponents(components).sums(f)))


# ---------------------------------------------------------------------------
# Real roots of univariate polynomials
# ---------------------------------------------------------------------------


def _scaled_value(p: List[int], k: int, e: int) -> int:
    """2^(e * deg p) * p(k / 2^e), exactly; it has the sign of p(k / 2^e)."""
    h = 0
    for i, c in enumerate(reversed(p)):
        h = h * k + (c << (e * i))
    return h


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _trailing_zeros(k: int) -> int:
    return (k & -k).bit_length() - 1


def _negated_remainder(a: List[int], b: List[int]) -> List[int]:
    """A positive multiple of -(a mod b) with coprime integer coefficients;
    empty when b divides a."""
    r, lead, steps = list(a), b[-1], 0
    while len(r) >= len(b):
        top, shift = r[-1], len(r) - len(b)
        r = [lead * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        steps += 1
        while r and r[-1] == 0:
            r.pop()
    # r = lead^steps * (a mod b)
    sign = 1 if lead < 0 and steps % 2 else -1
    content = math.gcd(*r)
    return [sign * c // content for c in r]


def _sturm_sequence(p: List[int]) -> List[List[int]]:
    """p, p' and the negated remainders.  With repeated roots it ends in
    gcd(p, p'); its sign variations still count the distinct roots between
    two points, provided neither point is a root of p."""
    seq = [p, [i * c for i, c in enumerate(p)][1:]]
    while True:
        r = _negated_remainder(seq[-2], seq[-1])
        if not r:
            return seq
        seq.append(r)


def _sturm_count(seq: List[List[int]], k: int, e: int) -> Tuple[int, int]:
    """(sign of p, sign variations of the Sturm sequence) at k / 2^e.  The
    variations are counted only where p does not vanish, the only points at
    which Sturm counts are taken; elsewhere they are 0."""
    if k:
        z = min(e, _trailing_zeros(k))
        k, e = k >> z, e - z
    sign = _sign(_scaled_value(seq[0], k, e))
    if not sign:
        return 0, 0
    signs = [sign] + [s for s in (_sign(_scaled_value(q, k, e)) for q in seq[1:]) if s]
    return sign, sum(s != t for s, t in zip(signs, signs[1:]))


def _float_seed(pf: List[float], lo: float, hi: float, positive_at_lo: bool) -> Tuple[float, float]:
    """A float x near the root of pf (float coefficients, ascending) in (lo, hi),
    across which pf changes sign, and an estimate of |x - root|.
    Newton's method inside the bracket, with a bisection step when Newton
    leaves it, until the step is below 2^-50 |x| or below the rounding error
    of Horner's scheme over |pf'(x)|.  x is NaN when an evaluation overflows."""
    x = lo + 0.5 * (hi - lo)
    unit = len(pf) * 2.0 ** -52
    for _ in range(100):
        v = dv = bound = 0.0
        size = abs(x)
        for c in reversed(pf):
            dv = dv * x + v
            v = v * x + c
            bound = bound * size + abs(c)
        if not (math.isfinite(bound) and dv):
            return math.nan, math.inf
        step, spread = v / dv, unit * bound / abs(dv)
        if abs(step) <= max(size * 2.0 ** -50, spread):
            return x - step, abs(step) + spread
        if (v > 0) == positive_at_lo:
            lo = x
        else:
            hi = x
        x -= step
        if not lo < x < hi:
            x = lo + 0.5 * (hi - lo)
    return x, hi - lo


class _ExactRoot(Exception):
    """A grid point where the polynomial vanishes, given as the bisection
    cell (level, index) whose midpoint it is."""


def _refine(p: List[int], L: int, H: int, e: int, positive_at_lo: bool) -> Fraction:
    """The root of p in (L, H) / 2^e, across which p changes sign, exactly as
    sign bisection to relative width 2^-60 returns it: the midpoint of the
    first bisection cell of width W / 2^e' with W 2^60 <= max(|A|, |B|) for
    its ends A / 2^e', B / 2^e', or the root itself when a bisection point
    hits it.

    Every bisection cell lies on one grid: cell j of level k has the ends
    (L 2^k + j W) / 2^(e+k) and (L 2^k + (j+1) W) / 2^(e+k), W = H - L.  A cell
    whose ends have strictly opposite signs holds the root in its interior,
    so it and its ancestors are the cells bisection passes through, and the
    stopping test, once true on that path, stays true below.  Any such cell
    at or below the stopping level therefore gives the answer, by a binary
    search over the levels of its ancestors; so does the cell whose midpoint
    is a grid point where p vanishes.

    Such a cell is reached with few exact evaluations.  Start from the cell
    of relative width 2^-40 (wider if the seed's error estimate asks for it)
    at a float Newton seed, if the signs at its ends verify it, else from
    the level-0 cell.  Then take secant jumps of s levels: go to the cell
    below that holds the secant root of the end values, if its ends change
    sign.  s doubles on success and halves on failure; at s = 1 a bisection
    step is taken, which always succeeds.
    """
    z = min(e, _trailing_zeros(L | H))
    L, H, e = L >> z, H >> z, e - z
    W, d = H - L, len(p) - 1

    def end(k: int, i: int) -> int:
        return (L << k) + i * W

    def value(k: int, i: int) -> int:
        v = _scaled_value(p, end(k, i), e + k)
        if not v:
            zeros = _trailing_zeros(i)
            raise _ExactRoot(k - zeros - 1, i >> (zeros + 1))
        return v

    def stops(k: int, j: int) -> bool:
        A = end(k, j)
        return W << 60 <= max(abs(A), abs(A + W))

    k = j = 0
    try:
        if not stops(0, 0):
            seed, error = math.nan, math.inf
            try:
                pf = [float(c) for c in p]
                lo, hi = L / (1 << e), H / (1 << e)
            except OverflowError:
                pass
            else:
                seed, error = _float_seed(pf, lo, hi, positive_at_lo)
            if math.isfinite(seed) and seed and error < abs(seed):
                # the level of width 2^-40 |seed|, or 8 times the seed's
                # error estimate if that is wider
                width = min(40 - math.frexp(seed)[1], -math.frexp(error)[1] - 3)
                k = max(0, W.bit_length() - e + width)
            if k:
                num, den = seed.as_integer_ratio()
                j = min(max(((num << (e + k)) // den - end(k, 0)) // W, 0), (1 << k) - 1)
                a, b = value(k, j), value(k, j + 1)
                if (a > 0) == (b > 0):
                    k = j = 0
            if not k:
                a, b = value(0, 0), value(0, 1)
            # the levels left to the stopping level (two more for rounding),
            # or the cell's relative precision if smaller: a secant step about
            # doubles that
            top = max(abs(end(k, j)), abs(end(k, j + 1))).bit_length()
            s = max(1, min((W << 62).bit_length() - top, top - W.bit_length()))
        while not stops(k, j):
            if s == 1:
                m = value(k + 1, 2 * j + 1)
                if (m > 0) == (a > 0):
                    j, a, b = 2 * j + 1, m, b << d
                else:
                    j, a, b = 2 * j, a << d, m
                k, s = k + 1, 2
                continue
            offset = (a << s) // (a - b)
            i = (j << s) + offset
            na = a << (s * d) if offset == 0 else value(k + s, i)
            nb = b << (s * d) if offset == (1 << s) - 1 else value(k + s, i + 1)
            if (na > 0) != (nb > 0):
                k, j, a, b, s = k + s, i, na, nb, 2 * s
            else:
                s //= 2
    except _ExactRoot as hit:
        k, j = hit.args

    # the first level on the path to cell (k, j) at which bisection stops, else k
    lo, hi = 0, k
    while lo < hi:
        mid = (lo + hi) // 2
        if stops(mid, j >> (k - mid)):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(2 * end(lo, j >> (k - lo)) + W, 1 << (e + lo + 1))


def real_roots(coeffs: Sequence[Rational]) -> List[Fraction]:
    """The real roots of odd multiplicity of sum_k coeffs[k] t^k, ascending.

    Exact: the distinct real roots are isolated by the Sturm sequence over Q
    with bisection at dyadic points, and each isolating interval across
    which the polynomial changes sign is refined to relative width 2^-60.
    A root is returned as the midpoint of the dyadic cell that sign
    bisection of its interval stops at, or exactly when a bisection point
    hits it; the refinement finds that cell by verified secant jumps from a
    float Newton seed, with a few exact evaluations (see `_refine`).  Roots
    of even multiplicity (no sign change) are not reported; the zero
    polynomial and the nonzero constants have no roots.
    """
    q = [Fraction(c) for c in coeffs]
    while q and q[-1] == 0:
        q.pop()
    if len(q) < 2:
        return []
    den = math.lcm(*(c.denominator for c in q))
    p = [int(c * den) for c in q]
    seq = _sturm_sequence(p)

    # Fujiwara's bound |t| <= 2 max_i |p[n-i] / p[n]|^(1/i), raised to a power of two
    lead = abs(p[-1]).bit_length()
    exponent = max([0] + [-((lead - 1 - abs(c).bit_length()) // i)
                          for i, c in enumerate(reversed(p[:-1]), 1) if c])
    bound = 1 << (exponent + 1)

    # an interval is (a, b, e, count at a, count at b) for [a, b] / 2^e
    roots: List[Fraction] = []
    stack = [(-bound, bound, 0, _sturm_count(seq, -bound, 0), _sturm_count(seq, bound, 0))]
    while stack:
        a, b, e, (s_a, v_a), (s_b, v_b) = stack.pop()
        if v_a - v_b == 1:
            if s_a != s_b:
                roots.append(_refine(p, a, b, e, s_a > 0))
            continue
        if v_a == v_b:
            continue
        mid, e_mid = a + b, e + 1
        at_mid = _sturm_count(seq, mid, e_mid)
        if at_mid[0]:
            stack += [(2 * a, mid, e_mid, (s_a, v_a), at_mid), (mid, 2 * b, e_mid, at_mid, (s_b, v_b))]
            continue
        # a root on the bisection point: step off it to two points that are
        # not roots and enclose no other root, as Sturm counts need
        scale, centre, step = e + 2, 2 * mid, b - a
        while True:
            left, right = centre - step, centre + step
            at_left, at_right = _sturm_count(seq, left, scale), _sturm_count(seq, right, scale)
            if at_left[0] and at_right[0] and at_left[1] - at_right[1] == 1:
                break
            centre, scale = 2 * centre, scale + 1
        if at_left[0] != at_right[0]:
            roots.append(Fraction(mid, 1 << e_mid))
        shift = scale - e
        stack += [(a << shift, left, scale, (s_a, v_a), at_left),
                  (right, b << shift, scale, at_right, (s_b, v_b))]
    return sorted(roots)


# ---------------------------------------------------------------------------
# Rational arcs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalArc:
    """Vector-valued Laurent polynomial xi(t) = sum a_k t^k.

    `coeffs` maps exponent k to the coefficient vector a_k; zero vectors are
    dropped at construction.
    """

    num_vars: int
    coeffs: Dict[int, Tuple[Fraction, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be positive")
        clean: Dict[int, Tuple[Fraction, ...]] = {}
        for k, vec in self.coeffs.items():
            vec = tuple(Fraction(v) for v in vec)
            if len(vec) != self.num_vars:
                raise ValueError(f"coefficient vector at t^{k} has length {len(vec)}")
            if any(v != 0 for v in vec):
                clean[int(k)] = vec
        object.__setattr__(self, "coeffs", clean)

    def component(self, index: int) -> LaurentScalar:
        """The scalar Laurent polynomial xi_index(t)."""
        if not 0 <= index < self.num_vars:
            raise IndexError("component index out of range")
        return LaurentScalar({k: vec[index] for k, vec in self.coeffs.items() if vec[index] != 0})

    def components(self) -> List[LaurentScalar]:
        return [self.component(i) for i in range(self.num_vars)]

    def support(self) -> List[int]:
        return sorted(self.coeffs)

    def escapes_to_infinity(self) -> bool:
        """True iff some coefficient vector with positive exponent is nonzero."""
        return any(k > 0 for k in self.coeffs)

    def reparametrize(self, lam: Rational) -> "RationalArc":
        """The arc t -> xi(lam * t); coefficients scale by lam^k."""
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("reparametrization scale must be nonzero")
        out = {k: tuple(v * lam ** k for v in vec) for k, vec in self.coeffs.items()}
        return RationalArc(self.num_vars, out)


def compose_arc(f: Polynomial, xi: RationalArc) -> LaurentScalar:
    """Exact Laurent expansion of f(xi(t))."""
    if f.num_vars != xi.num_vars:
        raise ValueError(f"polynomial has {f.num_vars} variables, arc has {xi.num_vars}")
    return compose_laurent(f, xi.components())
