"""Exact sparse multivariate polynomials over Q, Laurent scalars and rational arcs.

A polynomial is a finite map from exponent tuples to nonzero Fraction
coefficients; the zero polynomial is the empty map.  Every result of this
module is exact, apart from the float lowering `CompiledPolynomials`.

`LaurentScalar` is the one Laurent polynomial in t.  Its coefficients are
Fractions (arcs, the n=2 circle restriction) or Polynomials (the generic arc
whose coefficients are unknowns).  `composed_coefficients` is the one exact
composition: for each pair (P, j), the coefficients of P(xi), times xi_j when
j is given, by the route of the coefficient ring (`compose_laurent` for one).

Exact evaluation over Q runs in Python integers: `Polynomial.evaluate` (through
`ExactEvaluator`, which also rounds exact values at float points to floats)
and `composed_coefficients` over Fractions clear the common denominators
(`Polynomial.cleared`), sum integer products and divide once per coefficient.
There `ClearedComponents` packs each component into one integer (Kronecker
substitution), a format no other module reads; over Polynomials
`composed_coefficients` multiplies LaurentScalars.

`real_roots` finds the real roots of a univariate polynomial over Q exactly:
float eigenvalue seeds propose isolating dyadic cells, which exact signs and
a root count (the degree, or the Sturm sequence's) certify, with Sturm
bisection where they do not; each root is refined by secant jumps, every
jump verified by exact signs, to the Fraction that exact sign bisection
would return.

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
        self.message, self.position = message, position


def _grlex_key(exp: Exponent) -> Tuple[int, Exponent]:
    return (sum(exp), exp)


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, from `one`."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


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

    @classmethod
    def _trusted(cls, num_vars: int, terms: Dict[Exponent, Fraction]) -> "Polynomial":
        """A polynomial on `terms` as given, unchecked: the arithmetic below
        only makes exponent tuples of length num_vars with entries >= 0 and
        nonzero Fraction coefficients, so it skips `__init__`'s checks."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "num_vars", num_vars)
        object.__setattr__(poly, "terms", terms)
        return poly

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
            total = out.get(exp, 0) + c
            if total:
                out[exp] = total
            else:
                del out[exp]
        return Polynomial._trusted(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.num_vars, {e: -c for e, c in self.terms.items()})

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
            return Polynomial._trusted(self.num_vars, {e: c * v for e, v in self.terms.items()} if c else {})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: Dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = out.get(exp, 0) + ca * cb
        return Polynomial._trusted(self.num_vars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Polynomial.constant(self.num_vars, 1))

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
        return Polynomial._trusted(self.num_vars, out)

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
        denominators (`ExactEvaluator`) and is divided once at the end.
        """
        return ExactEvaluator(self).at(point)

    # ----- printing -----------------------------------------------------

    def to_text(self, var_names: Optional[Sequence[str]] = None) -> str:
        """Render in the input grammar, terms in ascending graded lex order."""
        if var_names is None:
            var_names = default_var_names(self.num_vars)
        if len(var_names) != self.num_vars:
            raise ValueError("wrong number of variable names")
        return _terms_text((coeff, [_power_text(name, e) for name, e in zip(var_names, exp) if e])
                           for exp, coeff in self.sorted_terms())

    def __str__(self) -> str:
        return self.to_text()


def _power_text(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _terms_text(terms) -> str:
    """Rational (coefficient, factor texts) pairs as signed terms of the input
    grammar, '-x + 1/2*x*y^2'; '0' for none."""
    pieces: List[str] = []
    for coeff, factors in terms:
        mag = abs(coeff)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{sign} {body}" if pieces else body if coeff > 0 else f"-{body}")
    return " ".join(pieces) or "0"


class ExactEvaluator:
    """Exact values of one polynomial f, cleared once for many points.

    With L the common denominator of f's coefficients and d its degree,
    L * D^d * f(p / D) = sum (L * c_e) * prod p_k^e_k * D^(d - |e|), an
    integer for integer p and D: the terms of `Polynomial.cleared(1)`
    homogenised by D.  `at` divides that sum once into a Fraction; `at_float`
    takes float points, m * 2^-s in each entry, so D is a power of two, and
    divides it into the nearest float, which is float(f.evaluate(x)): int true
    division rounds correctly, and raises the same OverflowError past the
    float range.
    """

    def __init__(self, f: Polynomial):
        self.num_vars = f.num_vars
        self.degree = d = max(map(sum, f.terms), default=0)
        terms, self.denominator = f.cleared(1)
        self._terms = [(exp + (d - sum(exp),), C) for exp, C in terms]

    def _sum(self, p: Sequence[int], D: int) -> int:
        """L * D^d * f(p / D), exactly."""
        if len(p) != self.num_vars:
            raise ValueError(f"point has length {len(p)}, expected {self.num_vars}")
        q = (*p, D)
        return sum(C * math.prod(qk ** e for qk, e in zip(q, exp)) for exp, C in self._terms)

    def at(self, point: Sequence) -> Fraction:
        """f(point) for a point of ints, Fractions or floats, as a Fraction."""
        point = [Fraction(v) for v in point]
        D = math.lcm(*(v.denominator for v in point))
        p = [v.numerator * (D // v.denominator) for v in point]
        return Fraction(self._sum(p, D), self.denominator * D ** self.degree)

    def at_float(self, point: Sequence[float]) -> float:
        """float(f.evaluate(point)) for a point of floats, with no Fraction made."""
        ratios = [float(v).as_integer_ratio() for v in point]
        shift = max(den.bit_length() for _, den in ratios) - 1   # every den is a power of two
        p = [num << (shift + 1 - den.bit_length()) for num, den in ratios]
        return self._sum(p, 1 << shift) / (self.denominator << (shift * self.degree))


def default_var_names(num_vars: int) -> List[str]:
    if num_vars <= 3:
        return ["x", "y", "z"][:num_vars]
    return [f"x{i + 1}" for i in range(num_vars)]


# ---------------------------------------------------------------------------
# Compiled float evaluation
# ---------------------------------------------------------------------------


def float_or_none(x: Rational) -> Optional[float]:
    """The float nearest x, or None when |x| is beyond the float range: the one rule for lowering an exact number."""
    try:
        return float(x)
    except OverflowError:
        return None


class _TermTable:
    """Float terms c * x^e, each summed into one output cell.

    `rows`, `coeffs` and `starts` list the terms cell by cell; a cell without
    terms holds one 0 * x^0 term, so every cell is a nonempty contiguous
    segment.  A term is ((x_1^e_1 * x_2^e_2) * ...) * c, gathered and
    multiplied one variable at a time, left to right: the order in which
    `prod` reduces a term's gathered powers, so both give the same bits.  The
    power table has one row per power and one column per point: the gathers
    take whole rows.  A coefficient past the float range is a ValueError.

    Each cell sum has the bits of np.add.reduceat over the cell-ordered terms.
    reduceat sums a cell t_0..t_{k-1} as t_0 + P(t_1..t_{k-1}), with P
    numpy's pairwise sum, which adds fewer than 8 terms in sequence:
    t_0 + (((t_1 + t_2) + t_3) ...), pinned by `TestReduceatOrder`.  So a cell
    of at most 8 terms is summed slot by slot, one numpy add per slot for all
    points where reduceat loops per point and per cell: slot j holds term j of
    each such cell longer than j, the cells longest first, so slot j is the
    first c_j cells of slot j - 1.  S = slot 1, S[:c_j] += slot j, then
    slot 0[:c_1] += S, the operands in reduceat's order.  (Of two nans with
    different payloads numpy's vector add keeps either, by array length, so
    only such a sum may differ.)  Longer cells, whose rest numpy sums with 8
    accumulators, keep reduceat.
    """

    def __init__(self, cells: Sequence[List[Tuple[Exponent, Fraction]]], num_vars: int, stride: int):
        zero = [((0,) * num_vars, Fraction(0))]
        exps, coeffs, starts, sizes = [], [], [], []
        for terms in cells:
            starts.append(len(coeffs))
            sizes.append(len(terms or zero))
            for exp, c in terms or zero:
                exps.append(exp)
                coeffs.append(float_or_none(c))
        if None in coeffs:
            raise ValueError("a polynomial coefficient is past the float range")
        exps = np.array(exps, dtype=np.int64)
        # row of x_k^e in the flattened power table is k * stride + e
        self.rows = list((exps + stride * np.arange(num_vars)).T.copy())
        self.degrees = exps.sum(axis=1)
        self.coeffs = np.array(coeffs, dtype=float)
        self.starts = np.array(starts, dtype=np.int64)

        # the summing layout: the long cells' terms cell by cell, then slot j of the short cells, j = 0, 1, ...
        order = sorted(range(len(cells)), key=sizes.__getitem__, reverse=True)   # stable
        layout, long_starts, self._slots = [], [], []   # a slot is (offset in the layout, cells)
        for i in order:
            if sizes[i] > 8:
                long_starts.append(len(layout))
                layout += range(starts[i], starts[i] + sizes[i])
        short = [i for i in order if sizes[i] <= 8]
        for j in range(sizes[short[0]] if short else 1):
            slot = [starts[i] + j for i in short if sizes[i] > j]
            self._slots.append((len(layout), len(slot)))
            layout += slot
        self._long_starts = np.array(long_starts, dtype=np.int64)
        layout = np.array(layout, dtype=np.int64)
        self._rows, self._coeffs = [rows[layout] for rows in self.rows], self.coeffs[layout, None]
        self._cells = None if order == sorted(order) else np.argsort(order)

    def sums(self, powers: np.ndarray) -> np.ndarray:
        """Cell sums (cells, m) from a power table (num_vars * stride, m)."""
        terms = powers[self._rows[0]]
        for rows in self._rows[1:]:
            terms *= powers[rows]
        terms *= self._coeffs
        (first, count), *slots = self._slots
        out = terms[first:first + count]
        if slots:
            (start, count), *rest = slots
            S = terms[start:start + count]
            for start, cells in rest:
                S[:cells] += terms[start:start + cells]
            out[:count] += S
        if len(self._long_starts):
            long = np.add.reduceat(terms[:first], self._long_starts, axis=0)
            out = np.concatenate([long, out]) if len(out) else long
        return out if self._cells is None else out[self._cells]


class CompiledPolynomials:
    """Polynomials in the same variables lowered once to float term tables.

    Built from p polynomials in n variables.  The one layout is variable-major:
    `column_values` and `column_jacobians` take the m points as the columns of
    XT (n, m) to values (p, m) and Jacobians (p, n, m), the latter from the
    exact partials; `column_values_and_jacobians` gives both, bit for bit.  An
    evaluation reads one table of the powers x_k^e, 0 <= e <= the largest
    exponent, built by repeated multiplication (relative error at most
    (e - 1) ulp, exact on small integers), once for values and Jacobians both.
    A polynomial's terms are summed in np.add.reduceat's order, first term
    last: t_0 + (((t_1 + t_2) + t_3) ...) up to 8 terms, numpy's pairwise
    order past them (see `_TermTable`).  Each term table is built on first
    use.  Every point is evaluated on its own: its result does not depend on
    the other points, not even on an inf or nan.
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

    def _powers(self, XT) -> np.ndarray:
        """The power table (n * stride, m): row k * stride + e holds x_k^e at every column of XT."""
        XT = np.asarray(XT, dtype=float)
        P = np.empty((self.num_vars, self._stride, XT.shape[1]))
        P[:, 0] = 1.0
        for e in range(1, self._stride):
            P[:, e] = P[:, e - 1] * XT
        return P.reshape(self.num_vars * self._stride, XT.shape[1])

    def column_values(self, XT) -> np.ndarray:
        """Values at the columns of XT (n, m): shape (p, m)."""
        return self._values.sums(self._powers(XT))

    def column_jacobians(self, XT) -> np.ndarray:
        """Jacobians at the columns of XT (n, m): shape (p, n, m)."""
        return self._jacobians.sums(self._powers(XT)).reshape(self.num_polys, self.num_vars, -1)

    def column_values_and_jacobians(self, XT) -> Tuple[np.ndarray, np.ndarray]:
        """`column_values(XT)` and `column_jacobians(XT)`, from one power table."""
        P = self._powers(XT)
        return self._values.sums(P), self._jacobians.sums(P).reshape(self.num_polys, self.num_vars, -1)

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
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
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
    """Recursive-descent parser for the polynomial grammar, over the ring of
    the caller's `constant` (a Fraction's value) and `variable` (a name's
    value, None for an unknown name) constructors.

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*           (implicit '*' after a number)
    factor := rational | var | '(' expr ')' | factor '^' '-'? uint

    A signed exponent is read everywhere and the ring's power decides: a
    one-term `LaurentScalar` takes a negative one, `Polynomial` only `x^-0`.
    """

    def __init__(self, text: str, constant, variable):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.constant = constant
        self.variable = variable

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        poly = self.parse_expr()
        kind, value, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected token {value!r}", pos)
        return poly

    def parse_expr(self):
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

    def parse_term(self):
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

    def parse_factor(self) -> Tuple[object, bool]:
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
            poly = self.constant(Fraction(num, den))
            was_number = True
        elif kind == "NAME":
            poly = self.variable(value)
            if poly is None:
                raise ParseError(f"unknown variable {value!r}", pos)
        elif kind == "OP" and value == "(":
            poly = self.parse_expr()
            k2, v2, p2 = self.next()
            if not (k2 == "OP" and v2 == ")"):
                raise ParseError("expected ')'", p2)
        else:
            raise ParseError(f"unexpected token {value!r}", pos)
        # postfix powers: factor '^' '-'? uint, possibly repeated
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value == "^":
                self.next()
                k2, v2, p2 = self.next()
                negative = (k2, v2) == ("OP", "-")
                if negative:
                    k2, v2, _ = self.next()
                if k2 != "NUM":
                    raise ParseError("exponent must be an integer", p2)
                try:
                    poly = poly ** (-int(v2) if negative else int(v2))
                except ValueError as exc:
                    raise ParseError(str(exc), p2) from exc
                was_number = False
            else:
                break
        return poly, was_number


def parse(text: str, var_names: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the given ordered variable names."""
    n = len(var_names)
    if n == 0:
        raise ValueError("var_names must be non-empty")
    names = {name: Polynomial.variable(n, i) for i, name in enumerate(var_names)}
    return _Parser(text, lambda c: Polynomial.constant(n, c), names.get).parse()


def parse_laurent(text: str) -> "LaurentScalar":
    """Parse a Laurent polynomial over Q in t, in the polynomial grammar;
    a one-term factor may carry a negative power (`1/2 t^-1`, `(2*t)^-2`)."""
    return _Parser(text, lambda c: LaurentScalar({0: c}), {"t": LaurentScalar({1: Fraction(1)})}.get).parse()


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
            if len(self.terms) != 1:
                raise ValueError("a negative power needs a one-term Laurent scalar")
            (k, c), = self.terms.items()
            return LaurentScalar({k * n: Fraction(1) / c ** -n})
        return _power(self, n, LaurentScalar({0: Fraction(1)}))

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __str__(self) -> str:
        """In the grammar of `parse_laurent`, ascending: '1/2*t^-1 - t'; a
        Polynomial coefficient prints in parentheses, '(-x)*t^2'."""
        def term(k, c):
            power = [_power_text("t", k)] if k else []
            return (1, [f"({c})"] + power) if isinstance(c, Polynomial) else (c, power)
        return _terms_text(term(k, self.terms[k]) for k in sorted(self.terms))

    def __repr__(self) -> str:
        return f"LaurentScalar({dict(sorted(self.terms.items()))})"


def _product_of_powers(tables: List[list], exp: Exponent, start):
    """start * prod_k x_k^e_k from the power tables [1, x_k, x_k^2, ...],
    each extended on first use."""
    for table, e in zip(tables, exp):
        while e and len(table) <= e:
            table.append(table[-1] * table[1])
        start = start * table[e] if e else start
    return start


class ClearedComponents:
    """Laurent components over Q, packed by Kronecker substitution for the
    compositions (P, j) of `composed_coefficients`: on their common
    denominator D, t^-low_k * D * xi_k (low_k its lowest power) is one int,
    its value at t = 2^K, and so is each power of it.  K is a multiple of 8
    with a sign bit above the l1 bound of every coefficient asked for:
    sum |C_e| prod ||D xi_k||_1^e_k (C_e from `Polynomial.cleared`) for P,
    times ||D xi_j||_1 for a product.  Each P is cleared and packed once."""

    def __init__(self, components: Sequence[LaurentScalar], compositions: Sequence[Tuple[Polynomial, Optional[int]]]):
        self._D = D = math.lcm(*(c.denominator for xi in components for c in xi.terms.values()))
        self._lows = lows = [min(xi.terms, default=0) for xi in components]
        cleared = [{m - low: c.numerator * (D // c.denominator) for m, c in xi.terms.items()}
                   for xi, low in zip(components, lows)]
        norms = [sum(map(abs, terms.values())) for terms in cleared]
        polys = {id(P): P.cleared(D) for P in {id(P): P for P, _ in compositions}.values()}
        bounds = {key: sum(abs(C) * math.prod(w ** e for w, e in zip(norms, exp)) for exp, C in terms)
                  for key, (terms, _) in polys.items()}
        bound = max((bounds[id(P)] * (1 if j is None else norms[j]) for P, j in compositions), default=0)
        self._K = K = (bound.bit_length() + 8) // 8 * 8
        self._values = [sum(c << K * i for i, c in terms.items()) for terms in cleared]
        powers = [[1, v] for v in self._values]
        self._packed = {}   # id(P): (V, low, divisor), divisor * P(xi) = sum_i s_i t^(low + i), V = sum_i s_i 2^(K i)
        for key, (terms, divisor) in polys.items():
            offsets = [sum(lo * e for lo, e in zip(lows, exp)) for exp, _ in terms]
            low = min(offsets, default=0)
            self._packed[key] = sum(_product_of_powers(powers, exp, C) << K * (offset - low)
                                    for (exp, C), offset in zip(terms, offsets)), low, divisor

    def composed(self, P: Polynomial, j: Optional[int], lowest: float) -> Dict[int, Fraction]:
        """`composed_coefficients` of (P, j), from V = sum_i s_i 2^(K i): with
        sum_i 2^(K-1) 2^(K i) added, every K-bit digit is s_i + 2^(K-1) >= 0."""
        V, low, divisor = self._packed[id(P)]
        if j is not None:   # x_j * P(xi) is P's packed value times xi_j's
            V, low, divisor = V * self._values[j], low + self._lows[j], divisor * self._D
        size, half = self._K // 8, 1 << (self._K - 1)
        count = abs(V).bit_length() // self._K + 1
        skip = min(count, max(0, lowest - low))
        offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
        raw = ((V + offset) >> self._K * skip).to_bytes((count - skip) * size, "little")
        digits = (int.from_bytes(raw[i:i + size], "little") - half for i in range(0, len(raw), size))
        return {m: Fraction(s, divisor) for m, s in enumerate(digits, low + skip) if s}


def composed_coefficients(components: Sequence[LaurentScalar], compositions: Sequence[Tuple[Polynomial, Optional[int]]],
                          lowest: float = -math.inf) -> List[dict]:
    """For each composition (P, j), the nonzero coefficients of P(components),
    times components[j] when j is not None, at the powers >= lowest in
    increasing order.  Over Q (int and Fraction coefficients) they are
    Fractions, read from `ClearedComponents`; over Polynomials, LaurentScalar
    products on one table of powers per component give them."""
    if all(isinstance(c, (int, Fraction)) for xi in components for c in xi.terms.values()):
        arc = ClearedComponents(components, compositions)
        return [arc.composed(P, j, lowest) for P, j in compositions]
    tables = [[LaurentScalar({0: Fraction(1)}), xi] for xi in components]
    composed = {id(P): sum((_product_of_powers(tables, exp, LaurentScalar({0: c})) for exp, c in P.terms.items()),
                           LaurentScalar()) for P in {id(P): P for P, _ in compositions}.values()}
    products = (composed[id(P)] if j is None else composed[id(P)] * components[j] for P, j in compositions)
    return [{m: S.terms[m] for m in sorted(S.terms) if m >= lowest} for S in products]


def compose_laurent(f: Polynomial, components: Sequence[LaurentScalar]) -> LaurentScalar:
    """f(components) as a LaurentScalar, by `composed_coefficients`."""
    if len(components) != f.num_vars:
        raise ValueError("wrong number of substitution values")
    return LaurentScalar(composed_coefficients(components, [(f, None)])[0])


# ---------------------------------------------------------------------------
# Real roots of univariate polynomials
# ---------------------------------------------------------------------------

SEED_BITS = 40      # a float seed's cell has relative width about 2^-SEED_BITS
WIDEN_LEVELS = 8    # a seed cell that does not cross is widened by 2^WIDEN_LEVELS
WIDENINGS = 3       # at most this many times


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


def _variations(signs: Sequence[int]) -> int:
    return sum(s != t for s, t in zip(signs, signs[1:]))


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
    return sign, _variations([sign] + [s for s in (_sign(_scaled_value(q, k, e)) for q in seq[1:]) if s])


def _distinct_real_roots(seq: List[List[int]]) -> int:
    """The number of distinct real roots of seq[0], from the signs of the
    Sturm sequence at -infinity and +infinity: its leading coefficients."""
    at_plus = [_sign(q[-1]) for q in seq]
    return _variations([s if len(q) % 2 else -s for s, q in zip(at_plus, seq)]) - _variations(at_plus)


def _float_roots(p: List[int]) -> Tuple[List[float], bool]:
    """Float seeds for the real roots of p: the real parts of its complex
    roots from one eigenvalue solve (`np.roots`), the most nearly real first
    (by |Im z| / |z|; ties keep the solver's order), and whether the solve
    found deg p roots, all real.  No seeds when a coefficient is past the
    float range."""
    try:
        z = np.roots([float(c) for c in reversed(p)])
    except (OverflowError, np.linalg.LinAlgError):
        return [], False
    finite = [w for w in z.tolist() if math.isfinite(abs(w))]
    seeds = [w.real for w in sorted(finite, key=lambda w: abs(w.imag) / abs(w) if w else math.inf)]
    return seeds, len(seeds) == len(p) - 1 and not np.iscomplexobj(z)


Cell = Tuple[int, int, int, int, int]


def _cell(p: List[int], L: int, H: int, e: int) -> Cell:
    """(L, H, e, a, b) for the interval [L, H] / 2^e, with L, H and e reduced
    by their common power of two and a, b the scaled values of p at the ends."""
    z = min(e, _trailing_zeros(L | H))
    L, H, e = L >> z, H >> z, e - z
    return L, H, e, _scaled_value(p, L, e), _scaled_value(p, H, e)


def _seed_cell(p: List[int], bound: int, seed: float) -> Optional[Tuple[int, int, Cell]]:
    """(level, index, cell) of the bisection cell of [-bound, bound] that
    holds the float seed and has width about 2^-SEED_BITS |seed|, or of its
    ancestor WIDEN_LEVELS, 2 WIDEN_LEVELS, ... levels up (at most WIDENINGS
    times): the first at whose ends p has nonzero values of opposite signs.
    None when the seed is 0 or outside [-bound, bound), or no such cell has
    them.

    Cell j of level k has the ends (j W - bound 2^k) / 2^k and
    ((j+1) W - bound 2^k) / 2^k, W = 2 bound.  Unless it is [-bound, bound]
    itself, it holds the seed, so its relative width is above
    2^-(SEED_BITS+2): far from the 2^-60 at which `_refine` stops, at it and
    at every ancestor."""
    if not seed:
        return None
    W = 2 * bound
    k = max(0, W.bit_length() + SEED_BITS - math.frexp(seed)[1])
    num, den = seed.as_integer_ratio()
    j = ((num << k) // den + (bound << k)) // W
    if not 0 <= j < 1 << k:
        return None
    for _ in range(WIDENINGS + 1):
        A = j * W - (bound << k)
        cell = _cell(p, A, A + W, k)
        a, b = cell[3:]
        if a and b and (a > 0) != (b > 0):
            return k, j, cell
        if not k:
            break
        step = min(k, WIDEN_LEVELS)
        k, j = k - step, j >> step
    return None


class _ExactRoot(Exception):
    """A grid point where the polynomial vanishes, given as the bisection
    cell (level, index) whose midpoint it is."""


def _refine(p: List[int], L: int, H: int, e: int, a: int, b: int) -> Fraction:
    """The root of p in (L, H) / 2^e, where the scaled values a and b of p at
    the ends are nonzero and of opposite signs, exactly as sign bisection to
    relative width 2^-60 returns it: the midpoint of the first bisection cell
    of width W / 2^e' with W 2^60 <= max(|A|, |B|) for its ends A / 2^e',
    B / 2^e', or the root itself when a bisection point hits it.

    Every bisection cell lies on one grid: cell j of level k has the ends
    (L 2^k + j W) / 2^(e+k) and (L 2^k + (j+1) W) / 2^(e+k), W = H - L.  A cell
    whose ends have strictly opposite signs holds the root in its interior,
    so it and its ancestors are the cells bisection passes through, and the
    stopping test, once true on that path, stays true below.  Any such cell
    at or below the stopping level therefore gives the answer, by a search
    over the levels of its ancestors; so does the cell whose midpoint is a
    grid point where p vanishes.  The answer depends only on the path:
    starting from any crossing cell of the same grid at which the test is
    false gives the same Fraction.

    Such a cell is reached with few exact evaluations, by secant jumps of s
    levels: go to the cell below that holds the secant root of the end
    values, if its ends change sign.  s doubles on success and halves on
    failure; at s = 1 a bisection step is taken, which always succeeds.
    """
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
    # the levels left to the stopping level (two more for rounding), or the
    # cell's relative precision if smaller: a secant step about doubles that
    top = max(abs(L), abs(H)).bit_length()
    s = max(1, min((W << 62).bit_length() - top, top - W.bit_length()))
    try:
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

    # the first level on the path to cell (k, j) at which bisection stops,
    # else k: a walk from the level the size of the cell's ends points to
    top = max(abs(end(k, j)), abs(end(k, j + 1))).bit_length()
    m = min(max(k + 60 + W.bit_length() - top, 0), k)
    while m < k and not stops(m, j >> (k - m)):
        m += 1
    while m and stops(m - 1, j >> (k - m + 1)):
        m -= 1
    return Fraction(2 * end(m, j >> (k - m)) + W, 1 << (e + m + 1))


def _certified_roots(p: List[int], count: int, bound: int, seeds: List[float]) -> Optional[List[Fraction]]:
    """The roots of p, when the `count` most nearly real seeds certify them
    (none when `count` is 0); else None.  Each seed gives the crossing cell
    of the bisection grid of [-bound, bound] around it (`_seed_cell`).  Cells
    of one grid are nested or have disjoint interiors; if none of the
    `count` cells is nested in another, they hold `count` distinct roots of
    odd multiplicity in their interiors, and if p has at most `count`
    distinct real roots (`count` is their number or deg p), each cell holds
    one root and p has no other.  No root is then a grid point of a coarser
    level (it would be the end of its cell), so Sturm bisection of
    [-bound, bound] isolates each root in its cell or in an ancestor, and
    `_refine` from the cell, which is far wider than where refinement stops,
    returns the Fraction that bisection returns."""
    if len(seeds) < count:
        return None
    cells = []
    for seed in sorted(seeds[:count]):  # each seed is in its cell: the roots come out ascending
        found = _seed_cell(p, bound, seed)
        if found is None:
            return None
        k, j, _ = found
        if any(j >> max(0, k - k2) == j2 >> max(0, k2 - k) for k2, j2, _ in cells):
            return None
        cells.append(found)
    return [_refine(p, *cell) for _, _, cell in cells]


def real_roots(coeffs: Sequence[Rational]) -> List[Fraction]:
    """The real roots of odd multiplicity of sum_k coeffs[k] t^k, ascending.

    Exact: each root is the Fraction that Sturm bisection returns.  That
    isolates the distinct real roots with the Sturm sequence over Q,
    bisecting [-bound, bound] (a Fujiwara bound) at dyadic points, and
    returns the midpoint of the dyadic cell of relative width 2^-60 at which
    sign bisection of a root's isolating interval stops, or the root itself
    when a bisection point hits it.

    One pipeline: floats propose, exact signs certify, and every root,
    certified or isolated, goes through the one refinement `_refine`.
    1. Count: one eigenvalue solve gives a float seed per complex root.  N is
       deg p when the solve found only real roots (N crossing cells as below
       then leave no room for another root); otherwise N is the number of
       distinct real roots, from the Sturm sequence's signs at +-infinity.
    2. Certify: the N most nearly real seeds each name a cell of the
       bisection grid of relative width about 2^-40; if the exact values at
       the ends of all N cells are nonzero and change sign, and no cell is
       nested in another, each cell holds exactly one root, of odd
       multiplicity, and `_refine` finds the Fraction from it with a few
       exact evaluations (see `_certified_roots`).
    3. Otherwise (a tangency, a root on a coarse grid point, roots closer
       than a seed cell, coefficients past the float range) Sturm bisection
       isolates the roots, and `_refine` starts from each isolating interval.
    Roots of even multiplicity (no sign change) are not reported; the zero
    polynomial and the nonzero constants have no roots.
    """
    q = [Fraction(c) for c in coeffs]
    while q and q[-1] == 0:
        q.pop()
    if len(q) < 2:
        return []
    den = math.lcm(*(c.denominator for c in q))
    p = [c.numerator * (den // c.denominator) for c in q]

    # Fujiwara's bound |t| <= 2 max_i |p[n-i] / p[n]|^(1/i), raised to a power of two
    lead = abs(p[-1]).bit_length()
    exponent = max([0] + [-((lead - 1 - abs(c).bit_length()) // i)
                          for i, c in enumerate(reversed(p[:-1]), 1) if c])
    bound = 1 << (exponent + 1)

    seeds, all_real = _float_roots(p)
    seq = None if all_real else _sturm_sequence(p)
    roots = _certified_roots(p, len(p) - 1 if all_real else _distinct_real_roots(seq), bound, seeds)
    return roots if roots is not None else _bisection_roots(p, seq or _sturm_sequence(p), bound)


def _bisection_roots(p: List[int], seq: List[List[int]], bound: int) -> List[Fraction]:
    """`real_roots` by Sturm bisection of [-bound, bound]: each isolating
    interval across which p changes sign is refined from the interval
    itself, by `_refine`."""
    # an interval is (a, b, e, count at a, count at b) for [a, b] / 2^e
    roots: List[Fraction] = []
    stack = [(-bound, bound, 0, _sturm_count(seq, -bound, 0), _sturm_count(seq, bound, 0))]
    while stack:
        a, b, e, (s_a, v_a), (s_b, v_b) = stack.pop()
        if v_a - v_b == 1:
            if s_a != s_b:
                roots.append(_refine(p, *_cell(p, a, b, e)))
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
