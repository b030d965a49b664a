"""Tests for the exact polynomial core: parsing, arithmetic, composition."""

import functools
import math
import operator
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from milnorarc import (
    LaurentScalar,
    ParseError,
    Polynomial,
    RationalArc,
    compose_arc,
    parse,
)
from milnorarc import poly as poly_module
from milnorarc.poly import CompiledPolynomials, ExactEvaluator, compose_laurent, parse_laurent, real_roots

VARS2 = ["x", "y"]
VARS3 = ["x", "y", "z"]


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


def polynomials(num_vars: int, max_degree: int = 4, max_terms: int = 6):
    exponent = st.tuples(*([st.integers(0, max_degree)] * num_vars))
    return st.dictionaries(exponent, rationals, max_size=max_terms).map(
        lambda terms: Polynomial(num_vars, terms)
    )


def points(num_vars: int):
    return st.tuples(*([rationals] * num_vars))


def small_integer_points(num_vars: int):
    return st.lists(st.tuples(*([st.integers(-3, 3)] * num_vars)), min_size=1, max_size=4)


def laurent_scalars():
    """Fraction or int coefficients at t^-6..t^6, ints up to 2^128 in size;
    empty (zero) and single terms included."""
    coeffs = st.one_of(rationals, st.integers(-2 ** 128, 2 ** 128))
    return st.dictionaries(st.integers(-6, 6), coeffs, max_size=4).map(LaurentScalar)


def polynomial_laurent_scalars():
    """Polynomial coefficients in two unknowns at t^-3..t^3, as on the generic
    arc of the constraint system."""
    coeffs = polynomials(2, max_degree=2, max_terms=3)
    return st.dictionaries(st.integers(-3, 3), coeffs, max_size=3).map(LaurentScalar)


def compositions():
    """(f, components) with 1 to 3 variables, over Fractions or over Polynomials."""
    over_q = st.integers(1, 3).flatmap(lambda n: st.tuples(
        polynomials(n), st.lists(laurent_scalars(), min_size=n, max_size=n)))
    over_polynomials = st.integers(1, 3).flatmap(lambda n: st.tuples(
        polynomials(n, max_degree=2, max_terms=4),
        st.lists(polynomial_laurent_scalars(), min_size=n, max_size=n)))
    return st.one_of(over_q, over_polynomials)


def _horner(f: Polynomial, values):
    """f at `values` by Horner's scheme, variable by variable: the reference
    for the integer sums of `evaluate` and `compose_laurent`.  The values may
    be Fractions or LaurentScalars over either coefficient ring."""
    def nest(items, var):
        if var == f.num_vars:
            return sum(c for _, c in items)
        groups = {}
        for exp, c in items:
            groups.setdefault(exp[var], []).append((exp, c))
        acc, prev = None, 0
        for e in sorted(groups, reverse=True):
            sub = nest(groups[e], var + 1)
            acc = sub if acc is None else acc * values[var] ** (prev - e) + sub
            prev = e
        return acc * values[var] ** prev if prev else acc

    return nest(list(f.terms.items()), 0) if f.terms else Fraction(0)


def _affine(f: Polynomial, M, s) -> Polynomial:
    """f(M u + s) as a polynomial in u, for a square matrix M and a vector s of Fractions."""
    n = f.num_vars
    u = [Polynomial.variable(n, l) for l in range(n)]
    return _horner(f, [sum((M[k][l] * u[l] for l in range(n)), Polynomial.constant(n, s[k])) for k in range(n)])


def _derivative(L: LaurentScalar) -> LaurentScalar:
    """d/dt of a Laurent polynomial."""
    return LaurentScalar({k - 1: k * c for k, c in L.terms.items() if k != 0})


def _at(L: LaurentScalar, t: Fraction) -> Fraction:
    """A Laurent polynomial over Q at t, exactly."""
    return sum((c * t ** k for k, c in L.terms.items()), Fraction(0))


UNKNOWNS = [Polynomial.variable(4, i) for i in range(4)]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class TestParser:
    def test_simple(self):
        f = parse("x + x^2*y", VARS2)
        assert f.terms == {(1, 0): Fraction(1), (2, 1): Fraction(1)}

    def test_rational_coefficients(self):
        f = parse("1/2*x - 3/4", VARS2)
        assert f.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(-3, 4)}

    def test_implicit_multiplication(self):
        # implicit '*' is allowed only between a number and a variable
        assert parse("2x", VARS2) == parse("2*x", VARS2)
        assert parse("3x^2", VARS2) == parse("3*x^2", VARS2)
        with pytest.raises(ParseError):
            parse("x y", VARS2)

    def test_parentheses_and_power(self):
        f = parse("(x + y)^2", VARS2)
        assert f == parse("x^2 + 2*x*y + y^2", VARS2)

    def test_leading_minus(self):
        f = parse("-x + y", VARS2)
        assert f.terms == {(1, 0): Fraction(-1), (0, 1): Fraction(1)}

    def test_zero_polynomial(self):
        f = parse("x - x", VARS2)
        assert f.is_zero()
        assert f.degree == float("-inf")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse("x + w", VARS2)

    def test_garbage(self):
        for bad in ["x +", "^2", "x^", "(x", "x^-2", "1/0", "x^2²", "2²*y"]:
            with pytest.raises(ParseError):
                parse(bad, VARS2)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse("x + @", VARS2)
        assert info.value.position == 4

    @given(polynomials(2))
    @settings(max_examples=50, deadline=None)
    def test_text_round_trip(self, f):
        assert parse(f.to_text(VARS2), VARS2) == f

    @given(polynomials(3))
    @settings(max_examples=25, deadline=None)
    def test_text_round_trip_three_vars(self, f):
        assert parse(f.to_text(VARS3), VARS3) == f

    @given(laurent_scalars())
    @settings(max_examples=50, deadline=None)
    @example(LaurentScalar({-1: Fraction(1, 2), 1: -1}))
    def test_laurent_text_round_trip(self, L):
        assert parse_laurent(str(L)) == L

    def test_laurent_text(self):
        assert str(LaurentScalar({-1: Fraction(1, 2), 1: -1})) == "1/2*t^-1 - t"
        assert str(LaurentScalar({0: -3, 2: Fraction(-2, 7)})) == "-3 - 2/7*t^2"
        assert str(LaurentScalar()) == "0"
        assert str(LaurentScalar({-1: parse("x - 1", VARS2), 2: parse("-x", VARS2)})) == "(-1 + x)*t^-1 + (-x)*t^2"

    def test_negative_exponent_is_rejected_at_the_exponent(self):
        with pytest.raises(ParseError) as info:
            parse("y + x^-1", VARS2)
        assert info.value.position == 6

    def test_empty_variable_list(self):
        with pytest.raises(ValueError, match="non-empty"):
            parse("1", [])


class TestLaurentParser:
    def test_the_polynomial_grammar_in_t(self):
        assert parse_laurent("1/2 t^-1 - t") == LaurentScalar({-1: Fraction(1, 2), 1: -1})
        assert parse_laurent("(1/2)*t^-1") == LaurentScalar({-1: Fraction(1, 2)})
        assert parse_laurent("(t + 1)^2 - 2t") == LaurentScalar({0: 1, 2: 1})
        assert parse_laurent("(2*t^3)^-2 + 2^-1") == LaurentScalar({-6: Fraction(1, 4), 0: Fraction(1, 2)})

    @pytest.mark.parametrize("text, position", [
        ("(t + 1)^-1", 8),   # a negative power of a sum
        ("0^-1", 2),         # and of zero
        ("1/2 t^-1 3", 9),   # terms side by side
        ("t^2t", 3),
        ("", 0),
        ("1/0 t", 2),
        ("x", 0),
    ])
    def test_malformed(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_laurent(text)
        assert info.value.position == position


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


class TestArithmetic:
    @given(polynomials(2), polynomials(2), polynomials(2))
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(polynomials(2))
    @settings(max_examples=25, deadline=None)
    def test_identities(self, f):
        zero = Polynomial.zero(2)
        one = Polynomial.constant(2, 1)
        assert f + zero == f
        assert f * one == f
        assert f - f == zero
        assert f * zero == zero

    @given(polynomials(2), points(2))
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_a_homomorphism(self, f, p):
        g = parse("1 + x*y - y^2", VARS2)
        pt = list(p)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)

    @given(polynomials(2), st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_power(self, f, n):
        expected = Polynomial.constant(2, 1)
        for _ in range(n):
            expected = expected * f
        assert f ** n == expected

    def test_degree(self):
        assert parse("x^2*y + y", VARS2).degree == 3
        assert parse("5", VARS2).degree == 0

    def test_immutability(self):
        f = parse("x", VARS2)
        with pytest.raises(AttributeError):
            f.terms = {}

    def test_constructor_validates_its_terms(self):
        # arithmetic builds its results unchecked; the public constructor checks
        with pytest.raises(ValueError, match="length"):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError, match="negative"):
            Polynomial(2, {(1, -1): 1})
        with pytest.raises(ValueError):
            Polynomial(0)
        f = Polynomial(2, {(1, 0): 2, (0, 1): Fraction(0), (0, 0): Fraction(3, 6)})
        assert f.terms == {(1, 0): Fraction(2), (0, 0): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in f.terms.values())

    @given(polynomials(3), polynomials(3), rationals)
    @example(parse("x - y", VARS3), parse("y - x", VARS3), Fraction(0))
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_results_pass_the_constructor(self, f, g, c):
        # every result is what the checking constructor makes of its terms
        for r in (f + g, f - g, f * g, -f, f * c, c * g, f.partial(0), f.partial(2), f ** 2):
            assert r == Polynomial(3, r.terms)
            assert all(type(v) is Fraction and v for v in r.terms.values())
            assert all(type(e) is tuple and len(e) == 3 and min(e) >= 0 for e in r.terms)

    def test_exact_evaluation_stays_exact(self):
        f = parse("1/3*x^2 + 1/7*y", VARS2)
        v = f.evaluate([Fraction(1, 2), Fraction(2, 3)])
        assert isinstance(v, Fraction)
        assert v == Fraction(1, 3) * Fraction(1, 4) + Fraction(1, 7) * Fraction(2, 3)

    def test_float_evaluation(self):
        # a float entry stands for its exact binary value
        f = parse("x^2 + y", VARS2)
        v = f.evaluate([2.0, 0.1])
        assert isinstance(v, Fraction)
        assert v == f.evaluate([Fraction(2.0), Fraction(0.1)]) == 4 + Fraction(0.1)

    @given(polynomials(3, max_degree=5),
           st.tuples(*([st.one_of(rationals, st.integers(-50, 50), st.floats(-1e6, 1e6))] * 3)))
    @example(Polynomial.zero(3), (Fraction(1, 3), 2, Fraction(-5, 7)))
    @example(Polynomial.constant(3, Fraction(-7, 3)), (Fraction(1, 3), 2, Fraction(-5, 7)))
    @example(parse("1/6*x^3*y - 2/9*y*z^2 + 4", VARS3), (-3, 0, 7))
    @example(parse("x - 3*x^3*y^2 + 2*x^4*y^3 + y*z", VARS3), (0.1, -2.5e-7, Fraction(3, 10 ** 9)))
    @settings(max_examples=80, deadline=None)
    def test_exact_evaluation_matches_horner(self, f, pt):
        # evaluate sums in integers over common denominators; the reference
        # runs Horner's scheme in Fraction arithmetic
        v = f.evaluate(list(pt))
        assert isinstance(v, Fraction)
        assert v == _horner(f, [Fraction(c) for c in pt])


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
               1.7976931348623157e308, 0.1, -2.5, 3.0]


class TestExactEvaluatorAtFloats:
    """`ExactEvaluator.at_float` against float(f.evaluate(x)), the same value
    through a Fraction, or the same OverflowError."""

    @staticmethod
    def _outcome(fn):
        try:
            return fn()
        except OverflowError as exc:
            return ("OverflowError", str(exc))

    @given(polynomials(3, max_degree=5),
           st.tuples(*([st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)] * 3)))
    @example(parse("x^2*y + 1/3", VARS3), (1e300, 1e300, 0.0))
    @example(parse("x^2 - y^2 + z", VARS3), (1e300, -1e300, 5e-324))
    @example(parse("x^5 + 1/7", VARS3), (5e-324, 0.0, 0.0))
    @example(parse("-y + 2*z", VARS3), (-0.0, 0.0, -0.0))
    @settings(max_examples=200, deadline=None)
    def test_same_float_as_the_fraction(self, f, pt):
        evaluator = ExactEvaluator(f)
        got = self._outcome(lambda: evaluator.at_float(pt))
        want = self._outcome(lambda: float(f.evaluate(list(pt))))
        assert got == want and type(got) is type(want)
        if isinstance(want, float):
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_overflow_is_the_fractions_error(self):
        f = parse("x^2*y", VARS2)
        with pytest.raises(OverflowError):
            ExactEvaluator(f).at_float([1e300, 1e300])
        assert ExactEvaluator(f).at_float([1e300, 1e-300]) == float(f.evaluate([1e300, 1e-300]))

    def test_point_length_is_checked(self):
        with pytest.raises(ValueError, match="length"):
            ExactEvaluator(parse("x", VARS2)).at_float([1.0])


# ---------------------------------------------------------------------------
# Calculus
# ---------------------------------------------------------------------------


class TestPartials:
    def test_basic(self):
        f = parse("x + x^2*y", VARS2)
        assert f.partial(0) == parse("1 + 2*x*y", VARS2)
        assert f.partial(1) == parse("x^2", VARS2)

    @given(polynomials(2), polynomials(2))
    @settings(max_examples=30, deadline=None)
    def test_leibniz_rule(self, f, g):
        for i in range(2):
            lhs = (f * g).partial(i)
            rhs = f.partial(i) * g + f * g.partial(i)
            assert lhs == rhs

    @given(polynomials(3))
    @settings(max_examples=25, deadline=None)
    def test_mixed_partials_commute(self, f):
        assert f.partial(0).partial(1) == f.partial(1).partial(0)

    def test_gradient_length(self):
        f = parse("x*y*z", VARS3)
        assert len(f.gradient()) == 3


class TestCompiledPolynomials:
    """The float lowering against exact evaluation.

    Each polynomial is scaled to integer coefficients and evaluated at
    small-integer points, where every float operation is exact.
    """

    @staticmethod
    def _integral(f):
        return f * math.lcm(*(c.denominator for c in f.terms.values()))

    def _check(self, fs, pts):
        fs = [self._integral(f) for f in fs]
        n = fs[0].num_vars
        compiled = CompiledPolynomials(fs)
        XT = np.array(pts, dtype=float).reshape(-1, n).T
        values, jacobians = compiled.column_values(XT), compiled.column_jacobians(XT)
        assert values.shape == (len(fs), len(pts))
        assert jacobians.shape == (len(fs), n, len(pts))
        for m, pt in enumerate(pts):
            for r, f in enumerate(fs):
                assert values[r, m] == f.evaluate(list(pt))
                for i in range(n):
                    assert jacobians[r, i, m] == f.partial(i).evaluate(list(pt))
        for r, f in enumerate(fs):
            expected = sum(abs(c) * 2 ** sum(e) for e, c in f.terms.items()) + 1
            assert compiled.scales(2.0)[r] == expected

    @given(polynomials(2), polynomials(2), small_integer_points(2))
    @example(Polynomial.zero(2), Polynomial.constant(2, Fraction(-7, 3)), [(0, 0), (2, -3)])
    @settings(max_examples=40, deadline=None)
    def test_two_variables(self, f, g, pts):
        self._check([f, g], pts)

    @given(polynomials(3), polynomials(3), small_integer_points(3))
    @example(Polynomial.constant(3, 5), Polynomial.zero(3), [(1, -1, 3)])
    @settings(max_examples=40, deadline=None)
    def test_three_variables(self, f, g, pts):
        self._check([f, g], pts)

    def test_empty_batch(self):
        compiled = CompiledPolynomials([parse("x + x^2*y", VARS2)])
        assert compiled.column_values(np.zeros((2, 0))).shape == (1, 0)
        assert compiled.column_jacobians(np.zeros((2, 0))).shape == (1, 2, 0)

    @given(polynomials(3), polynomials(3),
           st.lists(st.tuples(*([st.floats(-1e3, 1e3)] * 3)), min_size=1, max_size=6),
           st.sampled_from([math.inf, -math.inf, math.nan]), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_evaluated_independently(self, f, g, pts, bad, at):
        # the n >= 3 line search re-evaluates a subset of rows and relies on
        # getting the bits of the full batch back
        compiled = CompiledPolynomials([f, g])
        rows = list(pts)
        rows.insert(min(at, len(rows)), (1.0, bad, -2.0))
        X = np.array(rows)
        with np.errstate(all="ignore"):
            values, jacobians = compiled.column_values(X.T), compiled.column_jacobians(X.T)
            both = compiled.column_values_and_jacobians(X.T)
            for i, row in enumerate(X):
                if not np.all(np.isfinite(row)):
                    continue
                # an inf or nan column does not leak into another
                XT = X[i:i + 1].T
                alone = compiled.column_values_and_jacobians(XT)
                assert values[:, i].tobytes() == compiled.column_values(XT)[:, 0].tobytes()
                assert jacobians[..., i].tobytes() == compiled.column_jacobians(XT)[..., 0].tobytes()
                assert both[0][:, i].tobytes() == alone[0][:, 0].tobytes() == values[:, i].tobytes()
                assert both[1][..., i].tobytes() == alone[1][..., 0].tobytes() == jacobians[..., i].tobytes()


def _prod_oracle(compiled, table, X):
    """Reference cell sums (m, cells): gather every term's powers, then `prod` over them."""
    powers = compiled._powers(X.T, None, table)[0].T
    index = np.stack(table.rows, axis=1)
    terms = powers.take(index, axis=1).prod(axis=2) * table.coeffs
    return np.add.reduceat(terms, table.starts, axis=1)


class TestReduceatOrder:
    """numpy's np.add.reduceat sums a cell t_0..t_{k-1} of at most 8 terms as
    t_0 + (((t_1 + t_2) + t_3) ...), the order `_TermTable` reproduces slot by
    slot; a numpy that sums otherwise fails here rather than in golden files."""

    @staticmethod
    def _expected(cell):
        """t_0 + the rest in sequence, in Python floats: one C double add each."""
        return [t[0] + functools.reduce(operator.add, t[1:], -0.0) for t in cell.T.tolist()]

    @pytest.mark.parametrize("m", [1, 3, 17, 1000])
    def test_a_short_cell_is_its_first_term_plus_the_rest_in_sequence(self, m):
        rng = np.random.default_rng(m)
        plain_differs = False
        for k in range(1, 9):
            terms = rng.standard_normal((4 * k, m)) * 10.0 ** rng.integers(-12, 13, (4 * k, m))
            sums = np.add.reduceat(terms, np.arange(0, 4 * k, k), axis=0)
            for c in range(4):
                cell = terms[c * k:(c + 1) * k]
                assert sums[c].tobytes() == np.array(self._expected(cell)).tobytes()
                plain = functools.reduce(np.add, cell)
                plain_differs |= plain.tobytes() != sums[c].tobytes()
        assert plain_differs   # the order is observable on these terms

    @pytest.mark.parametrize("m", [1, 3, 17])
    @np.errstate(invalid="ignore")
    def test_signed_zeros_and_nans(self, m):
        default_nan = np.array(np.inf) - np.inf   # the nan an invalid operation gives
        cells = [[-0.0] * k for k in range(1, 9)] + [[-0.0, 0.0], [0.0, -0.0, -0.0], [-0.0, -0.0, 0.0]]
        for nan in (math.nan, float(default_nan)):
            cells += [[1.0] * j + [nan] + [-2.0] * (k - 1 - j) for k in range(1, 9) for j in range(k)]
        cells.append([math.inf, 1.0, -math.inf])
        for cell in cells:
            terms = np.repeat(np.array(cell)[:, None], m, axis=1)
            got = np.add.reduceat(terms, [0], axis=0)[0]
            assert got.tobytes() == np.array(self._expected(terms)).tobytes(), cell


class TestCompiledKernels:
    """Bit-for-bit agreement of the float kernels with the gather-and-`prod` oracle."""

    @staticmethod
    def _rows(draw, n):
        """m >= 1 points, one of them with an inf or nan coordinate or none;
        up to 20, so that numpy's vector loops run with remainders."""
        scale = draw(st.sampled_from([1e-3, 1.0, 1e2, 1e6]))
        pts = draw(st.lists(st.tuples(*([st.floats(-1.0, 1.0)] * n)), max_size=draw(st.sampled_from([6, 20]))))
        rows = [tuple(scale * v for v in pt) for pt in pts]
        if not rows or draw(st.booleans()):
            bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            rows.insert(draw(st.integers(0, len(rows))), (bad,) + (2.0,) * (n - 1))
        return np.array(rows)

    @given(st.data(), st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_values_and_jacobians_match_the_prod_formula(self, data, n):
        # up to 16 terms, so that cells past 8 terms, summed by reduceat, are drawn
        # next to short ones, and the cells of a table come in every order of length
        fs = [data.draw(polynomials(n, max_terms=data.draw(st.sampled_from([6, 16])))) for _ in range(2)]
        X = self._rows(data.draw, n)
        compiled = CompiledPolynomials(fs)
        with np.errstate(all="ignore"):
            values, jacobians = compiled.column_values(X.T), compiled.column_jacobians(X.T)
            oracle_values = _prod_oracle(compiled, compiled._values, X)
            oracle_jacobians = _prod_oracle(compiled, compiled._jacobians, X)
            both = compiled.column_values_and_jacobians(X.T)
        assert values.shape == (2, len(X)) and jacobians.shape == (2, n, len(X))
        assert values.T.tobytes() == oracle_values.tobytes()
        assert jacobians.transpose(2, 0, 1).tobytes() == oracle_jacobians.reshape(len(X), 2, n).tobytes()
        assert both[0].tobytes() == values.tobytes()
        assert both[1].tobytes() == jacobians.tobytes()

    @given(st.data(), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_one_workspace_serves_a_growing_and_shrinking_sequence(self, data, n):
        fs = [data.draw(polynomials(n, max_terms=data.draw(st.sampled_from([6, 16])))) for _ in range(2)]
        compiled = CompiledPolynomials(fs)

        def evaluate(kind, X, work=None):
            out = getattr(compiled, kind)(X.T, work)
            return out if isinstance(out, tuple) else (out,)

        kinds = ["column_values", "column_jacobians", "column_values_and_jacobians"]
        calls = [(data.draw(st.sampled_from(kinds)), self._rows(data.draw, n)) for _ in range(data.draw(st.integers(2, 5)))]
        calls.sort(key=lambda call: len(call[1]))
        calls += calls[-2::-1]   # up to the largest point count, then down again
        work = compiled.workspace(max(len(X) for _, X in calls),
                                  max((len(X) for kind, X in calls if kind != "column_values"), default=0))
        results = []
        with np.errstate(all="ignore"):
            for kind, X in calls:
                got = evaluate(kind, X, work)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in evaluate(kind, X)]
                assert not any(np.shares_memory(a, work) for a in got)
                results.append((got, [a.tobytes() for a in got]))
        # a later call leaves every earlier result as it was
        assert all([a.tobytes() for a in got] == before for got, before in results)


def _product(*factors):
    """Ascending coefficients of the product of ascending coefficient lists."""
    out = [Fraction(1)]
    for g in factors:
        prod = [Fraction(0)] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        out = prod
    return out


@st.composite
def root_polynomials(draw):
    """A small integer polynomial times linear factors (b t - a)^m, so that
    repeated and rational (often dyadic) roots are common."""
    base = draw(st.lists(st.integers(-6, 6), max_size=5))
    linear = draw(st.lists(st.tuples(st.integers(-8, 8), st.sampled_from([1, 2, 3, 4, 8]),
                                     st.integers(1, 3)), max_size=3))
    return _product(base or [1], *[[-a, b] for a, b, m in linear for _ in range(m)])


class TestRealRoots:
    """Exact root isolation against sympy's real roots."""

    @staticmethod
    def _sympy_odd_roots(coeffs):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t)
        if poly.is_zero or poly.degree() < 1:
            return []
        roots = poly.real_roots()
        return [r for r in sorted(set(roots), key=float) if roots.count(r) % 2]

    @given(root_polynomials())
    @example([Fraction(0)])
    @example([Fraction(7)])
    @settings(max_examples=60, deadline=None)
    def test_against_sympy(self, coeffs):
        expected = self._sympy_odd_roots(coeffs)
        got = real_roots(coeffs)
        assert len(got) == len(expected)
        for r, e in zip(got, expected):
            assert math.isclose(float(r), float(e), rel_tol=1e-15, abs_tol=0.0)

    def test_repeated_factors(self):
        # (t - 1)^2 (t + 2)^3 (t - 3): the double root 1 does not change sign
        coeffs = _product([-1, 1], [-1, 1], [2, 1], [2, 1], [2, 1], [-3, 1])
        assert real_roots(coeffs) == [-2, 3]
        assert real_roots(_product([0, 1], [0, 1], [-1, 1], [-1, 1])) == []

    def test_roots_at_zero_and_at_a_dyadic_point(self):
        # t^3 (t - 1/2) (t + 5/8): 0 is a bisection point, and is hit exactly
        roots = real_roots(_product([0, 1], [0, 1], [0, 1], [Fraction(-1, 2), 1], [Fraction(5, 8), 1]))
        assert len(roots) == 3
        assert roots[1] == 0
        for r, e in zip(roots[::2], (Fraction(-5, 8), Fraction(1, 2))):
            assert abs(r - e) <= abs(e) * Fraction(1, 2 ** 60)

    def test_constants_have_no_roots(self):
        assert real_roots([]) == []
        assert real_roots([0, 0, 0]) == []
        assert real_roots([Fraction(-3, 7)]) == []
        assert real_roots([5, 0, 0]) == []

    def test_close_roots_are_separated(self):
        # (t - 1)(t - 1 - 2^-40): two crossings 2^-40 apart
        eps = Fraction(1, 2 ** 40)
        roots = real_roots(_product([-1, 1], [-1 - eps, 1]))
        assert len(roots) == 2
        assert roots[0] < 1 + eps / 2 < roots[1]


def _bisection_real_roots(coeffs):
    """Reference for `real_roots`: Sturm isolation at Fraction points, each
    isolating interval refined by exact sign bisection to relative width
    2^-60, one exact evaluation per halving."""
    from milnorarc.poly import _scaled_value, _sturm_sequence

    def sign_at(p, x):
        h = _scaled_value(p, x.numerator, x.denominator.bit_length() - 1)
        return (h > 0) - (h < 0)

    def variations(seq, x):
        signs = [s for s in (sign_at(q, x) for q in seq) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    def refine(p, lo, hi):
        e = max(lo.denominator, hi.denominator).bit_length() - 1
        L, H = int(lo * 2 ** e), int(hi * 2 ** e)
        positive_at_lo = sign_at(p, lo) > 0
        while (H - L) << 60 > max(abs(L), abs(H)):
            L, M, H, e = 2 * L, L + H, 2 * H, e + 1
            value = _scaled_value(p, M, e)
            if value == 0:
                return Fraction(M, 2 ** e)
            if (value > 0) == positive_at_lo:
                L = M
            else:
                H = M
        return Fraction(L + H, 2 ** (e + 1))

    q = [Fraction(c) for c in coeffs]
    while q and q[-1] == 0:
        q.pop()
    if len(q) < 2:
        return []
    den = math.lcm(*(c.denominator for c in q))
    p = [int(c * den) for c in q]
    seq = _sturm_sequence(p)
    lead = abs(p[-1]).bit_length()
    exponent = max([0] + [-((lead - 1 - abs(c).bit_length()) // i)
                          for i, c in enumerate(reversed(p[:-1]), 1) if c])
    bound = Fraction(2 ** (exponent + 1))
    roots = []
    stack = [(-bound, bound, variations(seq, -bound), variations(seq, bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            if sign_at(p, lo) != sign_at(p, hi):
                roots.append(refine(p, lo, hi))
            continue
        if v_lo == v_hi:
            continue
        mid = (lo + hi) / 2
        if sign_at(p, mid):
            v_mid = variations(seq, mid)
            stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
            continue
        step = (hi - lo) / 4
        while True:
            left, right = mid - step, mid + step
            s_left, s_right = sign_at(p, left), sign_at(p, right)
            if s_left and s_right:
                v_left, v_right = variations(seq, left), variations(seq, right)
                if v_left - v_right == 1:
                    break
            step /= 2
        if s_left != s_right:
            roots.append(mid)
        stack += [(lo, left, v_lo, v_left), (right, hi, v_right, v_hi)]
    return sorted(roots)


@st.composite
def hard_root_polynomials(draw):
    """Products of degree <= 12 whose roots make refinement hard: dyadic
    roots and roots at 0 (hit exactly by bisection), root pairs 2^-70 apart,
    roots of magnitude 2^-150 to 2^-60 and 2^60 to 2^150, next to a small integer
    factor; sometimes scaled above 2^1100, so that no float seed exists (with
    fewer factors: Sturm isolation on such coefficients is slow)."""
    nonzero = st.integers(-9, 9).filter(bool)
    scale = draw(st.sampled_from([1, 2 ** 1100 + 1]))
    factors = [draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any))]
    degree = len(factors[0]) - 1
    for kind in draw(st.lists(st.sampled_from(["dyadic", "zero", "pair", "tiny", "huge"]),
                              max_size=4 if scale == 1 else 2)):
        if kind == "dyadic":
            new = [[-draw(st.integers(-64, 64)), 2 ** draw(st.integers(0, 8))]]
        elif kind == "zero":
            new = [[0, 1]]
        elif kind == "pair":
            r = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 9)))
            new = [[-r, 1], [-r - Fraction(1, 2 ** 70), 1]]
        else:
            magnitude = Fraction(2) ** (draw(st.integers(60, 150)) * (1 if kind == "huge" else -1))
            new = [[-Fraction(draw(nonzero), draw(st.integers(1, 9))) * magnitude, 1]]
        if degree + len(new) <= 12:
            factors += new
            degree += len(new)
    return [c * scale for c in _product(*factors)]


class TestRefinementOracle:
    """`real_roots` returns the very Fractions of exact sign bisection."""

    @given(hard_root_polynomials())
    @example([-1, 0, 2 ** 1200])                    # float coefficients overflow
    @example(_product([0, 1], [-3, 4]))             # roots 0 and 3/4, both dyadic
    @example(_product([-1, 1], [-1 - Fraction(1, 2 ** 70), 1], [2, 0, 1]))
    @settings(max_examples=150, deadline=None)
    def test_same_fractions_as_bisection(self, coeffs):
        assert real_roots(coeffs) == _bisection_real_roots(coeffs)

    @given(root_polynomials())
    @settings(max_examples=150, deadline=None)
    def test_same_fractions_on_small_integer_factors(self, coeffs):
        assert real_roots(coeffs) == _bisection_real_roots(coeffs)

    @pytest.mark.parametrize("complex_pair, skipped", [
        ([1, 0, 1], "_sturm_count"),    # N from the Sturm sequence, no Sturm count
        ([1], "_sturm_sequence"),       # only real roots: N is the degree
    ])
    def test_certified_path(self, monkeypatch, complex_pair, skipped):
        # simple roots that are not grid points
        coeffs = _product([Fraction(7, 3), 1], [Fraction(1, 3), 1], [Fraction(-2, 7), 1],
                          [Fraction(-5, 3), 1], complex_pair)
        expected = _bisection_real_roots(coeffs)

        def refuse(*args):
            raise AssertionError(f"{skipped} ran")

        monkeypatch.setattr(poly_module, skipped, refuse)
        assert real_roots(coeffs) == expected
        assert len(expected) == 4

    def test_one_cluster_is_not_counted_twice(self):
        # three roots 2^-18 apart and one far off: the three float seeds of the
        # cluster (two are a conjugate pair) name cells that hold all three
        roots = [Fraction(12, 7) + i * Fraction(1, 2 ** 18) for i in range(3)] + [Fraction(-5, 3)]
        coeffs = _product(*[[-r, 1] for r in roots])
        assert real_roots(coeffs) == _bisection_real_roots(coeffs)
        assert len(real_roots(coeffs)) == 4

    @pytest.mark.parametrize("coeffs", [
        _product([Fraction(-1, 3), 1], [Fraction(-1, 3), 1], [Fraction(-2, 7), 1], [Fraction(5, 3), 1]),
        _product([0, 1], [Fraction(-1, 3), 1], [Fraction(5, 3), 1]),
        _product([Fraction(-3, 4), 1], [Fraction(1, 3), 1]),
        _product([Fraction(-1, 3), 1], [Fraction(-1, 3) - Fraction(1, 2 ** 70), 1], [Fraction(5, 3), 1]),
        [c * (2 ** 1100 + 1) for c in _product([Fraction(-1, 3), 1], [Fraction(5, 3), 1])],
    ], ids=["double-root", "root-at-zero", "dyadic-root", "pair-2^-70-apart", "past-the-float-range"])
    def test_fall_back_to_bisection(self, monkeypatch, coeffs):
        expected = _bisection_real_roots(coeffs)
        counts = []
        sturm_count = poly_module._sturm_count
        monkeypatch.setattr(poly_module, "_sturm_count", lambda *args: counts.append(1) or sturm_count(*args))
        assert real_roots(coeffs) == expected
        assert counts

    @pytest.mark.parametrize("coeffs, falls_back", [
        (_product([Fraction(7, 3), 1], [Fraction(-2, 7), 1], [1, 0, 1]), False),
        (_product([Fraction(7, 3), 1], [Fraction(1, 3), 1], [Fraction(-2, 7), 1]), False),
        (_product([Fraction(-1, 3), 1], [Fraction(-1, 3), 1], [Fraction(5, 3), 1]), True),
        (_product([Fraction(-3, 4), 1], [Fraction(1, 3), 1]), True),
        (_product([Fraction(-1, 2), 1], [Fraction(-1, 2), 1]), True),
        ([1, 0, 1], False),
    ], ids=["complex-pair", "only-real", "double-root", "dyadic-root", "real-double-root", "no-real-root"])
    def test_one_certificate_per_call(self, monkeypatch, coeffs, falls_back):
        # N is counted once and certified once; a failed certificate goes
        # straight to Sturm bisection, which refines its own intervals.  On the
        # dyadic root and the real double root the eigen-solve finds only real
        # roots, so N is the degree there
        calls = []
        for name in ("_certified_roots", "_bisection_roots"):
            wrapped = getattr(poly_module, name)
            monkeypatch.setattr(poly_module, name,
                                lambda *args, name=name, wrapped=wrapped: calls.append(name) or wrapped(*args))
        assert real_roots(coeffs) == _bisection_real_roots(coeffs)
        assert calls == ["_certified_roots"] + ["_bisection_roots"] * falls_back


# ---------------------------------------------------------------------------
# Laurent scalars and arcs
# ---------------------------------------------------------------------------


class TestLaurentScalar:
    def test_arithmetic(self):
        a = LaurentScalar({-1: Fraction(1, 2), 1: 1})
        b = LaurentScalar({0: 1, 1: -1})
        assert (a * b).terms == {
            -1: Fraction(1, 2),
            0: Fraction(-1, 2),
            1: Fraction(1),
            2: Fraction(-1),
        }
        assert (a + b).coefficient(0) == 1

    def test_power_and_support(self):
        t_inv = LaurentScalar({-1: 1})
        assert (t_inv ** 3).support() == [-3]

    def test_negative_power_of_one_term(self):
        assert LaurentScalar({2: Fraction(2, 3)}) ** -2 == LaurentScalar({-4: Fraction(9, 4)})
        assert LaurentScalar({1: 2}) ** -1 == LaurentScalar({-1: Fraction(1, 2)})
        for bad in [LaurentScalar(), LaurentScalar({0: 1, 1: 1})]:
            with pytest.raises(ValueError):
                bad ** -1


class TestRationalArc:
    def test_components_and_support(self):
        xi = RationalArc(2, {-1: (Fraction(1, 2), 0), 1: (0, -1)})
        assert xi.support() == [-1, 1]
        assert xi.component(0).terms == {-1: Fraction(1, 2)}
        assert xi.component(1).terms == {1: Fraction(-1)}

    def test_escapes(self):
        assert RationalArc(2, {1: (1, 0)}).escapes_to_infinity()
        assert not RationalArc(2, {-1: (1, 0)}).escapes_to_infinity()

    def test_zero_vectors_dropped(self):
        xi = RationalArc(2, {3: (0, 0), 1: (1, 0)})
        assert xi.support() == [1]

    def test_reparametrize(self):
        xi = RationalArc(2, {-1: (Fraction(1, 2), 0), 1: (0, -1)})
        eta = xi.reparametrize(Fraction(2))
        assert eta.coeffs[-1] == (Fraction(1, 4), Fraction(0))
        assert eta.coeffs[1] == (Fraction(0), Fraction(-2))

    def test_reparametrize_zero_rejected(self):
        with pytest.raises(ValueError):
            RationalArc(2, {1: (1, 0)}).reparametrize(0)


class TestComposeArc:
    def test_known_composition(self):
        # f(xi(t)) for f = x + x^2 y along xi = ((1/2) t^-1, -t) is (1/4) t^-1
        f = parse("x + x^2*y", VARS2)
        xi = RationalArc(2, {-1: (Fraction(1, 2), 0), 1: (0, -1)})
        F = compose_arc(f, xi)
        assert F.terms == {-1: Fraction(1, 4)}

    def test_constant_polynomial(self):
        f = parse("7", VARS2)
        xi = RationalArc(2, {1: (1, 1)})
        assert compose_arc(f, xi) == LaurentScalar({0: 7})

    def test_num_vars_mismatch(self):
        with pytest.raises(ValueError, match="2 variables, arc has 3"):
            compose_arc(parse("x + y", VARS2), RationalArc(3, {1: (1, 0, 0)}))

    @given(polynomials(2, max_degree=3, max_terms=4))
    @settings(max_examples=25, deadline=None)
    def test_composition_matches_float_evaluation(self, f):
        # evaluated exactly, at t = 17/10
        xi = RationalArc(2, {-1: (Fraction(1, 3), 1), 1: (Fraction(1, 2), Fraction(-2, 5))})
        t = Fraction(17, 10)
        assert _at(compose_arc(f, xi), t) == f.evaluate([_at(c, t) for c in xi.components()])

    @given(polynomials(2, max_degree=3, max_terms=4), polynomials(2, max_degree=3, max_terms=4))
    @settings(max_examples=25, deadline=None)
    def test_composition_is_a_homomorphism(self, f, g):
        xi = RationalArc(2, {-2: (1, 0), 1: (Fraction(1, 2), -1)})
        assert compose_arc(f * g, xi) == compose_arc(f, xi) * compose_arc(g, xi)
        assert compose_arc(f + g, xi) == compose_arc(f, xi) + compose_arc(g, xi)

    @given(compositions())
    @example((Polynomial.zero(2), [LaurentScalar({-1: Fraction(1, 2)}), LaurentScalar({1: -1})]))
    @example((Polynomial.constant(3, Fraction(-7, 3)),
              [LaurentScalar({2: 5}), LaurentScalar(), LaurentScalar({-3: Fraction(1, 4)})]))
    @example((parse("x + x^2*y", VARS2), [LaurentScalar(), LaurentScalar()]))
    @example((parse("1/6*x^4 - 2/3*x", ["x"]), [LaurentScalar({-2: 3})]))
    @example((parse("1/2*x + 2/3*x^2*y - y^3", VARS2),   # a small generic arc
              [LaurentScalar({-1: UNKNOWNS[0], 1: UNKNOWNS[1]}),
               LaurentScalar({-1: UNKNOWNS[2], 1: UNKNOWNS[3]})]))
    # a monomial of one-term components: its one coefficient, cleared, is
    # the l1 bound that sizes the packing slot, and each bound below has a
    # bit length divisible by 8, so a slot without its sign bit misreads it
    @example((parse("x", ["x"]), [LaurentScalar({-1: Fraction(-(2 ** 72 - 1), 11)})]))
    @example((parse("x", ["x"]), [LaurentScalar({2: Fraction(2 ** 72 - 1, 11)})]))
    @example((parse("-x^3", ["x"]), [LaurentScalar({-2: Fraction(2 ** 208 - 1, 11)})]))
    @example((parse("x^2*y", VARS2), [LaurentScalar({3: Fraction(2 ** 208 - 1, 11)}),
                                      LaurentScalar({-6: Fraction(-(2 ** 64 - 1), 11)})]))
    @example((parse("x^3*y^2", VARS2), [LaurentScalar({-1: -(2 ** 64 - 1)}), LaurentScalar({2: 2 ** 64})]))
    @example((parse("x^2", VARS2), [LaurentScalar({-3: Fraction(-(2 ** 72 - 1), 11)}), LaurentScalar()]))
    @example((parse("x*y*z", VARS3), [LaurentScalar({-1: -(2 ** 64 - 1)}), LaurentScalar({1: 2 ** 64 - 1}),
                                      LaurentScalar({2: 2 ** 64 - 1})]))
    @example((parse("x*y", VARS2),       # interior zeros between t^-4 and t^3
              [LaurentScalar({-4: Fraction(2 ** 72 - 1, 11), 3: Fraction(-1, 11)}), LaurentScalar({1: -(2 ** 64)})]))
    @settings(max_examples=150, deadline=None)
    def test_integer_route_matches_horner(self, case):
        # compose_laurent packs rational components into one integer each
        # (Kronecker substitution) and composes over Polynomials by ring
        # products; the reference runs Horner's scheme in LaurentScalar arithmetic
        f, comps = case
        F = compose_laurent(f, comps)
        assert (F - _horner(f, comps)).is_zero()
        rational = all(isinstance(c, (int, Fraction)) for xi in comps for c in xi.terms.values())
        assert {type(c) for c in F.terms.values()} <= ({Fraction} if rational else {Fraction, Polynomial})

    def test_chain_rule_along_arc(self):
        # d/dt f(xi(t)) = sum_i (df/dx_i)(xi(t)) * xi_i'(t), exactly
        f = parse("x^3*y - 2*x*y^2 + y", VARS2)
        xi = RationalArc(2, {-1: (Fraction(2, 3), -1), 2: (1, Fraction(1, 5))})
        lhs = _derivative(compose_arc(f, xi))
        rhs = LaurentScalar()
        for i in range(2):
            rhs = rhs + compose_arc(f.partial(i), xi) * _derivative(xi.component(i))
        assert lhs == rhs
