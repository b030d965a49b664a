"""Tests for Milnor set equations, the Rabier function and center selection."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milnorarc import (
    DegenerateCenterError,
    default_pivot,
    malgrange_quantity,
    milnor_equations,
    parse,
    pick_generic_center,
    rabier_nu,
)
from milnorarc.milnor import rabier_nus
from milnorarc.poly import Polynomial
from milnorarc.tracer import CENTER_ATTEMPTS

VARS2 = ["x", "y"]
VARS3 = ["x", "y", "z"]

CORPUS = [
    parse("x + x^2*y", VARS2),
    parse("y*(x^2*y^2 + 3*x*y + 3)", VARS2),
    parse("x^2 - y^3 + x*y", VARS2),
    parse("x - 3*x^3*y^2 + 2*x^4*y^3 + y*z", VARS3),
    parse("x*y*z - z^2 + x", VARS3),
]


class TestEquations:
    def test_pivot_chart_two_vars(self):
        f = parse("x + x^2*y", VARS2)
        sys = milnor_equations([f], (0, 0), pivot=0)
        assert len(sys.equations) == 1
        assert sys.equations[0] == parse("y + 2*x*y^2 - x^3", VARS2)

    def test_pivot_count(self):
        f = CORPUS[3]
        sys = milnor_equations([f], (0, 0, 0), pivot=0)
        assert len(sys.equations) == 2

    def test_minors_count(self):
        # C(n, p+1) minors for a single polynomial
        f = CORPUS[3]
        sys = milnor_equations([f], (0, 0, 0), pivot=0)
        assert sys.pivot == 0
        assert len(sys.minors) == 3

    def test_center_shifts_equations(self):
        f = parse("x + x^2*y", VARS2)
        s0 = milnor_equations([f], (0, 0), pivot=0)
        s1 = milnor_equations([f], (1, Fraction(1, 2)), pivot=0)
        assert s0.equations[0] != s1.equations[0]

    def test_validation(self):
        f = parse("x + y", VARS2)
        with pytest.raises(ValueError):
            milnor_equations([], (0, 0))
        with pytest.raises(ValueError):
            milnor_equations([f], (0,))
        with pytest.raises(IndexError):
            milnor_equations([f], (0, 0), pivot=5)
        with pytest.raises(ValueError):
            milnor_equations([f, f], (0, 0))  # p >= n

    @pytest.mark.parametrize("text, names", [("x + y^3", VARS2), ("x + x^2*y + z^2", VARS3)])
    def test_default_pivot_is_the_default(self, text, names):
        f = parse(text, names)
        center = (Fraction(1, 3),) * len(names)
        assert milnor_equations([f], center) == milnor_equations([f], center, pivot=default_pivot(f))
        assert milnor_equations([f], center, pivot=None).pivot == default_pivot(f)

    def test_rejects_several_polynomials(self):
        f, g = CORPUS[3], CORPUS[4]
        with pytest.raises(ValueError, match="exactly one polynomial"):
            milnor_equations([f, g], (0, 0, 0))

    def test_rejects_univariate(self):
        with pytest.raises(ValueError):
            milnor_equations([parse("x^2", ["x"])], (0,))

    def test_to_dict(self):
        f = parse("x + x^2*y", VARS2)
        d = milnor_equations([f], (0, 0), pivot=0).to_dict(VARS2)
        assert d["equations"] == ["y + 2*x*y^2 - x^3"]
        assert d["pivot"] == 0


@st.composite
def polynomials_and_centers(draw):
    """A small integer polynomial in 2-4 variables and a rational center."""
    n = draw(st.integers(2, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exponents, st.integers(-5, 5), min_size=1, max_size=5))
    center = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                           min_size=n, max_size=n))
    return Polynomial(n, terms), tuple(center), draw(st.integers(0, n - 1))


class TestAgainstSympyDeterminants:
    """Each equation is the matching 2x2 determinant of [grad f; x - a],
    computed independently by sympy."""

    @settings(max_examples=40, deadline=None)
    @given(polynomials_and_centers())
    def test_equations_are_the_minors(self, drawn):
        sympy = pytest.importorskip("sympy")
        f, center, pivot = drawn
        n = f.num_vars
        xs = sympy.symbols(f"x0:{n}")

        def to_sympy(p):
            return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                               * sympy.Mul(*[x ** e for x, e in zip(xs, exp)])
                               for exp, c in p.terms.items()])

        fs = to_sympy(f)
        rows = sympy.Matrix([[sympy.diff(fs, x) for x in xs],
                             [x - sympy.Rational(c.numerator, c.denominator)
                              for x, c in zip(xs, center)]])

        def minor(i, j):
            return rows.extract([0, 1], [i, j]).det()

        sys = milnor_equations([f], center, pivot=pivot)
        pairs = list(itertools.combinations(range(n), 2))
        assert len(sys.minors) == len(pairs)
        for eq, (i, j) in zip(sys.minors, pairs):
            assert sympy.expand(to_sympy(eq) - minor(i, j)) == 0
        chart = sys.equations
        others = [j for j in range(n) if j != pivot]
        assert len(chart) == len(others)
        for eq, j in zip(chart, others):
            assert sympy.expand(to_sympy(eq) - minor(pivot, j)) == 0


class TestPivotMinorsEquivalence:
    """At points where the pivot partial does not vanish, the pivot chart and
    the minors description cut out the same set (checked exactly)."""

    @pytest.mark.parametrize("f", CORPUS, ids=lambda f: f.to_text())
    def test_equivalence_on_random_points(self, f):
        n = f.num_vars
        rng = random.Random(20260823)
        center = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n))
        i = default_pivot(f)
        pivot_sys = milnor_equations([f], center, pivot=i)
        f_i = f.partial(i)
        checked = 0
        for _ in range(1000):
            x = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)]
            if f_i.evaluate(x) == 0:
                continue
            checked += 1
            pivot_zero = all(eq.evaluate(x) == 0 for eq in pivot_sys.equations)
            minors_zero = all(eq.evaluate(x) == 0 for eq in pivot_sys.minors)
            assert pivot_zero == minors_zero
        assert checked > 900

    def test_equivalence_on_the_milnor_set(self):
        # a point actually on M_0(x + x^2*y): solve y + 2xy^2 - x^3 = 0 for y
        # via x = 1: 2y^2 + y - 1 = 0 -> y = 1/2
        f = parse("x + x^2*y", VARS2)
        x = [Fraction(1), Fraction(1, 2)]
        pivot_sys = milnor_equations([f], (0, 0), pivot=0)
        assert all(eq.evaluate(x) == 0 for eq in pivot_sys.equations)
        assert all(eq.evaluate(x) == 0 for eq in pivot_sys.minors)


class TestRabier:
    def test_single_row_is_the_norm(self):
        assert rabier_nu([[3.0, 4.0]]) == pytest.approx(5.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            J = rng.standard_normal((1, 4))
            c = float(rng.uniform(0.1, 5.0))
            assert rabier_nu(c * J) == pytest.approx(abs(c) * rabier_nu(J), rel=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_squares_past_the_float_range(self):
        # the entries are finite, their squares are not
        assert rabier_nu([1e200, 1e200]) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert rabier_nu([[1e300, -1e300]]) == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)

    def test_rejects_two_rows(self):
        with pytest.raises(ValueError):
            rabier_nu([[1.0, 0.0], [2.0, 0.0]])

    def test_rejects_wide_input(self):
        with pytest.raises(ValueError):
            rabier_nu(np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rabier_nu([[float("nan"), 1.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_batch_is_rabier_nu_per_row(self):
        # the same bits as one rabier_nu call per row, past the squares' range too
        rng = np.random.default_rng(3)
        G = rng.standard_normal((12, 3)) * 10.0 ** rng.integers(-300, 300, (12, 1))
        G[0] = [1e200, -1e200, 0.0]
        G[1] = 0.0
        assert rabier_nus(G) == [rabier_nu(g) for g in G]
        assert rabier_nus(np.zeros((0, 2))) == []
        G[5, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            rabier_nus(G)


class TestMalgrange:
    def test_known_values(self):
        f = parse("x + x^2*y", VARS2)
        # grad f = (1 + 2xy, x^2); at (0.1, -5): (0, 0.01), ||x|| ~ 5.001
        assert malgrange_quantity([f], [0.1, -5.0]) == pytest.approx(0.050009999, rel=1e-6)
        # at (1, 1): grad = (3, 1), ||x|| = sqrt(2) -> sqrt(2)*sqrt(10) = sqrt(20)
        assert malgrange_quantity([f], [1.0, 1.0]) == pytest.approx(math.sqrt(20.0), rel=1e-12)

    def test_rejects_non_finite_point(self):
        f = parse("x + y", VARS2)
        with pytest.raises(ValueError):
            malgrange_quantity([f], [float("inf"), 0.0])


class TestCenters:
    def test_default_pivot(self):
        assert default_pivot(parse("x + x^2*y", VARS2)) == 0
        assert default_pivot(parse("x + y^3", VARS2)) == 1

    def test_pick_generic_center_is_deterministic(self):
        f = parse("x + x^2*y", VARS2)
        assert pick_generic_center(f, seed=3) == pick_generic_center(f, seed=3)

    def test_pick_generic_center_small_height(self):
        f = parse("x + x^2*y", VARS2)
        a = pick_generic_center(f, seed=0)
        assert len(a) == 2
        assert all(abs(c) <= 100 for c in a)

    def test_rejects_univariate(self):
        with pytest.raises(ValueError):
            pick_generic_center(parse("x^2", ["x"]), seed=0)

    def test_degenerate_reports_diagnostics(self, monkeypatch):
        import milnorarc.tracer as m

        monkeypatch.setattr(m, "_screen_center", lambda sys: (False, "forced failure"))
        f = parse("x + x^2*y", VARS2)
        with pytest.raises(DegenerateCenterError) as info:
            pick_generic_center(f, seed=0)
        assert len(info.value.diagnostics) == CENTER_ATTEMPTS
        assert "forced failure" in info.value.diagnostics[0]

    def test_screen_fails_only_on_solver_value_errors(self, monkeypatch):
        import milnorarc.tracer as m

        def failing_solve(error):
            def solve(*args, **kwargs):
                raise error
            return solve

        f = parse("x + x^2*y", VARS2)
        monkeypatch.setattr(m, "_slice", failing_solve(ValueError("overflow")))
        with pytest.raises(DegenerateCenterError):
            pick_generic_center(f, seed=0)
        # a programming error in the slicer is not a failed screen
        monkeypatch.setattr(m, "_slice", failing_solve(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            pick_generic_center(f, seed=0)
