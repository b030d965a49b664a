"""Tests for the bounded arc space: windows, membership, constraints, search."""

import json
import os
import random
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from milnorarc import (
    ArcSearchConfig,
    Polynomial,
    RationalArc,
    WindowViolationError,
    arc_window,
    check_membership,
    compose_arc,
    dims,
    emit_constraints,
    parse,
    search_arcs,
    truncate,
)
from milnorarc import arcs
from milnorarc.arcs import (
    _LaurentSystem, _composed_conditions, _conditions, _damped_step, _lambda_estimate, _levenberg_marquardt, _merged,
    unknown_name,
)
from milnorarc.cli import main
from milnorarc.poly import CompiledPolynomials, ExactEvaluator, LaurentScalar
from milnorarc.tracer import CLUSTER_TOL

from test_poly import _affine, _horner

VARS2 = ["x", "y"]
VARS3 = ["x", "y", "z"]

F_FLAG = parse("x + x^2*y", VARS2)
WITNESS = RationalArc(2, {-1: (Fraction(1, 2), 0), 1: (0, -1)})


# ---------------------------------------------------------------------------
# Window and dimensions
# ---------------------------------------------------------------------------


class TestWindow:
    def test_known_window(self):
        w = arc_window(2, 3)
        assert (w.k_min, w.k_max) == (-6, 3)

    def test_formula(self):
        for n in range(2, 5):
            for d in range(2, 5):
                w = arc_window(n, d)
                assert w.k_max == d ** (n - 1)
                assert w.k_min == -(d - 1) * d ** (n - 1)

    def test_rejects_small_parameters(self):
        for n, d in [(1, 3), (2, 1), (0, 0)]:
            with pytest.raises(ValueError):
                arc_window(n, d)


def _dims_oracle(n: int, d: int):
    """Independent big-integer evaluation of both dimension counts, written
    with repeated multiplication instead of the ** operator."""

    def power(base, e):
        out = 1
        for _ in range(e):
            out *= base
        return out

    arc = n * (1 + power(d, n))
    av = n * (2 + d * power(d + 1, n) * power(power(d, n) + 2, n - 1))
    return arc, av


class TestDims:
    def test_frozen_values(self):
        assert dims(2, 3) == (20, 1060)
        assert dims(2, 2) == (10, 220)
        assert dims(3, 2) == (27, 16206)

    def test_against_oracle(self):
        for n in range(2, 6):
            for d in range(2, 6):
                assert dims(n, d) == _dims_oracle(n, d)

    def test_arc_space_is_smaller(self):
        for n in range(2, 6):
            for d in range(2, 6):
                dim_arc, dim_av = dims(n, d)
                assert dim_arc < dim_av

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            dims(1, 2)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


class TestMembership:
    def test_witness_arc(self):
        report = check_membership(F_FLAG, WITNESS)
        assert report.cond_b and report.cond_c and report.cond_d
        assert report.b0 == 0
        assert isinstance(report.b0, Fraction)
        assert report.normalized  # sum of positive-coefficient squares is 1 exactly
        assert report.escapes
        assert report.is_member

    def test_non_member_with_witnesses(self):
        xi = RationalArc(2, {1: (1, 0)})  # x = t, y = 0: f = t + 0 grows
        report = check_membership(F_FLAG, xi)
        assert not report.cond_b
        assert report.witnesses_b == [(1, Fraction(1))]
        assert report.b0 is None
        assert not report.is_member

    def test_bounded_arc_does_not_escape(self):
        xi = RationalArc(2, {-1: (1, 1)})
        report = check_membership(F_FLAG, xi)
        assert not report.escapes
        assert not report.is_member

    def test_window_enforced(self):
        xi = RationalArc(2, {4: (1, 0)})  # k_max for d=3, n=2 is 3
        with pytest.raises(WindowViolationError) as info:
            check_membership(F_FLAG, xi)
        assert "outside window (-6, 3)" in str(info.value)
        assert info.value.exponent == 4

    def test_window_can_be_disabled(self):
        xi = RationalArc(2, {-7: (1, 0), 1: (0, -1)})
        report = check_membership(F_FLAG, xi, enforce_window=False)
        assert report.escapes

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            check_membership(parse("x + y", VARS2), WITNESS)

    def test_num_vars_mismatch(self):
        with pytest.raises(ValueError, match="num_vars mismatch"):
            check_membership(F_FLAG, RationalArc(3, {1: (1, 0, 0)}))

    def test_lambda_estimate(self):
        # ||a_1||^2 = 4 needs lam with 4 lam^2 = 1, i.e. lam = 1/2
        xi = RationalArc(2, {1: (2, 0)})
        report = check_membership(F_FLAG, xi)
        assert report.lambda_estimate == pytest.approx(0.5, abs=1e-12)
        assert not report.normalized

    def test_report_serialization(self):
        d = check_membership(F_FLAG, WITNESS).to_dict()
        assert d["b0"] == "0"
        assert d["b0_float"] == 0.0
        assert d["is_member"] is True


# the witnesses of each condition of one kind: distinct ascending powers,
# with few values, so that equal pairs and equal powers with different values
# both occur between conditions
WITNESS_LISTS = st.lists(
    st.dictionaries(st.integers(-4, 4), st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)))
    .map(lambda terms: sorted(terms.items())),
    max_size=6,
)


# and unsorted runs of wide numerators and denominators, equal values included
WIDE_RUNS = st.lists(st.tuples(st.integers(-3, 3), st.fractions(max_denominator=2 ** 70).map(lambda c: c * 2 ** 64)
                               | st.integers(-3, 3).map(Fraction)), max_size=30)


@settings(max_examples=100)
@given(runs=WITNESS_LISTS.map(lambda lists: [w for witnesses in lists for w in witnesses]) | WIDE_RUNS)
def test_merged_witnesses_are_the_sorted_set(runs):
    merged = _merged(runs)
    assert merged == sorted(set(runs))
    assert [(k, str(c)) for k, c in merged] == [(k, str(c)) for k, c in sorted(set(runs))]


class TestScaleInvariance:
    """Conditions (b)-(d) and b0 only see which Laurent coefficients vanish,
    so they are invariant under t -> lam t."""

    def _random_arc(self, rng: random.Random, window) -> RationalArc:
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(window.k_min, window.k_max)
            coeffs[k] = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)
            )
        return RationalArc(2, coeffs)

    def test_hundred_random_arcs(self):
        rng = random.Random(99)
        window = arc_window(2, 3)
        checked = 0
        for _ in range(100):
            xi = self._random_arc(rng, window)
            lam = Fraction(0)
            while lam == 0:
                lam = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            before = check_membership(F_FLAG, xi)
            after = check_membership(F_FLAG, xi.reparametrize(lam))
            assert before.cond_b == after.cond_b
            assert before.cond_c == after.cond_c
            assert before.cond_d == after.cond_d
            assert before.escapes == after.escapes
            assert before.b0 == after.b0
            checked += 1
        assert checked == 100

    def test_witness_under_scaling(self):
        for lam in [Fraction(2), Fraction(-1), Fraction(3, 7)]:
            report = check_membership(F_FLAG, WITNESS.reparametrize(lam))
            assert report.is_member
            assert report.b0 == 0


def _inverse(M):
    """M^-1 over the Fractions by Gauss-Jordan elimination; M must be invertible."""
    n = len(M)
    rows = [list(row) + [Fraction(int(i == k)) for i in range(n)] for k, row in enumerate(M)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        rows = [row if r == col else [a - row[col] * b for a, b in zip(row, rows[col])] for r, row in enumerate(rows)]
    return [row[n:] for row in rows]


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def affine_cases(draw):
    """f of degree 2 or 3 in 2 or 3 variables, an arc in its window, an
    invertible rational M = L U (L unit lower, U upper triangular), a shift
    s, and a value map c f + e with c != 0."""
    n = draw(st.sampled_from([2, 3]))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    f = draw(st.dictionaries(exponents, SMALL.filter(bool), min_size=1, max_size=5)
             .map(lambda terms: Polynomial(n, terms)).filter(lambda f: f.degree >= 2))
    window = arc_window(n, int(f.degree))
    xi = RationalArc(n, draw(st.dictionaries(st.integers(window.k_min, window.k_max),
                                             st.tuples(*[SMALL] * n), max_size=4)))
    L = [[Fraction(int(i == k)) if i >= k else draw(SMALL) for i in range(n)] for k in range(n)]
    U = [[draw(SMALL.filter(bool)) if i == k else draw(SMALL) if i > k else Fraction(0) for i in range(n)]
         for k in range(n)]
    M = [[sum(L[k][j] * U[j][i] for j in range(n)) for i in range(n)] for k in range(n)]
    return f, xi, M, tuple(draw(SMALL) for _ in range(n)), draw(SMALL.filter(bool)), draw(SMALL)


class TestAffineInvariance:
    """g(u) = c f(M u + s) + e and eta = M^-1 (xi - s) have g(eta) = c f(xi) + e,
    grad g(eta) = c M^T grad f(xi), and eta (x) grad g(eta) = c M^-1 (xi - s)
    (x) M^T grad f(xi); so escaping, (b), (c), (c) and (d) together, and
    membership are unchanged, and b0 becomes c b0 + e, exactly."""

    @given(affine_cases())
    @example((F_FLAG, WITNESS, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]],
              (Fraction(1, 2), Fraction(-1, 3)), Fraction(3), Fraction(5)))
    @settings(max_examples=60, deadline=None)
    def test_membership_under_an_affine_map(self, case):
        f, xi, M, s, c, e = case
        g = c * _affine(f, M, s) + e
        shifted = {k: tuple(v - (s_l if k == 0 else 0) for v, s_l in zip(xi.coeffs.get(k, (0,) * f.num_vars), s))
                   for k in set(xi.coeffs) | {0}}
        eta = RationalArc(f.num_vars, {k: tuple(sum(row[l] * vec[l] for l in range(f.num_vars)) for row in _inverse(M))
                                       for k, vec in shifted.items()})
        before, after = check_membership(f, xi), check_membership(g, eta)
        assert after.escapes == before.escapes
        assert after.cond_b == before.cond_b
        assert after.cond_c == before.cond_c
        assert (after.cond_c and after.cond_d) == (before.cond_c and before.cond_d)
        assert after.is_member == before.is_member
        assert after.b0 == (None if before.b0 is None else c * before.b0 + e)
        if xi == WITNESS and f == F_FLAG:
            assert after.is_member and after.b0 == 5


class TestTruncate:
    def test_drops_deep_tail_only(self):
        window = arc_window(2, 3)
        xi = RationalArc(2, {-9: (1, 0), -6: (Fraction(1, 3), 0), 1: (0, -1)})
        cut = truncate(xi, window)
        assert cut.support() == [-6, 1]
        assert cut.coeffs[-6] == (Fraction(1, 3), Fraction(0))

    def test_idempotent(self):
        window = arc_window(2, 3)
        assert truncate(truncate(WITNESS, window), window).coeffs == WITNESS.coeffs


# ---------------------------------------------------------------------------
# The composed conditions and the scale
# ---------------------------------------------------------------------------


COEFFICIENTS = st.one_of(st.integers(-2 ** 128, 2 ** 128),
                         st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12))
UNKNOWNS = [Polynomial.variable(4, i) for i in range(4)]


@st.composite
def maps_and_arcs(draw):
    """f of degree <= 3 in 2 or 3 variables, and components over ints or
    Fractions at t^-6..t^3, empty ones included."""
    n = draw(st.sampled_from([2, 3]))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    f = Polynomial(n, draw(st.dictionaries(exponents, COEFFICIENTS, max_size=5)))
    comps = [LaurentScalar(draw(st.dictionaries(st.integers(-6, 3), COEFFICIENTS, max_size=4))) for _ in range(n)]
    return f, comps


class TestComposedConditions:
    @given(maps_and_arcs())
    @example((parse("x + y^3", VARS2),   # df/dx is the constant 1
              [LaurentScalar({-2: Fraction(1, 3), 1: 2}), LaurentScalar({1: -1})]))
    @example((parse("x^2 + 1/2*x*z", VARS3),   # df/dy is zero, and y is empty
              [LaurentScalar({-1: 3, 2: Fraction(-1, 4)}), LaurentScalar(), LaurentScalar({-3: 1, 1: 1})]))
    @example((parse("1/2*x + 2/3*x^2*y - y^3", VARS2),   # a small generic arc
              [LaurentScalar({-1: UNKNOWNS[0], 1: UNKNOWNS[1]}), LaurentScalar({-1: UNKNOWNS[2], 1: UNKNOWNS[3]})]))
    # x cleared to +-1 and y, z one term each: y * df/dx, read at t^3 or t^4,
    # is the l1 bound of the packing slot (that of df/dx times ||y||_1), of a
    # bit length divisible by 8, so a slot without its sign bit misreads it
    @example((parse("x*y^2", VARS2),
              [LaurentScalar({-2: Fraction(-1, 11)}), LaurentScalar({1: Fraction(2 ** 72 - 1, 11)})]))
    @example((parse("x*y^2", VARS2),
              [LaurentScalar({-1: Fraction(1, 11)}), LaurentScalar({1: Fraction(-(2 ** 208 - 1), 11)})]))
    @example((parse("x*y^2", VARS3),   # z is empty
              [LaurentScalar({-2: Fraction(-1, 11)}), LaurentScalar({1: Fraction(-(2 ** 64 - 1), 11)}),
               LaurentScalar()]))
    @example((parse("x*y^2*z", VARS3),
              [LaurentScalar({-3: Fraction(1, 11)}), LaurentScalar({1: Fraction(2 ** 64 - 1, 11)}),
               LaurentScalar({1: Fraction(-(2 ** 64 - 1), 11)})]))
    @example((parse("x*y^2", VARS2),   # interior zeros between t^-1 and t^2
              [LaurentScalar({-2: Fraction(-1, 11)}), LaurentScalar({-1: Fraction(2 ** 72 - 1, 11), 2: 5})]))
    # each product sizes the slot by its own component's norm: x * df/dy sets
    # K at t^-3, unread, and y * df/dy, with the smaller-norm y, is read at t^0
    # with the same bit length, 208, so a slot without its sign bit misreads it
    @example((parse("x*y^2", VARS2),
              [LaurentScalar({-2: Fraction(-(2 ** 69 - 1), 11)}), LaurentScalar({1: Fraction(2 ** 69 - 3, 11)})]))
    # y is empty, so every product with it or with df/dx = y has bound 0, and
    # f's own constant, of bit length 72, sets K
    @example((parse(f"{2 ** 72 - 1}/11 + x*y", VARS2), [LaurentScalar({-1: 1}), LaurentScalar()]))
    @settings(max_examples=120, deadline=None)
    def test_each_condition_is_its_own_composition(self, case):
        # the packed products (Kronecker substitution over Q, ring products
        # over Polynomials) give each condition's coefficients at t^0 and
        # above, in increasing order, as Horner's scheme composes them
        f, comps = case
        composed = list(_composed_conditions(f, comps))
        assert len(composed) == len(_conditions(f)) == 1 + f.num_vars * (1 + f.num_vars)
        for (label, terms, lowest), (label_p, g, j, lowest_p) in zip(composed, _conditions(f)):
            P = g if j is None else Polynomial.variable(f.num_vars, j) * g
            expected = {m: c for m, c in sorted((LaurentScalar() + _horner(P, comps)).terms.items()) if m >= 0}
            assert (label, lowest) == (label_p, lowest_p)
            assert list(terms.items()) == list(expected.items())


_INF = 0x7FF0000000000000


def _bisected_lambda(sums):
    """The float nearest lam with sum_k sums[k] lam^(2k) = 1, by 64 exact
    bisection steps over the bit patterns of the floats in [0, inf]."""
    def value(bits):
        return Fraction(2 ** 1024) if bits == _INF else Fraction(struct.unpack("<d", struct.pack("<q", bits))[0])

    def below(lam):
        return sum(s * lam ** (2 * k) for k, s in sums.items()) < 1

    lo, hi = 0, _INF
    for _ in range(64):
        if hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if below(value(mid)) else (lo, mid)
    nearest = hi if below((value(lo) + value(hi)) / 2) else lo
    return None if nearest in (0, _INF) else float(value(nearest))


def _scaled_sums():
    """Positive sums at 1 to 4 exponents k <= 27, from 10^-400 to 10^400."""
    scaled = st.builds(lambda a, b, e: Fraction(a, b) * Fraction(10) ** e,
                       st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), st.integers(-400, 400))
    return st.dictionaries(st.integers(1, 27), scaled, min_size=1, max_size=4)


class TestLambdaEstimate:
    @given(_scaled_sums())
    @example({1: Fraction(4)})                      # lam = 1/2
    @example({3: Fraction(1, 2)})                   # lam = 2^(1/6)
    @example({2: Fraction(1, 10 ** 200)})           # lam = 10^50
    @example({1: Fraction(10 ** 400)})              # a sum above the float range: lam = 1e-200
    @example({1: Fraction(1, 10 ** 400)})           # a sum below the float range: lam = 1e200
    @example({1: Fraction(10 ** 650)})              # lam = 1e-325 rounds to 0
    @example({1: Fraction(10 ** 645)})              # lam = 3.2e-323, a subnormal
    @example({1: Fraction(1, 10 ** 700)})           # lam = 1e350 overflows
    @example({1: Fraction(1, 3), 2: Fraction(5, 7), 9: Fraction(10 ** 300)})
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_bisection(self, sums):
        assert _lambda_estimate(sums) == _bisected_lambda(sums)

    def test_rounding_to_zero_or_overflow_is_none(self):
        assert _lambda_estimate({1: Fraction(10 ** 700)}) is None
        assert _lambda_estimate({1: Fraction(1, 10 ** 700)}) is None
        assert _lambda_estimate({}) is None

    @pytest.mark.parametrize("sums", [
        {1: Fraction(4)}, {3: Fraction(2, 7), 9: Fraction(11, 3)},
        {2: Fraction(1, 10 ** 200), 5: Fraction(10 ** 100)},
        # sphere sums outside the normal floats; the third gives a subnormal lam
        {1: Fraction(10 ** 400)}, {1: Fraction(1, 10 ** 400)}, {1: Fraction(10 ** 645)},
        {27: Fraction(1, 10 ** 400), 3: Fraction(7)},
        {1000: Fraction(3)},   # its rescaled sum 3 * 4^-1000 is below the least float
    ])
    def test_every_estimate_needs_few_exact_comparisons(self, sums, monkeypatch):
        # each exact comparison of the sum with 1 is one ExactEvaluator.at call;
        # a bisection over the bit patterns of the floats makes 64 of them
        calls = []
        at = ExactEvaluator.at
        monkeypatch.setattr(ExactEvaluator, "at", lambda self, point: calls.append(point) or at(self, point))
        assert _lambda_estimate(sums) == _bisected_lambda(sums)
        assert 1 <= len(calls) <= 4


# ---------------------------------------------------------------------------
# Symbolic constraints
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _emitted(text, names):
    """The symbolic system of one map, expanded once per test session (no
    test changes it)."""
    return emit_constraints(parse(text, list(names)))


class TestConstraints:
    def test_unknown_names(self):
        assert unknown_name(3, 1) == "a_3_1"
        assert unknown_name(-2, 2) == "a_m2_2"

    def test_flagship_system_shape(self):
        cs = _emitted("x + x^2*y", ("x", "y"))
        assert cs.num_unknowns == 20  # dims(2, 3) arc count
        assert cs.num_equations > 0
        labels = [label for label, _ in cs.equations]
        assert any(label.startswith("b:") for label in labels)
        assert any(label.startswith("c:") for label in labels)
        assert any(label.startswith("d:") for label in labels)

    def test_top_coefficient_equation(self):
        # the t^9 coefficient of f(xi) for f = x + x^2 y comes only from the
        # leading coefficients: a_3_1^2 * a_3_2
        cs = _emitted("x + x^2*y", ("x", "y"))
        eq = dict(cs.equations)["b:t^9"]
        text = eq.to_text(cs.unknowns)
        assert text == "a_3_1^2*a_3_2"

    def test_consistency_with_compose_arc(self):
        # substituting a concrete arc's coefficients into each symbolic
        # equation (Polynomial-coefficient Laurent arithmetic) reproduces the
        # Laurent coefficient computed directly (Fraction coefficients)
        cs = _emitted("x + x^2*y", ("x", "y"))
        window = cs.window
        rng = random.Random(5)
        for _ in range(10):
            coeffs = {
                k: tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
                for k in rng.sample(range(window.k_min, window.k_max + 1), 3)
            }
            xi = RationalArc(2, coeffs)
            values = []
            for k in range(window.k_min, window.k_max + 1):
                vec = xi.coeffs.get(k, (Fraction(0), Fraction(0)))
                values.extend(vec)
            expected = {"b:": compose_arc(F_FLAG, xi)}
            for i in range(2):
                g = compose_arc(F_FLAG.partial(i), xi)
                expected[f"c:{i + 1}:"] = g
                for j in range(2):
                    expected[f"d:{i + 1},{j + 1}:"] = xi.component(j) * g
            for label, eq in cs.equations:
                prefix, m = label.split("t^")
                assert eq.evaluate(values) == expected[prefix].coefficient(int(m))
            assert cs.b0.evaluate(values) == expected["b:"].coefficient(0)

    def test_constant_partial_gives_a_polynomial_equation(self):
        # df/dx = 1 for x + y^3: the c equation at t^0 is the constant 1
        cs = _emitted("x + y^3", ("x", "y"))
        eq = dict(cs.equations)["c:1:t^0"]
        assert eq == Polynomial.constant(cs.num_unknowns, 1)

    def test_sphere_uses_positive_block_only(self):
        cs = _emitted("x + x^2*y", ("x", "y"))
        sphere = cs.sphere
        for k in range(cs.window.k_min, 1):
            for j in (1, 2):
                name = unknown_name(k, j)
                idx = cs.unknowns.index(name)
                assert sphere.partial(idx).is_zero()


# ---------------------------------------------------------------------------
# Numerical search
# ---------------------------------------------------------------------------


class TestSearch:
    def test_finds_an_arc_for_the_flagship(self):
        found = search_arcs(F_FLAG, ArcSearchConfig(seed=0, starts=16))
        assert found, "expected at least one candidate"
        best = min(found, key=lambda c: c.residual)
        assert best.residual < 1e-8
        assert best.b0_estimate == pytest.approx(0.0, abs=1e-3)

    def test_deterministic(self):
        cfg = ArcSearchConfig(seed=4, starts=8)
        a = search_arcs(F_FLAG, cfg)
        b = search_arcs(F_FLAG, cfg)
        assert [c.to_dict() for c in a] == [c.to_dict() for c in b]

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            search_arcs(parse("x - y", VARS2))

    @pytest.mark.parametrize("field", [
        {"starts": 0},
        {"tol": float("nan")},
        {"tol": 0.0},
        {"seed": -1},
    ])
    def test_config_rejects_bad_values(self, field):
        with pytest.raises(ValueError):
            ArcSearchConfig(**field)

    def test_candidate_serialization(self):
        found = search_arcs(F_FLAG, ArcSearchConfig(seed=0, starts=8))
        for c in found:
            d = c.to_dict()
            assert set(d) == {"coeffs", "b0_estimate", "residual", "start_index"}

    def test_starts_that_reach_one_point_are_one_candidate(self, monkeypatch):
        # every start converges to p, or to p moved by 2 DEDUPE_DIST when its first unknown is positive
        def levenberg_marquardt(system, stop, u):
            point = np.full(system.num_unknowns, 0.25)
            point[0] += 2 * arcs.DEDUPE_DIST * (u[0] > 0)
            return point, np.zeros(1)

        starts, real_map = [], arcs._cores.map_on_cores

        def map_on_cores(fn, items):
            starts.extend(items)
            return real_map(fn, starts)

        monkeypatch.setattr(arcs, "_levenberg_marquardt", levenberg_marquardt)
        monkeypatch.setattr(arcs._cores, "map_on_cores", map_on_cores)
        found = search_arcs(F_FLAG, ArcSearchConfig(seed=0, starts=8))
        moved = [u[0] > 0 for u in starts]
        assert len(starts) == 8 and 2 <= sum(moved) <= 6
        assert [c.start_index for c in found] == sorted([moved.index(False), moved.index(True)])
        assert [c.residual for c in found] == [0.0, 0.0]

    def test_degree_four_search_finishes(self):
        # the symbolic expansion of this system ran for more than 9 minutes
        f = parse("x + x^2*y + y^4", VARS2)
        cfg = ArcSearchConfig(seed=0, starts=2)
        for c in search_arcs(f, cfg):
            _assert_candidate_b0(f, c, cfg)

    def test_degree_four_candidates_carry_their_b0(self):
        f = parse("x^2*y^2 + x", VARS2)
        cfg = ArcSearchConfig(seed=0, starts=2)
        found = search_arcs(f, cfg)
        assert found
        for c in found:
            _assert_candidate_b0(f, c, cfg)

    # the bench's inputs keep at least the candidates scipy's trust-region
    # solver found (30 and 8), and the degree-four map at least 2 of its 4
    @pytest.mark.parametrize("text, limit, starts, least", [
        ("x + x^2*y", 0, 32, 30),
        # c0 + 2*f(y + 1/2, x - 1/3), the planted arc-search input at seed 0
        ("1/4 + 2*((y + 1/2) + (y + 1/2)^2*(x - 1/3))", Fraction(1, 4), 8, 8),
        ("x^2*y^2 + x", 0, 8, 2),
    ])
    def test_candidate_yield(self, text, limit, starts, least):
        f = parse(text, VARS2)
        cfg = ArcSearchConfig(seed=0, starts=starts)
        found = search_arcs(f, cfg)
        assert len(found) >= least
        for c in found:
            _assert_candidate_b0(f, c, cfg, limit)

    def test_runs_without_scipy(self):
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from milnorarc import ArcSearchConfig, parse, search_arcs\n"
                "found = search_arcs(parse('x + x^2*y', ['x', 'y']), ArcSearchConfig(seed=0, starts=2))\n"
                "print(len(found))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) >= 1


def _svd_step(J, r, lam):
    """The damped minimum-norm step -V (s / (s^2 + lam)) U^T r from the SVD of J,
    and the decrease sum g^2 (1 - w^2) it predicts, g = U^T r, w = lam / (s^2 + lam)."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    g = U.T @ r
    w = lam / (s * s + lam)
    return -Vt.T @ (s / (s * s + lam) * g), g @ g - (w * g) @ (w * g)


class TestDampedStep:
    # a d = 3 system (64 rows, 20 unknowns) and a d = 4 one of rank 11 in 34
    # unknowns, like the Jacobian of x + x^3*y; lam from the start's
    # LAMBDA0 * s_0^2 down to 1e-6 * s_0^2
    @pytest.mark.parametrize("rows, unknowns, rank", [(64, 20, 20), (100, 34, 11)])
    @pytest.mark.parametrize("scale", [arcs.LAMBDA0, 1e-6])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_svd_formulas(self, rows, unknowns, rank, scale, seed):
        rng = np.random.default_rng(seed)
        J = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, unknowns))
        r = rng.standard_normal(rows)
        assert np.linalg.matrix_rank(J) == rank
        lam = scale * np.linalg.svd(J, compute_uv=False)[0] ** 2
        step, predicted = _damped_step(J, r, lam)
        svd_step, svd_predicted = _svd_step(J, r, lam)
        assert np.linalg.norm(step - svd_step) <= 1e-9 * np.linalg.norm(svd_step)
        assert predicted == pytest.approx(svd_predicted, rel=1e-9)

    # J = 0 starts lam at 0, so J^T J + lam I is 0; J = 1e200 overflows J^T J
    @pytest.mark.parametrize("entry", [0.0, 1e200])
    def test_a_zero_or_overflowing_jacobian_stops_at_the_start(self, entry):
        class Stub:
            def evaluate(self, u):
                return np.array([1.0, -2.0]), np.full((2, len(u)), entry)

        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            point, r = _levenberg_marquardt(Stub(), arcs.POLISH * ArcSearchConfig().tol, np.arange(4.0))
        assert point.tolist() == [0.0, 1.0, 2.0, 3.0] and r.tolist() == [1.0, -2.0]

    def test_a_zero_jacobian_is_no_candidate_and_no_traceback(self, monkeypatch, capsys):
        def evaluate(self, u):
            return np.ones(3), np.zeros((3, self.num_unknowns))

        monkeypatch.setattr(_LaurentSystem, "evaluate", evaluate)
        assert search_arcs(F_FLAG, ArcSearchConfig(seed=0, starts=4)) == []
        assert main(["arc-search", "x + x^2*y", "--vars", "x,y", "--starts", "4"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["candidates"] == [] and err == ""


def _appending_evaluate(system, u):
    """`_LaurentSystem.evaluate` in its np.append form: the reference for its buffer and slots."""
    L = system._L
    T = np.append(u, 0.0)[system._toeplitz]
    M = np.zeros((system._C.shape[1], L + 1))
    M[0, -system._lo] = 1.0
    for prev, level, pick in system._levels:
        M[level, :L] = (M[prev, :L] @ T).reshape(-1, L)[pick]
    S = (system._C @ M).ravel()
    positive = u[system._sphere:]
    J = np.zeros((len(system._res_index) + 1, system.num_unknowns))
    J[:-1] = S[system._jac_index]
    J[-1, system._sphere:] = 2.0 * positive
    return np.append(S[system._res_index], positive @ positive - 1.0), J


def _norm_levenberg_marquardt(system, stop, u):
    """`_levenberg_marquardt` with np.linalg.norm and `_appending_evaluate`: the reference loop."""
    r, J = _appending_evaluate(system, u)
    cost, lam, nu = r @ r, None, 2.0
    for _ in range(arcs.MAX_ITER):
        if cost < stop:
            break
        try:
            lam = arcs.LAMBDA0 * np.linalg.eigvalsh(J.T @ J)[-1] if lam is None else lam
            step, predicted = _damped_step(J, r, lam)
        except np.linalg.LinAlgError:
            break
        done = np.linalg.norm(step) <= arcs.STOP_REL * np.linalg.norm(u)
        r_new, J_new = _appending_evaluate(system, u + step)
        cost_new = r_new @ r_new
        if cost_new < cost:
            rho = (cost - cost_new) / predicted
            lam, nu = lam * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
            done = done or cost - cost_new <= arcs.STOP_REL * cost
            u, r, J, cost = u + step, r_new, J_new, cost_new
        else:
            lam, nu = lam * nu, 2.0 * nu
        if done:
            break
    return u, r


# the flagship, the planted bench input at seed 0 and a degree-four map, with their bench start counts
@pytest.mark.parametrize("text, starts", [
    ("x + x^2*y", 32), ("1/4 + 2*((y + 1/2) + (y + 1/2)^2*(x - 1/3))", 8), ("x^2*y^2 + x", 8),
])
def test_the_loop_keeps_the_bits_of_its_reference(text, starts):
    system, stop = _LaurentSystem(parse(text, VARS2)), arcs.POLISH * ArcSearchConfig().tol   # the search's stop
    for u in np.random.default_rng(0).standard_normal((starts, system.num_unknowns)) * 0.5:
        r, J = system.evaluate(u)
        r_ref, J_ref = _appending_evaluate(system, u)
        assert r.tobytes() == r_ref.tobytes() and J.tobytes() == J_ref.tobytes()
        point, r = _levenberg_marquardt(system, stop, u)
        point_ref, r_ref = _norm_levenberg_marquardt(system, stop, u)
        assert point.tobytes() == point_ref.tobytes() and r.tobytes() == r_ref.tobytes()


# the same inputs at two seeds: a finished start is where its fully polishing
# run (stop 1e-30, the former absolute stop) first evaluates a point below
# POLISH * tol; that run accepts the point, since no cost before it was below
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("text, starts", [
    ("x + x^2*y", 32), ("1/4 + 2*((y + 1/2) + (y + 1/2)^2*(x - 1/3))", 8), ("x^2*y^2 + x", 8),
])
def test_a_finished_start_stops_where_full_polish_first_passes_its_stop(text, starts, seed, monkeypatch):
    f, cfg = parse(text, VARS2), ArcSearchConfig(seed=seed, starts=starts)
    runs = []   # (stop, the points evaluated with their costs, the returned point and residuals) per start

    def recording_levenberg_marquardt(system, stop, u):
        points = []

        class Recording:
            def evaluate(self, v):
                r, J = system.evaluate(v)
                points.append((v, r @ r))
                return r, J

        runs.append((stop, points, _levenberg_marquardt(Recording(), stop, u)))
        return runs[-1][-1]

    monkeypatch.setattr(arcs._cores, "_usable_cores", lambda: 1)   # the records stay in this process
    monkeypatch.setattr(arcs, "_levenberg_marquardt", recording_levenberg_marquardt)
    stop = arcs.POLISH * cfg.tol
    found = search_arcs(f, cfg)
    monkeypatch.setattr(arcs, "POLISH", 1e-30 / cfg.tol)
    reference = search_arcs(f, cfg)
    assert [run[0] for run in runs] == [stop] * starts + [1e-30] * starts
    runs, reference_runs = runs[:starts], runs[starts:]
    for (_, _, (point, _)), (_, points, (reference_point, _)) in zip(runs, reference_runs):
        first = next((v for v, cost in points if cost < stop), reference_point)
        assert point.tobytes() == first.tobytes()

    def accepted(runs):
        return {si for si, (_, _, (_, r)) in enumerate(runs) if float(np.sum(r ** 2)) < cfg.tol}

    assert accepted(runs) == accepted(reference_runs)
    assert [c.start_index for c in found] == [c.start_index for c in reference]
    for c, c_ref in zip(found, reference):
        assert abs(c.b0_estimate - c_ref.b0_estimate) <= 1e-6


def _assert_candidate_b0(f, cand, cfg, limit=None):
    """The candidate is accepted, its b0 is the exact t^0 coefficient of f
    along its own (float, hence rational) arc, and it lies within CLUSTER_TOL
    of the expected limit, when one is given."""
    assert cand.residual < cfg.tol
    xi = RationalArc(f.num_vars, {k: tuple(Fraction(v) for v in vec) for k, vec in cand.coeffs.items()})
    exact = float(compose_arc(f, xi).coefficient(0))
    assert cand.b0_estimate == pytest.approx(exact, rel=1e-6, abs=1e-6)
    if limit is not None:
        assert abs(cand.b0_estimate - float(limit)) <= CLUSTER_TOL


# ---------------------------------------------------------------------------
# The search's float rows against the exact system
# ---------------------------------------------------------------------------

ORACLE_MAPS = [
    ("x + x^2*y", VARS2),
    ("x^3 + 2*x^2*y - x*y^2 + 3*y^3 + x^2 - y^2 + x*y + x - 2*y + 1", VARS2),
    ("x + y^3", VARS2),       # df/dx is the constant 1
    ("x^3 + x", VARS2),       # df/dy is zero: no c:2 or d:2 rows
    ("x*y + z^2 + x*z - y", VARS3),
]


# Below the normal range a rounded product keeps no relative accuracy, only
# an absolute one of half a subnormal spacing: the error bound of a row is
# relative to its term bound plus this underflow floor.
UNDERFLOW = 2**10 * np.finfo(float).smallest_subnormal


def _absolute(P: Polynomial) -> Polynomial:
    return Polynomial(P.num_vars, {e: abs(c) for e, c in P.terms.items()})


@lru_cache(maxsize=None)
def _symbolic(text, names):
    """Labels, compiled rows and compiled b0 of the symbolic system, and the
    rows with absolute coefficients: at |u| these bound each entry's terms."""
    cs = _emitted(text, names)
    polys = [p for _, p in cs.equations] + [cs.sphere]
    return ([label for label, _ in cs.equations], CompiledPolynomials(polys),
            CompiledPolynomials([cs.b0]), CompiledPolynomials([_absolute(p) for p in polys]))


@pytest.mark.parametrize("text, names", ORACLE_MAPS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rows_match_the_symbolic_system(text, names, data):
    labels, rows, b0, bound = _symbolic(text, tuple(names))
    system = _LaurentSystem(parse(text, names))
    assert system.labels == labels
    N = system.num_unknowns
    u = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=N, max_size=N)))
    r, J = system.evaluate(u)
    assert r.shape == (len(labels) + 1,)
    assert J.shape == (len(labels) + 1, N)
    scale = bound.column_values(np.abs(u)[:, None])[:, 0]
    assert np.all(np.abs(r - rows.column_values(u[:, None])[:, 0]) <= 1e-12 * scale + UNDERFLOW)
    scale = bound.column_jacobians(np.abs(u)[:, None])[..., 0]
    assert np.all(np.abs(J - rows.column_jacobians(u[:, None])[..., 0]) <= 1e-12 * scale + UNDERFLOW)
    assert system.b0(u) == pytest.approx(b0.column_values(u[:, None])[0, 0], rel=1e-12, abs=1e-12)


def _row_polynomial(f: Polynomial, label: str):
    """P and m of the row [P(xi)]_m named by an `emit_constraints` label."""
    head, m = label.split("t^")
    kind, _, index = head.rstrip(":").partition(":")
    if kind == "b":
        return f, int(m)
    i, _, j = index.partition(",")
    g = f.partial(int(i) - 1)
    P = g if kind == "c" else Polynomial.variable(f.num_vars, int(j) - 1) * g
    return P, int(m)


@pytest.mark.parametrize("text, names", [("x + x^2*y + y^4", VARS2), ("x + x^2*y + z^2", VARS3)])
def test_rows_match_exact_composition(text, names):
    # dyadic coefficients keep every float operation exact, so the rows must
    # equal the exact Laurent coefficients, not merely approach them
    f = parse(text, names)
    n = f.num_vars
    system = _LaurentSystem(f)
    window = system.window
    ks = range(window.k_min, window.k_max + 1)
    rng = random.Random(11)
    xi = RationalArc(n, {k: tuple(Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3)) for _ in range(n))
                         for k in ks})
    u = np.array([float(xi.coeffs.get(k, (0,) * n)[j]) for k in ks for j in range(n)])
    r, J = system.evaluate(u)
    composed = {}

    def series(P):
        key = tuple(P.sorted_terms())
        if key not in composed:
            composed[key] = compose_arc(P, xi)
        return composed[key]

    for row, label in enumerate(system.labels):
        P, m = _row_polynomial(f, label)
        assert r[row] == float(series(P).coefficient(m)), label
        expected = [float(series(P.partial(l)).coefficient(m - k)) for k in ks for l in range(n)]
        assert J[row].tolist() == expected, label
