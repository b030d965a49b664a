"""Tests for the bounded arc space: windows, membership, constraints, search."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from milnorarc.arcs import unknown_name

VARS2 = ["x", "y"]

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


class TestTruncate:
    def test_drops_deep_tail_only(self):
        window = arc_window(2, 3)
        xi = RationalArc(
            2,
            {-9: (1, 0), -6: (Fraction(1, 3), 0), 1: (0, -1)},
            declared_window=(-9, 1),
        )
        cut = truncate(xi, window)
        assert cut.support() == [-6, 1]
        assert cut.coeffs[-6] == (Fraction(1, 3), Fraction(0))

    def test_idempotent(self):
        window = arc_window(2, 3)
        assert truncate(truncate(WITNESS, window), window).coeffs == WITNESS.coeffs


# ---------------------------------------------------------------------------
# Symbolic constraints
# ---------------------------------------------------------------------------


class TestConstraints:
    def test_unknown_names(self):
        assert unknown_name(3, 1) == "a_3_1"
        assert unknown_name(-2, 2) == "a_m2_2"

    def test_flagship_system_shape(self):
        cs = emit_constraints(F_FLAG)
        assert cs.num_unknowns == 20  # dims(2, 3) arc count
        assert cs.num_equations > 0
        labels = [label for label, _ in cs.equations]
        assert any(label.startswith("b:") for label in labels)
        assert any(label.startswith("c:") for label in labels)
        assert any(label.startswith("d:") for label in labels)

    def test_top_coefficient_equation(self):
        # the t^9 coefficient of f(xi) for f = x + x^2 y comes only from the
        # leading coefficients: a_3_1^2 * a_3_2
        cs = emit_constraints(F_FLAG)
        eq = dict(cs.equations)["b:t^9"]
        text = eq.to_text(cs.unknowns)
        assert text == "a_3_1^2*a_3_2"

    def test_consistency_with_compose_arc(self):
        # substituting a concrete arc's coefficients into each symbolic
        # equation (Polynomial-coefficient Laurent arithmetic) reproduces the
        # Laurent coefficient computed directly (Fraction coefficients)
        cs = emit_constraints(F_FLAG)
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
        cs = emit_constraints(parse("x + y^3", VARS2))
        eq = dict(cs.equations)["c:1:t^0"]
        assert eq == Polynomial.constant(cs.num_unknowns, 1)

    def test_export_text_parses_back(self):
        cs = emit_constraints(F_FLAG)
        lines = cs.export_text().strip().split("\n")
        assert len(lines) == cs.num_equations + 1  # sphere last
        for line in lines:
            parse(line, cs.unknowns)  # must not raise

    def test_sphere_uses_positive_block_only(self):
        cs = emit_constraints(F_FLAG)
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
        {"max_nfev": 0},
        {"dedupe_dist": -1.0},
        {"dedupe_dist": float("inf")},
    ])
    def test_config_rejects_bad_values(self, field):
        with pytest.raises(ValueError):
            ArcSearchConfig(**field)

    def test_candidate_serialization(self):
        found = search_arcs(F_FLAG, ArcSearchConfig(seed=0, starts=8))
        for c in found:
            d = c.to_dict()
            assert set(d) == {"coeffs", "b0_estimate", "residual", "start_index"}
