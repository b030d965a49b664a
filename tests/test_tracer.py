"""Tests for sphere slicing, branch tracing and limit estimation."""

import dataclasses
import functools
import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from milnorarc import (
    ArcSearchConfig,
    BranchTrace,
    DegenerateMilnorError,
    TraceConfig,
    default_pivot,
    estimate_limits,
    milnor_equations,
    parse,
    pick_generic_center,
    s_a_estimate,
    s_infinity_estimate,
    slice_solve,
    trace_branches,
)
from milnorarc import poly, tracer
from milnorarc.milnor import HalfAngleTable, rabier_nu
from milnorarc.poly import LaurentScalar, Polynomial
from milnorarc.tracer import Sample, _center_text, _dedupe, _newton_steps

from test_poly import _affine, _horner

VARS2 = ["x", "y"]
F_FLAG = parse("x + x^2*y", VARS2)
F_TANGENT = parse("y*(x^2*y^2 + 3*x*y + 3)", VARS2)


def _system(f, center):
    return milnor_equations([f], center, pivot=default_pivot(f))


def _half_angle_poly(eq, a, radius):
    """Reference for `HalfAngleTable`: the circle restriction at one radius,
    composed with that radius by Horner's scheme in LaurentScalar arithmetic."""
    Rq = Fraction(radius)
    a1, a2 = Fraction(a[0]), Fraction(a[1])
    D = int(eq.degree)
    homogenised = Polynomial(3, {(i, j, D - i - j): c for (i, j), c in eq.terms.items()})
    X = LaurentScalar({0: a1 + Rq, 2: a1 - Rq})
    Y = LaurentScalar({0: a2, 1: 2 * Rq, 2: a2})
    W = LaurentScalar({0: Fraction(1), 2: Fraction(1)})
    restriction = LaurentScalar() + _horner(homogenised, [X, Y, W])
    return [restriction.coefficient(k) for k in range(2 * D + 1)]


def _table_fractions(eq, center, radius):
    N, Q = HalfAngleTable(eq, center).at(radius)
    return [Fraction(c, Q) for c in N]


def _dedupe_loop(points, dist):
    """Reference for `tracer._dedupe`: one norm per point against the kept ones."""
    kept = []
    for i, x in enumerate(points):
        if np.all(np.linalg.norm(points[kept] - x, axis=1) > dist):
            kept.append(i)
    return kept


def _links_loop(old_dirs, dirs):
    """Reference for `tracer._links`: one full-matrix argmin per link, the
    linked row and column masked with inf, until the nearest pair left is
    farther than MATCH_TOL."""
    links = []
    if len(old_dirs) and len(dirs):
        dist = np.concatenate(list(tracer._distances(old_dirs, dirs)))
        while dist[k := np.unravel_index(np.argmin(dist), dist.shape)] <= tracer.MATCH_TOL:
            links.append((int(k[0]), int(k[1])))
            dist[k[0], :] = np.inf
            dist[:, k[1]] = np.inf
    return links


def _trace_loop(dir_sets):
    """Reference for `trace_branches`' linking over consecutive direction
    sets: each branch as its (set, row) list, and at each set the open
    branches in order, as their indices."""
    branches, open_branches, orders = [], [], []   # open: (branch index, last direction)
    for r, dirs in enumerate(dir_sets):
        orders.append([b for b, _ in open_branches])
        links = dict(_links_loop(np.array([d for _, d in open_branches]), dirs))
        for i, j in links.items():
            branches[open_branches[i][0]].append((r, j))
            open_branches[i] = (open_branches[i][0], dirs[j])
        open_branches = [ob for i, ob in enumerate(open_branches) if i in links]
        for j in range(len(dirs)):
            if j not in links.values():
                branches.append([(r, j)])
                open_branches.append((len(branches) - 1, dirs[j]))
    return branches, orders


@st.composite
def _direction_sets(draw, count):
    """n from 2 to 4 and `count` sets of up to 7 rows from a pool of at most 6
    nonzero rows on the grid of quarters in [-1/2, 1/2]^n: duplicate rows
    (exact ties), empty sets, and rows exactly MATCH_TOL apart."""
    n = draw(st.integers(2, 4))
    pool = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any), min_size=1, max_size=6))
    return n, [np.array(draw(st.lists(st.sampled_from(pool), max_size=7)), dtype=float).reshape(-1, n) / 4
               for _ in range(count)]


@functools.lru_cache(maxsize=None)
def _origin_system(n):
    """A Milnor system in n variables at the origin, for stubbed slices."""
    names = ["x", "y", "z", "w"][:n]
    return _system(parse(" + ".join(["x + x^2*y"] + [f"{v}^2" for v in names[2:]]), names), (0,) * n)


def _screen_loop(sys):
    """Reference for `tracer._screen_center`: one SVD per screened point."""
    if sys.has_zero_equation():
        return False, "identically zero pivot-chart equation"
    for R in (10.0, 40.0):
        try:
            points = tracer._slice(sys, R, 0, starts=tracer.SCREEN_STARTS)[0]
        except ValueError as exc:
            return False, f"slice solve failed at R={R}: {exc}"
        X = np.reshape(points[:16], (-1, sys.num_vars))
        gnorms = np.linalg.norm(sys.compiled_f.column_jacobians(X.T)[0].T, axis=1)
        for gnorm, Jm in zip(gnorms, sys.compiled.column_jacobians(X.T).transpose(2, 0, 1)):
            if gnorm < 1e-9 * (1.0 + R):
                continue
            sv = np.linalg.svd(Jm, compute_uv=False)
            if sv[-1] < 1e-8 * (sv[0] + 1.0):
                return False, f"rank-deficient Milnor Jacobian at R={R}"
    return True, "ok"


def _halving_newton(sys, a, radius, scales, seed, starts):
    """Reference for `tracer._slice_solve_newton`: every row is iterated
    NEWTON_ITERS times, unless all rows converge, and each step is halved in
    up to 6 sequential rounds while the scaled residual grows."""
    n = a.shape[0]
    rng = np.random.default_rng([seed, int(round(radius * 1024)) & 0x7FFFFFFF])
    U = rng.standard_normal((starts, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    X = a[None, :] + radius * U
    scales = np.append(scales, radius ** 2)

    def residuals(X, values=None):
        sphere = np.sum((X - a[None, :]) ** 2, axis=1) - radius ** 2
        values = sys.compiled.column_values(X.T).T if values is None else values
        return np.concatenate([values, sphere[:, None]], axis=1)

    for _ in range(tracer.NEWTON_ITERS):
        values, jacobians = sys.compiled.column_values_and_jacobians(X.T)
        values, jacobians = values.T, jacobians.transpose(2, 0, 1)   # (m, p) and (m, p, n)
        F = residuals(X, values)
        J = np.concatenate([jacobians, 2.0 * (X - a[None, :])[:, None, :]], axis=1)
        norm_before = np.linalg.norm(F / scales[None, :], axis=1)
        step = _newton_steps(J, F)
        alpha = np.ones(X.shape[0])
        Xn = X - step
        rows = np.arange(X.shape[0])
        for _ in range(6):
            norm_after = np.linalg.norm(residuals(Xn[rows]) / scales[None, :], axis=1)
            rows = rows[norm_after > norm_before[rows]]
            if rows.size == 0:
                break
            alpha[rows] *= 0.5
            Xn[rows] = X[rows] - alpha[rows, None] * step[rows]
        X = Xn
        if np.max(norm_before) < 1e-15:
            break
    sphere = np.abs(np.sum((X - a[None, :]) ** 2, axis=1) - radius ** 2)
    return X[sphere < tracer.SPHERE_TOL * radius ** 2]


class TestSliceSolve:
    def test_flagship_point_count(self):
        pts = slice_solve(_system(F_FLAG, (0, 0)), 10.0, TraceConfig())
        assert len(pts) == 6

    def test_points_satisfy_the_equation(self):
        sys = _system(F_FLAG, (0, 0))
        eq = sys.equations[0]
        for R in (10.0, 80.0):
            for x in slice_solve(sys, R, TraceConfig()):
                assert abs(np.linalg.norm(x) - R) < 1e-8 * R
                # compare against the scale of the polynomial on the sphere
                scale = sum(abs(float(c)) * (R + 1) ** sum(e) for e, c in eq.terms.items())
                assert abs(float(eq.evaluate(list(map(float, x))))) < 1e-8 * scale

    @pytest.mark.parametrize("text, center, count", [
        ("6*y^2 + x^5", (Fraction(-1, 43), Fraction(-4)), 6),
        ("-1/2*x^2 + x^3 - 3*x^3*y + 3*x^5", (Fraction(-50, 97), Fraction(-23, 20)), 8),
    ])
    def test_every_crossing_is_found_at_a_large_radius(self, text, center, count):
        # count = the real roots of odd multiplicity of the half-angle
        # polynomial at R = 1280, as sympy counts them; its coefficients
        # span many orders of magnitude
        pts = slice_solve(_system(parse(text, VARS2), center), 1280.0, TraceConfig())
        assert len(pts) == count

    def test_roots_on_a_bisection_point_and_at_infinity(self):
        # the equation is 4x^3 (y - a2): theta = 0 is the exact root tau = 0,
        # which the Sturm bisection hits; theta = pi is tau = infinity, where
        # the half-angle polynomial drops one degree; x = 0 crosses the
        # circle with multiplicity 3
        a1, a2 = Fraction(-15, 29), Fraction(-26, 33)
        pts = slice_solve(_system(parse("x^4", VARS2), (a1, a2)), 10.0, TraceConfig())
        a1, a2 = float(a1), float(a2)
        h = math.sqrt(100.0 - a1 * a1)
        expected = [(a1 + 10.0, a2), (0.0, a2 + h), (a1 - 10.0, a2), (0.0, a2 - h)]
        assert np.allclose(pts, expected, rtol=0.0, atol=1e-12)

    def test_near_tangent_pair_is_split(self):
        # for this map with center (0, 1) two extra intersection points sit a
        # few 1e-4 radians apart at R = 10, far below any practical grid step
        pts0 = slice_solve(_system(F_TANGENT, (0, 0)), 10.0, TraceConfig())
        pts1 = slice_solve(_system(F_TANGENT, (0, 1)), 10.0, TraceConfig())
        assert len(pts0) == 6
        assert len(pts1) == 8

    def test_one_sided_tangency_is_not_reported(self):
        # center (0, 0): the same angular region has a local minimum of the
        # equation that does not cross zero; it must not produce fake roots
        pts = slice_solve(_system(F_TANGENT, (0, 0)), 40.0, TraceConfig())
        assert len(pts) == 6

    def test_degenerate_system_raises(self):
        # radial map, centered at the origin: the single equation vanishes
        sys = _system(parse("x^2 + y^2", VARS2), (0, 0))
        with pytest.raises(DegenerateMilnorError):
            slice_solve(sys, 10.0, TraceConfig())

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            slice_solve(_system(F_FLAG, (0, 0)), -1.0, TraceConfig())

    @pytest.mark.parametrize("center, radius", [
        ((0, 0), 1e-160),              # radius^2 is subnormal
        ((0, 0), 1e-320),              # the radius itself is subnormal
        ((1, 2), 1e-300),              # every circle point rounds to the center
        ((1, 2), 1e-16),               # below sqrt(2) eps ||a||
        ((1, 2, -1), 1e-300),
    ])
    def test_rejects_a_radius_too_small_for_floats(self, center, radius):
        f = F_FLAG if len(center) == 2 else parse("x + x^2*y + z^2", "xyz")
        with pytest.raises(ValueError, match=f"^radius {radius:g} is too small for floating point$"):
            slice_solve(_system(f, center), radius, TraceConfig())

    def test_root_past_the_float_range_is_the_angle_pi(self):
        assert tracer._angle(Fraction(10 ** 400)) == math.pi
        assert tracer._angle(Fraction(-10 ** 400, 3)) == math.pi
        assert tracer._angle(Fraction(-1)) == 1.5 * math.pi

    def test_three_variables_exact_oracle(self):
        # every returned point is checked in exact arithmetic at its float
        # coordinates: its scaled residual is the one the float kernel
        # reported, to 1e-15, and it lies in the sphere window
        cases = [("x - 3*x^3*y^2 + 2*x^4*y^3 + y*z", (0, 0, 0)), ("x + x^2*y + z^2", (1, 2, -1))]
        for (text, center), R in itertools.product(cases, TraceConfig().radii()):
            sys = _system(parse(text, ["x", "y", "z"]), center)
            pts, residuals = tracer._slice(sys, R, 0)
            assert len(pts)
            bound = Fraction(float(np.linalg.norm(np.array(center, dtype=float))) + R + 1.0)
            scales = [sum(abs(c) * bound ** sum(e) for e, c in eq.terms.items()) + 1 for eq in sys.equations]
            for x, reported in zip(pts, residuals):
                xq = [Fraction(v) for v in x]
                exact = max(abs(eq.evaluate(xq)) / scale for eq, scale in zip(sys.equations, scales))
                assert reported < tracer.RESIDUAL_TOL
                assert abs(exact - Fraction(reported)) < Fraction(1e-15)
                sphere = sum((v - Fraction(c)) ** 2 for v, c in zip(xq, center)) - Fraction(R) ** 2
                assert abs(sphere) < Fraction(tracer.SPHERE_TOL) * Fraction(R) ** 2

    @pytest.mark.parametrize("R", [10, 80])
    def test_three_variables_revalidation_drops_the_chart_only_points(self, R):
        # the pivot-0 chart also vanishes on {f_x = 0, x = a_x}, which is not
        # in the Milnor set; every returned point must satisfy all three
        # minors, checked exactly at its float coordinates
        f = parse("x^2 + y^2 - z^2 + x + y*z", ["x", "y", "z"])
        center = (Fraction(-1, 2), Fraction(1, 3), Fraction(2, 5))
        sys = milnor_equations([f], center, pivot=0)
        pts = slice_solve(sys, float(R), TraceConfig())
        assert len(pts) == 2
        bound = Fraction(float(np.linalg.norm([float(c) for c in center])) + R + 1)
        for x in pts:
            xq = [Fraction(v) for v in x]
            for eq in sys.minors:
                scale = sum(abs(c) * bound ** sum(e) for e, c in eq.terms.items()) + 1
                assert abs(eq.evaluate(xq)) / scale < tracer.RESIDUAL_TOL

    def test_two_variables_never_revalidate(self):
        sys = _system(F_FLAG, (Fraction(1, 3), Fraction(-2, 7)))
        for R in TraceConfig().radii():
            slice_solve(sys, R, TraceConfig())
        assert "compiled_revalidation" not in vars(sys)

    def test_two_variables_keep_every_certified_crossing(self, monkeypatch):
        # distinct certified crossings are neither merged nor residual-tested, however close
        crossings = [np.array([10.0, 0.0]), np.array([10.0, 1e-12])]
        monkeypatch.setattr(tracer, "_slice_solve_circle", lambda *args: crossings)
        monkeypatch.setattr(tracer, "_dedupe", None)
        monkeypatch.setattr(tracer, "RESIDUAL_TOL", 1e-300)
        points, residuals = tracer._slice(_system(F_FLAG, (0, 0)), 10.0, 0)
        assert points.tolist() == [x.tolist() for x in crossings]
        assert residuals.shape == (2,) and np.all(residuals > 1e-300)

    @pytest.mark.parametrize("text, pivot", [("x + x^2*y", 0), ("x + y^3", 1)])
    def test_two_variable_chart_slice_is_the_minors_slice(self, text, pivot):
        # for n = 2 the chart's one equation is +-the one minor, so its slice is the minor's
        f = parse(text, VARS2)
        center = (Fraction(1, 3), Fraction(-2, 7))
        assert default_pivot(f) == pivot
        chart = _system(f, center)
        assert len(chart.minors) == 1
        assert chart.equations[0] == (chart.minors[0] if pivot == 0 else -chart.minors[0])

    def test_dedupe_keeps_first_seen_order(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.5], [3.0, 0.25]])
        kept = _dedupe(pts, 1.0)
        # (0.5, 0) and (3, 0.25) are within 1 of a kept point; (1, 0) is at
        # distance exactly 1 and only points farther than that are kept
        assert [tuple(x) for x in pts[kept]] == [(0.0, 0.0), (3.0, 0.0), (0.0, 1.5)]
        assert _dedupe(np.zeros((0, 3)), 1.0) == []

    @given(st.integers(2, 4).flatmap(lambda n: st.lists(
               st.lists(st.integers(-2, 2).map(float) | st.floats(-3, 3) | st.just(math.nan), min_size=n, max_size=n),
               max_size=40)),
           st.sampled_from([1.0, 2.0, math.sqrt(2.0), 0.5, 1e-9]))
    @example([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0]], 1.0)
    @example([[0.1, 0.2, 0.3]] * 5 + [[1.1, 0.2, 0.3]], 1.0)
    @example([[math.nan, 0.0], [0.0, 0.0]], 1.0)
    @settings(max_examples=120, deadline=None)
    def test_dedupe_matches_the_point_by_point_loop(self, rows, dist):
        # exact duplicates, grid points exactly `dist` apart, and nan points,
        # which are never farther than `dist`
        points = np.array(rows, dtype=float).reshape(len(rows), -1 if rows else 2)
        assert _dedupe(points, dist) == _dedupe_loop(points, dist)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.lists(
               st.lists(st.floats(-3, 3), min_size=n, max_size=n), min_size=1, max_size=12)] * 2)),
           st.sampled_from([1, 7, 1 << 15]))
    @settings(max_examples=60, deadline=None)
    def test_distance_blocks_are_the_norms(self, pair, cells):
        # blocks of every size down to one row
        A, B = (np.array(rows, dtype=float) for rows in pair)
        old = tracer.DISTANCE_CELLS
        tracer.DISTANCE_CELLS = cells
        try:
            got = np.concatenate(list(tracer._distances(A, B)))
        finally:
            tracer.DISTANCE_CELLS = old
        assert got.tobytes() == np.array([np.linalg.norm(a - B, axis=1) for a in A]).tobytes()

    @pytest.mark.parametrize("text, seeds", [("x + x^2*y", range(6)), ("y + 2*x*y^2 - x^3", range(4)),
                                             ("x^2*y^2 + x - y^3", range(4))])
    def test_stacked_svd_screen_matches_the_loop(self, text, seeds):
        f = parse(text, VARS2)
        rng = np.random.default_rng(len(text))
        for seed in seeds:
            center = tuple(Fraction(int(v), int(d)) for v, d in zip(rng.integers(-100, 100, 2), rng.integers(1, 100, 2)))
            assert tracer._screen_center(_system(f, center)) == _screen_loop(_system(f, center))

    def test_zero_pivot_chart_equation_fails_the_screen(self):
        # the gradient of x^2 + y^2 is parallel to x - a everywhere about the origin
        screen = tracer._screen_center(_system(parse("x^2 + y^2", VARS2), (0, 0)))
        assert screen == (False, "identically zero pivot-chart equation")

    @pytest.mark.parametrize("text, center, ok", [("x*y*z", (0, 0, 0), False), ("x*y*z", (1, 2, -1), True),
                                                  ("x + x^2*y + z^2", (1, 2, -1), True)])
    def test_stacked_svd_screen_matches_the_loop_for_n3(self, text, center, ok):
        # x*y*z about the origin has rank-deficient Milnor Jacobians at R = 10
        f = parse(text, ["x", "y", "z"])
        screen = tracer._screen_center(_system(f, center))
        assert screen == _screen_loop(_system(f, center))
        assert screen[0] is ok

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singular_row_leaves_other_newton_steps_alone(self, n):
        rng = np.random.default_rng(n)
        J = rng.standard_normal((7, n, n))
        F = rng.standard_normal((7, n))
        J[4, -1] = 2.0 * J[4, 0]  # an exactly singular Jacobian
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(J[4], F[4])
        others = [0, 1, 2, 3, 5, 6]
        batched = np.linalg.solve(J[others], F[others][..., None])[..., 0]
        steps = _newton_steps(J, F)
        assert steps[others].tobytes() == batched.tobytes()
        assert steps[4].tobytes() == np.linalg.lstsq(J[4], F[4], rcond=None)[0].tobytes()
        assert _newton_steps(J[others], F[others]).tobytes() == batched.tobytes()

    @pytest.mark.parametrize("caller, starts", [
        (lambda sys: slice_solve(sys, 10.0), tracer.NEWTON_STARTS),
        (lambda sys: trace_branches(sys.f, sys), tracer.NEWTON_STARTS),
        (tracer._screen_center, tracer.SCREEN_STARTS),
    ], ids=["slice_solve", "trace_branches", "screen"])
    def test_start_counts_are_the_module_constants(self, monkeypatch, caller, starts):
        drawn = []
        solve = tracer._slice_solve_newton
        monkeypatch.setattr(tracer, "_slice_solve_newton", lambda *args: drawn.append(args[-1]) or solve(*args))
        monkeypatch.setattr(tracer._cores, "map_on_cores", lambda fn, items: [fn(x) for x in items])
        caller(_system(parse("x + x^2*y + z^2", ["x", "y", "z"]), (1, 2, -1)))
        assert drawn and set(drawn) == {starts}

    @pytest.mark.parametrize("text, center, radii, first_start, stops_early", [
        ("x - 3*x^3*y^2 + 2*x^4*y^3 + y*z", (0, 0, 0), (10.0, 1280.0), None, False),
        ("x + x^2*y + z^2", (1, 2, -1), (3.5, 80.0), None, False),
        ("x + x^2*y + z^2 + w^2", (1, 2, -1, 1), (40.0,), None, False),
        # pivot 0 gives (1 + 2xy) y - x^3 and z (1 + 2xy - 2x), whose second
        # gradient vanishes at (1/2, 0, 0): a first start there, at radius 1/2
        # along the x axis, has a singular Jacobian
        ("x + x^2*y + z^2", (0, 0, 0), (0.5,), (1.0, 0.0, 0.0), False),
        # every start converges, so the reference loop stops early
        ("x^2 + y^2 - z^2 + x", (0, 0, 0), (10.0,), None, True),
    ], ids=["criterion10", "flagship3", "four-variables", "singular-row", "all-converge"])
    def test_newton_matches_the_halving_loop(self, monkeypatch, text, center, radii, first_start, stops_early):
        sys = _system(parse(text, "xyzw"[:len(center)]), center)
        if first_start is not None:
            assert not sys.compiled.column_jacobians(0.5 * np.array([first_start]).T)[1, :, 0].any()
            draw = np.random.default_rng

            def default_rng(seed):
                rng = draw(seed)

                def standard_normal(shape):
                    U = rng.standard_normal(shape)
                    U[0] = first_start
                    return U
                return types.SimpleNamespace(standard_normal=standard_normal)
            monkeypatch.setattr(np.random, "default_rng", default_rng)
        iterates = []
        evaluate = sys.compiled.column_values_and_jacobians
        monkeypatch.setattr(sys.compiled, "column_values_and_jacobians", lambda X: iterates.append(1) or evaluate(X))
        for seed in (0, 3):
            for R in radii:
                out = []
                for solve in (tracer._slice_solve_newton, _halving_newton):
                    rows, before = [], len(iterates)
                    with monkeypatch.context() as m:
                        m.setattr(tracer, "_slice_solve_newton", lambda *args: rows.append(solve(*args)) or rows[0])
                        points = slice_solve(sys, R, TraceConfig(seed=seed))
                    out.append((rows[0].tobytes(), np.array(points).tobytes()))
                assert out[0] == out[1]
                # the reference ran last; only its early break stops it short
                assert (len(iterates) - before < tracer.NEWTON_ITERS) == stops_early

    def test_center_text_shortens_long_entries(self):
        center = (Fraction(1, 3), Fraction(10 ** 19), Fraction(10 ** 20), Fraction(-10 ** 400),
                  Fraction(1, 10 ** 200), Fraction(-123456789 * 10 ** 300), Fraction(0))
        assert _center_text(center) == "(1/3, 10000000000000000000, 1e+20, -1e+400, 1e-200, -1.23457e+308, 0)"

    def test_three_variables_best_effort(self):
        f = parse("x^2 + y^2 - z^2 + x", ["x", "y", "z"])
        sys = _system(f, (Fraction(1, 3), Fraction(-1, 7), Fraction(1, 2)))
        pts = tracer._slice(sys, 10.0, 0, starts=128)[0]
        for x in pts:
            center = np.array([1 / 3, -1 / 7, 1 / 2])
            assert abs(np.linalg.norm(x - center) - 10.0) < 1e-6


class TestHalfAngle:
    @pytest.mark.parametrize("text", [
        "y + 2*x*y^2 - x^3",
        "x^4 - 3*x*y^2 + 5*y - 7/2",
        "x - 2*y + 1",
    ])
    @pytest.mark.parametrize("center", [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(-2, 7)),
        (Fraction(100), Fraction(-77, 64)),
    ])
    def test_exact_restriction_to_the_circle(self, text, center):
        eq = parse(text, VARS2)
        D = int(eq.degree)
        a1, a2 = center
        for radius in (10.0, 1280.0, 0.375):
            coeffs = _table_fractions(eq, center, radius)
            assert len(coeffs) == 2 * D + 1
            assert all(isinstance(c, Fraction) for c in coeffs)
            R = Fraction(radius)
            for tau in (Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(7, 5)):
                w = 1 + tau * tau
                point = [a1 + R * (1 - tau * tau) / w, a2 + 2 * R * tau / w]
                assert sum(c * tau ** k for k, c in enumerate(coeffs)) == w ** D * eq.evaluate(point)


    @given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           st.fractions(max_denominator=10 ** 6) | st.integers(-10 ** 30, 10 ** 30),
                           min_size=1, max_size=7),
           st.tuples(*[st.fractions(max_denominator=10 ** 15) | st.integers(-10 ** 20, 10 ** 20)] * 2),
           st.floats(1e-3, 1e150))
    @example({(1, 0): 1, (2, 1): 1}, (Fraction(0), Fraction(0)), 10.0)
    @example({(3, 0): Fraction(-1, 7), (0, 2): 3}, (Fraction(10 ** 15 - 1, 10 ** 15), Fraction(-77, 64)), 1e150)
    @example({(0, 0): 5}, (Fraction(1, 3), Fraction(1, 9)), 1e-3)
    @example({(2, 1): Fraction(-3, 7), (0, 3): 1, (1, 0): 2},   # a center of height above 2^100
             (Fraction(2 ** 101 + 1, 3), Fraction(-(2 ** 103 + 5), 2 ** 100 + 7)), 0.375)
    @settings(max_examples=60, deadline=None)
    def test_table_matches_the_composition_at_each_radius(self, terms, center, radius):
        # one table per center, against Horner's scheme at each dyadic radius
        eq = Polynomial(2, terms)
        if eq.is_zero():
            return
        coeffs = _half_angle_poly(eq, center, radius)
        assert _table_fractions(eq, center, radius) == coeffs
        # and the integers the circle slicer hands to real_roots are the ones
        # real_roots clears these coefficients to
        N, Q = HalfAngleTable(eq, center).at(radius)
        den = math.lcm(*(c.denominator for c in coeffs))
        assert [c // math.gcd(Q, *N) for c in N] == [int(c * den) for c in coeffs]


class TestCertifiedCircles:
    """The circle slices take `real_roots`' certified path; a slower fall-back
    to Sturm bisection shows here, not only in the bench."""

    @staticmethod
    def _samples(f, center):
        return [[(s.radius, s.point, s.f_value) for s in t.samples]
                for t in trace_branches(f, _system(f, center), TraceConfig())]

    @staticmethod
    def _bisection_only(monkeypatch):
        monkeypatch.setattr(poly, "_certified_roots", lambda *args: None)

    def test_flagship_circles_are_certified(self, monkeypatch):
        center = pick_generic_center(F_FLAG, 0)

        def refuse(*args):
            raise AssertionError("a circle fell back to Sturm bisection")

        with monkeypatch.context() as patch:
            patch.setattr(poly, "_sturm_count", refuse)
            certified = self._samples(F_FLAG, center)   # R = 10 ... 1280
        self._bisection_only(monkeypatch)
        assert certified == self._samples(F_FLAG, center)

    def test_tangent_example_falls_back_to_the_same_samples(self, monkeypatch):
        # at (0, 1) the R = 1280 circle has two crossings 2e-8 apart
        # (relative); their float seeds are off by 1e-9, so no seed cell
        # holds one crossing alone
        counts = []
        sturm_count = poly._sturm_count
        with monkeypatch.context() as patch:
            patch.setattr(poly, "_sturm_count", lambda *args: counts.append(1) or sturm_count(*args))
            mixed = self._samples(F_TANGENT, (Fraction(0), Fraction(1)))
        assert counts
        self._bisection_only(monkeypatch)
        assert mixed == self._samples(F_TANGENT, (Fraction(0), Fraction(1)))


class TestTraceBranches:
    def test_flagship_branches(self):
        cfg = TraceConfig()
        traces = trace_branches(F_FLAG, (0, 0), cfg)
        assert len(traces) == 6
        for t in traces:
            assert len(t.samples) == cfg.radius_count
            radii = [s.radius for s in t.samples]
            assert radii == cfg.radii()

    def test_branch_directions_are_stable(self):
        traces = trace_branches(F_FLAG, (0, 0), TraceConfig())
        for t in traces:
            dirs = [np.array(s.point) / np.linalg.norm(s.point) for s in t.samples]
            for d1, d2 in zip(dirs, dirs[1:]):
                assert np.linalg.norm(d1 - d2) < 0.5

    def test_f_values_are_exact_at_the_sample_points(self):
        for t in trace_branches(F_FLAG, (0, 0), TraceConfig()):
            for s in t.samples:
                assert s.f_value == float(F_FLAG.evaluate([Fraction(v) for v in s.point]))

    @pytest.mark.parametrize("text, center", [("x + x^2*y", (0, 0)), ("y*(x^2*y^2 + 3*x*y + 3)", (0, 1)),
                                              ("x + x^2*y + z^2", (1, 2, -1))])
    def test_samples_match_the_per_point_formulas(self, text, center):
        # the batched sample floats against one evaluation per point
        f = parse(text, VARS2 if len(center) == 2 else ["x", "y", "z"])
        sys = _system(f, center)
        cfg = TraceConfig()
        bound = float(np.linalg.norm(np.array(center, dtype=float))) + 1.0
        samples = [s for t in trace_branches(f, sys, cfg) for s in t.samples]
        assert samples
        for s in samples:
            x = np.array(s.point)
            g = sys.compiled_f.column_jacobians(x[:, None])[:, :, 0]
            scaled = np.abs(sys.compiled.column_values(x[:, None])[:, 0]) / sys.compiled.scales(bound + s.radius)
            assert s.f_value == float(f.evaluate(x))
            assert s.malgrange == float(np.linalg.norm(x)) * rabier_nu(g)
            assert s.residual == float(scaled.max())

    @given(_direction_sets(2))
    @example((2, [np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5]])]))
    @example((3, [np.zeros((0, 3)), np.eye(3) / 4]))
    @settings(max_examples=150, deadline=None)
    def test_links_match_the_masked_argmin_loop(self, case):
        _, (old_dirs, dirs) = case
        assert list(tracer._links(old_dirs, dirs).items()) == _links_loop(old_dirs, dirs)

    @given(_direction_sets(4))
    @example((2, [np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 0.0]] * 3), np.array([[1.0, 0.0]] * 2),
                  np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])]))
    @settings(max_examples=60, deadline=None)
    def test_branches_and_open_order_match_the_masked_argmin_loop(self, case):
        # every set's rows are the slice points at one radius around the
        # origin, so the directions are the rows normalized; `_links` sees the
        # open branches' last directions in their order
        n, dir_sets = case
        sys = _origin_system(n)
        cfg = TraceConfig(radius_count=len(dir_sets))
        points = dict(zip(cfg.radii(), dir_sets))
        seen, real_links = [], tracer._links

        def links(old_dirs, dirs):
            seen.append(old_dirs)
            return real_links(old_dirs, dirs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracer, "_slice", lambda sys, R, seed: (points[R], np.zeros(len(points[R]))))
            mp.setattr(tracer._cores, "map_on_cores", lambda fn, items: [fn(x) for x in items])
            mp.setattr(tracer, "_make_samples", lambda sys, X, residuals, R: [
                Sample(R, tuple(x), float(j), 0.0, 0.0) for j, x in enumerate(X)])
            mp.setattr(tracer, "_links", links)
            traces = trace_branches(sys.f, sys, cfg)
        normalized = [X / np.linalg.norm(X, axis=1, keepdims=True) for X in dir_sets]
        branches, orders = _trace_loop(normalized)
        radius_index = {R: r for r, R in enumerate(cfg.radii())}
        assert [t.branch_id for t in traces] == list(range(len(branches)))
        assert [[(radius_index[s.radius], int(s.f_value)) for s in t.samples] for t in traces] == branches
        for r, order in enumerate(orders):
            last = [next(j for q, j in reversed(branches[b]) if q < r) for b in order]
            expected = np.array([normalized[r - 1][j] for j in last]) if r else np.array([])
            assert np.array_equal(seen[r], expected.reshape(seen[r].shape))

    def test_requires_enough_radii(self):
        # the schedule is the config's, so the config refuses a short or
        # non-increasing one
        with pytest.raises(ValueError):
            TraceConfig(radius_count=3)
        with pytest.raises(ValueError):
            TraceConfig(radius_factor=0.5)

    def test_requires_a_non_negative_seed(self):
        # numpy's generators refuse a negative seed deep inside an n >= 3 slice
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            TraceConfig(seed=-1)

    def test_degenerate_center(self):
        with pytest.raises(DegenerateMilnorError):
            trace_branches(parse("x^2 + y^2", VARS2), (0, 0), TraceConfig())


SWAP = ([[0, 1], [1, 0]], (0, 0))
ROTATION = ([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]], (Fraction(1, 2), Fraction(-1, 3)))


@pytest.mark.parametrize("isometry", [SWAP, ROTATION], ids=["swap", "rotation-and-shift"])
@pytest.mark.parametrize("f, center", [(F_FLAG, (Fraction(1, 3), Fraction(2, 7))),
                                       (F_FLAG, (Fraction(-5, 11), Fraction(3, 4))),
                                       (F_TANGENT, (0, 1)), (F_TANGENT, (0, 0))],
                         ids=["flagship-(1/3,2/7)", "flagship-(-5/11,3/4)", "tangent-(0,1)", "tangent-(0,0)"])
def test_n2_report_under_an_isometry(f, center, isometry):
    # u -> M u + s, M orthogonal, maps the circles around M^T (a - s) onto
    # those around a, and f(M u + s) takes f's values on them
    M, s = isometry
    moved = tuple(sum(M[k][l] * (center[k] - s[k]) for k in range(2)) for l in range(2))
    before, after = s_a_estimate(f, center), s_a_estimate(_affine(f, M, s), moved)
    assert after.status == before.status
    assert sorted(t.status for t in after.traces) == sorted(t.status for t in before.traces)
    assert len(after.limit_values) == len(before.limit_values)
    for lv_after, lv_before in zip(after.limit_values, before.limit_values):
        assert abs(lv_after.value - lv_before.value) <= max(lv_after.uncertainty, lv_before.uncertainty)


def _synthetic_trace(branch_id, radii, values):
    t = BranchTrace(branch_id=branch_id)
    for R, v in zip(radii, values):
        t.samples.append(Sample(radius=R, point=(R, 0.0), f_value=v,
                                malgrange=0.0, residual=0.0))
    return t


class TestEstimateLimits:
    RADII = [10.0 * 2 ** k for k in range(8)]

    def test_convergent_power_decay(self):
        values = [2.0 + 1.0 / R for R in self.RADII]
        traces = [_synthetic_trace(0, self.RADII, values)]
        clusters, divergent = estimate_limits(traces, TraceConfig())
        assert divergent == 0
        assert traces[0].status == "convergent"
        assert len(clusters) == 1
        assert clusters[0].value == pytest.approx(2.0, abs=1e-6)

    def test_divergent(self):
        values = [R ** 2 for R in self.RADII]
        traces = [_synthetic_trace(0, self.RADII, values)]
        clusters, divergent = estimate_limits(traces, TraceConfig())
        assert divergent == 1
        assert clusters == []

    def test_lost_short_branch(self):
        values = [1.0 / R for R in self.RADII[:3]]
        traces = [_synthetic_trace(0, self.RADII[:3], values),
                  _synthetic_trace(1, self.RADII, [5.0 + 1.0 / R for R in self.RADII])]
        clusters, _ = estimate_limits(traces, TraceConfig())
        assert traces[0].status == "lost"
        assert traces[1].status == "convergent"
        assert len(clusters) == 1

    def test_clustering_merges_close_estimates(self):
        a = _synthetic_trace(0, self.RADII, [1.0 + 1.0 / R for R in self.RADII])
        b = _synthetic_trace(1, self.RADII, [1.0 - 1.0 / R for R in self.RADII])
        c = _synthetic_trace(2, self.RADII, [4.0 + 1.0 / R for R in self.RADII])
        clusters, _ = estimate_limits([a, b, c], TraceConfig())
        assert len(clusters) == 2
        assert sorted(len(c.branch_ids) for c in clusters) == [1, 2]

    def test_constant_branch(self):
        traces = [_synthetic_trace(0, self.RADII, [7.0] * len(self.RADII))]
        clusters, _ = estimate_limits(traces, TraceConfig())
        assert traces[0].status == "convergent"
        assert clusters[0].value == pytest.approx(7.0, abs=1e-9)

    def test_empty_input(self):
        assert estimate_limits([], TraceConfig()) == ([], 0)

    @pytest.mark.parametrize("values", [
        [3.0 + R ** -0.1 for R in RADII],            # decay rate 0.1 <= ALPHA_MIN
        [5.0 + 100.0 * R ** -0.5 for R in RADII],    # last value 2.8 from the limit
    ], ids=["slow-decay", "far-from-the-limit"])
    def test_fit_that_fails_a_convergence_test_is_lost(self, values):
        trace = _synthetic_trace(0, self.RADII, values)
        assert tracer._classify(trace, self.RADII[-1], 2.0) is None
        assert trace.status == "lost"


class TestReports:
    def test_flagship_single_center(self):
        report = s_a_estimate(F_FLAG, (0, 0), TraceConfig())
        assert report.status == "ok"
        assert report.certified is True
        assert len(report.limit_values) == 1
        assert report.limit_values[0].value == pytest.approx(0.0, abs=1e-3)
        assert report.divergent_count == 4
        assert report.bound_cap == 2
        assert report.bound_respected
        assert report.malgrange_monitor
        assert all(report.malgrange_monitor.values())

    def test_malgrange_decay_on_convergent_branches(self):
        report = s_a_estimate(F_FLAG, (0, 0), TraceConfig())
        for t in report.traces:
            if t.status != "convergent":
                continue
            assert t.samples[-1].malgrange < 0.1 * t.samples[0].malgrange

    def test_trivial_degree(self):
        report = s_a_estimate(parse("x + y", VARS2), (0, 0), TraceConfig())
        assert report.status == "trivial-degree"
        assert report.limit_values == []

    def test_degenerate_center_reported_not_raised(self):
        report = s_a_estimate(parse("x^2 + y^2", VARS2), (0, 0), TraceConfig())
        assert report.status == "degenerate"
        assert "zero" in report.note

    def test_determinism(self):
        cfg = TraceConfig(seed=5)
        a = s_a_estimate(F_FLAG, (0, 0), cfg).to_dict()
        b = s_a_estimate(F_FLAG, (0, 0), cfg).to_dict()
        assert a == b

    def test_s_infinity_intersects(self):
        cfg = TraceConfig()
        centers = [(0, 0), (Fraction(1, 3), Fraction(-2, 7))]
        report = s_infinity_estimate(F_FLAG, centers, cfg)
        assert len(report.per_center) == 2
        assert len(report.intersection) == 1
        assert report.intersection[0].value == pytest.approx(0.0, abs=1e-3)

    def test_s_infinity_needs_two_centers(self):
        with pytest.raises(ValueError):
            s_infinity_estimate(F_FLAG, [(0, 0)], TraceConfig())

    def test_s_infinity_drops_a_value_one_center_lacks(self, monkeypatch):
        values = {(0, 0): [0.0, 1.0, 5.0], (1, 0): [2e-4, 5.0], (2, 0): [-2e-4, 1.0, 5.0]}

        def s_a_estimate(f, center, config):
            limits = [tracer.LimitValue(v, (1e-5, 2e-5, 3e-5)[i], [i]) for i, v in enumerate(values[center])]
            return tracer.AnalysisReport(center=center, status="ok", certified=True, bound_cap=2, seed=0,
                                         radii=[], config={}, limit_values=limits)

        monkeypatch.setattr(tracer, "s_a_estimate", s_a_estimate)
        report = s_infinity_estimate(F_FLAG, list(values), TraceConfig())
        # 1.0 is missing at (1, 0); 0 matches within cluster_tol at every center
        assert [(lv.value, lv.uncertainty, lv.branch_ids) for lv in report.intersection] == [
            (pytest.approx(0.0, abs=1e-18), 1e-5, [0]), (5.0, 3e-5, [1, 2])]

    def test_a_system_of_another_polynomial_is_refused(self):
        sys = _system(F_FLAG, (0, 0))
        g = parse("x + x^2*y + y", VARS2)
        for call in (trace_branches, s_a_estimate, lambda f, c: s_infinity_estimate(f, [c, c])):
            with pytest.raises(ValueError, match="another polynomial"):
                call(g, sys)
        # an equal polynomial is the same f
        assert len(trace_branches(parse("x + x^2*y", VARS2), sys)) == len(trace_branches(F_FLAG, sys))

    def test_the_default_system_traces_as_the_explicit_pivot_chart(self):
        f = parse("x + x^2*y + z^2", ["x", "y", "z"])
        report = s_a_estimate(f, milnor_equations([f], (1, 2, -1))).to_dict()
        assert report == s_a_estimate(f, milnor_equations([f], (1, 2, -1), pivot=default_pivot(f))).to_dict()
        assert [b["samples"] for b in report["branches"]] == [8] * 8

    def test_s_infinity_excludes_degenerate_centers(self):
        f = parse("x^2 + y^2", VARS2)
        report = s_infinity_estimate(f, [(0, 0), (1, 0)], TraceConfig())
        assert "excluded" in report.note


@pytest.mark.parametrize("config", [TraceConfig(), ArcSearchConfig()])
def test_config_to_dict_lists_every_field(config):
    assert set(config.to_dict()) == {f.name for f in dataclasses.fields(config)}


def test_trace_config_holds_only_the_seed_and_the_radius_schedule():
    # the tolerances and the multistart size are module constants
    assert [f.name for f in dataclasses.fields(TraceConfig)] == ["seed", "r0", "radius_factor", "radius_count"]
