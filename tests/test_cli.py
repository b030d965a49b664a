"""Tests for the command-line interface: output formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from milnorarc import tracer
from milnorarc.cli import main, parse_arc_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArcSpecParsing:
    def test_basic(self):
        xi = parse_arc_spec("x: 1/2 t^-1; y: -1 t^1", ["x", "y"])
        assert xi.coeffs == {
            -1: (Fraction(1, 2), Fraction(0)),
            1: (Fraction(0), Fraction(-1)),
        }

    def test_bare_t_and_constants(self):
        xi = parse_arc_spec("x: t; y: 3", ["x", "y"])
        assert xi.coeffs == {1: (Fraction(1), Fraction(0)), 0: (Fraction(0), Fraction(3))}

    def test_multiple_terms_per_component(self):
        xi = parse_arc_spec("x: 2 t^2 - 1/3 t^-1", ["x", "y"])
        assert xi.coeffs[2] == (Fraction(2), Fraction(0))
        assert xi.coeffs[-1] == (Fraction(-1, 3), Fraction(0))

    def test_unknown_variable(self):
        from milnorarc.cli import UserError

        with pytest.raises(UserError):
            parse_arc_spec("w: t", ["x", "y"])

    def test_products_parentheses_and_powers(self):
        xi = parse_arc_spec("x: (1/2)*t^-1; y: -(2t)^1; x: (t^2)^-1", ["x", "y"])
        assert xi.coeffs == {-1: (Fraction(1, 2), Fraction(0)), 1: (Fraction(0), Fraction(-2)),
                             -2: (Fraction(1), Fraction(0))}

    def test_clauses_of_one_variable_add_up(self):
        xi = parse_arc_spec("x: t; y: 1; x: -t + 3", ["x", "y"])
        assert xi.coeffs == {0: (Fraction(3), Fraction(1))}

    @pytest.mark.parametrize("spec, clause", [
        ("x: 1/2 t^-1 3; y: -1 t", "x: 1/2 t^-1 3"),   # terms side by side
        ("x: 2 3; y: t", "x: 2 3"),
        ("x: t; y: t^2t", "y: t^2t"),
        ("x:; y: t", "x:"),                             # an empty body
        ("x: t; y: (t+1)^-1", "y: (t+1)^-1"),           # a negative power of a sum
        ("x: 1/0 t^-1", "x: 1/0 t^-1"),
    ])
    def test_malformed_terms_name_their_clause(self, capsys, spec, clause):
        code, out, err = run_cli(capsys, "arc-check", "x + x^2*y", spec, "--vars", "x,y")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: arc clause {clause!r}: ")
        assert err.count("\n") == 1


class TestDims:
    def test_output(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "2", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["arc"] == 20
        assert payload["av"] == 1060

    def test_bad_parameters(self, capsys):
        code, _, err = run_cli(capsys, "dims", "1", "3")
        assert code == 1
        assert "error" in err

    # 60 60 has about 6300 digits; 57 21 passes the logarithmic estimate and
    # is refused exactly; 10^6 10^6 would spend unbounded time on the powers
    @pytest.mark.parametrize("n, d", [("60", "60"), ("57", "21"), ("1000000", "1000000")])
    def test_count_past_the_digit_limit_is_one_error_line(self, capsys, n, d):
        code, out, err = run_cli(capsys, "dims", n, d)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestMilnorCommand:
    def test_known_equation(self, capsys):
        code, out, _ = run_cli(
            capsys, "milnor", "x + x^2*y", "--vars", "x,y", "--center", "0,0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equations"] == ["y + 2*x*y^2 - x^3"]
        assert payload["pivot"] == 0

    def test_minors_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "milnor", "x + x^2*y", "--vars", "x,y", "--minors"
        )
        assert code == 0
        assert json.loads(out)["pivot"] == "minors"

    def test_center_beyond_the_float_range(self, capsys):
        # the Milnor system is exact, so no center is too large for it
        code, out, _ = run_cli(capsys, "milnor", "x + x^2*y", "--vars", "x,y", "--center", "1e400,0")
        assert code == 0
        assert json.loads(out)["center"] == [str(10 ** 400), "0"]

    def test_parse_error_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "milnor", "x + ", "--vars", "x,y")
        assert code == 1
        assert "parse error" in err

    def test_pivot_with_minors_is_one_error_line(self, capsys):
        code, out, err = run_cli(
            capsys, "milnor", "x+y", "--vars", "x,y", "--pivot", "1", "--minors"
        )
        assert code == 1
        assert out == ""
        assert err == "error: --pivot and --minors are mutually exclusive\n"


GOLDEN = Path(__file__).parent / "golden"


class TestMilnorGolden:
    """`milnor` JSON at the origin, pinned byte for byte (files in golden/).

    The files hold the package version, so a version bump regenerates them.
    """

    EXAMPLES = {
        "flagship": ("x + x^2*y", "x,y"),
        "tangent": ("y*(x^2*y^2 + 3*x*y + 3)", "x,y"),
        "criterion10": ("x - 3*x^3*y^2 + 2*x^4*y^3 + y*z", "x,y,z"),
    }

    @pytest.mark.parametrize("minors", [False, True], ids=["pivot", "minors"])
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_output_is_pinned(self, capsys, name, minors):
        text, names = self.EXAMPLES[name]
        code, out, _ = run_cli(capsys, "milnor", text, "--vars", names,
                               *(["--minors"] if minors else []))
        assert code == 0
        golden = GOLDEN / f"milnor-{name}{'-minors' if minors else ''}.json"
        assert out == golden.read_text(encoding="utf-8")


class TestAnalyzeGolden:
    """`analyze` JSON pinned byte for byte.

    The two n >= 3 bench inputs take the multistart Newton slicer, so any
    change to the float kernels or the Newton loop that moves a bit shows
    here.  The flagship over three generic centers (center screening plus
    intersection) and the tangent example at (0, 1) take the exact n = 2
    circle slicer, so any change to the Fractions `real_roots` returns shows.
    `x + x^2*y + z^2` over two seeded centers takes the n >= 3 screen and
    the Newton trace on the one screened system of each center.
    """

    EXAMPLES = {
        "criterion10": ("x - 3*x^3*y^2 + 2*x^4*y^3 + y*z", "--vars", "x,y,z", "--center", "0,0,0"),
        "flagship3": ("x + x^2*y + z^2", "--vars", "x,y,z", "--center", "1,2,-1"),
        "flagship-centers3": ("x + x^2*y", "--vars", "x,y", "--centers", "3", "--seed", "0"),
        "flagship3-centers2": ("x + x^2*y + z^2", "--vars", "x,y,z", "--centers", "2", "--seed", "0"),
        "tangent": ("y*(x^2*y^2 + 3*x*y + 3)", "--vars", "x,y", "--center", "0,1"),
    }

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_output_is_pinned(self, capsys, name):
        code, out, _ = run_cli(capsys, "analyze", *self.EXAMPLES[name])
        assert code == 0
        assert out == (GOLDEN / f"analyze-{name}.json").read_text(encoding="utf-8")


class TestTraceGolden:
    """`trace` JSON pinned byte for byte: the per-sample points, f values,
    Malgrange values and scaled residuals of the n = 2 circle slicer (the
    flagship, at the origin and at a seeded center that reuses the screen's
    circles) and of the n >= 3 Newton slicer."""

    EXAMPLES = {
        "flagship": ("x + x^2*y", "--vars", "x,y", "--center", "0,0"),
        "flagship-seed0": ("x + x^2*y", "--vars", "x,y", "--seed", "0"),
        "flagship3": ("x + x^2*y + z^2", "--vars", "x,y,z", "--center", "1,2,-1"),
    }

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_output_is_pinned(self, capsys, name):
        code, out, _ = run_cli(capsys, "trace", *self.EXAMPLES[name], "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"trace-{name}.json").read_text(encoding="utf-8")


class TestCircleSolvesPerCenter:
    """A seeded center's Milnor system is built once per call: the screen
    solves the circles at R = 10 and 40, and the trace of the same system
    solves only the six other radii of the default schedule."""

    @pytest.mark.parametrize("argv, solves", [
        (("analyze", "x + x^2*y", "--vars", "x,y", "--centers", "3", "--seed", "0"), 3 * 8),
        (("trace", "x + x^2*y", "--vars", "x,y", "--seed", "0"), 8),
    ], ids=["analyze", "trace"])
    def test_screened_circles_are_not_solved_again(self, capsys, monkeypatch, argv, solves):
        import milnorarc.tracer as m

        calls = []
        solve = m._slice_solve_circle
        monkeypatch.setattr(m, "_slice_solve_circle", lambda *args: calls.append(args[2]) or solve(*args))
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == solves
        assert calls.count(10.0) == calls.count(40.0) == solves // 8


class TestParserOncePerProcess:
    def test_one_parser_and_independent_calls(self, capsys):
        # the parser is built once; back-to-back calls with other
        # subcommands and repeated --center flags do not see each other
        from milnorarc import cli

        assert cli._parser() is cli._parser()
        two = ("analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0", "--center", "1,2")
        one = ("analyze", "x + x^2*y", "--vars", "x,y", "--center", "1,2")
        outs = []
        for argv in (two, ("dims", "2", "3"), one, ("milnor", "x + x^2*y", "--vars", "x,y"), two, one):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and not err
            outs.append(out)
        assert outs[0] == outs[4] and outs[2] == outs[5]
        assert len(json.loads(outs[0])["per_center"]) == 2
        assert json.loads(outs[2])["mode"] == "single-center"
        assert json.loads(outs[2])["center"] == ["1", "2"]
        assert json.loads(outs[3])["center"] == ["0", "0"]


class TestArcCheck:
    ARGS = ["arc-check", "x + x^2*y", "x: 1/2 t^-1; y: -1 t^1", "--vars", "x,y"]

    def test_witness(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_member"] is True
        assert payload["b0"] == "0"

    def test_window_violation_is_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "arc-check", "x + x^2*y", "x: t^4", "--vars", "x,y"
        )
        assert code == 1
        assert "outside window" in err

    @pytest.mark.parametrize("coeff, scale", [
        (f"1/{10 ** 200}", 1e200),   # a finite scale, though |a_1|^2 = 1e-400 is not a float
        (str(10 ** 400), None),      # the scale 1e-400 rounds to 0
    ], ids=["tiny", "huge"])
    def test_extreme_positive_coefficient(self, capsys, coeff, scale):
        code, out, _ = run_cli(capsys, "arc-check", "x + x^2*y", f"x: {coeff} t^1", "--vars", "x,y")
        assert code == 0
        assert json.loads(out)["lambda_estimate"] == scale

    def test_b0_beyond_the_float_range(self, capsys):
        # the witness arc gives b0 = the constant term, here 10^400
        code, out, err = run_cli(capsys, "arc-check", f"x + x^2*y + {10 ** 400}",
                                 "x: 1/2 t^-1; y: -1 t^1", "--vars", "x,y")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["is_member"] is True
        assert payload["b0"] == str(10 ** 400)
        assert payload["b0_float"] is None


class TestArcCheckGolden:
    """`arc-check` JSON pinned byte for byte: the README witness (a member),
    a non-member filling the whole n=2 window, and an n=3 arc."""

    EXAMPLES = {
        "witness": ("x + x^2*y", "x: 1/2 t^-1; y: -1 t^1", "x,y"),
        "full-window": (
            "x + x^2*y - 2/3*x*y^2 + 1/5*y^3 - 4*y",
            "x: 1/2 t^-6 - 2 t^-5 + 3/7 t^-4 - t^-3 + 5/4 t^-2 + 1/9 t^-1 - 3 + 2/5 t - 7/3 t^2 + 1/6 t^3; "
            "y: -1 t^-6 + 4/3 t^-5 + 1/8 t^-4 - 6 t^-3 + 2/11 t^-2 - 5/2 t^-1 + 1/4 - 3 t + 7/5 t^2 - 1/2 t^3",
            "x,y"),
        "n3": ("x + x^2*y + z^2 - 1/3*x*y*z",
               "x: 1/2 t^-1 + 3 t^-4 - 2/9 t^-18; y: -1 t + 2/7 t^-9 + 5/3 t^9; z: 5/3 t^2 - t^-12 + 1/4",
               "x,y,z"),
    }

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_output_is_pinned(self, capsys, name):
        poly, arc, names = self.EXAMPLES[name]
        code, out, _ = run_cli(capsys, "arc-check", poly, arc, "--vars", names)
        assert code == 0
        assert out == (GOLDEN / f"arc-check-{name}.json").read_text(encoding="utf-8")


class TestAnalyze:
    @pytest.mark.parametrize("command", ["analyze", "trace", "milnor"])
    def test_one_variable_is_one_error_line(self, capsys, command):
        code, out, err = run_cli(capsys, command, "x^3 + x", "--vars", "x")
        assert (code, out) == (1, "")
        assert err == f"error: {command} requires at least 2 variables\n"

    @pytest.mark.parametrize("tol", ["1e-17", "1e-20"])
    @pytest.mark.parametrize("poly, center", [("x + x^2*y", "0,0"), ("y*(x^2*y^2 + 3*x*y + 3)", "0,1")])
    def test_n2_crossings_do_not_depend_on_tol(self, capsys, monkeypatch, poly, center, tol):
        # the n = 2 crossings are certified exactly, so RESIDUAL_TOL only acts on n >= 3 slices
        argv = ["analyze", poly, "--vars", "x,y", "--center", center]
        default = json.loads(run_cli(capsys, *argv)[1])
        monkeypatch.setattr(tracer, "RESIDUAL_TOL", float(tol))
        assert json.loads(run_cli(capsys, *argv)[1]) == default

    def test_single_center_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "single-center"
        assert payload["status"] == "ok"
        assert len(payload["limit_values"]) == 1
        assert abs(payload["limit_values"][0]["value"]) < 1e-3

    def test_multi_center_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "x + x^2*y", "--vars", "x,y",
            "--center", "0,0", "--center", "1/3,-2/7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "multi-center"
        assert len(payload["per_center"]) == 2
        assert len(payload["intersection"]) == 1

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "branch_id,R,x1,x2,f,malgrange,residual"
        assert len(lines) > 1

    def test_csv_branch_ids_are_unique_across_centers(self, capsys, monkeypatch):
        # each center's ids follow the earlier centers' branches, however many there are
        sample = tracer.Sample(radius=10.0, point=(10.0, 0.0), f_value=0.0, malgrange=0.0, residual=0.0)
        counts = iter([1001, 2])

        def s_infinity_estimate(f, centers, cfg):
            reports = [tracer.AnalysisReport(
                status="ok", center=(0, 0), certified=True, bound_cap=1, seed=0, radii=cfg.radii(), config={},
                traces=[tracer.BranchTrace(i, [sample]) for i in range(next(counts))]) for _ in centers]
            return tracer.SInfinityReport(per_center=reports, intersection=[], cluster_tol=tracer.CLUSTER_TOL)

        monkeypatch.setattr(tracer, "s_infinity_estimate", s_infinity_estimate)
        code, out, _ = run_cli(capsys, "analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0",
                               "--center", "1,2", "--format", "csv")
        assert code == 0
        ids = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert ids == list(range(1003))

    def test_degenerate_only_is_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "analyze", "x^2 + y^2", "--vars", "x,y", "--center", "0,0"
        )
        assert code == 2

    def test_trivial_degree_is_exit_0(self, capsys):
        # a finished analysis; exit code 2 is kept for "every center was degenerate".
        # Seeded centers of a constant are not screened: every draw would fail
        for argv in (("x", "--vars", "x,y", "--center", "0,0"),
                     ("3", "--vars", "x,y", "--centers", "2", "--seed", "0")):
            code, out, err = run_cli(capsys, "analyze", *argv)
            assert (code, err) == (0, "")
            payload = json.loads(out)
            assert all(r["status"] == "trivial-degree" for r in payload.get("per_center", [payload]))

    def test_seeded_centers_of_a_linear_map_solve_no_circle(self, capsys, monkeypatch):
        import milnorarc.tracer as m

        calls = []
        solve = m._slice_solve_circle
        monkeypatch.setattr(m, "_slice_solve_circle", lambda *args: calls.append(args[2]) or solve(*args))
        code, out, _ = run_cli(capsys, "analyze", "x + y", "--vars", "x,y", "--centers", "2", "--seed", "0")
        assert code == 0 and calls == []
        assert [r["status"] for r in json.loads(out)["per_center"]] == ["trivial-degree"] * 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("exponent", [400, 200])
    @pytest.mark.parametrize("command", ["analyze", "trace"])
    def test_center_beyond_the_float_range_is_one_error_line(self, capsys, command, exponent):
        # 1e400 is not a float at all; 1e200 is, but its square, in ||a||, is not
        code, out, err = run_cli(
            capsys, command, "x + x^2*y", "--vars", "x,y", "--center", f"1e{exponent},0"
        )
        assert (code, out) == (1, "")
        # the center is named, huge entries in exponent form
        assert err == f"error: center (1e+{exponent}, 0) is too large for floating point\n"
        assert len(err) < 120

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("names, center, radii, culprit", [
        # ||a|| is a float, but the equations overflow at every radius
        ("x,y", "1e150,0", "10:2:8", "center (1e+150, 0)"),
        ("x,y,z", "1e150,0,0", "10:2:8", "center (1e+150, 0, 0)"),
        ("x,y,z", "1/3,1e150,-2", "10:2:8", "center (1/3, 1e+150, -2)"),
        # a small center with a first radius past what the equations allow
        ("x,y", "1/3,-2", "1e150:2:4", "radius 1e+150"),
        ("x,y,z", "1/3,-2,1", "1e150:2:4", "radius 1e+150"),
    ])
    @pytest.mark.parametrize("command", ["analyze", "trace"])
    def test_overflowing_equations_name_the_center_or_the_radius(self, capsys, command, names, center,
                                                                 radii, culprit):
        poly = "x + x^2*y" if names == "x,y" else "x + x^2*y + z^2"
        code, out, err = run_cli(capsys, command, poly, "--vars", names, "--center", center, "--radii", radii)
        assert (code, out) == (1, "")
        assert err == f"error: {culprit} is too large: the Milnor equations overflow floating point\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["analyze", "trace"])
    def test_overflowing_f_values_name_the_radius(self, capsys, command):
        # the Milnor equation is y, which fits floats at every radius, but
        # f ~ R^4 at the slice points does not
        code, out, err = run_cli(capsys, command, "x^4 + 2*x^2*y^2 + y^4 + x", "--vars", "x,y",
                                 "--center", "0,0", "--radii", "1e90:2:8")
        assert (code, out) == (1, "")
        assert err == "error: radius 1e+90 is too large: f overflows floating point\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("poly, names, center, r0, named", [
        # radius^2 below the normal floats (a half-angle root past the float range, before)
        ("x + x^2*y", "x,y", "0,0", "1e-160", "1e-160"),
        ("x + x^2*y", "x,y", "0,0", "1e-300", "1e-300"),
        ("x + x^2*y", "x,y", "0,0", "1e-320", "9.99989e-321"),
        # every circle point rounds to the center
        ("x + x^2*y", "x,y", "1,2", "1e-300", "1e-300"),
        ("y*(x^2*y^2 + 3*x*y + 3)", "x,y", "0,1", "1e-300", "1e-300"),
        # and every sphere point: no branch at all, before
        ("x + x^2*y + z^2", "x,y,z", "1,2,-1", "1e-300", "1e-300"),
        # the n >= 3 sphere keep test is finer than the float grid of ||x - a||^2
        # there: no branch at all, before
        ("x + x^2*y + z^2", "x,y,z", "1,2,-1", "1e-15", "1e-15"),
        ("x + x^2*y + z^2", "x,y,z", "1,2,-1", "1e-12", "1e-12"),
        ("x + x^2*y + z^2", "x,y,z", "1,2,-1", "1e-11", "1e-11"),
    ])
    @pytest.mark.parametrize("command", ["analyze", "trace"])
    def test_radius_too_small_for_floats_is_one_error_line(self, capsys, command, poly, names, center, r0,
                                                           named):
        code, out, err = run_cli(capsys, command, poly, "--vars", names, "--center", center,
                                 "--radii", f"{r0}:2:8")
        assert (code, out) == (1, "")
        assert err == f"error: radius {named} is too small for floating point\n"

    def test_small_radius_the_floats_resolve_still_traces(self, capsys):
        code, out, err = run_cli(capsys, "trace", "x + x^2*y + z^2", "--vars", "x,y,z", "--center", "1,2,-1",
                                 "--radii", "1e-3:2:8", "--format", "json")
        assert (code, err) == (0, "")
        assert [len(b["samples"]) for b in json.loads(out)["branches"]] == [8, 8]

    @pytest.mark.parametrize("argv", [
        ["analyze", "x + x^2*y", "--vars", "x,y"],
        ["trace", "x + x^2*y", "--vars", "x,y", "--seed", "0"],
    ])
    def test_no_generic_center_is_exit_2_with_one_line_per_attempt(self, capsys, monkeypatch, argv):
        import milnorarc.tracer as m

        reason = "rank-deficient Milnor Jacobian at R=10.0"
        monkeypatch.setattr(m, "_screen_center", lambda sys: (False, reason))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        first, *attempts = err.splitlines()
        assert first == f"error: no generic center found in {m.CENTER_ATTEMPTS} attempts (seed 0)"
        assert len(attempts) == m.CENTER_ATTEMPTS == 16
        assert all(line.startswith(f"  attempt {i}: a=(") and line.endswith(f": {reason}")
                   for i, line in enumerate(attempts))

    @pytest.mark.parametrize("argv, message", [
        (["milnor", "x + x^2*y", "--vars", ","], "--vars must list at least one variable name"),
        (["milnor", "x + x^2*y", "--vars", "x,x"], "duplicate variable names"),
        (["milnor", "x + x^2*y", "--vars", "x,,y"], "--vars 'x,,y' has a blank variable name"),
        # the grammar reads '2' as a number and 'y z' as two names, and has no token for '$'
        (["milnor", "x + x^2", "--vars", "x,2"],
         "--vars 'x,2' has a name that is not a letter or _ followed by letters, digits or _"),
        (["milnor", "x + x^2*y", "--vars", "x,y z"],
         "--vars 'x,y z' has a name that is not a letter or _ followed by letters, digits or _"),
        (["milnor", "x + x^2*y", "--vars", "x,y$"],
         "--vars 'x,y$' has a name that is not a letter or _ followed by letters, digits or _"),
        (["analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0,0"],
         "center '0,0,0' has 3 coordinates, expected 2"),
        (["analyze", "x + x^2*y", "--vars", "x,y", "--center", "1,,2"],
         "center '1,,2' has 3 coordinates, expected 2"),
        (["analyze", "x + x^2*y", "--vars", "x,y", "--center", "1,abc"], "invalid rational 'abc'"),
        (["milnor", "x + x^2*y", "--vars", "x,y", "--pivot", "0"],
         "--pivot must be between 1 and 2, got 0"),
        (["milnor", "x + x^2*y", "--vars", "x,y", "--pivot", "3"],
         "--pivot must be between 1 and 2, got 3"),
        (["arc-search", "x", "--vars", "x,y"], "polynomial degree must be at least 2"),
        # '²' is a digit to str.isdigit but not to int()
        (["analyze", "x + 2²*y", "--vars", "x,y"],
         "polynomial parse error: unexpected character '²' (at position 5)"),
        (["arc-check", "x + x^2*y", "x: 2² t^-1; y: t", "--vars", "x,y"],
         "arc clause 'x: 2² t^-1': unexpected character '²' (at position 1) in '2² t^-1'"),
        (["milnor", "x^2²", "--vars", "x,y"], "polynomial parse error: unexpected character '²' (at position 3)"),
    ], ids=["empty-vars", "duplicate-vars", "blank-var", "number-var", "spaced-var", "untokenized-var",
            "center-coordinates", "center-blank-coordinate",
            "center-not-rational", "pivot-0", "pivot-3", "arc-search-degree", "superscript-analyze",
            "superscript-arc-check", "superscript-milnor"])
    def test_bad_variables_center_pivot_or_degree_is_one_error_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_radii_flag_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0",
            "--radii", "10:2",
        )
        assert code == 1
        assert "R0:factor:count" in err

    @pytest.mark.parametrize("flags", [
        ["--radii", "1e300:2:8"],
        ["--radii", "10:1:8"],
        ["--radii", "1e200:1e100:8"],
        ["--seed", "-1"],
        ["--radii", "10:2:3"],
    ])
    @pytest.mark.parametrize("command", ["analyze", "trace"])
    def test_bad_trace_config_is_one_error_line(self, capsys, command, flags):
        code, _, err = run_cli(
            capsys, command, "x + x^2*y", "--vars", "x,y", "--center", "0,0", *flags
        )
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["arc-search", "--starts", "-3"],
        ["arc-search", "--starts", "0"],
        ["arc-search", "--tol", "nan"],
        ["arc-search", "--tol", "-1"],
        ["analyze", "--centers", "0"],
        ["arc-check", "x: 1/0 t^-1; y: -1 t"],
        ["arc-check", "t^-1"],
    ])
    def test_bad_search_or_center_flag_is_one_error_line(self, capsys, argv):
        command, *flags = argv
        code, _, err = run_cli(capsys, command, "x + x^2*y", "--vars", "x,y", *flags)
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("arc-search", "10^400*x + x^2*y", "--vars", "x,y", "--starts", "2"),
        ("analyze", "10^400*x + x^2*y", "--vars", "x,y", "--center", "1,2"),
        ("analyze", "10^400*x + x^2*y", "--vars", "x,y", "--centers", "2"),   # not 16 failed draws and exit 2
        ("trace", "10^400*x + x^2*y", "--vars", "x,y", "--seed", "0"),
        ("trace", "10^400*x + x^2*y + z^2", "--vars", "x,y,z", "--center", "1,2,-1"),
    ], ids=["arc-search", "analyze-center", "analyze-centers", "trace-n2-seeded", "trace-n3-center"])
    def test_a_coefficient_past_the_float_range_is_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith(" is past the float range\n") and err.count("\n") == 1

    def test_a_start_array_past_the_memory_is_one_error_line(self, capsys):
        # numpy refuses the 14 PiB of starts at once; no value that could
        # really be allocated is tried
        code, out, err = run_cli(capsys, "arc-search", "x + x^2*y", "--vars", "x,y", "--starts", "100000000000000")
        assert (code, out) == (1, "")
        assert err.startswith("error: 100000000000000 starts of 20 unknowns do not fit in memory: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "trace", "milnor"])
    def test_a_negative_first_center_coordinate_is_the_flag_value(self, capsys, command):
        argv = (command, "x + x^3*y", "--vars", "x,y")
        apart = run_cli(capsys, *argv, "--center", "-1/49,7/6")
        assert apart == run_cli(capsys, *argv, "--center=-1/49,7/6")
        assert apart[0] == 0 and apart[2] == ""

    @pytest.mark.parametrize("argv", [
        ["analyze", "x + x^2*y", "--vars", "x,y", "--seed", "abc"],
        ["arc-search", "x + x^2*y", "--vars", "x,y", "--starts", "x"],
        ["analyze", "x + x^2*y", "--vars", "x,y", "--centers", "0,0;1,0"],
        ["dims", "two", "3"],
        ["analyze", "x + x^2*y", "--vars", "x,y", "--no-such-flag"],
        ["milnor", "x + x^2*y", "--vars", "x,y", "--seed", "1"],
        ["arc-check", "x + x^2*y", "x: 1/2 t^-1; y: -1 t^1", "--vars", "x,y", "--seed", "1"],
        [],
        # the n >= 3 residual tolerance is the module constant tracer.RESIDUAL_TOL
        ["analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0", "--tol", "1e-8"],
        ["trace", "x + x^2*y", "--vars", "x,y", "--center", "0,0", "--tol", "1e-8"],
    ])
    def test_argparse_error_is_one_error_line(self, capsys, argv):
        # exit code 2 means "every center was degenerate", never a bad argument
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["dims", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestTraceCommand:
    def test_three_variable_trace_has_eight_whole_branches(self, capsys):
        # at R = 80 a second iterate of one branch point, inside the sphere
        # window and 6e-9 from the converged point, merges with it
        code, out, err = run_cli(capsys, "trace", "x + x^2*y + z^2", "--vars", "x,y,z", "--center", "1,2,-1",
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert [len(b["samples"]) for b in json.loads(out)["branches"]] == [8] * 8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_gradients_give_finite_malgrange_values(self, capsys):
        # |grad f| reaches 1e180 at R = 1e90; its square is past the float range
        code, out, err = run_cli(capsys, "trace", "x + x^2*y", "--vars", "x,y", "--center", "1,2",
                                 "--radii", "1e60:1e10:4")
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 24
        malgrange = [float(row.split(",")[5]) for row in rows]
        assert all(math.isfinite(v) for v in malgrange) and max(malgrange) > 1e269

    @pytest.mark.parametrize("radii", ["1e90:1.5:8", "1e100:1.1:8"])
    def test_radii_past_the_squares_print_nothing_on_stderr(self, radii):
        # at 1e90 the branch values pass 1e154, whose squares overflow in the
        # limit fit; at 1e100 Newton iterates far off the sphere overflow.  The
        # n = 3 slices run in forked children too, so stderr is read from a process
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "milnorarc.cli", "trace", "x + x^2*y + z^2",
                               "--vars", "x,y,z", "--center", "1,2,-1", "--radii", radii],
                              capture_output=True, text=True, env=env, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("branch_id,R,x1,x2,x3,f,malgrange,residual\n0,")

    def test_degenerate_center_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "trace", "x^2 + y^2", "--vars", "x,y", "--center", "0,0")
        assert (code, out) == (2, "")
        assert err.startswith("error: degenerate Milnor system: ")
        assert err.count("\n") == 1

    def test_csv_default(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "x + x^2*y", "--vars", "x,y", "--center", "0,0"
        )
        assert code == 0
        header = out.split("\n", 1)[0]
        assert header == "branch_id,R,x1,x2,f,malgrange,residual"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "x + x^2*y", "--vars", "x,y", "--center", "0,0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["branches"]) == 6


class TestDeterminism:
    CASES = [
        ["dims", "3", "2"],
        ["milnor", "x + x^2*y", "--vars", "x,y", "--center", "1/2,-3"],
        ["arc-check", "x + x^2*y", "x: 1/2 t^-1; y: -1 t^1", "--vars", "x,y"],
        ["analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0", "--seed", "1"],
        ["arc-search", "x^2 + y^2 - x", "--vars", "x,y", "--seed", "2", "--starts", "4"],
        ["trace", "x + x^2*y", "--vars", "x,y", "--center", "0,0", "--format", "json"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[0])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()

    def test_out_flag_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "dims", "2", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        code, out, _ = run_cli(capsys, "dims", "2", "3")
        assert target.read_text() == out

    @pytest.mark.parametrize("argv, target, reason", [
        (["dims", "2", "2"], "missing/f", "No such file or directory"),
        (["analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0"], ".", "Is a directory"),
    ], ids=["missing-directory", "a-directory"])
    def test_an_unwritable_out_path_is_one_error_line(self, tmp_path, capsys, argv, target, reason):
        path = str(tmp_path / target)
        code, out, err = run_cli(capsys, *argv, "--out", path)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write --out {path!r}: {reason}\n"
