"""CLI JSON output validates against the published schemas in docs/schemas/."""

import json
from pathlib import Path

import pytest

from milnorarc.cli import main

jsonschema = pytest.importorskip("jsonschema")

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"

CASES = [
    pytest.param("milnor-system", ["milnor", "x + x^2*y", "--vars", "x,y", "--center", "1/2,-3"],
                 id="milnor-pivot"),
    pytest.param("milnor-system", ["milnor", "x - 3*x^3*y^2 + 2*x^4*y^3 + y*z", "--vars", "x,y,z",
                                   "--minors"], id="milnor-minors"),
    pytest.param("dims", ["dims", "2", "3"], id="dims"),
    pytest.param("arc-membership", ["arc-check", "x + x^2*y", "x: 1/2 t^-1; y: -1 t^1",
                                    "--vars", "x,y"], id="arc-check-member"),
    pytest.param("arc-membership", ["arc-check", "x + x^2*y", "x: 1 t^-1; y: 1 t^-1",
                                    "--vars", "x,y"], id="arc-check-non-member"),
    pytest.param("arc-membership", ["arc-check", "x + x^2*y", f"x: 1/{10 ** 200} t^1",
                                    "--vars", "x,y"], id="arc-check-tiny-coefficient"),
    pytest.param("arc-membership", ["arc-check", "x + x^2*y", f"x: {10 ** 400} t^1",
                                    "--vars", "x,y"], id="arc-check-huge-coefficient"),
    pytest.param("arc-membership", ["arc-check", f"x + x^2*y + {10 ** 400}", "x: 1/2 t^-1; y: -1 t^1",
                                    "--vars", "x,y"], id="arc-check-huge-b0"),
    pytest.param("analysis-report", ["analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0"],
                 id="analyze"),
    pytest.param("analysis-report", ["analyze", "x + x^2*y", "--vars", "x,y", "--center", "0,0",
                                     "--center", "1/3,-2/7"], id="analyze-multi-center"),
    pytest.param("trace", ["trace", "x + x^2*y", "--vars", "x,y", "--center", "0,0",
                           "--format", "json"], id="trace"),
    pytest.param("arc-search", ["arc-search", "x + x^2*y", "--vars", "x,y", "--starts", "4"],
                 id="arc-search"),
]


@pytest.mark.parametrize("schema, argv", CASES)
def test_output_matches_schema(capsys, schema, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    jsonschema.validate(payload, json.loads((SCHEMAS / f"{schema}.v1.json").read_text(encoding="utf-8")))
