"""Answer checks whose references do not come from the package under test.

Three kinds of reference feed `fail_ratio`:

* planted values: a planted map c0 + lam*h(T(A p + s)) has exactly the limit
  set {c0}, because bifurcation values at infinity are invariant under
  polynomial automorphisms and h has {0};
* hand-written answers for the paper's examples (see the workload tables);
* an independent expansion with `sympy` of f(xi), df/dx_i(xi) and
  xi_j * df/dx_i(xi), which gives the exact witness sets and b0 of an arc.

A `Verdict` that is not ok always counts in `failed`.  It also makes the run
incorrect (`hard`) unless it is a planted-value miss of a numerical route;
those misses are real defects of the program, but they depend on the seed,
so they are counted and listed rather than failing the whole run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from inputs import Poly

CLUSTER_TOL = 1e-3   # the package's documented default clustering tolerance
ARC_TOL = 1e-8       # acceptance threshold the arc search is configured with

Laurent = Dict[int, Fraction]


@dataclass
class Verdict:
    ok: bool
    hard: bool = True
    detail: str = ""
    err: Optional[float] = None       # largest |reported - expected| where defined


def match_values(reported: Sequence[Tuple[float, float]],
                 expected: Sequence[float]) -> Tuple[bool, str, Optional[float]]:
    """Every reported (value, uncertainty) lies within its uncertainty plus
    CLUSTER_TOL of an expected value, and every expected value is matched."""
    err = None
    for v, u in reported:
        d = min((abs(v - e) for e in expected), default=math.inf)
        if not d <= u + CLUSTER_TOL:
            return False, f"reported {v!r} (+/- {u!r}) matches none of {list(expected)}", None
        err = d if err is None else max(err, d)
    for e in expected:
        if not any(abs(v - e) <= u + CLUSTER_TOL for v, u in reported):
            return False, f"expected value {e!r} not reported (got {list(reported)})", err
    return True, "", err


@dataclass(frozen=True)
class AnalyzeExpect:
    values: Tuple[float, ...]         # the exact limit set
    certified: Optional[bool] = None  # checked where the output states it
    planted: bool = False


def analyze_payload_values(payload: dict) -> Tuple[List[Tuple[float, float]], bool]:
    """(value, uncertainty) pairs and the certified flag of an analyze report."""
    if payload.get("mode") == "multi-center":
        values = payload["intersection"]
        certified = all(r["certified"] for r in payload["per_center"])
    else:
        values = payload["limit_values"]
        certified = payload["certified"]
    return [(float(v["value"]), float(v["uncertainty"])) for v in values], bool(certified)


def check_analyze(expect: AnalyzeExpect, answer: dict, first_render: Optional[bytes]) -> Verdict:
    """`answer` holds `rc` and either the CLI JSON `bytes` or, from a traced
    pass that called the library directly, the `values` pairs."""
    if answer.get("error"):
        return Verdict(False, True, answer["error"])
    if answer["rc"] != 0:
        return Verdict(False, True, f"exit code {answer['rc']}")
    certified = None
    if "bytes" in answer:
        if first_render is not None and answer["bytes"] != first_render:
            return Verdict(False, True, "CLI JSON differs between two renderings of one input")
        values, certified = analyze_payload_values(json.loads(answer["bytes"]))
    else:
        values = answer["values"]
    if expect.certified is not None and certified is not None and certified != expect.certified:
        return Verdict(False, True, f"certified is {certified}, expected {expect.certified}")
    ok, detail, err = match_values(values, expect.values)
    return Verdict(ok, not expect.planted, detail, err)


# -- arc search -------------------------------------------------------------------


def float_compose(f: Poly, coeffs: Dict[int, Sequence[float]]) -> Dict[int, float]:
    """f(xi(t)) for a float arc, by the benchmark's own Laurent arithmetic."""
    n = len(next(iter(f)))
    comps = [{k: float(v[j]) for k, v in coeffs.items() if v[j]} for j in range(n)]
    out: Dict[int, float] = {}
    for exp, c in f.items():
        term = {0: float(c)}
        for j, e in enumerate(exp):
            for _ in range(e):
                nxt: Dict[int, float] = {}
                for ka, ca in term.items():
                    for kb, cb in comps[j].items():
                        nxt[ka + kb] = nxt.get(ka + kb, 0.0) + ca * cb
                term = nxt
        for k, v in term.items():
            out[k] = out.get(k, 0.0) + v
    return out


@dataclass(frozen=True)
class SearchExpect:
    c0: Fraction
    poly: Poly
    planted: bool = False


def check_search(expect: SearchExpect, answer: dict) -> Verdict:
    """At least one candidate; each has residual below ARC_TOL and limit value
    within CLUSTER_TOL of c0, both as reported and as recomputed here."""
    if answer.get("error"):
        return Verdict(False, True, answer["error"])
    cands = answer["candidates"]
    hard = not expect.planted
    if not cands:
        return Verdict(False, hard, "no candidate arc")
    c0 = float(expect.c0)
    err = 0.0
    for cand in cands:
        if not cand["residual"] < ARC_TOL:
            return Verdict(False, hard, f"residual {cand['residual']!r} >= {ARC_TOL}")
        b0_own = float_compose(expect.poly, cand["coeffs"]).get(0, 0.0)
        for label, b0 in (("b0_estimate", cand["b0_estimate"]), ("recomputed b0", b0_own)):
            if not abs(b0 - c0) <= CLUSTER_TOL:
                return Verdict(False, hard, f"{label} {b0!r} is not within {CLUSTER_TOL} of {c0}")
            err = max(err, abs(b0 - c0))
    return Verdict(True, hard, "", err)


# -- exact arc membership -------------------------------------------------------


class SympyOracle:
    """Witness sets and b0 of an arc, expanded with sympy's dense polynomials.

    An arc component xi_j = P_j(t) * t^s with s = min(0, lowest exponent) and
    P_j a polynomial, so every composition is a polynomial in t times a known
    power of t.
    """

    def __init__(self):
        import sympy  # imported only when answers are checked, after timing

        self.sp = sympy
        self.t = sympy.Symbol("t")

    def _to_laurent(self, p, shift: int) -> Laurent:
        return {m[0] + shift: Fraction(str(c)) for m, c in p.terms() if c != 0}

    def expected(self, text: str, names: Sequence[str], arc: Dict[int, Sequence[Fraction]]) -> dict:
        sp, t = self.sp, self.t
        gens = sp.symbols(list(names))
        expr = sp.sympify(text.replace("^", "**"), locals=dict(zip(names, gens)))
        f = sp.Poly(expr, *gens, domain=sp.QQ)
        n = len(names)
        s = min(0, min(arc))
        P = [sp.Poly(sum((sp.Rational(v[j].numerator, v[j].denominator) * t ** (k - s)
                          for k, v in arc.items()), sp.Integer(0)), t, domain=sp.QQ)
             for j in range(n)]

        def compose(g):
            D = g.total_degree()
            acc = sp.Poly(0, t, domain=sp.QQ)
            for monom, coeff in g.terms():
                term = sp.Poly(coeff * t ** (-s * (D - sum(monom))), t, domain=sp.QQ)
                for pj, e in zip(P, monom):
                    if e:
                        term = term * pj ** e
                acc = acc + term
            return acc, s * D

        F, sF = compose(f)
        wb = sorted((k, c) for k, c in self._to_laurent(F, sF).items() if k >= 1)
        wc, wd = set(), set()
        for i in range(n):
            if f.degree(gens[i]) <= 0:
                continue
            G, sG = compose(f.diff(gens[i]))
            wc.update((k, c) for k, c in self._to_laurent(G, sG).items() if k >= 0)
            for j in range(n):
                wd.update((k, c) for k, c in self._to_laurent(P[j] * G, sG + s).items() if k >= 0)
        b0 = None if wb else self._to_laurent(F, sF).get(0, Fraction(0))
        return {"witnesses_b": wb, "witnesses_c": sorted(wc), "witnesses_d": sorted(wd), "b0": b0}


@dataclass(frozen=True)
class MembershipExpect:
    c0: Optional[Fraction]            # set for witness arcs: a member with b0 == c0


def check_membership_answer(expect: MembershipExpect, oracle: dict, answer: dict) -> Verdict:
    if answer.get("error"):
        return Verdict(False, True, answer["error"])
    rep = answer["report"]
    for key in ("witnesses_b", "witnesses_c", "witnesses_d", "b0"):
        got = getattr(rep, key)
        if got != oracle[key]:
            return Verdict(False, True, f"{key} differs from the sympy expansion")
    if expect.c0 is not None and not (rep.is_member and rep.b0 == expect.c0):
        return Verdict(False, True, f"witness arc: is_member={rep.is_member}, b0={rep.b0}, "
                                    f"expected a member with b0={expect.c0}")
    return Verdict(True)
