"""The four workloads and the traced pipeline of each.

Every workload is a closed loop: one process, one input at a time.  `items`
builds a pass's inputs from the workload seed (the analyze workloads have
fixed inputs), `run` is the untraced call that the runner times, `trace`
calls each module's public functions directly in pipeline order inside
spans, and `check` compares an answer with its reference.  No package
internals are patched.  See README.md for why each workload exists and which
layer it stresses.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from milnorarc import (
    ArcSearchConfig,
    RationalArc,
    TraceConfig,
    check_membership,
    cli,
    compose_arc,
    default_pivot,
    emit_constraints,
    estimate_limits,
    malgrange_quantity,
    milnor_equations,
    parse,
    pick_generic_center,
    search_arcs,
    slice_solve,
    trace_branches,
)

from inputs import CRITERION10, FLAGSHIP, FLAGSHIP3, TANGENT, WITNESS2, flagship_poly, planted_map, random_arc
from reference import (
    ARC_TOL,
    AnalyzeExpect,
    MembershipExpect,
    SearchExpect,
    SympyOracle,
    Verdict,
    check_analyze,
    check_membership_answer,
    check_search,
)

STATUSES = ("lost", "convergent", "divergent")
PLANTED_SEED = 0     # generator seed of analyze-n2's planted maps and centers


@dataclass
class Item:
    id: str
    expect: object
    data: Dict = field(default_factory=dict)


class Analyze:
    """`milnorarc analyze` through `cli.main`, one input per call."""

    def __init__(self, name: str, tmp_path: str):
        self.name = name
        self.tmp = tmp_path

    def items(self, seed: int) -> List[Item]:
        if self.name == "analyze-n3":
            # fixed inputs: the seed has nothing to vary on this path
            return [
                self._item("criterion10", CRITERION10, "x,y,z", center="0,0,0",
                           expect=AnalyzeExpect((), certified=False)),
                self._item("flagship3", FLAGSHIP3, "x,y,z", center="1,2,-1",
                           expect=AnalyzeExpect((0.0,))),
            ]
        # fixed inputs too: the planted maps and centers come from the fixed
        # generator seed PLANTED_SEED, not from `seed`.  Whether the tracer
        # recovers a planted value depends on the map (over seeds 0-21 the
        # degree-4 maps missed theirs 26 times in 44, the degree-3 maps once
        # in 88), so seeded maps made `failed` a measure of the seed.  With
        # fixed maps the misses are the same in every run and stay counted.
        # The n = 2 path is the certified one, so every n = 2 report must say so
        rng = random.Random(PLANTED_SEED)
        out = [
            self._item("flagship", FLAGSHIP, "x,y", center_seed=rng.randrange(1000),
                       expect=AnalyzeExpect((0.0,), certified=True)),
            self._item("tangent@0,0", TANGENT, "x,y", center="0,0",
                       expect=AnalyzeExpect((), certified=True)),
            self._item("tangent@0,1", TANGENT, "x,y", center="0,1",
                       expect=AnalyzeExpect((0.0,), certified=True)),
        ]
        for i in range(6):
            eps = rng.choice((-1, 1)) if i % 3 == 2 else 0
            pm = planted_map(rng, 2, i, eps=eps)
            out.append(self._item(f"{pm.name}-d{pm.degree}", pm.text, "x,y",
                                  center_seed=rng.randrange(1000),
                                  expect=AnalyzeExpect((float(pm.c0),), certified=True,
                                                       planted=True)))
        return out

    @staticmethod
    def _item(name, text, names, expect, center=None, center_seed=None) -> Item:
        argv = ["analyze", text, "--vars", names]
        if center is not None:
            argv += ["--center", center]
            centers = [tuple(Fraction(c) for c in center.split(","))]
            trace_seed = 0
        else:
            argv += ["--centers", "3", "--seed", str(center_seed)]
            centers = None
            trace_seed = center_seed
        return Item(name, expect, {"argv": argv, "text": text, "names": names.split(","),
                                   "centers": centers, "trace_seed": trace_seed})

    def run(self, item: Item) -> dict:
        if os.path.exists(self.tmp):
            os.remove(self.tmp)
        rc = cli.main(item.data["argv"] + ["--out", self.tmp])
        data = b""
        if os.path.exists(self.tmp):
            with open(self.tmp, "rb") as fh:
                data = fh.read()
        return {"rc": rc, "bytes": data}

    def trace(self, item: Item, rec) -> dict:
        d = item.data
        n = len(d["names"])
        answer = None
        if n == 2:
            with rec.span("cli.main", item.id):
                answer = self.run(item)
            rec.count("cli.json_bytes", len(answer["bytes"]))
        with rec.span("poly.parse", item.id):
            f = parse(d["text"], d["names"])
        cfg = TraceConfig(seed=d["trace_seed"])
        centers = d["centers"]
        if centers is None:
            centers = []
            for i in range(3):
                with rec.span("milnor.pick_generic_center", item.id):
                    centers.append(pick_generic_center(f, seed=d["trace_seed"] + i))
        values = []
        for center in centers:
            with rec.span("milnor.milnor_equations", item.id):
                system = milnor_equations([f], center, pivot=default_pivot(f))
            for radius in cfg.radii():
                with rec.span(f"tracer.slice_solve_n{min(n, 3)}", item.id):
                    points = slice_solve(system, radius, cfg)
                rec.count(f"tracer.slice_solve_n{min(n, 3)}.points", len(points))
            with rec.span("tracer.trace_branches", item.id):
                traces = trace_branches(f, center, cfg)
            for tr in traces:
                for sample in tr.samples:
                    with rec.span("milnor.malgrange_quantity", item.id):
                        malgrange_quantity([f], sample.point)
            with rec.span("tracer.estimate_limits", item.id):
                limits, _ = estimate_limits(traces, cfg)
            rec.count("tracer.branches", len(traces))
            for status in STATUSES:
                rec.count(f"tracer.branches_{status}", sum(t.status == status for t in traces))
            values = [(lv.value, lv.uncertainty) for lv in limits]
        # n = 2 answers come from the CLI run (the intersection over centers);
        # n = 3 items have one center, whose limit set is the answer
        return answer if answer is not None else {"rc": 0, "values": values}

    def check(self, item: Item, answer: dict, first: Optional[dict]) -> Verdict:
        first_bytes = first.get("bytes") if first and not first.get("error") else None
        return check_analyze(item.expect, answer, first_bytes)


class ArcSearch:
    """`search_arcs` on the flagship and on one planted affine transform."""

    name = "arc-search"

    def items(self, seed: int) -> List[Item]:
        rng = random.Random(seed)
        out = [Item("flagship", SearchExpect(Fraction(0), flagship_poly(2)),
                    {"text": FLAGSHIP, "starts": 32})]
        # A, s and lam are fixed: the search's cost varies threefold with A
        # and s (3.6-11 s at 8 starts over dense A) and by a tenth with lam,
        # which would bury run_s in the seed; c0, which the answer check
        # uses and which leaves the cost unchanged, comes from the seed
        pm = planted_map(rng, 2, 2, A=((0, 1), (1, 0)), s=(Fraction(1, 2), Fraction(-1, 3)))
        out.append(Item(pm.name, SearchExpect(pm.c0, pm.poly, planted=True),
                        {"text": pm.text, "starts": 8}))
        return out

    @staticmethod
    def _answer(cands, starts: int) -> dict:
        return {"starts": starts,
                "candidates": [{"coeffs": c.coeffs, "b0_estimate": c.b0_estimate,
                                "residual": c.residual} for c in cands]}

    def run(self, item: Item) -> dict:
        f = parse(item.data["text"], ["x", "y"])
        cfg = ArcSearchConfig(seed=0, starts=item.data["starts"], tol=ARC_TOL)
        return self._answer(search_arcs(f, cfg), cfg.starts)

    def trace(self, item: Item, rec) -> dict:
        with rec.span("poly.parse", item.id):
            f = parse(item.data["text"], ["x", "y"])
        with rec.span("arcs.emit_constraints", item.id):
            system = emit_constraints(f)
        rec.count("arcs.emit_constraints.terms",
                  sum(len(p.sorted_terms()) for _, p in system.equations)
                  + len(system.sphere.sorted_terms()))
        cfg = ArcSearchConfig(seed=0, starts=item.data["starts"], tol=ARC_TOL)
        with rec.span("arcs.search_arcs", item.id):
            cands = search_arcs(f, cfg)
        rec.count("arcs.search_arcs.starts", cfg.starts)
        rec.count("arcs.search_arcs.accepted", len(cands))
        return self._answer(cands, cfg.starts)

    def check(self, item: Item, answer: dict, first: Optional[dict]) -> Verdict:
        return check_search(item.expect, answer)


class ArcCheck:
    """Exact `check_membership` on full-window random arcs and witness arcs."""

    name = "arc-check"
    calibration = "exact"     # all its work is Fraction arithmetic (see run.calibration)
    # (n, degree, random arcs per pass); the counts put the median item inside
    # the (2,3) group and the 90th percentile inside the (3,3) group
    SHAPES = ((2, 3, 4), (2, 4, 3), (3, 3, 2))

    def __init__(self):
        self._oracle = None
        self._expected: Dict[str, dict] = {}

    def items(self, seed: int) -> List[Item]:
        rng = random.Random(seed)
        out = [self._item("flagship-witness", FLAGSHIP, 2, dict(WITNESS2), Fraction(0))]
        randoms = []
        for index, (n, d, count) in enumerate(self.SHAPES):
            pm = planted_map(rng, n, index, eps=rng.choice((-1, 1)) if d == 4 else 0)
            out.append(self._item(f"{pm.name}-d{d}-witness", pm.text, n, pm.witness(), pm.c0))
            for k in range(count):
                randoms.append(self._item(f"{pm.name}-d{d}-random{k}", pm.text, n,
                                          random_arc(rng, n, d), None))
        return out + randoms

    @staticmethod
    def _item(name, text, n, arc, c0) -> Item:
        names = ["x", "y", "z"][:n]
        return Item(name, MembershipExpect(c0),
                    {"text": text, "names": names, "arc": arc,
                     "f": parse(text, names), "xi": RationalArc(n, arc)})

    def run(self, item: Item) -> dict:
        return {"report": check_membership(item.data["f"], item.data["xi"])}

    def trace(self, item: Item, rec) -> dict:
        f, xi = item.data["f"], item.data["xi"]
        with rec.span("poly.compose_arc", item.id):
            compose_arc(f, xi)
        for i in range(f.num_vars):
            partial = f.partial(i)
            with rec.span("poly.compose_arc", item.id):
                compose_arc(partial, xi)
        with rec.span("arcs.check_membership", item.id):
            report = check_membership(f, xi)
        return {"report": report}

    def check(self, item: Item, answer: dict, first: Optional[dict]) -> Verdict:
        if item.id not in self._expected:
            if self._oracle is None:
                self._oracle = SympyOracle()
            d = item.data
            self._expected[item.id] = self._oracle.expected(d["text"], d["names"], d["arc"])
        return check_membership_answer(item.expect, self._expected[item.id], answer)


def make(name: str, tmp_path: str):
    if name in ("analyze-n2", "analyze-n3"):
        return Analyze(name, tmp_path)
    if name == "arc-search":
        return ArcSearch()
    if name == "arc-check":
        return ArcCheck()
    raise KeyError(name)
