#!/usr/bin/env python3
"""Self-test of the answer checks: injected wrong answers must raise fail_ratio.

Run from the repository root:

    python3 perfbench/selftest.py [--seed N] [--workload NAME]

Each workload's inputs run once.  The real answers are checked, then copies
with one kind of wrong answer injected, and the fail_ratio of each is
printed.  The exit code is 1 unless every injection raises the fail_ratio of
its workload above that of the real answers.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins thread pools before numpy is imported)


def fail_ratio(wl, items, answers, firsts) -> float:
    verdicts = [wl.check(item, answer, first) for item, answer, first in zip(items, answers, firsts)]
    return sum(not v.ok for v in verdicts) / len(verdicts)


def _rewrite_json(answer: dict, edit) -> dict:
    payload = json.loads(answer["bytes"])
    edit(payload)
    return {**answer, "bytes": (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()}


def _value_lists(payload: dict):
    if payload.get("mode") == "multi-center":
        return [payload["intersection"]]
    return [payload["limit_values"]]


def analyze_injections(items, answers, cluster_tol):
    def shift(payload):
        for values in _value_lists(payload):
            for v in values:
                v["value"] += 2 * cluster_tol

    def spurious(payload):
        for values in _value_lists(payload):
            values.append({"value": 0.5, "uncertainty": 0.0, "branch_ids": []})

    def uncertify(payload):
        payload["certified"] = not payload.get("certified", True)
        for r in payload.get("per_center", []):
            r["certified"] = not r["certified"]

    def flip_byte(answer):
        data = bytearray(answer["bytes"])
        data[-2] ^= 1
        return {**answer, "bytes": bytes(data)}

    # value edits are judged without the first rendering, so that only the
    # value check can reject them; the byte flip is judged against it
    return {
        "limit value shifted by 2*cluster_tol": ([_rewrite_json(a, shift) for a in answers], False),
        "spurious limit value 0.5": ([_rewrite_json(a, spurious) for a in answers], False),
        "certified flag flipped": ([_rewrite_json(a, uncertify) for a in answers], False),
        "one rendered byte changed": ([flip_byte(a) for a in answers], True),
    }


def search_injections(items, answers, cluster_tol):
    def shift(answer):
        out = copy.deepcopy(answer)
        for cand in out["candidates"]:
            cand["b0_estimate"] += 2 * cluster_tol
        return out

    return {
        "b0_estimate shifted by 2*cluster_tol": ([shift(a) for a in answers], False),
        "no candidates": ([{**a, "candidates": []} for a in answers], False),
    }


def membership_injections(items, answers, check_membership, RationalArc):
    def flipped(item):
        arc = dict(item.data["arc"])
        k = max(arc)                      # highest exponent: nonzero in witness arcs
        vec = list(arc[k])
        j = next(i for i, v in enumerate(vec) if v != 0)
        vec[j] = -vec[j]
        arc[k] = tuple(Fraction(v) for v in vec)
        return {"report": check_membership(item.data["f"], RationalArc(len(vec), arc))}

    return {"one arc coefficient flipped": ([flipped(item) for item in items], False)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="inject wrong answers into the checks")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=run.NAMES, action="append")
    args = parser.parse_args(argv)
    run.import_package()
    import workloads
    from milnorarc import RationalArc, check_membership
    from reference import CLUSTER_TOL

    os.makedirs(run.OUT, exist_ok=True)
    tmp = os.path.join(run.OUT, f"selftest-{os.getpid()}.json")
    ok = True
    try:
        for name in args.workload or run.NAMES:
            wl = workloads.make(name, tmp)
            items = wl.items(args.seed)
            _, _, answers = run.run_pass(wl, items)
            base = fail_ratio(wl, items, answers, answers)
            print(f"{name}: real answers fail_ratio {base:.3f} ({len(items)} inputs)")
            if name.startswith("analyze"):
                cases = analyze_injections(items, answers, CLUSTER_TOL)
            elif name == "arc-search":
                cases = search_injections(items, answers, CLUSTER_TOL)
            else:
                cases = membership_injections(items, answers, check_membership, RationalArc)
            for label, (wrong, against_first) in cases.items():
                firsts = answers if against_first else [None] * len(items)
                ratio = fail_ratio(wl, items, wrong, firsts)
                raised = ratio > base
                ok = ok and raised
                print(f"  {'ok  ' if raised else 'FAIL'} {label}: fail_ratio {ratio:.3f}")
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    print("self-test passed" if ok else "self-test FAILED: an injected wrong answer was accepted")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
