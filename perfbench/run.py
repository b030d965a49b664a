#!/usr/bin/env python3
"""Benchmark for milnorarc: four workloads over the tracing and arc routes.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-n2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` measures the end-to-end metrics; `--trace 1` makes a separate
traced run that records a span around every call into the package's modules
and reports the per-layer metrics.  Every answer is checked against a
reference that does not come from the package (reference.py).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Full results and spans are written under .perfbench_out/.
"""

import os

# pin BLAS and OpenMP pools before numpy is imported, here and in every child
# process, so a small machine measures the program and not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from importlib import metadata  # noqa: E402

import numpy as np  # noqa: E402

from inputs import l_mul  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
NAMES = ("analyze-n2", "analyze-n3", "arc-search", "arc-check")
SETUP_SAMPLES = 5

SETUP_CODE = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import milnorarc
import scipy.optimize
t1 = time.perf_counter()
print(repr(t1 - t0), milnorarc.__file__)
"""


# calibration(kind) takes this long on the reference machine (2-core Xeon
# VM, Python 3.11, numpy 2.4); reported times are scaled to it
CAL_REF_S = {"float": 0.016, "exact": 0.037}


def calibration(kind: str) -> float:
    """Wall time of a short fixed mix of the kinds of work the package does:
    Fraction and dict arithmetic in the interpreter and small numpy power
    tables, plus, for the `exact` kind, Laurent products of Fractions by the
    benchmark's own arithmetic (inputs.l_mul).

    The machine's speed drifts: a pass over fixed inputs took 5.4-8.5 s within
    three minutes in one process, and a 0.2 s run of this mix, timed around
    each pass, followed it (correlation 0.78).  One sample is as noisy as the work, so a
    run takes them after every input, one per second of timed work, and scales
    its times by CAL_REF_S over the median of all of them, which samples the
    same minutes as the timed work.

    Slow spells stretch interpreter-bound work more than numpy work.  Over
    ten runs of arc-check, whose work is all Fractions, its pass time moved
    1.7-fold while the float mix moved 1.26-fold and the Laurent products
    1.9-fold; scaled by the float mix, run_s spread 0.24 (IQR/median), and by
    the exact kind 0.06.  The analyze workloads and arc-search, which spend
    most of their time in numpy and scipy, keep the float mix.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 340):
        acc += Fraction(i % 7, i % 13 + 1)
    counts = {}
    for i in range(6700):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    for _ in range(5):
        np.prod(_CAL_X[:, None, :] ** _CAL_E[None, :, :], axis=2).sum()
    if kind == "exact":
        for _ in range(2):
            p = _CAL_LAURENT
            for _ in range(3):
                p = l_mul(p, _CAL_LAURENT)
    return time.perf_counter() - t0


_CAL_X = np.random.default_rng(0).standard_normal((512, 3))
_CAL_E = np.random.default_rng(1).integers(0, 4, (20, 3))
_CAL_RNG = random.Random(5)
_CAL_LAURENT = {k: Fraction(_CAL_RNG.randint(-5, 5) or 1, _CAL_RNG.randint(1, 5))
                for k in range(-8, 9)}


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def measure_setup() -> list:
    """Fresh-process `import milnorarc` plus the lazy `scipy.optimize` import.

    One process more than SETUP_SAMPLES runs first and is not counted: it
    brings the imported files back into the page cache and writes src/'s
    bytecode, which a fresh checkout does not have yet.
    """
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up process failed: {proc.stderr.strip().splitlines()[-1:]}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if not os.path.abspath(path.strip()).startswith(SRC + os.sep):
            fail(f"set-up imported milnorarc from {path.strip()}, not from {SRC}")
        times.append(float(seconds))
    return times[1:]


def nearest_rank(values, q: float):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def src_stats():
    lines, digest = 0, hashlib.sha256()
    pkg = os.path.join(SRC, "milnorarc")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(os.path.join(dirpath, name), pkg).encode() + data)
    return lines, digest.hexdigest()


def provenance(workload: str, seed: int, src_lines: int, src_sha: str) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "sympy": version("sympy"), "git_commit": commit,
            "src_lines": src_lines, "src_sha256": src_sha}


def run_pass(wl, items, cals=None, kind="float"):
    """One pass over the inputs; returns (wall time, per-item times, answers).

    With a `cals` list, calibrations follow every input, one per second of
    its time and at least one; their times are appended to `cals` and left
    out of the pass time.
    """
    answers, times = [], []
    for item in items:
        t0 = time.perf_counter()
        try:
            answer = wl.run(item)
        except Exception as exc:  # a raising input is a failed answer, not a crash
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - t0)
        answers.append(answer)
        if cals is not None:
            cals.extend(calibration(kind) for _ in range(max(1, round(times[-1]))))
    return sum(times), times, answers


def judge(wl, items, passes, first):
    """Check every answer; returns (attempted, failed, correct, failures, verdicts).

    `attempted` counts inputs and `failed` the inputs with an answer, in any
    pass, that failed its check: the number of passes follows the machine's
    speed, and a count per answer would follow it too.
    """
    correct = True
    failures, verdicts = {}, []
    for answers in passes:
        for item, answer, ref in zip(items, answers, first):
            verdict = wl.check(item, answer, ref)
            verdicts.append((item, verdict))
            if not verdict.ok:
                correct = correct and not verdict.hard
                failures.setdefault(item.id, ("hard" if verdict.hard else "counted") + ": "
                                    + verdict.detail)
    return len(items), len(failures), correct, failures, verdicts


def layer_metrics(rec, verdicts, traced_s, untraced_s, src_lines):
    tot = rec.total
    slice_s = tot("tracer.slice_solve_n2") + tot("tracer.slice_solve_n3")
    cli_calls = rec.calls("cli.main")
    wrapped = (tot("poly.parse") + tot("milnor.pick_generic_center")
               + tot("tracer.trace_branches") + tot("tracer.estimate_limits"))
    branches = rec.counts["tracer.branches"]
    classified = rec.counts["tracer.branches_convergent"] + rec.counts["tracer.branches_divergent"]
    starts = rec.counts["arcs.search_arcs.starts"]
    errs = [v.err for item, v in verdicts if v.err is not None and hasattr(item.expect, "values")]
    m = {}
    for n in ("n2", "n3"):
        name = f"tracer.slice_solve_{n}"
        m[f"{name}.s"] = (tot(name), "s")
        m[f"{name}.calls"] = (rec.calls(name), "count")
        m[f"{name}.points"] = (rec.counts[f"{name}.points"], "count")
    m["tracer.trace_branches.s"] = (tot("tracer.trace_branches"), "s")
    m["tracer.trace_branches.self_s"] = (tot("tracer.trace_branches") - slice_s
                                         if rec.calls("tracer.trace_branches") else 0.0, "s")
    for name in ("milnor.malgrange_quantity", "milnor.pick_generic_center"):
        m[f"{name}.s"] = (tot(name), "s")
        m[f"{name}.calls"] = (rec.calls(name), "count")
    m["milnor.milnor_equations.s"] = (tot("milnor.milnor_equations"), "s")
    m["tracer.estimate_limits.s"] = (tot("tracer.estimate_limits"), "s")
    m["tracer.branches"] = (branches, "count")
    for status in ("lost", "convergent", "divergent"):
        m[f"tracer.branches_{status}"] = (rec.counts[f"tracer.branches_{status}"], "count")
    m["tracer.classified_ratio"] = (classified / branches if branches else 0.0, "ratio")
    m["tracer.limit_err_max"] = (max(errs) if errs else 0.0, "1")
    m["arcs.emit_constraints.s"] = (tot("arcs.emit_constraints"), "s")
    m["arcs.emit_constraints.terms"] = (rec.counts["arcs.emit_constraints.terms"], "count")
    m["arcs.search_arcs.s"] = (tot("arcs.search_arcs"), "s")
    m["arcs.search_arcs.lsq_s"] = (tot("arcs.search_arcs") - tot("arcs.emit_constraints")
                                   if rec.calls("arcs.search_arcs") else 0.0, "s")
    m["arcs.search_arcs.accept_ratio"] = (rec.counts["arcs.search_arcs.accepted"] / starts
                                          if starts else 0.0, "ratio")
    m["arcs.check_membership.s"] = (tot("arcs.check_membership"), "s")
    m["arcs.check_membership.calls"] = (rec.calls("arcs.check_membership"), "count")
    m["poly.compose_arc.s"] = (tot("poly.compose_arc"), "s")
    m["poly.compose_arc.calls"] = (rec.calls("poly.compose_arc"), "count")
    m["poly.parse.s"] = (tot("poly.parse"), "s")
    m["cli.main.s"] = (tot("cli.main"), "s")
    m["cli.main.overhead_s"] = (tot("cli.main") - wrapped if cli_calls else 0.0, "s")
    m["cli.json_bytes"] = (rec.counts["cli.json_bytes"], "bytes")
    m["src.lines"] = (src_lines, "lines")
    m["trace.traced_pass_s"] = (traced_s, "s")
    m["trace.untraced_pass_s"] = (untraced_s, "s")
    m["trace.recorder_s"] = (rec.recorder_s, "s")
    return m


DERIVED = ("tracer.trace_branches.self_s", "arcs.search_arcs.lsq_s", "cli.main.overhead_s")


def import_package() -> None:
    """Import milnorarc from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "milnorarc", "__init__.py")):
        fail(f"no package source at {SRC}/milnorarc; run from the repository root")
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    import milnorarc
    if not os.path.abspath(milnorarc.__file__).startswith(SRC + os.sep):
        fail(f"imported milnorarc from {milnorarc.__file__}, not from {SRC}")


def run_workload(args) -> int:
    import_package()
    import workloads
    from spans import Recorder

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}.json")
    src_lines, src_sha = src_stats()
    prov = provenance(args.workload, args.seed, src_lines, src_sha)

    setup_times = [] if args.trace else measure_setup()
    wl = workloads.make(args.workload, tmp)
    items = wl.items(args.seed)
    warm_s, _, warm = run_pass(wl, items)            # warm-up: lazy imports, first render

    report = {"provenance": prov, "items": [item.id for item in items], "warmup_s": warm_s}
    if args.trace:
        rec = Recorder()
        answers = []
        t0 = time.perf_counter()
        for item in items:
            with rec.span("bench.item", item.id):
                try:
                    answers.append(wl.trace(item, rec))
                except Exception as exc:
                    answers.append({"error": f"{type(exc).__name__}: {exc}"})
        traced_s = time.perf_counter() - t0
        passes = [answers]
        rec.dump(os.path.join(OUT, f"spans-{tag}.json"))
    else:
        kind = getattr(wl, "calibration", "float")
        calibration(kind)                            # the first call pays numpy's lazy set-up
        passes, pass_walls, item_walls, cals = [], [], [], []
        t_start = time.perf_counter()
        while True:
            pass_s, times, answers = run_pass(wl, items, cals, kind)
            passes.append(answers)
            pass_walls.append(pass_s)
            item_walls.extend(times)
            elapsed = time.perf_counter() - t_start
            # at least two passes; then stop once the budget is used, or when
            # one more pass would overrun it by a quarter
            if len(pass_walls) >= 2 and (elapsed >= args.seconds
                                         or elapsed + pass_s > 1.25 * args.seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scale = CAL_REF_S[kind] / statistics.median(cals)
        pass_times = [t * scale for t in pass_walls]
        item_times = [t * scale for t in item_walls]
    if os.path.exists(tmp):
        os.remove(tmp)

    attempted, failed, correct, failures, verdicts = judge(wl, items, passes, warm)
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"inputs/pass {len(items)}  passes {len(passes)}"]
    if args.trace:
        metrics = layer_metrics(rec, verdicts, traced_s, warm_s, src_lines)
        for name, (value, unit) in metrics.items():
            note = "  (derived)" if name in DERIVED else ""
            lines.append(f"  {name:34s} {value:>14.6g} {unit}{note}")
    else:
        p50, above50 = nearest_rank(item_times, 0.5)
        p90, above90 = nearest_rank(item_times, 0.9)
        metrics = {
            "setup_s": (statistics.median(setup_times) * scale, "s"),
            "run_s": (statistics.median(pass_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        counts = {
            "setup_s": f"median of {len(setup_times)} fresh processes, scaled like run_s",
            "run_s": f"median of {len(pass_times)} passes after a warm-up pass",
            "peak_rss_mb": "1 process",
        }
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:12s} {value:12.6f} {unit:3s} ({counts[name]})")
        # per-input times are shown but not gated: the median input of
        # arc-check is a 25 ms check, which slow spells of the machine stretch
        # by 40% while the calibration moves 8%; a tail percentile is shown
        # only where ten samples lie beyond it
        lines.append(f"  {'item_p50_s':12s} {p50:12.6f} s   (n={len(item_times)}, "
                     f"{above50} above; not gated)")
        if above90 >= 10:
            lines.append(f"  {'item_p90_s':12s} {p90:12.6f} s   (n={len(item_times)}, "
                         f"{above90} above; not gated)")
        lines.append(f"  {'fail_ratio':12s} {failed / attempted:12.6f} 1   "
                     f"({failed} of {attempted} inputs failed)")
        lines.append(f"  {'run_wall_s':12s} {statistics.median(pass_walls):12.6f} s   "
                     f"(unscaled wall time of a pass; calibration median "
                     f"{statistics.median(cals):.5f} s of {len(cals)} ({kind}), reference "
                     f"{CAL_REF_S[kind]} s; "
                     f"not gated)")
        report.update(setup_samples_s=setup_times, pass_s=pass_times,
                      pass_wall_s=pass_walls, calibration_s=cals, item_s=item_times,
                      item_p50_s=p50, item_p90_s=p90, item_p90_above=above90)
    for item_id, detail in failures.items():
        lines.append(f"  FAILED {item_id}: {detail}")
    print("\n".join(lines))
    print("provenance " + json.dumps(prov, sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    report.update(result=result, failures=failures)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, as one table."""
    results = {}
    for name in NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        results[name] = json.loads(out[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
