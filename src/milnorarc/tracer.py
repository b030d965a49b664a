"""Branch tracing on Milnor sets and estimation of asymptotic nonregular values.

The pipeline slices the Milnor set with spheres of geometrically growing
radius, matches the slice points across radii into branches at infinity,
extrapolates the value of f along each branch, and monitors the decay of
||x|| * nu(Df(x)) predicted for convergent branches.

For n = 2 the sphere is a circle; the restriction of the single equation to
it becomes, under the tangent half-angle substitution, a univariate
polynomial whose coefficients are computed exactly, from one table per
center whose entries are polynomials in the radius (`HalfAngleTable`).  Its
real roots of odd multiplicity (the crossings of the circle) are found
exactly by `real_roots`: float eigenvalue seeds propose one dyadic cell per
distinct real root (their number is the degree when the seeds are all real,
else it comes from the Sturm sequence), exact signs at the cell ends certify
them, and Sturm bisection over Q runs only where that certificate fails.
Each root is refined by exactly verified secant jumps to the Fraction exact
sign bisection would return; tangencies (even multiplicity) are not
reported.  The pivot chart's one equation is +-the one 2x2 minor, so n = 2
slices need no revalidation against the minors; every crossing, a distinct
root, is kept.  The center screen passes its MilnorSystem on, and a system
keeps its table and its crossings by radius.

A branch sample's f value is exact at its float point, rounded once
(`ExactEvaluator.at_float`, cleared once per system); its float parts are
one batch per slice, and its residual is the scaled residual of its slice
(for n >= 3, the value the keep test read).

For n >= 3 a multistart damped Newton solver is best-effort (branches may be
missed) on the pivot chart and the sphere, a square system; points are
rechecked against all the minors where the pivot partial nearly vanishes, and
merged within SPHERE_TOL * R, the sphere window's width.  Its rows back-track
in one batch and leave it at a bitwise fixed point.
`trace_branches` solves the slices of all radii first, in this process and
forked children (`_cores.map_on_cores`, the same bits as one at a time),
and then matches them; n = 2 circles stay serial.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _cores
from .milnor import DegenerateCenterError, MilnorSystem, malgrange_quantities, milnor_equations
from .poly import CompiledPolynomials, Polynomial, real_roots

STATUS_CONVERGENT = "convergent"
STATUS_DIVERGENT = "divergent"
STATUS_LOST = "lost"

CONV_TOL = 1e-3         # max distance of the last f value from a convergent limit
CLUSTER_TOL = 1e-3      # limit values this close are one value
DIV_THRESHOLD = 1e6     # |f| at the last radius past which a branch that does not converge diverges
ALPHA_MIN = 0.25        # least decay rate of f - t0 in R for a convergent branch
MATCH_TOL = 0.5         # max direction drift between consecutive radii
NEWTON_ITERS = 60       # damped Newton iterations per n >= 3 slice
CENTER_ATTEMPTS = 16    # center draws before pick_generic_center gives up
SPHERE_TOL = 1e-9       # an n >= 3 slice point has |(||x - a||^2 - R^2)| < SPHERE_TOL * R^2
# an n >= 3 slice point has |eq(x)| < RESIDUAL_TOL * S for every equation, S = 1 + the sum of
# |coeff| * B^deg over its terms with B = ||a|| + R + 1: the values grow like R^deg
RESIDUAL_TOL = 1e-8
NEWTON_STARTS = 512     # damped Newton starts per n >= 3 slice
SCREEN_STARTS = 64      # starts per n >= 3 slice of the center screen


class DegenerateMilnorError(RuntimeError):
    """The Milnor system has an identically zero equation for this center."""


@dataclass(frozen=True)
class TraceConfig:
    """The seed and radius schedule of the tracer.

    The tolerances and the multistart size are module constants: RESIDUAL_TOL,
    SPHERE_TOL and NEWTON_STARTS.  Construction raises ValueError on a bad
    seed or radius schedule.
    """

    seed: int = 0
    r0: float = 10.0
    radius_factor: float = 2.0
    radius_count: int = 8

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        try:
            largest = self.r0 * self.radius_factor ** (self.radius_count - 1)
        except OverflowError:
            largest = math.inf
        if not (self.r0 > 0 and self.radius_factor > 1 and self.radius_count >= 4 and math.isfinite(largest)):
            raise ValueError("radii need r0 > 0, radius_factor > 1, radius_count >= 4 "
                             "and a finite largest radius r0 * radius_factor^(radius_count - 1)")

    def radii(self) -> List[float]:
        return [self.r0 * self.radius_factor ** k for k in range(self.radius_count)]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class Sample:
    radius: float
    point: Tuple[float, ...]
    f_value: float
    malgrange: float
    residual: float


@dataclass
class BranchTrace:
    branch_id: int
    samples: List[Sample] = field(default_factory=list)
    status: str = STATUS_LOST


@dataclass
class LimitValue:
    value: float
    uncertainty: float
    branch_ids: List[int]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class AnalysisReport:
    center: Tuple[Fraction, ...]
    status: str                      # "ok" | "degenerate" | "trivial-degree"
    certified: bool
    bound_cap: int
    seed: int
    radii: List[float]
    config: dict
    limit_values: List[LimitValue] = field(default_factory=list)
    divergent_count: int = 0
    bound_respected: bool = True
    malgrange_monitor: Dict[int, bool] = field(default_factory=dict)
    note: str = ""
    traces: List[BranchTrace] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "center": [str(c) for c in self.center],
            "status": self.status,
            "certified": self.certified,
            "limit_values": [lv.to_dict() for lv in self.limit_values],
            "divergent_count": self.divergent_count,
            "bound_cap": self.bound_cap,
            "bound_respected": self.bound_respected,
            "malgrange_monitor": {str(k): v for k, v in self.malgrange_monitor.items()},
            "seed": self.seed,
            "radii": self.radii,
            "config": self.config,
            "note": self.note,
            "branches": [
                {
                    "branch_id": t.branch_id,
                    "status": t.status,
                    "samples": len(t.samples),
                    "f_last": t.samples[-1].f_value if t.samples else None,
                }
                for t in self.traces
            ],
        }


@dataclass
class SInfinityReport:
    per_center: List[AnalysisReport]
    intersection: List[LimitValue]
    cluster_tol: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "per_center": [r.to_dict() for r in self.per_center],
            "intersection": [lv.to_dict() for lv in self.intersection],
            "cluster_tol": self.cluster_tol,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# Slice solving
# ---------------------------------------------------------------------------


def _float_center(sys: MilnorSystem) -> Tuple[np.ndarray, float]:
    """The center a as floats and ||a||, whose scale bound at radius R is
    ||a|| + R + 1; ValueError past the float range."""
    try:
        a = np.array([float(c) for c in sys.center])
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(a))
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise ValueError(f"center {_center_text(sys.center)} is too large for floating point")
    return a, norm


def _center_text(center: Sequence[Fraction]) -> str:
    """'(c1, c2, ...)', exact or, past 20 characters, to 6 digits (10^400 is 1e+400)."""
    import decimal  # only error messages need it
    six = decimal.Context(prec=6)
    texts = [str(c) if len(str(c)) <= 20 else f"{six.divide(c.numerator, c.denominator).normalize(six):g}"
             for c in center]
    return f"({', '.join(texts)})"


def slice_solve(sys: MilnorSystem, radius: float, config: Optional[TraceConfig] = None) -> List[np.ndarray]:
    """Points of the Milnor set on the sphere ||x - a|| = radius.

    Returns float points: for n = 2 every exactly certified crossing, for
    n >= 3 those of NEWTON_STARTS starts drawn from `config.seed` that satisfy
    every equation to RESIDUAL_TOL, merged within SPHERE_TOL * radius.  An empty
    list is a valid outcome.  Raises DegenerateMilnorError when an equation is
    identically zero, and ValueError for a center, radius or equations past floats.
    """
    return list(_slice(sys, radius, (config or TraceConfig()).seed)[0])


def _slice(sys: MilnorSystem, radius: float, seed: int, starts: int = NEWTON_STARTS) -> Tuple[np.ndarray, np.ndarray]:
    """slice_solve's points as the rows of X (m, n), and each point's scaled residual max_i |eq_i(x)| / S_i.
    n = 2 keeps every certified crossing, a distinct root, whatever its residual; n >= 3 keeps the points of
    `starts` Newton starts that pass revalidation and residual < RESIDUAL_TOL, merged within SPHERE_TOL R,
    the window that accepted them.
    For n >= 3 a radius with SPHERE_TOL R <= sqrt(n) ulp(max |a_i|) is too small (ValueError): there the
    float grid of ||x - a||^2 has spacing about 2 R sqrt(n) ulp(max |a_i|), and half of it is at least the
    sphere window, R^2 +- SPHERE_TOL R^2; above it the merge distance exceeds sqrt(n) ulp(max |a_i|)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if sys.has_zero_equation():
        raise DegenerateMilnorError("Milnor system has an identically zero equation; the center is degenerate")
    n = sys.num_vars
    a, norm = _float_center(sys)
    bound = norm + radius + 1.0
    scales = sys.compiled.scales(bound)
    if not np.all(np.isfinite(scales)):
        center_fits = np.isfinite(sys.compiled.scales(norm + 1.0)).all()  # at radius 0
        culprit = f"radius {radius:g}" if center_fits else f"center {_center_text(sys.center)}"
        raise ValueError(f"{culprit} is too large: the Milnor equations overflow floating point")
    # a sphere point is radius / sqrt(n) off the center in some coordinate, over an ulp
    # of it if radius > sqrt(n) eps ||a||; the escape directions need a normal radius^2
    if (radius * radius < np.finfo(float).tiny or radius <= math.sqrt(n) * np.finfo(float).eps * norm
            or (n > 2 and SPHERE_TOL * radius <= math.sqrt(n) * math.ulp(np.abs(a).max()))):
        raise ValueError(f"radius {radius:g} is too small for floating point")

    if n == 2:  # the chart's one equation is +-the one minor; its crossings are solved once per system
        if (points := sys._crossings.get(radius)) is None:
            points = sys._crossings[radius] = _slice_solve_circle(sys, a, radius)
    else:
        points = _slice_solve_newton(sys, a, radius, scales, seed, starts)
        # where the pivot partial nearly vanishes, recheck against all the minors
        compiled = sys.compiled_revalidation
        revalidation = np.abs(compiled.column_values(points.T)) / compiled.scales(bound)[:, None]
        points = points[(revalidation[0] > math.sqrt(RESIDUAL_TOL)) | (revalidation[1:].max(axis=0) < RESIDUAL_TOL)]
    X = np.reshape(points, (-1, n))
    residuals = (np.abs(sys.compiled.column_values(X.T)) / scales[:, None]).max(axis=0)
    if n == 2:   # every certified crossing is kept
        return X, residuals
    kept = np.flatnonzero(residuals < RESIDUAL_TOL)
    kept = kept[_dedupe(X[kept], SPHERE_TOL * radius)]
    return X[kept], residuals[kept]


DISTANCE_CELLS = 1 << 15   # entries of one block of _distances' pairwise differences


def _distances(A: np.ndarray, B: np.ndarray) -> Iterator[np.ndarray]:
    """||A_i - B_j|| for the rows of A (m, n) against those of B (k, n), as
    blocks of consecutive rows of the (m, k) matrix.  Each entry has the bits
    of np.linalg.norm(A_i - B, axis=1)[j], and a block's differences hold at
    most DISTANCE_CELLS entries."""
    rows = max(1, DISTANCE_CELLS // max(1, B.size))
    for start in range(0, len(A), rows):
        diff = A[start:start + rows, None, :] - B
        yield np.sqrt(np.add.reduce(diff * diff, axis=2))


def _dedupe(points: np.ndarray, dist: float) -> List[int]:
    """The indices of the points (m, n) farther than `dist` from every
    earlier kept one, in order.

    The first live point is kept, and the live points after it that are not
    farther than `dist` from it leave, so each kept point is compared only
    with the points still live.  Distances are summed as `_distances` sums
    them, so they have its bits; a nan distance is not farther."""
    kept: List[int] = []
    live = np.arange(len(points))
    while live.size:
        kept.append(int(live[0]))
        diff = points[live[1:]] - points[live[0]]
        live = live[1:][np.sqrt(np.add.reduce(diff * diff, axis=1)) > dist]
    return kept


def _slice_solve_circle(sys: MilnorSystem, a: np.ndarray, radius: float) -> List[np.ndarray]:
    N, Q = sys.half_angle.at(radius)
    # the restriction times the lcm of its coefficients' reduced denominators:
    # the integers real_roots would clear the coefficients N_k / Q to
    G = math.gcd(Q, *N)
    p = [c // G for c in N]
    thetas = [_angle(tau) for tau in real_roots(p)]
    # tau = infinity (theta = pi) is a root of the multiplicity of the
    # vanishing top coefficients; it is a crossing when that is odd
    drop = next((k for k, c in enumerate(reversed(p)) if c), 0)
    if drop % 2:
        thetas.append(math.pi)
    return [a + radius * np.array([math.cos(t), math.sin(t)]) for t in sorted(thetas)]


def _angle(tau: Fraction) -> float:
    """2 atan(tau) in [0, 2 pi); pi, correctly rounded, for tau past the float range."""
    try:
        return 2.0 * math.atan(float(tau)) % (2.0 * math.pi)
    except OverflowError:
        return math.pi


@np.errstate(over="ignore", invalid="ignore")   # iterates far off the sphere may overflow
def _slice_solve_newton(sys: MilnorSystem, a: np.ndarray, radius: float, scales: np.ndarray,
                        seed: int, starts: int) -> np.ndarray:
    """The points of `starts` seeded starts in the sphere window |(||x - a||^2 - R^2)| < SPHERE_TOL R^2,
    as rows (k, n).  The iterates are the columns of X (n, m); the sphere term and the
    scaled norm add rows left to right, (r0 + r1) + r2 ..., as np.add.reduce(axis=1) does
    on point-major rows shorter than 8 (numpy sums longer ones pairwise), so for n < 8
    every start has the bits of a point-major loop."""
    n = a.shape[0]
    rng = np.random.default_rng([seed, int(round(radius * 1024)) & 0x7FFFFFFF])
    U = rng.standard_normal((starts, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    a = a[:, None]
    X = a + radius * U.T
    scales = scales[:, None]

    def residuals(X, values=None):
        """The sphere residuals at the columns of X and the scaled norms of all the residuals."""
        sphere = functools.reduce(np.add, (X - a) ** 2) - radius ** 2
        values = sys.compiled.column_values(X) if values is None else values
        return sphere, np.sqrt(functools.reduce(np.add, (values / scales) ** 2) + (sphere / radius ** 2) ** 2)

    norms = np.empty(X.shape[1])   # each start's scaled residual at its latest iterate
    live = np.arange(X.shape[1])
    for _ in range(NEWTON_ITERS):
        Xl = X[:, live]
        values, jacobians = sys.compiled.column_values_and_jacobians(Xl)
        sphere, norm_before = residuals(Xl, values)
        norms[live] = norm_before
        F = np.concatenate([values, sphere[None]])
        J = np.concatenate([jacobians, 2.0 * (Xl - a)[None]])
        step = _newton_steps(J.transpose(2, 0, 1), F.T).T
        # damped update: a start takes the first of 1, 1/2, ..., 1/32 of its step that does
        # not grow its scaled residual, else 1/64; the fractions below 1 are one batch (n, 6, g)
        Xn = Xl - step
        grew = np.flatnonzero(residuals(Xn)[1] > norm_before)
        if grew.size:
            trial = Xl[:, None, grew] - 0.5 ** np.arange(1, 7)[:, None] * step[:, None, grew]
            grown = residuals(trial[:, :-1].reshape(n, -1))[1].reshape(-1, grew.size) > norm_before[grew]
            fraction = np.argmin(grown, axis=0)
            fraction[grown.all(axis=0)] = 5
            Xn[:, grew] = trial[:, fraction, np.arange(grew.size)]
        # starts are evaluated independently, so a start at a bitwise fixed point stays there
        X[:, live] = Xn
        live = live[(Xn.view(np.uint64) != Xl.view(np.uint64)).any(axis=0)]
        if np.max(norms) < 1e-15 or live.size == 0:
            break

    # the equations are tested by the caller; a non-finite start fails both tests
    sphere = np.abs(functools.reduce(np.add, (X - a) ** 2) - radius ** 2)
    return X.T[sphere < SPHERE_TOL * radius ** 2]


def _newton_steps(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Solutions s_i of J_i s_i = F_i: one batched solve, or, when some J_i
    is singular, one solve per row and least squares only where that fails,
    so a singular row leaves the other rows' steps bit for bit as batched."""
    try:
        return np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(J) > 1:
            return np.concatenate([_newton_steps(J[i:i + 1], F[i:i + 1]) for i in range(len(J))])
        return np.linalg.lstsq(J[0], F[0], rcond=None)[0][None]


# ---------------------------------------------------------------------------
# Branch tracing
# ---------------------------------------------------------------------------


def _system(f: Polynomial, center) -> MilnorSystem:
    sys = center if isinstance(center, MilnorSystem) else milnor_equations([f], center)
    if sys.f != f:
        raise ValueError("the MilnorSystem is of another polynomial than f")
    return sys


def trace_branches(f: Polynomial, center: Union[Sequence, MilnorSystem],
                   config: Optional[TraceConfig] = None) -> List[BranchTrace]:
    """Follow branches at infinity of the Milnor set across the spheres of
    `config.radii()`; `center` is its coordinates or a MilnorSystem of f
    (else ValueError, before any slice).

    Points at consecutive radii are matched by escape direction, greedy
    globally nearest pair first; unmatched points open or close branches.
    """
    config = config or TraceConfig()
    sys = _system(f, center)
    radii = config.radii()
    if sys.num_vars == 2:  # a circle costs less than a fork, and the system keeps it for the screen
        slices = [_slice(sys, R, config.seed) for R in radii]
    else:
        sys.compiled, sys.compiled_f, sys.compiled_revalidation  # compiled once, before the children fork
        slices = _cores.map_on_cores(functools.partial(_slice, sys, seed=config.seed), radii)
    a = _float_center(sys)[0]
    branches: List[BranchTrace] = []
    open_branches: List[Tuple[BranchTrace, np.ndarray]] = []  # (trace, last direction)

    for R, (points, residuals) in zip(radii, slices):
        offsets = points - a
        dirs = offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
        samples = _make_samples(sys, points, residuals, R)

        matched_old, matched_new = set(), set()
        if open_branches and len(points):
            old_dirs = np.array([d_old for _, d_old in open_branches])
            dist = np.concatenate(list(_distances(old_dirs, dirs)))
            while True:
                k = np.unravel_index(np.argmin(dist), dist.shape)
                if dist[k] > MATCH_TOL:
                    break
                i_old, j_new = int(k[0]), int(k[1])
                matched_old.add(i_old)
                matched_new.add(j_new)
                trace = open_branches[i_old][0]
                trace.samples.append(samples[j_new])
                open_branches[i_old] = (trace, dirs[j_new])
                dist[i_old, :] = np.inf
                dist[:, j_new] = np.inf

        # unmatched branches close; unmatched points open new ones
        open_branches = [ob for i_old, ob in enumerate(open_branches) if i_old in matched_old]
        for j_new, sample in enumerate(samples):
            if j_new not in matched_new:
                trace = BranchTrace(branch_id=len(branches), samples=[sample])
                branches.append(trace)
                open_branches.append((trace, dirs[j_new]))

    return branches


def _make_samples(sys: MilnorSystem, X: np.ndarray, residuals: np.ndarray, R: float) -> List[Sample]:
    """One sample per slice point (row of X), with the float parts evaluated
    in one batch and the slice's scaled residuals.
    ValueError when f at a point is past the float range."""
    points = X.tolist()
    # f exactly at the float point: float sums of a degree-d f cancel to
    # errors of ~1e-16 * sum |c| R^d, above CONV_TOL at the outer radii.
    # Taken first: past the float range it is the error, not the Jacobians'
    # overflow warnings
    try:
        f_values = [sys.exact_f.at_float(x) for x in points]
    except OverflowError:
        sys.compiled_f.scales(0.0)   # a coefficient of f past the float range is the error, at every radius
        raise ValueError(f"radius {R:g} is too large: f overflows floating point") from None
    return [Sample(radius=R, point=tuple(x), f_value=fx, malgrange=mq, residual=res)
            for x, fx, mq, res in zip(points, f_values, malgrange_quantities(sys.compiled_f, X), residuals.tolist())]


# ---------------------------------------------------------------------------
# Limit estimation
# ---------------------------------------------------------------------------


def _classify(trace: BranchTrace, final_radius: float, factor: float):
    """Set trace.status; return (t0, uncertainty) for convergent branches."""
    samples = trace.samples
    if len(samples) < 4 or samples[-1].radius < final_radius * 0.999:
        trace.status = STATUS_LOST
        return None
    half = samples[min(len(samples) // 2, len(samples) - 3):]   # at least three
    hf = np.array([s.f_value for s in half])
    hr = np.array([s.radius for s in half])

    absf = np.abs(hf)   # its last three are those of every sample
    # the status unless a convergence test below passes
    trace.status = STATUS_DIVERGENT if absf[-1] > DIV_THRESHOLD else STATUS_LOST
    if trace.status == STATUS_DIVERGENT and absf[-1] > absf[-2] > absf[-3]:
        return None

    diffs = np.diff(hf)
    scale = max(1.0, float(absf[-1]))
    if np.max(np.abs(diffs)) <= 1e-13 * scale:
        trace.status = STATUS_CONVERGENT
        return float(hf[-1]), 1e-12 * scale

    ratios = []
    for d1, d2 in zip(diffs, diffs[1:]):
        if abs(d1) > 1e-300:
            r = d2 / d1
            if 0.0 < r < 0.999:
                ratios.append(r)
    if not ratios:
        return None
    r = float(np.median(ratios))
    alpha = -math.log(r) / math.log(factor)

    # least-squares fit of f ~ t0 + c R^(-alpha) with the decay rate fixed
    A = np.stack([np.ones_like(hr), hr ** (-alpha)], axis=1)
    coef, *_ = np.linalg.lstsq(A, hf, rcond=None)
    t0 = float(coef[0])
    residuals, top = A @ coef - hf, float(np.max(np.abs(hf)))
    with np.errstate(over="ignore"):   # the squares may pass the float range, the rms not
        rms = float(np.sqrt(np.mean(residuals ** 2)))
    rms = rms if math.isfinite(rms) else top * float(np.sqrt(np.mean((residuals / top) ** 2)))

    if alpha > ALPHA_MIN and abs(hf[-1] - t0) < CONV_TOL:
        trace.status = STATUS_CONVERGENT
        return t0, abs(hf[-1] - t0) + rms
    return None


def estimate_limits(traces: List[BranchTrace], config: Optional[TraceConfig] = None) -> Tuple[List[LimitValue], int]:
    """Classify branches and cluster the convergent limit estimates.

    Returns (limit value clusters, divergent branch count); statuses are set
    on the traces in place.
    """
    config = config or TraceConfig()
    if not traces:
        return [], 0
    final_radius = max(t.samples[-1].radius for t in traces if t.samples)
    factor = config.radius_factor
    estimates: List[Tuple[float, float, int]] = []
    divergent = 0
    for trace in traces:
        out = _classify(trace, final_radius, factor)
        if trace.status == STATUS_DIVERGENT:
            divergent += 1
        if out is not None:
            estimates.append((out[0], out[1], trace.branch_id))
    estimates.sort()
    clusters: List[LimitValue] = []
    for value, unc, bid in estimates:
        if clusters and abs(value - clusters[-1].value) <= CLUSTER_TOL:
            prev = clusters[-1]
            ids = prev.branch_ids + [bid]
            merged = float(np.mean([value] + [prev.value] * len(prev.branch_ids)))
            clusters[-1] = LimitValue(merged, max(prev.uncertainty, unc, abs(value - merged)), ids)
        else:
            clusters.append(LimitValue(value, unc, [bid]))
    return clusters, divergent


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _bound_cap(f: Polynomial) -> int:
    return int(f.degree) ** (f.num_vars - 1) - 1 if f.degree >= 2 else 0


def s_a_estimate(f: Polynomial, center: Union[Sequence, MilnorSystem],
                 config: Optional[TraceConfig] = None) -> AnalysisReport:
    """Estimate the asymptotic nonregular values for one center: coordinates or a MilnorSystem of f."""
    config = config or TraceConfig()
    sys = _system(f, center)
    base = dict(
        center=sys.center,
        certified=(f.num_vars == 2),
        bound_cap=_bound_cap(f),
        seed=config.seed,
        radii=config.radii(),
        config=config.to_dict(),
    )
    if f.degree < 2:  # the zero polynomial's degree is -inf
        return AnalysisReport(status="trivial-degree",
                              note="degree < 2: no asymptotic nonregular values to estimate", **base)
    try:
        traces = trace_branches(f, sys, config)
    except DegenerateMilnorError as exc:
        return AnalysisReport(status="degenerate", note=str(exc), **base)
    limit_values, divergent = estimate_limits(traces, config)
    monitor: Dict[int, bool] = {}
    for trace in traces:
        if trace.status != STATUS_CONVERGENT:
            continue
        first, last = trace.samples[0].malgrange, trace.samples[-1].malgrange
        monitor[trace.branch_id] = bool(first > 0.0 and last < 0.1 * first)
    return AnalysisReport(
        status="ok",
        limit_values=limit_values,
        divergent_count=divergent,
        bound_respected=(len(limit_values) <= base["bound_cap"]),
        malgrange_monitor=monitor,
        traces=traces,
        **base,
    )


def s_infinity_estimate(
    f: Polynomial,
    centers: Sequence[Union[Sequence, MilnorSystem]],
    config: Optional[TraceConfig] = None,
) -> SInfinityReport:
    """Intersect per-center limit-value estimates across several centers, each as in s_a_estimate."""
    if len(centers) < 2:
        raise ValueError("need at least 2 centers")
    reports = [s_a_estimate(f, c, config) for c in centers]
    usable = [r for r in reports if r.status == "ok"]
    note = ""
    if len(usable) < len(reports):
        note = f"{len(reports) - len(usable)} center(s) excluded from the intersection (degenerate or trivial)"
    intersection: List[LimitValue] = []
    if usable:
        for lv in usable[0].limit_values:
            hits = [lv]
            for other in usable[1:]:
                match = [o for o in other.limit_values if abs(o.value - lv.value) <= CLUSTER_TOL]
                if not match:
                    hits = None
                    break
                hits.append(min(match, key=lambda o: abs(o.value - lv.value)))
            if hits is not None:
                value = float(np.mean([h.value for h in hits]))
                unc = max(h.uncertainty for h in hits)
                ids = sorted({bid for h in hits for bid in h.branch_ids})
                intersection.append(LimitValue(value, unc, ids))
    return SInfinityReport(per_center=reports, intersection=intersection,
                           cluster_tol=CLUSTER_TOL, note=note)


# ---------------------------------------------------------------------------
# Center selection
# ---------------------------------------------------------------------------


def _screen_center(sys: MilnorSystem) -> Tuple[bool, str]:
    """Heuristic genericity screen: sampled Milnor points at R = 10 and 40
    must have a rank n-1 Jacobian of the pivot-chart equations.  Not a
    certificate."""
    if sys.has_zero_equation():
        return False, "identically zero pivot-chart equation"
    for R in (10.0, 40.0):
        try:
            XT = _slice(sys, R, 0, starts=SCREEN_STARTS)[0][:16].T
        except ValueError as exc:  # overflow or a singular solve fails the screen
            return False, f"slice solve failed at R={R}: {exc}"
        with np.errstate(over="ignore"):   # an overflowing |grad f| is not near Sing f
            gnorms = np.linalg.norm(sys.compiled_f.column_jacobians(XT)[0], axis=0)
        # points near Sing f are excluded from the screen
        J = sys.compiled.column_jacobians(XT).transpose(2, 0, 1)
        sv = np.linalg.svd(J[~(gnorms < 1e-9 * (1.0 + R))], compute_uv=False)
        if np.any(sv[:, -1] < 1e-8 * (sv[:, 0] + 1.0)):
            return False, f"rank-deficient Milnor Jacobian at R={R}"
    return True, "ok"


def pick_generic_center(f: Polynomial, seed: int) -> Tuple[Fraction, ...]:
    """Draw a small-height rational center passing the genericity screen.

    Deterministic in `seed`.  Entries have numerator in [-100, 100] and
    denominator in [1, 100].  Raises DegenerateCenterError if all
    CENTER_ATTEMPTS draws fail; the caller may then supply a center manually.
    A coefficient of grad f past the float range is one ValueError, before any draw.
    For degree < 2 the first draw is returned unscreened.
    It returns coordinates only; the CLI passes the screened MilnorSystem on.
    """
    return _pick_generic_system(f, seed).center


def _pick_generic_system(f: Polynomial, seed: int) -> MilnorSystem:
    """pick_generic_center's screened system, with the circles the screen solved.

    For degree < 2 it is the first draw, unscreened: every report of such an
    f is trivial-degree, and nothing reads the screen's slices.
    """
    rng = random.Random(seed)
    diagnostics = []
    if f.degree >= 2:   # the screen evaluates grad f at every draw: past the float range, one ValueError for all
        CompiledPolynomials(f.gradient()).scales(0.0)
    for attempt in range(CENTER_ATTEMPTS):
        sys = _system(f, tuple(Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(f.num_vars)))
        if f.degree < 2:
            return sys
        ok, reason = _screen_center(sys)
        if ok:
            return sys
        diagnostics.append(f"attempt {attempt}: a={tuple(str(c) for c in sys.center)}: {reason}")
    raise DegenerateCenterError(
        f"no generic center found in {CENTER_ATTEMPTS} attempts (seed {seed})", diagnostics
    )
