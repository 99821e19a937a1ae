"""Classification and optimisation of sampling sets on metric graphs.

A set is (gamma, rho)-sampling on an edge when the edge admits a cover by
adjacent closed intervals of length at most rho, each meeting the set in
relative measure at least gamma.  Finite edges carry finite interval unions,
each storing its edge length; infinite edges carry a head union plus an
eventually periodic body.  Over a candidate breakpoint grid on a union's edge,
gamma comes from an exact max-min dynamic program and rho from bisection over
the cover-feasibility program; both are certified one-sided bounds, since any
reported cover verifies exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .graphs import MetricGraph, malformed, read_json
from .polytrig import IntervalUnion

if TYPE_CHECKING:
    from fractions import Fraction

RHO_TOL_REL = 1e-9       # binary search resolution on rho, relative to the edge
_EQ_SLACK = 1e-12        # comparison slack for exact-measure boundary cases


@dataclass(frozen=True)
class PeriodicTail:
    """Set on an infinite edge: head on [0, W] then W + j*period + body."""

    head: IntervalUnion
    period: float
    body: IntervalUnion

    def __post_init__(self):
        if not 0.0 < self.period < math.inf:
            raise ValueError("period must be positive and finite")
        if self.body.length > self.period * (1 + 1e-12):
            raise ValueError("body must live inside one period")

    @property
    def head_span(self) -> float:
        return float(self.head.ends[-1]) if self.head else 0.0


class SamplingSet:
    """Per-edge control set: interval unions on finite edges, periodic tails
    on infinite ones."""

    def __init__(self, finite: Mapping[str, IntervalUnion] | None = None,
                 external: Mapping[str, PeriodicTail] | None = None):
        self.finite: dict[str, IntervalUnion] = dict(finite or {})
        self.external: dict[str, PeriodicTail] = dict(external or {})

    @classmethod
    def from_dict(cls, g: MetricGraph, data: Mapping) -> "SamplingSet":
        finite: dict[str, IntervalUnion] = {}
        external: dict[str, PeriodicTail] = {}
        with malformed("sampling set"):
            for eid, ivs in dict(data.get("edges", {})).items():
                if eid not in g.edge_lengths:
                    raise ValueError(f"sampling set references unknown edge {eid!r}")
                ell = g.edge_lengths[eid]
                if not math.isfinite(ell):
                    raise ValueError(f"edge {eid!r} is infinite; use the external section")
                finite[eid] = IntervalUnion(ivs, length=ell)
            for eid, spec in dict(data.get("external", {})).items():
                if eid not in g.edge_lengths or math.isfinite(g.edge_lengths[eid]):
                    raise ValueError(f"external section references non-ray edge {eid!r}")
                with malformed(f"external set entry {eid!r}"):
                    period = float(spec["period"])
                    head = IntervalUnion(spec.get("head", []))
                    body = IntervalUnion(spec["body"], length=period)
                external[eid] = PeriodicTail(head=head, period=period, body=body)
        return cls(finite, external)

    @classmethod
    def load(cls, g: MetricGraph, path) -> "SamplingSet":
        return cls.from_dict(g, read_json(path))


@dataclass(frozen=True)
class Cover:
    """Adjacent-interval covers: breakpoints per finite edge (0 = t0 < ... = len),
    and (head breakpoints, body breakpoints) per infinite edge."""

    breakpoints: Mapping[str, tuple[float, ...]]
    external: Mapping[str, tuple[tuple[float, ...], tuple[float, ...]]] = field(
        default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping) -> "Cover":
        with malformed("cover"):
            return cls(
                breakpoints={e: tuple(map(float, bps)) for e, bps in
                             dict(data.get("edges", {})).items()},
                external={e: (tuple(map(float, v["head"])), tuple(map(float, v["body"])))
                          for e, v in dict(data.get("external", {})).items()})

    def to_json(self) -> dict:
        out: dict = {"edges": {e: list(b) for e, b in sorted(dict(self.breakpoints).items())}}
        if self.external:
            out["external"] = {e: {"head": list(h), "body": list(b)}
                               for e, (h, b) in sorted(dict(self.external).items())}
        return out


@dataclass
class SamplingParams:
    """Certified parameters achieved by a concrete cover."""

    gamma: float
    rho: float
    cover: Cover
    densities: dict[str, list[float]]


@dataclass
class CoverViolation:
    gamma: float
    rho: float
    issues: list[str]


def _check_edge_cover(eid: str, omega: IntervalUnion, bps, ell: float,
                      gamma: float, rho: float, issues: list[str],
                      densities: list[float]) -> tuple[float, float]:
    slack = _EQ_SLACK * max(1.0, ell)
    worst_gamma, worst_rho = 1.0, 0.0
    if len(bps) < 2 or abs(bps[0]) > slack or abs(bps[-1] - ell) > slack:
        issues.append(f"{eid}: breakpoints must run from 0 to {ell}")
        return worst_gamma, worst_rho
    for t0, t1 in zip(bps, bps[1:]):
        width = t1 - t0
        if width <= 0.0:
            issues.append(f"{eid}: breakpoints not increasing at {t0}")
            continue
        if width > rho + slack:
            issues.append(f"{eid}: interval [{t0}, {t1}] longer than rho={rho}")
        meas = omega.measure_in(t0, t1)
        dens = meas / width
        densities.append(dens)
        if meas + slack < gamma * width:
            issues.append(f"{eid}: [{t0}, {t1}] holds measure {meas} < "
                          f"gamma*|J| = {gamma * width}")
        worst_gamma = min(worst_gamma, dens)
        worst_rho = max(worst_rho, width)
    return worst_gamma, worst_rho


def verify_cover(omega: SamplingSet, cover: Cover, gamma: float, rho: float
                 ) -> SamplingParams | CoverViolation:
    """Exact check of the sampling definition for a concrete cover; on success
    reports the achieved (maximal gamma, minimal rho) this cover certifies."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    issues: list[str] = []
    densities: dict[str, list[float]] = {}
    if set(cover.breakpoints) != set(omega.finite) or \
            set(cover.external) != set(omega.external):
        raise ValueError("cover and sampling set address different edges")
    got_gamma, got_rho = 1.0, 0.0
    for eid, iu in omega.finite.items():
        dens: list[float] = []
        wg, wr = _check_edge_cover(eid, iu, cover.breakpoints[eid], iu.length,
                                   gamma, rho, issues, dens)
        densities[eid] = dens
        got_gamma, got_rho = min(got_gamma, wg), max(got_rho, wr)
    for eid, tail in omega.external.items():
        head_bps, body_bps = cover.external[eid]
        dens: list[float] = []
        if tail.head.intervals or len(head_bps) > 1:
            wg, wr = _check_edge_cover(f"{eid}(head)", tail.head, head_bps,
                                       tail.head_span, gamma, rho, issues, dens)
            got_gamma, got_rho = min(got_gamma, wg), max(got_rho, wr)
        wg, wr = _check_edge_cover(f"{eid}(body)", tail.body, body_bps,
                                   tail.period, gamma, rho, issues, dens)
        densities[eid] = dens
        got_gamma, got_rho = min(got_gamma, wg), max(got_rho, wr)
    if issues:
        return CoverViolation(gamma=gamma, rho=rho, issues=issues)
    return SamplingParams(gamma=got_gamma, rho=got_rho, cover=cover,
                          densities=densities)


# ---------------------------------------------------------------------------
# gap analysis


@dataclass
class EdgeGaps:
    left: float
    right: float          # infinite edges report the worst tail gap here
    max_interior: float


def gap_analysis(omega: SamplingSet) -> dict[str, EdgeGaps]:
    """Endpoint and largest interior gaps per edge; a ray's are its head's,
    the body's and the wrap p - b_last + a_first, which is at least the one
    from the head to the body (a_first), so no period is unrolled."""
    out: dict[str, EdgeGaps] = {}
    for eid, iu in omega.finite.items():
        left, interior, right = iu.gaps()
        out[eid] = EdgeGaps(left=left, right=right,
                            max_interior=max(interior, default=0.0))
    for eid, tail in omega.external.items():
        head, body = tail.head, tail.body
        interior = head.gaps()[1]
        if body:
            first, last = float(body.starts[0]), float(body.ends[-1])
            interior += body.gaps()[1] + [tail.period - last + first]
        starts = [*head.starts[:1].tolist(), *body.starts[:1].tolist()]
        out[eid] = EdgeGaps(left=starts[0] if starts else math.inf,
                            right=0.0 if body else math.inf,  # no body: the tail is one gap
                            max_interior=max(interior, default=0.0))
    return out


def necessary_check(gaps: Mapping[str, EdgeGaps], gamma: float, rho: float
                    ) -> tuple[bool, list[str]]:
    """Necessary condition from the maximal admissible gaps: endpoint gaps at
    most (1-gamma)*rho, interior gaps at most 2*(1-gamma)*rho.  Failure proves
    the set is not (gamma, rho)-sampling."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    issues = []
    end_cap = (1.0 - gamma) * rho
    mid_cap = 2.0 * end_cap
    slack = _EQ_SLACK
    for eid, eg in gaps.items():
        if eg.left > end_cap + slack or eg.right > end_cap + slack:
            issues.append(f"{eid}: endpoint gap {max(eg.left, eg.right)} "
                          f"exceeds (1-gamma)*rho = {end_cap}")
        if eg.max_interior > mid_cap + slack:
            issues.append(f"{eid}: interior gap {eg.max_interior} exceeds "
                          f"2*(1-gamma)*rho = {mid_cap}")
    return not issues, issues


# ---------------------------------------------------------------------------
# optimisers


def _rho_free(omega: IntervalUnion, grid_n: int) -> tuple[list[float], np.ndarray]:
    """The points 0, ell = omega.length and the set's endpoints, sorted and
    unique; and the candidates that do not depend on rho: those points and the
    grid, sorted, unique, in [0, ell]."""
    ell = omega.length
    ends = np.unique(np.concatenate(([0.0, ell], omega.starts, omega.ends)) + 0.0)  # -0.0 -> 0.0
    pts = np.union1d(ends, ell * np.arange(1, grid_n) / grid_n)
    return ends.tolist(), pts[(pts >= -1e-15) & (pts <= ell * (1 + 1e-15))]


def _shifted(ends: list[float], rho: float, ell: float) -> list[float]:
    """The points ends -/+ rho inside (0, ell), sorted and unique."""
    return sorted({x for e in ends for x in (e - rho, e + rho) if 0.0 < x < ell})


def _candidates(omega: IntervalUnion, rho: float, grid_n: int) -> np.ndarray:
    ends, base = _rho_free(omega, grid_n)
    return np.union1d(base, _shifted(ends, rho, omega.length))


def _window_starts(ts: np.ndarray, rho: float, ell: float) -> list[int]:
    """lo[i] = first j with ts[i] - ts[j] <= rho + slack: a window's start."""
    slack_w = rho + _EQ_SLACK * max(1.0, ell)
    t, lo, j = ts.tolist(), [], 0
    for ti in t:
        while ti - t[j] > slack_w:
            j += 1
        lo.append(j)
    return lo


def _maxmin_density(ts: np.ndarray, pref: np.ndarray, lo: list[int]) -> float:
    """Exact max over candidate-aligned covers of the least window density
    (-inf if none reaches ell): best[i] = max_j min(best[j], dens(j, i)).
    The densities of a block of rows come from one array expression, the
    same float per entry as row by row; the recurrence then runs row by row."""
    n = ts.size
    best = np.full(n, -np.inf)
    best[0] = np.inf
    maximum, minimum = np.maximum.reduce, np.minimum
    a = 1
    while a < n:
        c = lo[a]
        # at most 64 rows and about 2**15 densities: on wide windows a larger
        # block falls out of cache and is slower than row by row
        b = min(n, a + max(1, min(64, 32768 // (a - c + 1))))
        with np.errstate(divide="ignore", invalid="ignore"):  # j >= i: unused
            dens = (pref[a:b, None] - pref[c:b]) / (ts[a:b, None] - ts[c:b])
        for i, row, j in zip(range(a, b), dens, lo[a:b]):
            if j < i:
                window = row[j - c:i - c]
                best[i] = maximum(minimum(best[j:i], window, out=window))
        a = b
    return float(best[-1])


def _reach(t: list[float], q: list[float], slack_w: float, slack_m: float) -> bool:
    """Forward pass of the cover DP over the candidates t, with q = pref -
    gamma*t: [t[j], t[i]] is a window iff t[i] - t[j] <= slack_w, and dense
    enough iff q[j] <= q[i] + slack_m.  Sets q = inf at the unreached
    candidates, in place; True iff ell is reached."""
    inf = math.inf
    live = deque([0])  # the reached candidates of the window, in increasing q
    popleft, pop, append = live.popleft, live.pop, live.append
    j, q_min = 0, q[0]  # the window's start; q at live[0]
    for i in range(1, len(t)):
        ti = t[i]
        if ti - t[j] > slack_w:  # the window moved: drop what it left behind
            j += 1
            while ti - t[j] > slack_w:
                j += 1
            while live[0] < j:
                popleft()
                if not live:  # no window beyond this one holds a reached point
                    return False
            q_min = q[live[0]]
        qi = q[i]
        if q_min <= qi + slack_m:
            if q_min >= qi:  # i undercuts every reached point of the window
                live.clear()
                q_min = qi
            else:
                while q[live[-1]] >= qi:  # stops above live[0], whose q < qi
                    pop()
            append(i)
        else:
            q[i] = inf
    return q[-1] != inf


def _walk(t: list[float], q: list[float], slack_w: float, slack_m: float
          ) -> list[float]:
    """Breakpoints of the cover a successful _reach found: from ell back to 0,
    each step goes to the earliest dense-enough reached point of its window
    (the longest step)."""
    i = len(t) - 1
    path = [t[i]]
    while i > 0:
        ti, bound = t[i], q[i] + slack_m
        j = i - 1
        while j >= 0 and ti - t[j] <= slack_w:
            if q[j] <= bound:
                i = j
            j -= 1
        path.append(t[i])
    return path[::-1]


@dataclass
class GammaResult:
    gamma: float
    breakpoints: tuple[float, ...] | None
    feasible: bool
    gap_witness: str | None = None


@dataclass
class RhoResult:
    rho: float
    breakpoints: tuple[float, ...] | None
    feasible: bool
    global_density: float


def _achieved(omega: IntervalUnion, bps: list[float]) -> tuple[float, float]:
    dens = [omega.measure_in(a, b) / (b - a) for a, b in zip(bps, bps[1:])]
    widths = [b - a for a, b in zip(bps, bps[1:])]
    return min(dens), max(widths)


def optimal_gamma(omega: IntervalUnion, rho: float, *, grid_n: int = 200) -> GammaResult:
    """Largest certified gamma such that omega is (gamma, rho)-sampling on its
    edge [0, omega.length]: the exact max-min window density over
    candidate-aligned covers (one forward DP), certified by the cover the
    feasibility DP builds at it.  A lower bound on the true optimum; exact
    when an optimal cover's breakpoints lie in the candidate set."""
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    if omega.measure <= 0.0:
        return GammaResult(gamma=0.0, breakpoints=None, feasible=False,
                           gap_witness="empty set")
    ell = omega.length
    ts = _candidates(omega, rho, grid_n)
    pref = omega.prefix_measures(ts)
    gamma = _maxmin_density(ts, pref, _window_starts(ts, rho, ell))
    bps = None
    if gamma > 0.0:  # the feasibility DP's cover at gamma, preferring long steps
        slack_m = _EQ_SLACK * max(1.0, ell)
        t, q = ts.tolist(), (pref - gamma * ts).tolist()
        if _reach(t, q, rho + slack_m, slack_m):
            bps = _walk(t, q, rho + slack_m, slack_m)
    gamma_star = _achieved(omega, bps)[0] if bps else 0.0
    if gamma_star <= 10.0 * _EQ_SLACK:
        # no cover, or only ones with a measure-zero window the slack let through
        left, interior, right = omega.gaps()
        worst = max([left, right] + interior)
        return GammaResult(gamma=0.0, breakpoints=None, feasible=False,
                           gap_witness=f"gap of length {worst} cannot be covered "
                                       f"at rho={rho}")
    return GammaResult(gamma=gamma_star, breakpoints=tuple(bps), feasible=True)


def optimal_rho(omega: IntervalUnion, gamma: float, *, grid_n: int = 200) -> RhoResult:
    """Smallest certified rho for the given gamma on the edge [0, omega.length]
    (an upper bound on the true minimum), with its certificate cover."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    ell = omega.length
    global_density = omega.measure / ell if ell > 0 else 0.0
    if global_density + _EQ_SLACK < gamma:
        return RhoResult(rho=math.inf, breakpoints=None, feasible=False,
                         global_density=global_density)
    # each step adds to the rho-free candidates only the points shifted by
    # its rho; the last feasible step's DP state yields the cover at the end
    ends, base = _rho_free(omega, grid_n)
    t_base = base.tolist()
    in_base = set(t_base)
    q_base = (omega.prefix_measures(base) - gamma * base).tolist()
    slack_m = _EQ_SLACK * max(1.0, ell)
    lo, hi = 0.0, ell
    last = None
    while hi - lo > RHO_TOL_REL * ell:
        mid = 0.5 * (lo + hi)
        pts = [x for x in _shifted(ends, mid, ell) if x not in in_base]
        t, q = t_base[:], q_base[:]
        for x, p in zip(pts[::-1], omega.prefix_measures(pts)[::-1].tolist()):
            at = bisect_left(t_base, x)
            t.insert(at, x)
            q.insert(at, p - gamma * x)
        if _reach(t, q, mid + slack_m, slack_m):
            hi = mid
            last = (t, q, mid + slack_m)
        else:
            lo = mid
    best = _walk(*last, slack_m) if last else [0.0, ell]
    _, rho_star = _achieved(omega, best)
    return RhoResult(rho=rho_star, breakpoints=tuple(best), feasible=True,
                     global_density=global_density)


def certified_params(omega: IntervalUnion) -> tuple[float, float, tuple[float, ...]] | None:
    """(gamma, rho, cover breakpoints) of omega on its edge [0, omega.length]
    at the smallest workable rho, the one optimal_rho finds for gamma = 1e-6,
    or None if the edge cannot be certified.  gamma is optimal_gamma's at that
    rho.  That DP is aligned to the candidates at rho, which optimal_rho's
    cover (built at the rho of a bisection step) need not be; where it finds
    no cover, that cover certifies at its achieved gamma, under the same
    measure-zero rule."""
    res_r = optimal_rho(omega, gamma=1e-6)
    if not res_r.feasible:
        return None
    res_g = optimal_gamma(omega, rho=res_r.rho)
    if res_g.feasible:
        return res_g.gamma, res_r.rho, res_g.breakpoints
    gamma = _achieved(omega, list(res_r.breakpoints))[0]
    return (gamma, res_r.rho, res_r.breakpoints) if gamma > 10.0 * _EQ_SLACK else None


def certify(sset: SamplingSet) -> SamplingParams:
    """The certificate the verify commands use: every finite edge's
    certified_params (each edge's union carries its edge length), checked by
    verify_cover at (min over edges of gamma, max over edges of rho), at which
    the graph-level set is sampling.  ValueError when an edge cannot be
    certified, when there is none, or when the aggregate fails."""
    found = {}
    for eid, iu in sset.finite.items():
        found[eid] = certified_params(iu)
        if found[eid] is None:
            raise ValueError(f"edge {eid!r}: set cannot be certified")
    if not found:
        raise ValueError("no edges")
    gammas, rhos, covers = zip(*found.values())
    params = verify_cover(sset, Cover(breakpoints=dict(zip(found, covers))),
                          gamma=min(gammas), rho=max(rhos))
    if not isinstance(params, SamplingParams):
        raise ValueError(f"certification failed: {params.issues}")
    return params


# ---------------------------------------------------------------------------
# catalogue sets


def periodic_params(density: float, rho: float) -> float:
    """Certified gamma for a 1-periodic set of per-period density on a ray,
    covered by adjacent windows of length exactly rho: the floor-based value
    (n*density + max(0, frac - (1-density))) / rho with n = floor(rho)."""
    if not (0.0 < density < 1.0):
        raise ValueError("density must lie in (0, 1)")
    if rho <= 1.0 - density:
        raise ValueError(f"rho must exceed the worst-case gap {1.0 - density}")
    n = math.floor(rho)
    frac = rho - n
    return (n * density + max(0.0, frac - (1.0 - density))) / rho


def periodic_uniform_gamma(density: float) -> float:
    """rho-independent fallback valid for every rho >= 1: density/(2-density)."""
    if not (0.0 < density < 1.0):
        raise ValueError("density must lie in (0, 1)")
    return density / (2.0 - density)


def svc_set(depth: int) -> tuple[IntervalUnion, Fraction]:
    """Depth-n approximant of the fat Cantor set built by removing middle
    intervals of length 4**-n; a superset of the limit set, with its exact
    dyadic measure 1/2 + 2**-(n+1) returned alongside."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > 20:
        raise ValueError("depth too large for exact endpoint arithmetic")
    from fractions import Fraction  # loaded here, so that import qgs does not load it
    intervals = [(Fraction(0), Fraction(1))]
    for step in range(1, depth + 1):
        remove = Fraction(1, 4 ** step)
        nxt = []
        for a, b in intervals:
            mid = (a + b) / 2
            nxt.append((a, mid - remove / 2))
            nxt.append((mid + remove / 2, b))
        intervals = nxt
    measure = sum((b - a for a, b in intervals), Fraction(0))
    iu = IntervalUnion([(float(a), float(b)) for a, b in intervals], length=1.0)
    return iu, measure
