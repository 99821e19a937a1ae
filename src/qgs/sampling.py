"""Classification and optimisation of sampling sets on metric graphs.

A set is (gamma, rho)-sampling on an edge when the edge admits a cover by
adjacent closed intervals of length at most rho, each meeting the set in
relative measure at least gamma.  Finite edges carry finite interval unions,
each storing its edge length; infinite edges carry a head union plus an
eventually periodic body.  Whether a union's edge has a cover at (gamma, rho),
with breakpoints anywhere, is decided exactly by one sweep over its m
intervals in O(m); optimal gamma and rho come from bisection on that decision
and are certified one-sided bounds, since any reported cover verifies exactly.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .graphs import MetricGraph, malformed, read_json
from .polytrig import IntervalUnion

if TYPE_CHECKING:
    from fractions import Fraction

RHO_TOL_REL = 1e-9       # bisection width on rho (gamma), relative to the edge (top density)
COVER_SIZE = 200         # rho >= length/COVER_SIZE: a cover has about 2*COVER_SIZE + 2m windows
_EQ_SLACK = 1e-12        # comparison slack for exact-measure boundary cases

_log = logging.getLogger("qgs.sampling")


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
        """The set a file describes on g.  A finite edge the file omits
        carries the empty set, so no certificate can pass over it."""
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
            for eid in g.internal_ids:
                finite.setdefault(eid, IntervalUnion([], length=g.edge_lengths[eid]))
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


def _reach(omega: IntervalUnion, gamma: float, rho: float
           ) -> list[tuple[float, float, float, float]] | None:
    """The set reached at (gamma, rho) on the edge [0, ell] of omega, as
    pieces (lo, hi, g0, slope) on each of which g(y) = g0 + slope*y, or None
    if ell is not in it.  With g(x) = |omega ∩ [0, x]| - gamma*x, a window
    [y, x] has density at least gamma iff g(y) <= g(x): x is reached (ends
    a cover of [0, x]) iff x = 0 or some reached y in [x - rho, x) has g(y)
    <= g(x).  g rises on omega and falls on its gaps, so the reached set is
    {0} on the left end gap, a suffix [c_k, b_k] of each interval [a_k, b_k]
    (a reached point witnesses the later ones, where g is no lower) and a
    prefix (b_k, d_k] of the gap after it (a gap point's witness lies at or
    before b_k and witnesses the gap points before it too; with no c_k it
    would witness b_k, so the prefix is empty).  On the window [x - rho, x)
    the least g of a piece is 0, g(c_k) or g(d_k) until the window leaves
    it, but g(z) on the suffix holding z = x - rho.  A deque keeps these
    constants in the order they leave, each below those behind it.  Between
    events (a constant leaving, z entering or leaving a suffix) the test is
    linear in x: a constant against g(x), or g(z) <= g(x), i.e. |omega ∩ [z,
    x]| >= gamma*rho, a measure constant for x on omega and falling at slope
    1 on a gap.  c_k is the first x of its interval to pass, d_k the last of
    its gap.  Each piece enters and leaves the deque once: O(m) for m
    intervals.  A window with no reached point ends the sweep, as no later
    point can be reached."""
    a, b, cum, ell = omega.starts.tolist(), omega.ends.tolist(), omega.cum.tolist(), omega.length
    s, inf, m = 1.0 - gamma, math.inf, len(a)
    pieces = [(0.0, 0.0, 0.0, s)] if m and a[0] > 0.0 else []  # {0} on a left end gap
    consts = deque([(rho, 0.0)] * len(pieces))  # (x at which it leaves, g)
    suffixes: list[tuple[float, float, float]] = []  # (x it enters, x it leaves, g0)
    sp = 0  # the first suffix the window has not left

    def window(x: float) -> tuple[float, float | None, float]:
        """(least constant, g0 of the suffix holding x - rho or None, next event)."""
        nonlocal sp
        while consts and consts[0][0] <= x:
            consts.popleft()
        while sp < len(suffixes) and suffixes[sp][1] <= x:
            sp += 1
        least, nxt = (consts[0][1], consts[0][0]) if consts else (inf, inf)
        if sp == len(suffixes):
            return least, None, nxt
        enter, leave, g0 = suffixes[sp]
        return (least, g0, min(nxt, leave)) if enter <= x else (least, None, min(nxt, enter))

    def push(leave: float, g: float) -> None:
        while consts and consts[-1][1] >= g:
            consts.pop()
        consts.append((leave, g))

    for k in range(m):
        ak, bk = a[k], b[k]
        g0 = cum[k] - ak  # g = g0 + s*x on [ak, bk]
        x, c = ak, (ak if k == 0 and ak <= 0.0 else None)
        while c is None:
            least, gz, t = window(x)
            if least == inf and gz is None:
                return None
            t = min(t, bk)
            if least <= g0 + s * x or gz is not None and g0 - gz + s * rho >= 0.0:
                c = x
            elif s > 0.0 and least <= g0 + s * t:
                c = min(max(x, (least - g0) / s), t)
            elif t >= bk:
                break
            else:
                x = t
        if c is None:
            continue
        push(c + rho, g0 + s * c)
        suffixes.append((c + rho, bk + rho, g0))
        pieces.append((c, bk, g0, s))
        end = a[k + 1] if k + 1 < m else ell
        G, x, d = cum[k + 1], bk, None  # g = G - gamma*x on the gap
        while d is None and end > bk:
            least, gz, t = window(x)
            t = min(t, end)
            e = max((G - least) / gamma, -inf if gz is None else G - gz + s * rho)
            if e < t or t >= end:
                d = max(x, min(e, end))
            else:
                x = t
        if d is not None and d > bk:
            push(d + rho, G - gamma * d)
            pieces.append((bk, d, G, -gamma))
    return pieces if pieces and pieces[-1][1] >= ell else None


def _walk(pieces: list[tuple[float, float, float, float]], ell: float, gamma: float,
          rho: float) -> list[float]:
    """Breakpoints of a cover of [0, ell] through the reached set `pieces`
    of _reach, walked back from ell: each step goes to the earliest reached
    y in [x - rho, x) with g(y) <= g(x), up to a tie of 1e-14*max(1, ell)
    on g and on the ends of the pieces, whose g lines it extends, but none
    on the width, nor on the point 0 of a left end gap, whose neighbours
    are not reached.  A gap never witnesses its own points."""
    tie = 1e-14 * max(1.0, ell)
    his = [hi + tie if hi > 0.0 else 0.0 for _, hi, _, _ in pieces]
    i = len(pieces) - 1
    x = ell
    gx = pieces[i][2] + pieces[i][3] * x
    path = [x]
    while x > 0.0:
        z = x - rho
        for j in range(bisect_left(his, z), i if pieces[i][3] < 0.0 else i + 1):
            lo, hi, g0, slope = pieces[j]
            y = max(lo, z) if slope >= 0.0 else max(lo, z, min(hi, (g0 - gx) / gamma))
            if y < x and y <= his[j] and g0 + slope * y <= gx + tie:
                break
        else:
            raise AssertionError(f"no reached point witnesses {x!r}")
        while x - y > rho:
            y = math.nextafter(y, math.inf)
        x, gx, i = y, g0 + slope * y, j
        path.append(x)
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


def _search(decide, good: float, ideal: float, width: float):
    """(parameter, its pieces, sweeps): the parameter nearest `ideal` that
    `decide` passes, by bisection from `good` down to `width`; ideal itself
    if it passes, good with pieces None if good fails too."""
    got = decide(ideal)
    if got is not None:
        return ideal, got, 1
    got, bad, sweeps = decide(good), ideal, 2
    while got is not None and abs(bad - good) > width:
        mid, sweeps = 0.5 * (good + bad), sweeps + 1
        pieces = decide(mid)
        if pieces is None:
            bad = mid
        else:
            good, got = mid, pieces
    return good, got, sweeps


def _log_search(kind: str, sweeps: int, omega: IntervalUnion, bps, feasible: bool) -> None:
    diagnostics = dict(search=kind, sweeps=sweeps, pieces=len(omega),
                       windows=len(bps) - 1 if bps else 0, feasible=feasible)
    _log.debug("optimal_%s %s", kind, diagnostics, extra={"diagnostics": diagnostics})


def optimal_gamma(omega: IntervalUnion, rho: float) -> GammaResult:
    """Largest certified gamma such that omega is (gamma, rho)-sampling on its
    edge [0, omega.length], over covers with breakpoints anywhere: the least
    density of the cover walked at the passing end of a bisection on the
    exact decision _reach, to RHO_TOL_REL times min(1, |omega|/length), a
    lower bound within that width of the optimum.  A set with no cover denser
    than 10*_EQ_SLACK is refused with its widest gap; a rho below
    length/COVER_SIZE is a ValueError."""
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    ell = omega.length
    if rho < ell / COVER_SIZE:
        raise ValueError(f"rho = {rho:g} is below the edge length / {COVER_SIZE} = "
                         f"{ell / COVER_SIZE:g}: its cover could take more than "
                         f"{2 * COVER_SIZE} windows")
    if omega.measure <= 0.0:
        _log_search("gamma", 0, omega, None, False)
        return GammaResult(gamma=0.0, breakpoints=None, feasible=False,
                           gap_witness="empty set")
    top = min(1.0, omega.measure / ell)
    gamma, got, sweeps = _search(lambda g: _reach(omega, g, rho), 10.0 * _EQ_SLACK, top,
                                 RHO_TOL_REL * top)
    bps = _walk(got, ell, gamma, rho) if got is not None else None
    gamma_star = _achieved(omega, bps)[0] if bps else 0.0
    feasible = gamma_star > 10.0 * _EQ_SLACK
    _log_search("gamma", sweeps, omega, bps, feasible)
    if not feasible:
        # no cover, or only ones with a measure-zero window the tie let through
        left, interior, right = omega.gaps()
        return GammaResult(gamma=0.0, breakpoints=None, feasible=False,
                           gap_witness=f"gap of length {max([left, right] + interior)} "
                                       f"cannot be covered at rho={rho}")
    return GammaResult(gamma=gamma_star, breakpoints=tuple(bps), feasible=True)


def optimal_rho(omega: IntervalUnion, gamma: float) -> RhoResult:
    """Smallest certified rho for the given gamma on the edge [0,
    omega.length], over covers with breakpoints anywhere: the widest window
    of the cover walked at the passing end of a bisection on the exact
    decision _reach, to RHO_TOL_REL times the length and stopping at the
    floor length/COVER_SIZE, an upper bound within that width of the minimum
    or at the floor."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    ell = omega.length
    global_density = omega.measure / ell if ell > 0 else 0.0
    if global_density + _EQ_SLACK < gamma:
        _log_search("rho", 0, omega, None, False)
        return RhoResult(rho=math.inf, breakpoints=None, feasible=False,
                         global_density=global_density)
    rho, got, sweeps = _search(lambda r: _reach(omega, gamma, r), ell, ell / COVER_SIZE,
                               RHO_TOL_REL * ell)
    # within _EQ_SLACK of the global density the one window [0, ell] is the cover
    best = _walk(got, ell, gamma, rho) if got is not None else [0.0, ell]
    _log_search("rho", sweeps, omega, best, True)
    return RhoResult(rho=_achieved(omega, best)[1], breakpoints=tuple(best),
                     feasible=True, global_density=global_density)


def certified_params(omega: IntervalUnion) -> tuple[float, float, tuple[float, ...]] | None:
    """(gamma, rho, cover breakpoints) of omega on its edge [0, omega.length]
    at the smallest workable rho, the one optimal_rho finds for gamma = 1e-6
    (raised to the floor length/COVER_SIZE optimal_gamma takes), or None if
    the edge cannot be certified.  gamma is optimal_gamma's at that rho: both
    searches decide over all covers, so optimal_rho's own cover is one that
    optimal_gamma maximises over, and it finds one at least as dense."""
    res_r = optimal_rho(omega, gamma=1e-6)
    if not res_r.feasible:
        return None
    rho = max(res_r.rho, omega.length / COVER_SIZE)
    res_g = optimal_gamma(omega, rho=rho)
    assert res_g.feasible, f"optimal_gamma found no cover at rho = {rho!r}"
    return res_g.gamma, rho, res_g.breakpoints


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
