"""Explicit constants of the sampling inequalities, heat-trace and
observability estimates, and the torsion function's Bernstein profile.

All constant arithmetic runs in natural-log space; a report carries both the
log value and the linear value, with an underflow flag once the linear value
drops below exp(-700), and inf once it passes exp(700).  The spectral bound
is the series-budget bound at h = exp(10 rho sqrt(lambda)), computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graphs import GraphMetrics
from .polytrig import masses
from .spectral import count_bound, wavenumber_range

LOG2 = math.log(2.0)
UNDERFLOW_LOG = -700.0
OVERFLOW_LOG = 700.0
BASE_CONSTANT = 12.0        # prefactor of the sampling bounds
DENOMINATOR = 48.0          # gamma is compared against this scale
SERIES_RADIUS = 10.0        # the (10*rho)^m / m! budget series


@dataclass
class BoundReport:
    formula: str
    value: float
    log_value: float
    inputs: dict
    underflow: bool = False
    notes: tuple[str, ...] = ()


def _capped_exp(log_value: float) -> float:
    """exp(log_value) below exp(700) and inf above: a constant past the float
    range saturates instead of raising."""
    return math.exp(log_value) if log_value < OVERFLOW_LOG else math.inf


def _report(formula: str, log_value: float, inputs: dict,
            notes: tuple[str, ...] = ()) -> BoundReport:
    under = log_value < UNDERFLOW_LOG
    return BoundReport(formula=formula, value=0.0 if under else _capped_exp(log_value),
                       log_value=log_value, inputs=inputs, underflow=under, notes=notes)


def h_bound(gamma: float, h: float | None = None, log_h: float | None = None) -> BoundReport:
    """Sampling-inequality constant 12 (gamma/48)^(4 log2(h) + 5) from the
    series budget h >= 1 (formula id thm26); log-space throughout."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if log_h is None:
        if h is None:
            raise ValueError("one of h, log_h is required")
        if h < 1.0:
            raise ValueError("h must be at least 1")
        log_h = math.log(h)
    elif log_h < 0.0:
        raise ValueError("log_h must be nonnegative")
    expo = 4.0 * log_h / LOG2 + 5.0
    log_c = math.log(BASE_CONSTANT) + expo * math.log(gamma / DENOMINATOR)
    return _report("thm26", log_c,
                   {"gamma": gamma, "h": _capped_exp(log_h),
                    "log_h": log_h, "exponent": expo})


def spectral_bound(gamma: float, rho: float, lam: float) -> BoundReport:
    """Constant 12 (gamma/48)^(40 rho sqrt(lam)/log 2 + 5) for spectral
    subspaces up to energy lam (formula id thm21): h_bound with
    h = exp(10 rho sqrt(lam)), relabelled."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    via_h = h_bound(gamma, log_h=SERIES_RADIUS * rho * math.sqrt(lam))
    return _report("thm21", via_h.log_value,
                   {"gamma": gamma, "rho": rho, "lam": lam,
                    "exponent": via_h.inputs["exponent"]})


@dataclass
class StandardRange:
    lower_length: BoundReport
    upper: BoundReport
    lower_diameter: BoundReport


def standard_range(m: GraphMetrics, k: int, gamma: float, rho: float) -> StandardRange:
    """Two-sided range for the constant covering combinations of the k lowest
    standard-Laplacian eigenfunctions, from the eigenvalue bracketing by total
    length, cycle count and leaf count, plus the diameter-based lower bound
    (formula id cor72), from the graph's metrics."""
    if k < 2:
        raise ValueError("the eigenvalue bracketing is stated for k >= 2")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not m.connected:
        raise ValueError("the range needs a connected compact graph")
    total = m.total_length
    if not math.isfinite(total):
        raise ValueError("the range needs a compact graph")
    lg = math.log(gamma / DENOMINATOR)
    log12 = math.log(BASE_CONSTANT)
    coef = 4.0 * SERIES_RADIUS * rho / LOG2

    expo_lower = coef * (k - 1 + 1.5 * m.betti + 0.5 * m.degree1_count) * math.pi / total + 5.0
    expo_upper = 0.5 * coef * k * math.pi / total + 5.0
    lower = _report("cor72-lower-length", log12 + expo_lower * lg,
                    {"gamma": gamma, "rho": rho, "k": k, "total_length": total,
                     "betti": m.betti, "leaves": m.degree1_count})
    upper = _report("cor72-upper", log12 + expo_upper * lg,
                    {"gamma": gamma, "rho": rho, "k": k, "total_length": total})
    if lower.log_value > upper.log_value + 1e-12:
        raise AssertionError("bracketing constants out of order")
    if m.diameter is None:
        raise ValueError("diameter unavailable")
    expo_diam = coef * (k + m.betti - 1) * math.pi / m.diameter + 5.0
    lower_d = _report("cor72-lower-diameter", log12 + expo_diam * lg,
                      {"gamma": gamma, "rho": rho, "k": k, "diameter": m.diameter,
                       "betti": m.betti})
    return StandardRange(lower_length=lower, upper=upper, lower_diameter=lower_d)


# ---------------------------------------------------------------------------
# heat trace


def _logsumexp(vals: Sequence[float]) -> float:
    if not vals:
        return -math.inf
    top = max(vals)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(v - top) for v in vals))


@dataclass
class TraceReport:
    bound: float
    log_bound: float
    exact_partial: float
    tail_bound: float
    inputs: dict
    notes: tuple[str, ...] = ()


def heat_trace_bound(eigen_masses: Sequence[tuple[float, float]], gamma: float,
                     rho: float, t: float, total_length: float,
                     edges: int) -> TraceReport:
    """Upper bound on the heat-semigroup trace from the sampling inequality
    applied to every eigenpair (formula id trace).

    eigen_masses lists (lambda_k, control-set mass of the k-th eigenfunction)
    for all eigenvalues up to the computed cutoff; the remainder is bounded
    rigorously using mass <= 1 and the eigenphase count, which holds under
    every vertex condition and flux: at most |G| k / pi + 2E eigenvalues lie
    in (0, k^2], so with z zero modes the i-th eigenvalue has
    sqrt(lambda_i) >= pi (i - z - 2E) / |G|.  The exponent is
    -lambda*t + c*sqrt(lambda) (the time factor is deliberate; see notes); the
    call refuses cutoffs that do not reach its decaying regime, past which the
    remainder has a closed form: the indices whose floor is at most the cutoff
    at the cutoff's term, then a geometric series in the floors.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not eigen_masses:
        raise ValueError("need at least one eigenpair")
    lam_cut = max(lam for lam, _ in eigen_masses)
    c_lin = (4.0 * SERIES_RADIUS * rho / LOG2) * math.log(DENOMINATOR / gamma)
    half_peak = c_lin / (2.0 * t)  # a peak past exp(700) is inf, as in _capped_exp
    peak = half_peak ** 2 if half_peak < math.exp(0.5 * OVERFLOW_LOG) else math.inf
    if lam_cut < peak:
        raise ValueError(
            f"lambda cutoff {lam_cut} below the exponent peak {peak}: the tail "
            "is not summable below tolerance; raise lambda_max")
    log_pref = -math.log(BASE_CONSTANT) + 5.0 * math.log(DENOMINATOR / gamma)

    def log_term(lam: float, mass: float) -> float:
        if mass <= 0.0:
            return -math.inf
        return -lam * t + c_lin * math.sqrt(lam) + math.log(mass)

    logs = [log_term(lam, mass) for lam, mass in eigen_masses]
    # remainder: indices n+1, n+2, ... have sqrt(lambda_i) at least
    # max(sqrt(cutoff), floor_i), floor_i = step * (i - z - 2E), and past the
    # peak every term is decreasing in lambda
    n = len(eigen_masses)
    zero_modes = sum(1 for lam, _ in eigen_masses if lam == 0.0)
    step = math.pi / total_length
    s_cut = math.sqrt(lam_cut)
    j = max(n + 1, math.floor(zero_modes + count_bound(total_length, edges, s_cut)) + 1)
    floor_j = wavenumber_range(total_length, edges, j - zero_modes)[0]
    # the log-ratio of consecutive floor terms is largest at j, negative there
    dec = step * (c_lin - t * (2.0 * floor_j + step))
    tail_logs = [-floor_j * floor_j * t + c_lin * floor_j - math.log(-math.expm1(dec))]
    if j > n + 1:
        tail_logs.append(math.log(j - n - 1) - lam_cut * t + c_lin * s_cut)
    log_main = _logsumexp(logs)
    log_tail = _logsumexp(tail_logs)
    log_bound = log_pref + _logsumexp([log_main, log_tail])
    exact_partial = sum(math.exp(-lam * t) for lam, _ in eigen_masses)
    return TraceReport(
        bound=_capped_exp(log_bound),
        log_bound=log_bound,
        exact_partial=exact_partial,
        tail_bound=_capped_exp(log_pref + log_tail),
        inputs={"gamma": gamma, "rho": rho, "t": t, "lambda_cut": lam_cut,
                "total_length": total_length, "terms": n, "edges": edges,
                "zero_modes": zero_modes},
        notes=("exponent uses -lambda*t (time restored for dimensional "
               "consistency with the semigroup trace)",))


# ---------------------------------------------------------------------------
# observability


@dataclass
class ObservabilityReport:
    c_squared: BoundReport
    envelope: BoundReport
    d0: float
    d1: float


# the C and K constants of the observability shape: universal, not pinned by
# the paper, so every report carries the note "non-paper default constants"
OBSERVABILITY_DEFAULTS = {"c1": 1.0, "c2": 1.0, "c3": 1.0, "k1": 1.0, "k2": 5.0,
                          "k3": 1.0, "k4": 48.0}


def observability_constant(gamma: float, rho: float, horizon: float) -> ObservabilityReport:
    """Explicit observability-constant shape (C1 d0 / T)(2 d0 + 1)^C2
    exp(C3 d1^2 / T) with d0 = (48/gamma)^5/12, d1 = (40 rho/log 2) log(48/gamma)
    (formula id observability), plus the envelope (K1 gamma^-K2 / T)
    exp(K3 rho^2 log^2(K4/gamma) / T).  The C and K constants are universal but
    not pinned down here: they are OBSERVABILITY_DEFAULTS, and the reports say so."""
    c1, c2, c3, k1, k2, k3, k4 = OBSERVABILITY_DEFAULTS.values()
    if horizon <= 0.0:
        raise ValueError("time horizon must be positive")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    log_d0 = -math.log(BASE_CONSTANT) + 5.0 * math.log(DENOMINATOR / gamma)
    d0 = _capped_exp(log_d0)
    d1 = (4.0 * SERIES_RADIUS * rho / LOG2) * math.log(DENOMINATOR / gamma)
    notes = ("non-paper default constants",)
    log_c = (math.log(c1) + log_d0 - math.log(horizon)
             + c2 * math.log1p(2.0 * d0) + c3 * d1 * d1 / horizon)
    main = _report("observability", log_c,
                   {"gamma": gamma, "rho": rho, "T": horizon, "c1": c1, "c2": c2, "c3": c3},
                   notes)
    log_env = (math.log(k1) - k2 * math.log(gamma) - math.log(horizon)
               + k3 * rho * rho * math.log(k4 / gamma) ** 2 / horizon)
    env = _report("observability-envelope", log_env,
                  {"gamma": gamma, "rho": rho, "T": horizon,
                   "k1": k1, "k2": k2, "k3": k3, "k4": k4}, notes)
    return ObservabilityReport(c_squared=main, envelope=env, d0=d0, d1=d1)


# ---------------------------------------------------------------------------
# the torsion-function profile


@dataclass
class TorsionProfileReport:
    profile: dict
    h: float
    h_prime: float
    bound: BoundReport
    norms: dict


def torsion_profile(torsion, rho: float, gamma: float) -> TorsionProfileReport:
    """Finite Bernstein profile (1, |G|/T, |G|/||u||^2, 0, ...) of the solved
    torsion function u on its graph G, its exact series budget h, the
    geometry-only majorant h' = 1 + 10 rho sqrt(|G|/T) + 50 rho^2 |G|/T, and
    the resulting sampling bound evaluated at h' (formula id torsion)."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    rigidity = torsion.rigidity
    u = torsion.function
    total = sum(u.graph.edge_lengths.values())
    if not math.isfinite(total):
        raise ValueError("torsion profile needs a compact graph")
    n0, n1, n2 = (m.whole for m in masses([u, u.derivative(), u.derivative(2)]))
    cb1 = total / rigidity
    cb2 = total / n0
    if abs(n2 - total) > 1e-10 * max(1.0, total):
        raise AssertionError("||u''||^2 must equal the total length")
    if not cb2 < (total / rigidity) ** 2:
        raise AssertionError("Cauchy-Schwarz ordering of the profile failed")
    if not n1 <= cb1 * n0 * (1.0 + 1e-12):
        raise AssertionError("first-derivative budget violated")
    coeffs = (1.0, cb1, cb2)
    try:  # the exact finite sum sum_m sqrt(C(m)) (10 rho)^m / m!
        h = sum(math.sqrt(c) * (SERIES_RADIUS * rho) ** m / math.factorial(m)
                for m, c in enumerate(coeffs))
        h_prime = (1.0 + SERIES_RADIUS * rho * math.sqrt(cb1)
                   + 0.5 * (SERIES_RADIUS * rho) ** 2 * cb1)
    except OverflowError:  # (10 rho)^2 past the float range, in both
        h = h_prime = math.inf
    if h > h_prime * (1.0 + 1e-12):
        raise AssertionError("exact budget exceeds its majorant")
    bound = h_bound(gamma, h=h_prime)
    bound.formula = "torsion"
    bound.inputs.update({"rho": rho, "total_length": total, "rigidity": rigidity})
    return TorsionProfileReport(profile={"kind": "finite", "coeffs": list(coeffs)}, h=h,
                                h_prime=h_prime, bound=bound,
                                norms={"u": n0, "du": n1, "d2u": n2,
                                       "rigidity": rigidity, "total_length": total})
