"""Numerical certification harness: observed mass ratios against the explicit
bounds, good/bad edge classification, polynomial and single-edge desk checks,
the optimality example, matrix-level observability, the boundary trace
inequality, the loop counterexample and the randomized inequality audit.

All quadrature goes through the closed-form kernel of `qgs.polytrig`;
suprema use certified one-sided estimates so that a reported pass is
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport, observability_constant, spectral_bound
from .graphs import (BoundarySubspace, MetricGraph, build_graph,
                     standard_subspace, vertex_conditions_subspace)
from .polytrig import (GraphFunction, IntervalUnion, PolyTrigTerm, cosine_power_terms,
                       gram, masses, sup_on_disk_neighborhood, whole_edge)
from .sampling import Cover, SamplingParams, SamplingSet, verify_cover
from .spectral import (EigenPair, boundary_residual, eigenvalues_up_to, spectral_sample,
                       wavenumber_range)

PASS_REL_TOL = 1e-12      # strict ">" of the theorems at floating-point scale
EPS = 2.0 ** -52          # double-precision machine epsilon
M_MAX = 40                # derivative orders checked per edge
_GROWTH = np.array([2.0 ** (m + 1) for m in range(1, M_MAX + 1)])  # 2^(m+1), m = 1..M_MAX
DEFAULT_SEED = 20240 + 5
KOVRIJKINE_GRID = 2000    # first grid of kovrijkine_check, refined 8x and 64x


# ---------------------------------------------------------------------------
# mass ratios


@dataclass
class RatioReport:
    kind: str
    observed: float
    bound: BoundReport
    margin: float
    passed: bool
    vacuous: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        """The inequality holds: the ratio clears the bound, or is vacuous."""
        return self.passed or self.vacuous


def _bounded_ratio(part: float, total: float) -> float:
    ratio = part / total
    if ratio > 1.0 + 1e-12:
        raise AssertionError(f"ratio {ratio} exceeds 1")
    return min(ratio, 1.0)


def _passes(observed: float, bound: BoundReport) -> bool:
    """observed >= bound up to PASS_REL_TOL; an underflowed bound, whose value
    is 0.0, is compared in log space."""
    if bound.underflow:
        return observed > 0.0 and math.log(observed) > bound.log_value - PASS_REL_TOL
    return observed - bound.value > -PASS_REL_TOL * observed


def ratio_reports(f: GraphFunction, omega, bound: BoundReport
                  ) -> tuple[RatioReport | None, RatioReport]:
    """The mass report (None for the zero function) and the derivative report
    of f on omega against the bound, with all four masses (f's and f''s) from
    one masses call."""
    m = masses([f], omega)[0]
    rep = None
    if m.whole > 0.0:
        observed = _bounded_ratio(m.part, m.whole)
        rep = RatioReport(kind="mass", observed=observed, bound=bound,
                          margin=observed - bound.value,
                          passed=_passes(observed, bound))
    if m.d_whole <= 0.0:
        der = RatioReport(kind="derivative", observed=math.nan, bound=bound,
                          margin=math.nan, passed=True, vacuous=True)
    else:
        ratio = _bounded_ratio(m.d_part, m.d_whole)
        w12 = (m.part + m.d_part) / (m.whole + m.d_whole)
        der = RatioReport(kind="derivative", observed=ratio, bound=bound,
                          margin=ratio - bound.value,
                          passed=_passes(ratio, bound),
                          extras={"w12_ratio": w12,
                                  "w12_passed": _passes(w12, bound)})
    return rep, der


# ---------------------------------------------------------------------------
# good/bad edge classification


def max_generalized_eig(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest mu with a x = mu b x, for a Hermitian and b Hermitian positive
    definite, by Cholesky reduction b = L L^H to L^-1 a L^-H; one per matrix
    of a stack (a 0-d array for one pair).  Raises np.linalg.LinAlgError when
    b, or a matrix of its stack, is not positive definite."""
    low = np.linalg.cholesky(b)
    reduced = np.linalg.solve(low, np.linalg.solve(low, a).conj().swapaxes(-1, -2))
    return np.linalg.eigvalsh(reduced)[..., -1]


@dataclass
class EdgeClassification:
    good: dict[str, bool]
    m_max: int
    good_mass: float
    bad_mass: float
    total_mass: float
    closure_complete: bool

    @property
    def mass_bounds_hold(self) -> bool:
        """Bad edges carry less than half the mass, and the total is less
        than twice the good edges' mass."""
        return self.bad_mass < 0.5 * self.total_mass and self.total_mass < 2.0 * self.good_mass


def classify_edges(f: GraphFunction, lam: float) -> EdgeClassification:
    """Flag each edge good when ||f_e^(m)||^2 <= 2^(m+1) lam^m ||f_e||^2 for
    m = 1..M_MAX, for f in the spectral subspace up to energy lam; good edges
    must then carry more than half the mass, which the result's
    `mass_bounds_hold` reports.

    The Bernstein estimate ||f^(m)||^2 <= lam^m ||f||^2 is asserted for f
    itself first.  The per-order norms are one stacked product over f's kept
    Mass arrays.  If lam > 0 and every edge's one-step derivative gain is at
    most c = 2 lam (1 + 1e-9), the classification extends to every order m
    (no truncation caveat): with b an edge's modes' Gram and w their
    frequencies, that holds exactly when b and c b - w b w are positive
    definite, decided by one Cholesky factorisation of every edge's pair
    stacked.  Edges with x**p terms go order by order; their gain is 0 when
    every frequency is 0 and inf otherwise.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if f.is_zero():
        raise ValueError("cannot classify the zero function")
    mass = masses([f])[0]  # kept by f when its ratios were just computed
    total = mass.whole

    caps = np.array([float(lam) ** m for m in range(M_MAX + 1)])  # C(m) = lam^m
    w, gram = mass.freqs, mass.gram
    # ||f_e^(m)||^2 = sum c_s conj(c_t) G_st (w_s w_t)^m: the phase i^m cancels
    powers = np.empty((len(w), M_MAX + 1, w.shape[1]))
    powers[:, 0], powers[:, 1:] = 1.0, w[:, None]
    np.cumprod(powers, axis=1, out=powers)
    form = np.real(mass.coeffs[..., None] * gram * mass.coeffs.conj()[:, None])
    norms = np.sum((powers @ form) * powers, axis=-1)
    poly = np.zeros(len(w), dtype=bool)
    closure = lam > 0.0
    for eid, terms in f.terms.items():
        if any(t.power for t in terms):  # order by order: one derivative step each
            ds = [GraphFunction._canonical(f.graph, {eid: terms})]
            for _ in range(M_MAX):
                ds.append(ds[-1].derivative())
            i = mass.edges.index(eid)
            norms[i] = [d.whole for d in masses(ds)]
            poly[i] = True
            closure = closure and all(t.freq == 0.0 for t in terms)
    if closure:
        # padding keys and x**p edges, whose frequencies are now all 0: the
        # identity in b, so c b - w b w is c there
        keys = (np.arange(w.shape[1]) < mass.sizes[:, None]) & ~poly[:, None]
        b = np.where(keys[..., None] & keys[:, None], gram, np.eye(w.shape[1]))
        c = 2.0 * lam * (1.0 + 1e-9)
        try:
            np.linalg.cholesky(np.concatenate((b, c * b - w[..., None] * b * w[:, None])))
        except np.linalg.LinAlgError:
            closure = False

    # the function itself must obey the estimate before edges are judged by it
    lhs = norms.sum(axis=0)
    over = np.flatnonzero(lhs[1:] > caps[1:] * total * (1.0 + 1e-9) + 1e-12 * total)
    if over.size:
        m = int(over[0]) + 1
        raise ValueError(f"profile violated at order {m}: "
                         f"||f^({m})||^2 = {lhs[m]} > C({m})||f||^2 = {caps[m] * total}")

    good = np.all(norms[:, 1:] <= _GROWTH * caps[1:] * norms[:, :1]
                  * (1.0 + 1e-9) + 1e-14 * total, axis=1)
    good_mass = float(norms[good, 0].sum())
    bad_mass = float(norms[~good, 0].sum())
    # edges where f vanishes identically are good and carry no mass
    return EdgeClassification(good={e: bool(good[mass.edges.index(e)]) for e in f.terms},
                              m_max=M_MAX, good_mass=good_mass, bad_mass=bad_mass,
                              total_mass=total, closure_complete=closure)


# ---------------------------------------------------------------------------
# desk-scale checks


@dataclass
class CheckReport:
    name: str
    passed: bool
    lhs: float
    rhs: float
    details: dict = field(default_factory=dict)


@np.errstate(over="ignore", invalid="ignore")  # past the float range: see below
def kovrijkine_check(coeffs, e_set: IntervalUnion) -> CheckReport:
    """Check sup_[0,1] |phi| <= (12/|E|)^(2 log2 M) sup_E |phi| for a
    polynomial phi with |phi(0)| >= 1; the left supremum and M are certified
    upper bounds, the right supremum a grid lower bound, so a pass is
    meaningful.  A failing grid is refined before being reported."""
    coeffs = np.asarray([complex(c) for c in coeffs])
    if not coeffs.size or abs(coeffs[0]) < 1.0:  # the empty list is phi = 0
        raise ValueError("|phi(0)| must be at least 1")
    meas = e_set.measure
    if meas <= 0.0:
        raise ValueError("E must have positive measure")
    if e_set.ends[-1] > 1.0:
        raise ValueError("E must lie in [0, 1]")
    deriv_unit = sum(j * abs(c) for j, c in enumerate(coeffs))
    deriv_disk = sum(j * abs(c) * 4.0 ** (j - 1) for j, c in enumerate(coeffs) if j)
    polyval = np.polynomial.polynomial.polyval  # Horner; numpy loads it on first use

    for n in (KOVRIJKINE_GRID, 8 * KOVRIJKINE_GRID, 64 * KOVRIJKINE_GRID):
        ts = np.linspace(0.0, 1.0, n)
        sup_unit = float(np.abs(polyval(ts, coeffs)).max()) + 0.5 * deriv_unit / (n - 1)
        pts = np.concatenate([np.linspace(a, b, max(2, int(n * (b - a)) + 2))
                              for a, b in e_set.intervals])
        sup_e = float(np.abs(polyval(pts, coeffs)).max())
        zs = 4.0 * np.exp(2j * math.pi * np.linspace(0.0, 1.0, n, endpoint=False))
        m_phi = float(np.abs(polyval(zs, coeffs)).max()) + 0.5 * deriv_disk * (8.0 * math.pi / n)
        m_phi = max(m_phi, 1.0)
        if not math.isfinite(sup_unit) or math.isnan(sup_e + m_phi):
            raise ValueError("phi is past the float range")
        # a numpy power: a growth factor past the float range is inf
        rhs = float(np.float64(12.0 / meas) ** (2.0 * math.log(m_phi) / math.log(2.0))) * sup_e
        if sup_unit <= rhs:
            return CheckReport(name="kovrijkine", passed=True, lhs=sup_unit,
                               rhs=rhs, details={"M": m_phi, "sup_E": sup_e,
                                                 "measure": meas, "grid": n})
    return CheckReport(name="kovrijkine", passed=False, lhs=sup_unit, rhs=rhs,
                       details={"M": m_phi, "sup_E": sup_e, "measure": meas,
                                "grid": n})


def local_estimate_check(terms, ell: float, s_set: IntervalUnion) -> CheckReport:
    """Single-edge estimate ||g||_{L2(S)}^2 >= 24 (|S|/(48 l))^(4 log2 M + 1)
    ||g||_{L2(0,l)}^2 with M a certified upper bound on the normalised sup of
    the analytic extension over the 4l-neighborhood; over-estimating M only
    weakens the right side, never falsifies a pass."""
    terms = [PolyTrigTerm(complex(c), int(p), float(w)) for c, p, w in terms]
    f = GraphFunction(build_graph(["a", "b"], [("e", "a", "b", ell)]), {"e": terms})
    with np.errstate(over="ignore", invalid="ignore"):
        m = masses([f], {"e": s_set})[0]
    full, lhs = m.whole, m.part
    if not math.isfinite(full):
        raise ValueError("the function's mass is past the float range")
    if full <= 0.0:
        raise ValueError("function vanishes on the edge")
    sup = sup_on_disk_neighborhood(terms, ell, 4.0)
    m_big = max(1.0, math.sqrt(ell) * sup / math.sqrt(full))
    expo = 4.0 * math.log(m_big) / math.log(2.0) + 1.0
    rhs = 24.0 * (s_set.measure / (48.0 * ell)) ** expo * full
    return CheckReport(name="local-estimate", passed=lhs >= rhs, lhs=lhs, rhs=rhs,
                       details={"M": m_big, "measure": s_set.measure, "ell": ell})


def optimality_example(ell: float, lam: float, gamma: float) -> dict:
    """Concentrated cosine-power profile: its observed ratio on the matched
    two-window control set sits between the proved lower constant and the
    explicit decaying upper envelope, pinning the sharpness of the exponent.
    Where the ratio's stated rounding error reaches the envelope or the ratio
    itself, double precision cannot decide the sandwich: a ValueError says
    so, where a decided sandwich that fails raises AssertionError."""
    if not (0.0 < gamma <= 4.0 / math.pi ** 2):
        raise ValueError("gamma must lie in (0, 4/pi^2]")
    alpha = math.floor(ell * math.sqrt(lam) / (2.0 * math.pi))
    if alpha < 2:
        raise ValueError("energy too small: the profile exponent must be >= 2")
    g = build_graph(["a", "b"], [("e", "a", "b", ell)])
    f = GraphFunction(g, {"e": list(cosine_power_terms(alpha, 2.0 * math.pi / ell))})
    omega = {"e": IntervalUnion([
        (ell / 4.0 * (1.0 - gamma), ell / 4.0 * (1.0 + gamma)),
        (ell / 4.0 * (3.0 - gamma), ell / 4.0 * (3.0 + gamma))], length=ell)}
    m = masses([f], omega)[0]
    ratio = _bounded_ratio(m.part, m.whole)
    upper = 0.2 * (math.pi ** 2 * gamma / 4.0) ** (ell * math.sqrt(lam) / math.pi - 1.0)
    lower = spectral_bound(gamma, ell / 2.0, lam)
    # the ratio's stated error: the part's rounding floor |Omega| d (2 sup|f| + d)
    # (polytrig._gauss_norm_sq) over the whole mass, with sum |c| = 1 and the
    # sup over the windows sin(pi gamma / 2)^alpha
    delta = (len(f.terms["e"]) + 4) * EPS
    sup = math.sin(0.5 * math.pi * gamma) ** alpha
    err = gamma * ell * delta * (2.0 * sup + delta) / m.whole
    if not (err < upper and err < ratio):
        raise ValueError(f"optimality sandwich undecidable in double precision: the ratio "
                         f"{ratio} carries an error up to {err}, against the envelope {upper}")
    above = (math.log(ratio - err) > lower.log_value if lower.underflow
             else lower.value < ratio - err)
    if not (above and ratio <= upper * (1.0 + 1e-12)):
        raise AssertionError(f"optimality sandwich failed: {lower.value} < "
                             f"{ratio} <= {upper} is false")
    return {"alpha": alpha, "ratio": ratio, "upper": upper,
            "lower": lower.value, "gamma": gamma, "ell": ell, "lam": lam}


# ---------------------------------------------------------------------------
# observability at matrix level


@dataclass
class ObservabilityNumeric:
    """The numeric constant against the formula's, and both as natural logs,
    which still compare where the formula's value saturates to inf past
    exp(700).  The formula side and both logs are None when the modes are not
    observable or no certified (gamma, rho) was given."""

    observable: bool
    numeric_c_squared: float
    formula_c_squared: float | None
    modes: int
    horizon: float
    numeric_log_c_squared: float | None = None
    formula_log_c_squared: float | None = None


def observability_numeric(g: MetricGraph, y: BoundarySubspace, omega, horizon: float,
                          modes: int, params: SamplingParams | None = None
                          ) -> ObservabilityNumeric:
    """Largest ratio of final-state mass to time-integrated control-set mass
    over the span of the lowest eigenmodes: the generalized eigenvalue of the
    endpoint Gram pair.  A singular right-hand Gram means some mode is
    invisible from the control set (non-observable at this rank)."""
    if horizon <= 0.0:
        raise ValueError("time horizon must be positive")
    if modes < 1:
        raise ValueError("need at least one mode")
    # by the eigenphase count the modes-th positive eigenvalue lies at or
    # below k^2, so this one solve, stopped at the modes-th pair, holds the
    # modes; the check guards that count
    k = wavenumber_range(sum(g.edge_lengths.values()), len(g.edges), modes)[1]
    pairs = eigenvalues_up_to(g, y, k * k, modes)
    if len(pairs) < modes:
        raise ValueError(f"could not compute {modes} modes")
    pairs = pairs[:modes]
    lam = np.array([p.lam for p in pairs])
    mass = gram([p.function for p in pairs], omega)
    s = lam[:, None] + lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(s > 1e-14, -np.expm1(-s * horizon) / np.where(s > 1e-14, s, 1.0),
                          horizon)
    rhs = (mass * weight).T           # x^H rhs x gives the integrated mass
    lhs = np.diag(np.exp(-2.0 * lam * horizon))
    eigs = np.linalg.eigvalsh(rhs)
    if eigs.min() < 1e-12 * max(eigs.max(), 1e-300):
        return ObservabilityNumeric(observable=False, numeric_c_squared=math.inf,
                                    formula_c_squared=None, modes=modes,
                                    horizon=horizon)
    top = float(max_generalized_eig(lhs, rhs))
    out = ObservabilityNumeric(observable=True, numeric_c_squared=top,
                               formula_c_squared=None, modes=modes, horizon=horizon)
    if params is not None:
        formula = observability_constant(params.gamma, params.rho, horizon).c_squared
        out.formula_c_squared, out.formula_log_c_squared = formula.value, formula.log_value
        out.numeric_log_c_squared = math.log(top)
    return out


# ---------------------------------------------------------------------------
# boundary trace and the loop counterexample


def boundary_trace_check(f: GraphFunction) -> CheckReport:
    """Endpoint-value mass against 2 coth(min edge) times the first-order norm."""
    vec = f.boundary_trace(+1)
    lhs = float(np.vdot(vec, vec).real)
    min_edge = min(f.graph.edge_lengths.values())
    m = masses([f])[0]
    rhs = 2.0 / math.tanh(min_edge) * (m.whole + m.d_whole)
    return CheckReport(name="boundary-trace", passed=lhs <= rhs * (1.0 + 1e-12),
                       lhs=lhs, rhs=rhs, details={"min_edge": min_edge})


def lasso_counterexample() -> dict:
    """An eigenfunction supported on the loop of a loop-plus-tail graph: the
    tail alone holds half the total length yet sees none of the mass, so a
    volume fraction alone can never imply the sampling inequality."""
    g = build_graph(["v", "w"], [("loop", "v", "v", 1.0), ("tail", "v", "w", 1.0)])
    y = standard_subspace(g)
    k = 2.0 * math.pi
    amp = math.sqrt(2.0)  # L2-normalises sin(2 pi x) on the unit loop
    phi = GraphFunction(g, {"loop": [PolyTrigTerm(-0.5j * amp, 0, k),
                                     PolyTrigTerm(0.5j * amp, 0, -k)]})
    residual = boundary_residual(g, y, phi)
    if residual >= 1e-10:
        raise AssertionError(f"loop mode fails the vertex conditions: {residual}")
    nrm = masses([phi])[0].whole
    tail, loop = (masses([phi], {eid: whole_edge(1.0)})[0] for eid in ("tail", "loop"))
    total = sum(g.edge_lengths.values())
    return {"lambda": k * k, "norm_sq": nrm, "residual": residual,
            "tail_measure": 1.0, "total_length": total,
            "volume_fraction": 1.0 / total,
            "ratio_tail": _bounded_ratio(tail.part, tail.whole),
            "ratio_loop": _bounded_ratio(loop.part, loop.whole)}


# ---------------------------------------------------------------------------
# randomized audit


@dataclass
class AuditResult:
    rows: list[dict]
    violations: int
    trials: int
    seed: int
    lam_max: float
    pool: tuple[str, ...]


def audit_pool(rng: np.random.Generator, lam_max: float):
    """Catalogue of compact graphs (at most 6 edges) with randomized lengths,
    a few non-standard conditions and one fluxed cycle, each solved once."""
    def L(lo=0.6, hi=1.4):
        return float(rng.uniform(lo, hi))

    entries = []
    g = build_graph(["a", "b"], [("e", "a", "b", L())])
    entries.append(("interval", g, standard_subspace(g)))
    g = build_graph(["a", "b"], [("e", "a", "b", L())])
    entries.append(("interval-dirichlet", g,
                    vertex_conditions_subspace(g, "dirichlet")))
    g = build_graph(["a", "b", "c"], [("e1", "a", "b", L()), ("e2", "b", "c", L())])
    entries.append(("path2", g, standard_subspace(g)))
    g = build_graph(["c", "w1", "w2", "w3"],
                    [("e1", "c", "w1", L()), ("e2", "c", "w2", L()),
                     ("e3", "c", "w3", L())])
    entries.append(("star3", g, standard_subspace(g)))
    g = build_graph(["c", "w1", "w2", "w3"],
                    [("e1", "c", "w1", L()), ("e2", "c", "w2", L()),
                     ("e3", "c", "w3", L())])
    entries.append(("star3-mixed", g, vertex_conditions_subspace(
        g, "standard", {"w1": "dirichlet", "w2": "neumann"})))
    g = build_graph(["v"], [("loop", "v", "v", L(1.0, 2.0))])
    entries.append(("cycle", g, standard_subspace(g)))
    g = build_graph(["v"], [("loop", "v", "v", L(1.0, 2.0), float(rng.uniform(0, math.pi)))])
    entries.append(("cycle-flux", g, standard_subspace(g)))
    g = build_graph(["v", "w"], [("loop", "v", "v", L()), ("tail", "v", "w", L())])
    entries.append(("lasso", g, standard_subspace(g)))
    g = build_graph(["a", "b", "c", "d"],
                    [("e1", "a", "b", L()), ("e2", "b", "c", L()),
                     ("e3", "c", "a", L()), ("e4", "c", "d", L())])
    entries.append(("triangle-tail", g, standard_subspace(g)))
    g = build_graph(["a", "b", "c", "d"],
                    [("e1", "a", "b", L()), ("e2", "b", "c", L()),
                     ("e3", "c", "d", L()), ("e4", "d", "a", L()),
                     ("e5", "a", "c", L()), ("e6", "b", "d", L())])
    entries.append(("k4", g, standard_subspace(g)))

    pool = []
    for name, g, y in entries:
        pairs = eigenvalues_up_to(g, y, lam_max)
        pool.append({"name": name, "graph": g, "subspace": y, "pairs": pairs})
    return pool


def _random_certified_set(rng: np.random.Generator, g: MetricGraph
                          ) -> tuple[SamplingParams, SamplingSet]:
    """Cover-first random control set: windows first, then mass gamma|J|
    inside each window, so certification is guaranteed by construction;
    verify_cover still checks it."""
    gamma_target = float(rng.uniform(0.15, 0.85))
    finite: dict[str, IntervalUnion] = {}
    breaks: dict[str, tuple[float, ...]] = {}
    for eid, ell in g.edge_lengths.items():
        n_windows = int(rng.integers(1, 5))
        cuts = sorted({0.0, ell, *rng.uniform(0.0, ell, size=n_windows - 1).tolist()})
        parts = []
        for t0, t1 in zip(cuts, cuts[1:]):
            w = t1 - t0
            m = gamma_target * w
            if rng.random() < 0.5 or m >= 0.5 * w:
                start = t0 + float(rng.uniform(0.0, w - m))
                parts.append((start, start + m))
            else:
                half = 0.5 * m
                s1 = t0 + float(rng.uniform(0.0, 0.5 * w - half))
                s2 = t0 + 0.5 * w + float(rng.uniform(0.0, 0.5 * w - half))
                parts.extend([(s1, s1 + half), (s2, s2 + half)])
        finite[eid] = IntervalUnion._sorted(parts, ell)  # sorted and separated by the cuts
        breaks[eid] = tuple(cuts)
    sset = SamplingSet(finite=finite)
    cover = Cover(breakpoints=breaks)
    res = verify_cover(sset, cover, gamma=gamma_target * (1.0 - 1e-9),
                       rho=max(g.edge_lengths.values()) * (1.0 + 1e-9))
    if not isinstance(res, SamplingParams):
        raise AssertionError(f"cover-first random set not certified: {res.issues}")
    return res, sset


def random_combination(rng: np.random.Generator, pairs: list[EigenPair], modes: int):
    """min(modes, len(pairs)) distinct eigenpairs drawn at random, in order,
    their combination f with complex normal coefficients and their top
    eigenvalue: (chosen, f, lam)."""
    idx = rng.choice(len(pairs), size=min(modes, len(pairs)), replace=False)
    chosen = [pairs[i] for i in sorted(idx)]
    coeffs = rng.normal(size=len(chosen)) + 1j * rng.normal(size=len(chosen))
    return chosen, spectral_sample(chosen, coeffs), max(p.lam for p in chosen)


def _trial_sample(pool, seed: int, index: int):
    """The pool entry, certified set (params, set), eigenpairs, random
    combination f of them and top eigenvalue of audit trial `index`."""
    rng = np.random.default_rng([seed, index])
    entry = pool[int(rng.integers(len(pool)))]
    params, sset = _random_certified_set(rng, entry["graph"])
    chosen, f, lam = random_combination(rng, entry["pairs"], int(rng.integers(1, 6)))
    return entry, params, sset, chosen, f, lam


def _audit_trial(pool, seed: int, index: int, classify: bool) -> tuple[dict, bool]:
    """Trial `index`'s audit row, and whether every inequality it checks holds."""
    entry, params, sset, chosen, f, lam = _trial_sample(pool, seed, index)
    rep, der = ratio_reports(f, sset.finite,
                             spectral_bound(params.gamma, params.rho, lam))
    row = {
        "trial": index, "graph": entry["name"], "gamma": params.gamma,
        "rho": params.rho, "lam": lam, "modes": len(chosen),
        "mass_observed": rep.observed, "bound": rep.bound.value,
        "mass_margin": rep.margin, "mass_passed": rep.passed,
        "deriv_observed": der.observed, "deriv_margin": der.margin,
        "deriv_passed": der.passed, "deriv_vacuous": der.vacuous,
    }
    held = rep.holds and der.holds
    if classify:
        cls = classify_edges(f, lam)
        row["bad_mass_fraction"] = cls.bad_mass / cls.total_mass
        row["classified_ok"] = cls.mass_bounds_hold
        row["closure_complete"] = cls.closure_complete
        held = held and cls.mass_bounds_hold
    return row, held


def audit(trials: int = 10000, seed: int = DEFAULT_SEED, lam_max: float = 200.0,
          classify: bool = False) -> AuditResult:
    """Randomized inequality campaign: certified random control sets against
    random spectral-subspace functions on the graph catalogue; every observed
    mass and derivative-mass ratio must clear the explicit constant.  With
    classify=True every audited function is also run through the good/bad
    edge classification and its mass bounds."""
    if trials < 1:
        raise ValueError("need at least one trial")
    pool = audit_pool(np.random.default_rng(seed), lam_max)
    rows, held = zip(*(_audit_trial(pool, seed, i, classify) for i in range(trials)))
    violations = held.count(False)
    return AuditResult(rows=list(rows), violations=violations, trials=trials, seed=seed,
                       lam_max=lam_max, pool=tuple(e["name"] for e in pool))
