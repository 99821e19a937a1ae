"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they land.
Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from qgs.bounds import h_bound, heat_trace_bound, spectral_bound
from qgs.graphs import (build_graph, dual_subspace, full_subspace, metrics,
                        standard_subspace, subspace_from_basis,
                        vertex_conditions_subspace, zero_subspace)
from qgs.polytrig import GraphFunction, IntervalUnion, PolyTrigTerm
from qgs.sampling import (Cover, SamplingParams, SamplingSet, gap_analysis,
                          necessary_check, optimal_gamma, svc_set, verify_cover)
from qgs.spectral import boundary_residual, eigenvalues_up_to, solve_torsion
from qgs.verify import (DEFAULT_SEED, audit, boundary_trace_check,
                        classify_edges, lasso_counterexample,
                        observability_numeric, optimality_example)

from oracles import det_scan_roots, norm_sq

AUDIT_TRIALS = 10_000


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def interval(ell=math.pi):
    return build_graph(["a", "b"], [("e", "a", "b", ell)])


def lasso():
    return build_graph(["v", "w"], [("loop", "v", "v", 1.0),
                                    ("tail", "v", "w", 1.0)])


@pytest.fixture(scope="module")
def big_audit():
    t0 = time.perf_counter()
    res = audit(trials=AUDIT_TRIALS, seed=DEFAULT_SEED, lam_max=200.0,
                classify=True)
    return res, time.perf_counter() - t0


def test_criterion_1_spectral_exactness():
    t0 = time.perf_counter()
    g = interval(math.pi)
    neumann = [p.lam for p in eigenvalues_up_to(g, full_subspace(g), 100.0)]
    dirichlet = [p.lam for p in eigenvalues_up_to(g, zero_subspace(g), 100.0)]
    cyc = build_graph(["v"], [("loop", "v", "v", 2.0 * math.pi)])
    cycle = [p.lam for p in eigenvalues_up_to(cyc, standard_subspace(cyc), 16.5)]
    star = build_graph(["c", "w1", "w2", "w3"],
                       [("e1", "c", "w1", 1.0), ("e2", "c", "w2", 1.0),
                        ("e3", "c", "w3", 1.0)])
    ys = standard_subspace(star)
    star_pairs = eigenvalues_up_to(star, ys, 60.0)
    solver_time = time.perf_counter() - t0

    ok = neumann == pytest.approx([n * n for n in range(11)], abs=1e-8)
    ok = ok and dirichlet == pytest.approx([n * n for n in range(1, 11)], abs=1e-8)
    want_cycle = sorted([0.0] + [float(n * n) for n in (1, 2, 3, 4) for _ in (0, 1)])
    ok = ok and cycle == pytest.approx(want_cycle, abs=1e-8)

    star_ks = []
    for p in star_pairs:
        if p.k > 1e-8 and (not star_ks or p.k - star_ks[-1] > 1e-7):
            star_ks.append(p.k)
    oracle = det_scan_roots(star, ys, 1e-3, math.sqrt(60.0), 1e-5)
    ok = ok and len(oracle) == len(star_ks) \
        and star_ks == pytest.approx(oracle, abs=1e-8)
    ok = ok and solver_time < 5.0
    report(1, ok, f"interval/cycle/star spectra exact, solver {solver_time:.2f}s")


def test_criterion_2_gauge_flux_law():
    L = 1.0
    ok = True
    for theta in (0.0, math.pi / 3.0, math.pi):
        g = build_graph(["v"], [("loop", "v", "v", L, theta)])
        lams = [p.lam for p in eigenvalues_up_to(g, standard_subspace(g), 200.0)]
        want = sorted(((2.0 * math.pi * n + theta) / L) ** 2 for n in range(-3, 4))
        want = [w for w in want if w <= 200.0]
        ok = ok and lams == pytest.approx(want, abs=1e-8)
    theta = math.pi / 3.0
    g1 = build_graph(["v"], [("loop", "v", "v", L, theta)])
    g2 = build_graph(["v"], [("loop", "v", "v", L, theta + 2.0 * math.pi)])
    l1 = [p.lam for p in eigenvalues_up_to(g1, standard_subspace(g1), 200.0)]
    l2 = [p.lam for p in eigenvalues_up_to(g2, standard_subspace(g2), 200.0)]
    ok = ok and l1 == pytest.approx(l2, abs=1e-9)
    report(2, ok, "loop flux law ((2 pi n + theta)/L)^2 and 2 pi periodicity")


def test_criterion_3_torsion_exactness():
    ok = True
    for ell in (1.0, math.pi, 2.5):
        g = interval(ell)
        one = solve_torsion(g, ["a"]).rigidity
        two = solve_torsion(g, ["a", "b"]).rigidity
        ok = ok and abs(one - ell ** 3 / 3.0) < 1e-12 * ell ** 3
        ok = ok and abs(two - ell ** 3 / 12.0) < 1e-12 * ell ** 3
    from qgs.bounds import torsion_profile
    g = interval(1.0)
    rep1 = torsion_profile(solve_torsion(g, ["a"]), rho=0.5, gamma=0.5)
    rep2 = torsion_profile(solve_torsion(g, ["a", "b"]), rho=0.5, gamma=0.5)
    ok = ok and rep1.h_prime == pytest.approx(1.0 + 5.0 * math.sqrt(3.0) + 75.0 / 2.0,
                                              rel=1e-12) and rep1.h_prime < 48.0
    ok = ok and rep2.h_prime == pytest.approx(1.0 + 10.0 * math.sqrt(3.0) + 150.0,
                                              rel=1e-12) and rep2.h_prime < 169.0
    report(3, ok, "rigidity ell^3/3 and ell^3/12; h' displays < 48 and < 169")


def test_criterion_4_sampling_catalogue():
    t0 = time.perf_counter()
    iu, _ = svc_set(8)
    sset = SamplingSet(finite={"e": iu})
    r1 = verify_cover(sset, Cover(breakpoints={"e": (0.0, 0.5, 1.0)}),
                      gamma=0.5, rho=0.5)
    r2 = verify_cover(sset, Cover(breakpoints={"e": (0.0, 7 / 32, 0.5, 25 / 32, 1.0)}),
                      gamma=4 / 9, rho=9 / 32)
    ok = isinstance(r1, SamplingParams) and isinstance(r2, SamplingParams)
    gaps = gap_analysis(sset)
    for rho in (0.03, 0.08, 0.125):
        for gamma in (1e-9, 0.2, 0.7):
            good, _ = necessary_check(gaps, gamma, rho)
            ok = ok and not good
    for rho_frac in (0.55, 0.65, 0.8, 0.95):
        iu2 = IntervalUnion([(0.0, 0.5)], length=1.0)
        res = optimal_gamma(iu2, rho=rho_frac)
        ok = ok and res.feasible \
            and abs(res.gamma - (1.0 - 0.5 / rho_frac)) < 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 2.0
    report(4, ok, f"fat-Cantor certificates, gap refusals, closed-form gamma*, "
                  f"{elapsed:.2f}s")


def test_criterion_5_main_inequality_audit(big_audit):
    res, elapsed = big_audit
    ok = res.violations == 0 and res.trials >= 10_000 and elapsed < 300.0
    worst = min(r["mass_margin"] for r in res.rows)
    report(5, ok, f"{res.trials} trials, {res.violations} violations, "
                  f"min margin {worst:.3e}, {elapsed:.0f}s")


def test_criterion_6_bernstein_machinery(big_audit):
    res, _ = big_audit
    ok = all(r["classified_ok"] for r in res.rows)
    ok = ok and all(r["bad_mass_fraction"] < 0.5 for r in res.rows)
    # classification against the brute-force per-order quadrature oracle
    rng = np.random.default_rng(606)
    g = build_graph(["a", "b", "c"], [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.3)])
    pairs = eigenvalues_up_to(g, standard_subspace(g), 150.0)
    from qgs.spectral import spectral_sample
    agree = 0
    for _ in range(100):
        take = rng.choice(len(pairs), size=3, replace=False)
        chosen = [pairs[i] for i in sorted(take)]
        f = spectral_sample(chosen, rng.normal(size=3) + 1j * rng.normal(size=3))
        lam = max(p.lam for p in chosen)
        rep = classify_edges(f, lam)
        match = True
        for eid, terms in f.terms.items():
            fe = GraphFunction(g, {eid: list(terms)})
            n0 = norm_sq(fe)
            brute_good = all(
                norm_sq(fe.derivative(m)) <= 2.0 ** (m + 1) * lam ** m * n0
                * (1.0 + 1e-9) + 1e-14 for m in range(1, 41))
            match = match and (rep.good[eid] == brute_good)
        agree += match
    ok = ok and agree == 100
    report(6, ok, f"bad-mass < 1/2 on all audited functions; "
                  f"oracle agreement {agree}/100")


def test_criterion_7_optimality_sandwich():
    violations = 0
    cases = 0
    for ell in (1.0, 2.0):
        for alpha in range(2, 9):
            lam = ((alpha + 0.5) * 2.0 * math.pi / ell) ** 2
            for gamma in np.linspace(0.05, 4.0 / math.pi ** 2, 6):
                cases += 1
                try:
                    out = optimality_example(ell, lam, float(gamma))
                except AssertionError:
                    violations += 1
                    continue
                if not (out["lower"] < out["ratio"] <= out["upper"]):
                    violations += 1
    ok = violations == 0
    report(7, ok, f"{cases} (ell, lambda, gamma) cases, {violations} violations")


def test_criterion_8_constant_reproduction():
    rep = h_bound(1.0, h=1.0)
    ok = abs(rep.value - 12.0 / 48.0 ** 5) <= 1e-12 * rep.value
    rng = np.random.default_rng(808)
    differ = 0
    for _ in range(1000):
        gamma = float(rng.uniform(0.01, 1.0))
        rho = float(rng.uniform(0.01, 2.0))
        lam = float(rng.uniform(0.0, 400.0))
        direct = spectral_bound(gamma, rho, lam)
        via = h_bound(gamma, log_h=10.0 * rho * math.sqrt(lam))
        differ += (direct.log_value, direct.inputs["exponent"]) != \
            (via.log_value, via.inputs["exponent"])
    ok = ok and differ == 0
    report(8, ok, f"12/48^5 reproduced; the two routes differ at {differ} "
                  f"of 1000 points")


def test_criterion_9_trace_bound():
    g = interval(math.pi)
    pairs = eigenvalues_up_to(g, full_subspace(g), 100.0)
    masses = [(p.lam, norm_sq(p.function)) for p in pairs]
    ok = True
    for t in (0.5, 1.0, 2.0):
        rep = heat_trace_bound(masses, gamma=1.0, rho=0.02, t=t,
                               total_length=math.pi, edges=1)
        exact = sum(math.exp(-n * n * t) for n in range(3000))
        ok = ok and abs(rep.exact_partial - exact) < 1e-10
        ok = ok and rep.bound >= exact and rep.tail_bound >= 0.0
    report(9, ok, "trace bound dominates the exact trace at t in {0.5, 1, 2} "
                  "with a certified tail")


def test_criterion_10_observability():
    g = interval(math.pi)
    y = full_subspace(g)
    omega = {"e": IntervalUnion([(0.3, 1.1), (1.9, 2.8)], length=math.pi)}
    vals = []
    ok = True
    for T in (1.0, 0.5, 0.25, 0.125):
        rep = observability_numeric(g, y, omega, horizon=T, modes=5)
        ok = ok and rep.observable and math.isfinite(rep.numeric_c_squared)
        vals.append(rep.numeric_c_squared)
    ok = ok and all(b > a for a, b in zip(vals, vals[1:]))
    las = lasso()
    yl = standard_subspace(las)
    lp = eigenvalues_up_to(las, yl, 4.0 * math.pi ** 2 + 1.0)
    rep = observability_numeric(las, yl, {"tail": IntervalUnion([(0.0, 1.0)], length=1.0)},
                                horizon=1.0, modes=len(lp))
    ok = ok and not rep.observable
    report(10, ok, "numeric constant finite and increasing as the horizon "
                   "shrinks; loop-supported mode detected as rank deficiency")


def test_criterion_11_appendix_checks():
    rng = np.random.default_rng(1111)
    graphs = [interval(1.0), lasso(),
              build_graph(["a", "b", "c"],
                          [("e1", "a", "b", 0.9), ("e2", "b", "c", 1.2)])]
    ok = True
    for _ in range(100):
        g = graphs[int(rng.integers(len(graphs)))]
        terms = {eid: [PolyTrigTerm(complex(*rng.normal(size=2)),
                                    int(rng.integers(0, 3)),
                                    float(rng.uniform(-9, 9)))
                       for _ in range(int(rng.integers(1, 4)))]
                 for eid in g.edge_ids}
        ok = ok and boundary_trace_check(GraphFunction(g, terms)).passed
    for g in graphs:
        for _ in range(5):
            dim = int(rng.integers(1, g.n_boundary))
            raw = rng.normal(size=(dim, g.n_boundary)) \
                + 1j * rng.normal(size=(dim, g.n_boundary))
            y = subspace_from_basis(g, raw)
            ok = ok and dual_subspace(dual_subspace(y)).equals(y, tol=1e-10)
    worst = 0.0
    for g in graphs:
        y = standard_subspace(g)
        dual = dual_subspace(y)
        for p in eigenvalues_up_to(g, y, 60.0):
            if p.lam < 1e-10:
                continue
            res = boundary_residual(g, dual, p.function.derivative())
            worst = max(worst, res)
    ok = ok and worst < 1e-7
    report(11, ok, f"boundary trace 100/100, dual involution, derivative "
                   f"dual-condition residual {worst:.1e}")
