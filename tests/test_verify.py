import logging
import math

import numpy as np
import pytest
import scipy.linalg

from qgs import verify
from qgs.bounds import BoundReport, spectral_bound
from qgs.graphs import (build_graph, gauge_transform, standard_subspace,
                        full_subspace, vertex_conditions_subspace, zero_subspace)
from qgs.polytrig import (GraphFunction, IntervalUnion, PolyTrigTerm, cosine_power_terms,
                          masses, whole_edge)
from qgs.sampling import Cover, SamplingParams, SamplingSet, certify, verify_cover
from qgs.spectral import eigenvalues_up_to, solve_torsion, spectral_sample
from qgs.verify import (EdgeClassification, audit, boundary_trace_check, classify_edges,
                        kovrijkine_check, lasso_counterexample, local_estimate_check,
                        max_generalized_eig, observability_numeric,
                        optimality_example, ratio_reports)

from oracles import edgewise_classify_edges, horner_eval, norm_sq, strip_fluxes


def interval(ell=math.pi):
    return build_graph(["a", "b"], [("e", "a", "b", ell)])


def cos_fn(g, k, amp=1.0):
    return GraphFunction(g, {"e": [PolyTrigTerm(0.5 * amp, 0, k),
                                   PolyTrigTerm(0.5 * amp, 0, -k)]})


def sin_fn(g, k, amp=1.0):
    return GraphFunction(g, {"e": [PolyTrigTerm(-0.5j * amp, 0, k),
                                   PolyTrigTerm(0.5j * amp, 0, -k)]})


def mass_ratio(f, omega):
    """The observed ratio of f's mass report on omega (None for the zero
    function, which has no mass report)."""
    rep = ratio_reports(f, omega, spectral_bound(0.5, 0.5, 1.0))[0]
    return None if rep is None else rep.observed


class TestMassRatio:
    def test_constant_uniform_density(self):
        g = interval(1.0)
        one = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 0, 0.0)]})
        gamma = 0.3
        omega = {"e": IntervalUnion([(0.1, 0.1 + gamma / 2), (0.6, 0.6 + gamma / 2)],
                                    length=1.0)}
        assert mass_ratio(one, omega) == pytest.approx(gamma, rel=1e-12)

    def test_cosine_half_symmetry(self):
        g = interval(math.pi)
        f = cos_fn(g, 1.0)
        omega = {"e": IntervalUnion([(0.0, math.pi / 2)], length=math.pi)}
        assert mass_ratio(f, omega) == pytest.approx(0.5, rel=1e-12)

    def test_zero_function_rejected(self):
        g = interval(1.0)
        assert mass_ratio(GraphFunction.zero(g), {"e": whole_edge(1.0)}) is None

    def test_compare_passes(self):
        g = interval(math.pi)
        f = cos_fn(g, 2.0)
        omega = {"e": IntervalUnion([(0.0, math.pi / 2)], length=math.pi)}
        rep = ratio_reports(f, omega, spectral_bound(0.5, math.pi / 2.0, 4.0))[0]
        assert rep.passed and rep.margin > 0.0
        assert 0.0 <= rep.observed <= 1.0

    def test_gauge_invariance_of_ratio(self):
        theta = 0.8
        g = build_graph(["v"], [("loop", "v", "v", 1.0, theta)])
        y = standard_subspace(g)
        pairs = eigenvalues_up_to(g, y, 150.0)
        g0 = strip_fluxes(g)
        pairs0 = eigenvalues_up_to(g0, gauge_transform(y, g), 150.0)
        omega = {"loop": IntervalUnion([(0.1, 0.45), (0.6, 0.8)], length=1.0)}
        for p, q in zip(pairs, pairs0):
            assert p.lam == pytest.approx(q.lam, abs=1e-9)
            r1 = mass_ratio(p.function, omega)
            r2 = mass_ratio(q.function, omega)
            assert r1 == pytest.approx(r2, abs=1e-12)


class TestDerivativeRatio:
    def test_sine_half_symmetry(self):
        g = interval(math.pi)
        f = sin_fn(g, 1.0)
        omega = {"e": IntervalUnion([(0.0, math.pi / 2)], length=math.pi)}
        rep = ratio_reports(f, omega, spectral_bound(0.5, math.pi / 2.0, 1.0))[1]
        assert rep.observed == pytest.approx(0.5, rel=1e-12)

    def test_constant_vacuous(self):
        g = interval(1.0)
        one = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 0, 0.0)]})
        rep = ratio_reports(one, {"e": whole_edge(1.0)}, spectral_bound(0.5, 0.5, 0.0))[1]
        assert rep.vacuous and rep.passed and math.isnan(rep.observed)

    def test_w12_ratio_reported(self):
        g = interval(math.pi)
        f = sin_fn(g, 3.0)
        omega = {"e": IntervalUnion([(0.2, 1.4), (2.0, 2.9)], length=math.pi)}
        rep = ratio_reports(f, omega, spectral_bound(0.5, math.pi / 2.0, 9.0))[1]
        assert "w12_ratio" in rep.extras and rep.extras["w12_passed"]


class TestUnderflowedVerdicts:
    """A bound whose value underflowed to 0.0 is judged by its log: a tiny
    observed ratio below it must fail, not pass against 0.0."""

    @staticmethod
    def underflowed(log_value):
        return BoundReport(formula="test", value=0.0, log_value=log_value, inputs={},
                           underflow=True)

    def test_tiny_ratio_below_the_bound_fails(self):
        # log(1e-320) = -736.8: below e^-720, above e^-800 and e^-2000
        assert not verify._passes(1e-320, self.underflowed(-720.0))
        assert verify._passes(1e-320, self.underflowed(-800.0))
        assert verify._passes(1e-320, self.underflowed(-2000.0))
        assert not verify._passes(0.0, self.underflowed(-2000.0))

    def test_every_verdict_of_a_report_uses_the_log(self):
        # mass, derivative and w12 verdicts against a log value just above or
        # just below all three observed ratios
        g = interval(math.pi)
        f = cos_fn(g, 3.0) + 0.3 * sin_fn(g, 2.0)
        omega = {"e": IntervalUnion([(0.2, 1.4), (2.0, 2.9)], length=math.pi)}
        ref_mass, ref_der = ratio_reports(f, omega, self.underflowed(-2000.0))
        ratios = [ref_mass.observed, ref_der.observed, ref_der.extras["w12_ratio"]]
        for log_value, want in ((math.log(min(ratios)) - 1e-6, True),
                                (math.log(max(ratios)) + 1e-6, False)):
            mass, der = ratio_reports(f, omega, self.underflowed(log_value))
            assert [mass.passed, der.passed, der.extras["w12_passed"]] == [want] * 3


class TestClassifyEdges:
    def test_refusals(self):
        g = interval(math.pi)
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            classify_edges(cos_fn(g, 3.0), -1.0)
        with pytest.raises(ValueError, match="cannot classify the zero function"):
            classify_edges(GraphFunction.zero(g), 9.0)

    def test_single_mode_good(self):
        g = interval(math.pi)
        f = cos_fn(g, 3.0)
        rep = classify_edges(f, 9.0)
        assert rep.good == {"e": True}
        assert rep.closure_complete
        assert rep.bad_mass == 0.0

    def test_constant_good_for_any_profile(self):
        g = interval(1.0)
        one = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 0, 0.0)]})
        rep = classify_edges(one, 5.0)
        assert rep.good == {"e": True}

    def test_profile_violation_detected(self):
        g = interval(math.pi)
        f = cos_fn(g, 3.0)
        with pytest.raises(ValueError, match="profile violated"):
            classify_edges(f, 1.0)

    def test_concentrated_derivative_matches_bruteforce(self):
        # functions on two edges, derivative mass piled on one of them
        rng = np.random.default_rng(23)
        g = build_graph(["a", "b", "c"],
                        [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.3)])
        y = standard_subspace(g)
        pairs = eigenvalues_up_to(g, y, 120.0)
        for _ in range(100):
            take = rng.choice(len(pairs), size=3, replace=False)
            chosen = [pairs[i] for i in sorted(take)]
            f = spectral_sample(chosen, rng.normal(size=3) + 1j * rng.normal(size=3))
            lam = max(p.lam for p in chosen)
            rep = classify_edges(f, lam)
            # independent per-order quadrature oracle
            for eid, terms in f.terms.items():
                fe = GraphFunction(g, {eid: list(terms)})
                n0 = norm_sq(fe)
                want_good = True
                for m in range(1, 41):
                    if norm_sq(fe.derivative(m)) > 2.0 ** (m + 1) * lam ** m * n0 \
                            * (1.0 + 1e-9) + 1e-14:
                        want_good = False
                        break
                assert rep.good[eid] == want_good
            assert rep.bad_mass < 0.5 * rep.total_mass
            assert rep.total_mass < 2.0 * rep.good_mass

    def test_polynomial_edges_match_the_direct_derivatives(self, monkeypatch):
        # a power-1 term sends an edge down the derivative-chain branch; e1 is
        # the K4 lambda = 0 eigenfunction's edge, whose 4.17e-16 x term beside
        # 0.383 survives pruning, and e2 mixes x*exp(+-3ix) with exp(+-3ix)
        g = build_graph(["a", "b", "c"], [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.3)])
        f = GraphFunction(g, {
            "e1": [PolyTrigTerm(0.383, 0, 0.0), PolyTrigTerm(4.17e-16, 1, 0.0)],
            "e2": [PolyTrigTerm(0.05, 1, 3.0), PolyTrigTerm(0.05, 1, -3.0),
                   PolyTrigTerm(0.5, 0, 3.0), PolyTrigTerm(0.5, 0, -3.0)]})
        lam, m_max = 9.5, verify.M_MAX
        seen = []  # the per-order masses classify_edges computes, per edge

        def spy(fns):
            out = masses(fns)
            if len(fns) == m_max + 1:
                seen.append(np.array([m.whole for m in out]))
            return out

        monkeypatch.setattr(verify, "masses", spy)
        rep = classify_edges(f, lam)
        monkeypatch.undo()
        assert len(seen) == 2
        total = masses([f])[0].whole
        good_mass = 0.0
        for eid, got in zip(f.terms, seen):
            fe = GraphFunction(g, {eid: list(f.terms[eid])})
            want = np.array([m.whole for m in masses([fe.derivative(k)
                                                      for k in range(m_max + 1)])])
            assert got[0] == want[0]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            want_good = all(want[m] <= 2.0 ** (m + 1) * lam ** m * want[0]
                            * (1.0 + 1e-9) + 1e-14 * total for m in range(1, m_max + 1))
            assert rep.good[eid] == want_good
            good_mass += want[0] if want_good else 0.0
        assert rep.good_mass == good_mass


    def test_flags_match_the_edgewise_oracle(self):
        # 2 000 audit functions: the stacked classification against the
        # per-edge one it replaced; every flag equal, and each mass within
        # (N + 1) eps gross of it, N the products c_s conj(c_t) G_st summed
        eps = 2.0 ** -52
        for seed, trials in ((20245, 1000), (1056759765, 1000)):
            pool = verify.audit_pool(np.random.default_rng(seed), 200.0)
            for i in range(trials):
                f, lam = verify._trial_sample(pool, seed, i)[4:]
                got = classify_edges(f, lam)
                want = edgewise_classify_edges(GraphFunction(f.graph, f.terms), lam)
                assert (got.good, got.closure_complete) == (want.good, want.closure_complete)
                m = masses([f])[0]
                keys = np.arange(m.coeffs.shape[1]) < m.sizes[:, None]
                absc = np.abs(m.coeffs)
                gross = float((absc[..., None] * np.abs(m.gram) * absc[:, None]).sum())
                bound = (int((keys[..., None] & keys[:, None]).sum()) + 1) * eps * gross
                for name in ("good_mass", "bad_mass", "total_mass"):
                    assert abs(getattr(got, name) - getattr(want, name)) <= bound, name

    def test_non_positive_definite_gram_keeps_gain_inf(self):
        # audit trial 1652 of seed 1056759765: a K4 combination of five modes
        # whose Grams on e5 and e6 fail Cholesky, so no gain bound holds
        # there: closure is False, and the flags are the edgewise oracle's
        seed = 1056759765
        pool = verify.audit_pool(np.random.default_rng(seed), 200.0)
        f, lam = verify._trial_sample(pool, seed, 1652)[4:]
        got = classify_edges(f, lam)
        m = masses([f])[0]
        for eid in ("e5", "e6"):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(m.gram[m.edges.index(eid)])
        want = edgewise_classify_edges(GraphFunction(f.graph, f.terms), lam)
        assert got.good == want.good
        assert got.closure_complete is want.closure_complete is False

    def test_polynomial_edge_beside_exponential_edges(self, monkeypatch):
        # the torsion function's quadratic on a lasso's tail beside modes: the
        # tail goes order by order (gain 0 at frequency 0 alone, inf beside a
        # mode's exp(+-ikx)) while the loop joins the Cholesky stack; flags
        # and closure are the edgewise oracle's, and no generalized
        # eigenvalue is computed
        monkeypatch.setattr(verify, "max_generalized_eig", None)
        g = build_graph(["v", "w"], [("loop", "v", "v", 1.0), ("tail", "v", "w", 1.0)])
        tail = GraphFunction(g, {"tail": solve_torsion(g, ["w"]).function.terms["tail"]})
        k = 2.0 * math.pi  # sin(kx) on the loop alone
        fns = [p.function for p in eigenvalues_up_to(g, standard_subspace(g), 100.0)]
        fns.append(GraphFunction(g, {"loop": [PolyTrigTerm(-0.5j, 0, k),
                                              PolyTrigTerm(0.5j, 0, -k)]}))
        closures = set()
        for phi in fns:
            for scale in (0.1, 1.0, 10.0, 100.0):
                f = phi + tail * scale
                assert any(t.power for t in f.terms["tail"])
                assert not any(t.power for t in f.terms["loop"])
                for lam in (5.0, 15.0, 25.0, 45.0, 100.0):
                    try:
                        want = edgewise_classify_edges(f, lam)
                    except ValueError:
                        with pytest.raises(ValueError, match="profile violated"):
                            classify_edges(f, lam)
                        continue
                    got = classify_edges(f, lam)
                    assert (got.good, got.closure_complete) == (want.good,
                                                                want.closure_complete)
                    closures.add(got.closure_complete)
        assert closures == {True, False}


class TestKovrijkine:
    def test_constant_one(self):
        rep = kovrijkine_check([1.0], IntervalUnion([(0.0, 1.0)], length=1.0))
        assert rep.passed
        assert rep.details["M"] == pytest.approx(1.0, rel=1e-6)

    def test_linear_full_set(self):
        rep = kovrijkine_check([1.0, 1.0], IntervalUnion([(0.0, 1.0)], length=1.0))
        assert rep.passed

    def test_small_phi0_rejected(self):
        with pytest.raises(ValueError):
            kovrijkine_check([0.5], IntervalUnion([(0.0, 1.0)], length=1.0))
        with pytest.raises(ValueError, match=r"E must lie in \[0, 1\]"):
            kovrijkine_check([1.0], IntervalUnion([(0.5, 1.5)]))

    def test_random_polynomials(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            deg = int(rng.integers(0, 7))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            coeffs[0] = coeffs[0] / max(abs(coeffs[0]), 1e-9)  # unit modulus
            coeffs[0] *= float(rng.uniform(1.0, 3.0))
            a = float(rng.uniform(0.0, 0.9))
            width = float(rng.uniform(0.05, 1.0 - a))
            e_set = IntervalUnion([(a, a + width)], length=1.0)
            rep = kovrijkine_check(list(coeffs), e_set)
            assert rep.passed

    def test_polyval_is_the_horner_loop(self):
        # numpy's polyval, which the check evaluates phi with, does the
        # hand-written loop's operations: the same values at real points and
        # on the circle of radius 4, overflow included
        rng = np.random.default_rng(5)
        ts = np.linspace(0.0, 1.0, 301)
        zs = 4.0 * np.exp(2j * math.pi * np.linspace(0.0, 1.0, 301, endpoint=False))
        for i in range(2000):
            deg = int(rng.integers(0, 15))
            coeffs = (rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)) \
                * 10.0 ** rng.uniform(-3.0, 3.0 if i % 10 else 300.0, size=deg + 1)
            for pts in (ts, rng.uniform(0.0, 1.0, size=50), zs):
                got = np.polynomial.polynomial.polyval(pts, coeffs)
                assert np.array_equal(got, horner_eval(coeffs, pts), equal_nan=True)


class TestLocalEstimate:
    def test_constant(self):
        gamma = 0.4
        s = IntervalUnion([(0.1, 0.1 + gamma)], length=1.0)
        rep = local_estimate_check([(1.0, 0, 0.0)], 1.0, s)
        assert rep.passed
        assert rep.lhs == pytest.approx(gamma, rel=1e-12)

    def test_plane_wave_full_window(self):
        rep = local_estimate_check([(1.0, 0, 1.0)], 1.0,
                                   IntervalUnion([(0.0, 1.0)], length=1.0))
        assert rep.passed

    def test_random_trig(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            terms = [(complex(*rng.normal(size=2)), int(rng.integers(0, 3)),
                      float(rng.uniform(-6.0, 6.0))) for _ in range(3)]
            a = float(rng.uniform(0.0, 0.6))
            b = float(rng.uniform(a + 0.1, 1.0))
            s = IntervalUnion([(a, b)], length=1.0)
            rep = local_estimate_check(terms, 1.0, s)
            assert rep.passed


class TestOptimality:
    def test_alpha_two(self):
        out = optimality_example(1.0, (4.0 * math.pi) ** 2, 0.3)
        assert out["alpha"] == 2
        assert out["lower"] < out["ratio"] <= out["upper"]

    def test_longer_edge(self):
        out = optimality_example(2.0 * math.pi, 25.0, 0.35)
        assert out["alpha"] == 5
        assert out["lower"] < out["ratio"] <= out["upper"]

    def test_gamma_boundary(self):
        optimality_example(1.0, (4.0 * math.pi) ** 2, 4.0 / math.pi ** 2)
        with pytest.raises(ValueError):
            optimality_example(1.0, (4.0 * math.pi) ** 2, 4.0 / math.pi ** 2 + 1e-6)

    def test_small_alpha_rejected(self):
        with pytest.raises(ValueError, match="energy too small"):
            optimality_example(1.0, 1.0, 0.1)

    def test_undecidable_points_are_refused_not_failed(self):
        # 20 of these 30 points once raised "optimality sandwich failed": the
        # Gauss part there is rounding noise, far above the exact value
        decided = 0
        for lam in (158.0, 2000.0, 5000.0, 10000.0, 20000.0, 37000.0):
            for gamma in (0.3, 1e-2, 1e-4, 1e-6, 1e-10):
                try:
                    out = optimality_example(1.0, lam, gamma)
                except ValueError as exc:
                    assert "undecidable in double precision" in str(exc)
                    continue
                decided += 1
                assert out["lower"] <= out["ratio"] <= out["upper"]
        assert decided == 10

    def test_derivative_masses_are_not_integrated_unread(self, monkeypatch):
        # at lambda 20000 both the part of f and that of f' are below the
        # closed form's floor; the example reads only f's, so the Gauss rule
        # runs once, and f''s runs when, and only when, it is read
        import qgs.polytrig as polytrig
        gauss = polytrig._gauss_norm_sq
        calls = []
        monkeypatch.setattr(polytrig, "_gauss_norm_sq",
                            lambda f, reg: calls.append(f) or gauss(f, reg))
        optimality_example(1.0, 20000.0, 0.3)
        assert len(calls) == 1
        alpha = math.floor(math.sqrt(20000.0) / (2.0 * math.pi))
        f = GraphFunction(interval(1.0), {"e": list(cosine_power_terms(alpha, 2.0 * math.pi))})
        w = {"e": IntervalUnion([(0.175, 0.325), (0.675, 0.825)], length=1.0)}
        calls.clear()
        m = masses([f], w)[0]
        assert len(calls) == 1
        assert m.d_part == m.d_part == gauss(f.derivative(), w)
        assert len(calls) == 2 and calls[1].terms == f.derivative().terms

    def test_gauss_part_stays_within_its_stated_floor(self):
        # the exact part is at most |W| sup_W |f|^2, so the computed one may
        # exceed that by the stated rounding floor |W| d (2 sup + d) only
        for lam, gamma in ((2000.0, 1e-4), (5000.0, 1e-2), (37000.0, 1e-6)):
            alpha = math.floor(math.sqrt(lam) / (2.0 * math.pi))
            g = build_graph(["a", "b"], [("e", "a", "b", 1.0)])
            f = GraphFunction(g, {"e": list(cosine_power_terms(alpha, 2.0 * math.pi))})
            w = IntervalUnion([(0.25 * (1 - gamma), 0.25 * (1 + gamma)),
                               (0.25 * (3 - gamma), 0.25 * (3 + gamma))], length=1.0)
            part = norm_sq(f, {"e": w})
            sup = math.sin(0.5 * math.pi * gamma) ** alpha
            d = (alpha + 5) * 2.0 ** -52
            assert 0.0 <= part <= gamma * sup ** 2 + gamma * d * (2.0 * sup + d)
            # the exact-arithmetic bound 1e-40 |W| (sum |c|)^2 alone misses it
            assert part - gamma * sup ** 2 > 1e-40 * gamma


class TestMaxGeneralizedEig:
    def test_matches_scipy_on_hermitian_definite_pairs(self):
        rng = np.random.default_rng(11)
        for n in list(range(1, 9)) * 10:
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = x + x.conj().T
            b = z @ z.conj().T + rng.uniform(0.01, 1.0) * np.eye(n)
            ref = scipy.linalg.eigh(a, b, eigvals_only=True)
            assert max_generalized_eig(a, b) == pytest.approx(
                ref[-1], rel=1e-12, abs=1e-12 * np.abs(ref).max())

    def test_raises_where_scipy_does(self):
        a = np.eye(3)
        for b in (np.diag([1.0, -1.0, 2.0]), np.diag([1.0, 0.0, 1.0]), -np.eye(3),
                  np.ones((3, 3))):
            with pytest.raises(np.linalg.LinAlgError):
                scipy.linalg.eigh(a, b, eigvals_only=True)
            with pytest.raises(np.linalg.LinAlgError):
                max_generalized_eig(a, b)


class TestObservabilityNumeric:
    def test_refusals(self, monkeypatch):
        g = interval(math.pi)
        y = full_subspace(g)
        omega = {"e": whole_edge(math.pi)}
        with pytest.raises(ValueError, match="time horizon must be positive"):
            observability_numeric(g, y, omega, horizon=0.0, modes=1)
        with pytest.raises(ValueError, match="need at least one mode"):
            observability_numeric(g, y, omega, horizon=1.0, modes=0)
        # the eigenphase count sizes the solve; a solve short of the modes
        # (one that broke that count) is refused, not truncated
        monkeypatch.setattr(verify, "eigenvalues_up_to",
                            lambda *args: eigenvalues_up_to(*args)[:2])
        with pytest.raises(ValueError, match="could not compute 3 modes"):
            observability_numeric(g, y, omega, horizon=1.0, modes=3)

    def test_ground_state_whole_graph(self):
        g = interval(math.pi)
        y = full_subspace(g)
        rep = observability_numeric(g, y, {"e": whole_edge(math.pi)}, horizon=0.7,
                                    modes=1)
        assert rep.observable
        assert rep.numeric_c_squared == pytest.approx(1.0 / 0.7, rel=1e-10)
        # no certified (gamma, rho): no formula side and no logs
        assert (rep.formula_c_squared, rep.formula_log_c_squared,
                rep.numeric_log_c_squared) == (None, None, None)

    def test_one_solve_holds_the_modes(self, caplog, monkeypatch):
        # an all-Dirichlet star of near-equal edges has no eigenvalue below
        # (pi / 1.07)^2; the solve sized by the eigenphase count holds the
        # four lowest all the same
        g = build_graph(["c", *(f"w{i}" for i in range(8))],
                        [(f"e{i}", "c", f"w{i}", 1.0 + 0.01 * i) for i in range(8)])
        y = vertex_conditions_subspace(g, "dirichlet")
        solved = []

        def solve(*args):
            solved.append(eigenvalues_up_to(*args))
            return solved[-1]

        monkeypatch.setattr(verify, "eigenvalues_up_to", solve)
        omega = {eid: whole_edge(ell) for eid, ell in g.edge_lengths.items()}
        with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
            rep = observability_numeric(g, y, omega, horizon=0.5, modes=4)
        assert rep.observable
        assert len([r for r in caplog.records if r.name == "qgs.spectral"]) == 1
        direct = [p.lam for p in eigenvalues_up_to(g, y, 50.0)[:4]]
        assert [p.lam for p in solved[0][:4]] == pytest.approx(direct, rel=1e-12)
        assert direct == pytest.approx([(math.pi / (1.07 - 0.01 * i)) ** 2 for i in range(4)],
                                       rel=1e-12)

    def test_monotone_in_horizon(self):
        g = interval(math.pi)
        y = full_subspace(g)
        omega = {"e": IntervalUnion([(0.0, math.pi / 2)], length=math.pi)}
        vals = [observability_numeric(g, y, omega, horizon=T, modes=4).numeric_c_squared
                for T in (1.0, 0.5, 0.25, 0.125)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_modes(self):
        g = interval(math.pi)
        y = full_subspace(g)
        omega = {"e": IntervalUnion([(0.0, math.pi / 2)], length=math.pi)}
        vals = [observability_numeric(g, y, omega, horizon=0.5, modes=k).numeric_c_squared
                for k in (1, 2, 4)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_non_increasing_in_set_inclusion(self):
        g = interval(math.pi)
        y = full_subspace(g)
        small = {"e": IntervalUnion([(0.2, 1.0)], length=math.pi)}
        large = {"e": IntervalUnion([(0.2, 1.0), (1.8, 2.9)], length=math.pi)}
        c_small = observability_numeric(g, y, small, horizon=0.5, modes=4).numeric_c_squared
        c_large = observability_numeric(g, y, large, horizon=0.5, modes=4).numeric_c_squared
        assert c_large <= c_small + 1e-12

    def test_lasso_rank_deficient(self):
        g = build_graph(["v", "w"], [("loop", "v", "v", 1.0),
                                     ("tail", "v", "w", 1.0)])
        y = standard_subspace(g)
        pairs = eigenvalues_up_to(g, y, 4.0 * math.pi ** 2 + 1.0)
        omega = {"tail": whole_edge(1.0)}
        params = certify(SamplingSet(finite=omega))
        rep = observability_numeric(g, y, omega, horizon=1.0, modes=len(pairs),
                                    params=params)
        assert not rep.observable
        assert (rep.formula_c_squared, rep.formula_log_c_squared,
                rep.numeric_log_c_squared) == (None, None, None)


class TestBoundaryTrace:
    def test_constant(self):
        g = interval(1.0)
        one = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 0, 0.0)]})
        rep = boundary_trace_check(one)
        assert rep.passed
        assert rep.lhs == pytest.approx(2.0, rel=1e-12)
        assert rep.rhs == pytest.approx(2.0 / math.tanh(1.0), rel=1e-12)

    def test_zero(self):
        g = interval(1.0)
        rep = boundary_trace_check(GraphFunction.zero(g))
        assert rep.passed and rep.lhs == 0.0

    def test_random_functions(self):
        rng = np.random.default_rng(53)
        graphs = [interval(1.3),
                  build_graph(["a", "b", "c"],
                              [("e1", "a", "b", 0.8), ("e2", "b", "c", 1.1)]),
                  build_graph(["v", "w"], [("loop", "v", "v", 1.0),
                                           ("tail", "v", "w", 0.7)])]
        for _ in range(100):
            g = graphs[int(rng.integers(len(graphs)))]
            terms = {eid: [PolyTrigTerm(complex(*rng.normal(size=2)),
                                        int(rng.integers(0, 3)),
                                        float(rng.uniform(-8, 8)))
                           for _ in range(int(rng.integers(1, 4)))]
                     for eid in g.edge_ids}
            rep = boundary_trace_check(GraphFunction(g, terms))
            assert rep.passed


class TestLassoCounterexample:
    def test_report(self):
        out = lasso_counterexample()
        assert out["ratio_tail"] == 0.0
        assert out["ratio_loop"] == pytest.approx(1.0, rel=1e-12)
        assert out["residual"] < 1e-10
        assert out["volume_fraction"] == pytest.approx(0.5)

    def test_two_edge_sampling_recovers_bound(self):
        # per-edge control set: ratio positive and above the constant
        g = build_graph(["v", "w"], [("loop", "v", "v", 1.0),
                                     ("tail", "v", "w", 1.0)])
        y = standard_subspace(g)
        pairs = eigenvalues_up_to(g, y, 4.0 * math.pi ** 2 + 1.0)
        loop_mode = min(pairs, key=lambda p: abs(p.lam - 4.0 * math.pi ** 2))
        sset = SamplingSet(finite={
            "loop": IntervalUnion([(0.0, 0.25), (0.5, 0.75)], length=1.0),
            "tail": IntervalUnion([(0.0, 0.25), (0.5, 0.75)], length=1.0)})
        cover = Cover(breakpoints={"loop": (0.0, 0.5, 1.0),
                                   "tail": (0.0, 0.5, 1.0)})
        params = verify_cover(sset, cover, gamma=0.5, rho=0.5)
        assert isinstance(params, SamplingParams)
        rep = ratio_reports(loop_mode.function, sset.finite,
                            spectral_bound(params.gamma, params.rho, loop_mode.lam))[0]
        assert rep.passed and rep.observed > 0.0


class TestAudit:
    def test_small_campaign_clean(self):
        res = audit(trials=300, seed=99, lam_max=120.0)
        assert res.violations == 0
        assert len(res.rows) == 300
        assert {r["graph"] for r in res.rows} >= {"interval", "cycle"}
        for row in res.rows:
            assert row["mass_passed"]
            assert row["deriv_vacuous"] or row["deriv_passed"]
            assert 0.0 <= row["mass_observed"] <= 1.0

    def test_no_trials_refused(self):
        with pytest.raises(ValueError, match="need at least one trial"):
            audit(trials=0)

    def test_deterministic(self):
        a = audit(trials=40, seed=7, lam_max=60.0)
        b = audit(trials=40, seed=7, lam_max=60.0)
        assert a.rows == b.rows

    def test_classify_option(self):
        res = audit(trials=50, seed=21, lam_max=80.0, classify=True)
        assert res.violations == 0
        assert all(r["classified_ok"] for r in res.rows)
        assert all(r["bad_mass_fraction"] < 0.5 for r in res.rows)

    @pytest.mark.parametrize("good_mass, bad_mass, holds", [
        (0.6, 0.4, True), (0.5, 0.5, False), (0.0, 1.0, False)])
    def test_classified_ok_is_the_mass_bounds_verdict(self, monkeypatch, good_mass, bad_mass,
                                                      holds):
        # the row's classified_ok and the violation count read one verdict
        cls = EdgeClassification(good={}, m_max=verify.M_MAX, good_mass=good_mass,
                                 bad_mass=bad_mass, total_mass=1.0, closure_complete=False)
        assert cls.mass_bounds_hold is holds
        monkeypatch.setattr(verify, "classify_edges", lambda f, lam: cls)
        res = audit(trials=3, seed=21, lam_max=80.0, classify=True)
        assert [r["classified_ok"] for r in res.rows] == [holds] * 3
        assert all(r["mass_passed"] for r in res.rows)
        assert res.violations == (0 if holds else 3)

    def test_classify_rows_are_pinned(self):
        # the flags of 1 500 classify=True rows, pinned; bad_mass_fraction moves
        # in its last bits with the order of the mass sums and is checked
        # against the edgewise oracle in TestClassifyEdges
        import hashlib
        from qgs.report import csv_dumps
        digest = hashlib.sha256()
        for seed in (20245, 711, 3):
            rows = audit(trials=500, seed=seed, classify=True).rows
            digest.update(csv_dumps(rows, ("trial", "classified_ok",
                                           "closure_complete")).encode())
        assert digest.hexdigest() == ("bbda3cc43f75a6c7ff197a545a4ea708"
                                      "eff61a7805eda96b6cd17e24e2d820f9")

    def test_shared_mass_pass_matches_the_public_calls(self):
        # a trial takes all its masses from one pass, which f keeps for
        # classify_edges; every field must equal what the public calls give
        # on their own, each on a fresh copy of f
        seed = 31
        res = audit(trials=200, seed=seed, classify=True)
        pool = verify.audit_pool(np.random.default_rng(seed), 200.0)
        for row in res.rows:
            entry, params, sset, chosen, f, lam = verify._trial_sample(pool, seed, row["trial"])
            rep, der = ratio_reports(GraphFunction(f.graph, f.terms), sset.finite,
                                     spectral_bound(params.gamma, params.rho, lam))
            cls = classify_edges(GraphFunction(f.graph, f.terms), lam)
            want = {
                "trial": row["trial"], "graph": entry["name"], "gamma": params.gamma,
                "rho": params.rho, "lam": lam, "modes": len(chosen),
                "mass_observed": rep.observed, "bound": rep.bound.value,
                "mass_margin": rep.margin, "mass_passed": rep.passed,
                "deriv_observed": der.observed, "deriv_margin": der.margin,
                "deriv_passed": der.passed, "deriv_vacuous": der.vacuous,
                "bad_mass_fraction": cls.bad_mass / cls.total_mass,
                "classified_ok": (cls.bad_mass < 0.5 * cls.total_mass
                                  and cls.total_mass < 2.0 * cls.good_mass),
                "closure_complete": cls.closure_complete,
            }
            assert list(row) == list(want)
            for key, val in want.items():
                assert row[key] == val or (val != val and row[key] != row[key]), key

    def test_cover_first_sets_always_certify(self):
        # the random set is certified by construction: verify_cover accepts
        # every draw, so the audit needs no retry
        rng = np.random.default_rng(404)
        pool = verify.audit_pool(np.random.default_rng(verify.DEFAULT_SEED), 200.0)
        for i in range(2000):
            params, sset = verify._random_certified_set(rng, pool[i % len(pool)]["graph"])
            assert isinstance(params, SamplingParams) and params.gamma > 0.0
            assert set(sset.finite) == set(pool[i % len(pool)]["graph"].edge_ids)

    def test_one_kernel_call_per_trial(self, monkeypatch):
        # the four masses and the arrays classify_edges reads come from one
        # masses call; only an edge with x**p terms takes a call of its own
        import qgs.polytrig as polytrig
        seed = 31
        pool = verify.audit_pool(np.random.default_rng(seed), 200.0)
        calls = []
        kernel = polytrig.integrate_powexp
        monkeypatch.setattr(polytrig, "integrate_powexp",
                            lambda *args: calls.append(1) or kernel(*args))
        for i in range(50):
            f = verify._trial_sample(pool, seed, i)[4]
            calls.clear()
            verify._audit_trial(pool, seed, i, classify=True)
            assert len(calls) == 1 + sum(any(t.power for t in ts) for ts in f.terms.values())
