import dataclasses
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from qgs.bounds import (h_bound, heat_trace_bound, observability_constant,
                        spectral_bound, standard_range, torsion_profile)
from qgs.graphs import build_graph, metrics, vertex_conditions_subspace
from qgs.spectral import eigenvalues_up_to, solve_torsion


def decimal_log_bound(gamma, h, digits=50):
    """Extended-precision oracle for log(12 (gamma/48)^(4 log2 h + 5))."""
    getcontext().prec = digits
    g = Decimal(gamma)
    hh = Decimal(h)
    expo = 4 * hh.ln() / Decimal(2).ln() + 5
    return float(Decimal(12).ln() + expo * (g / Decimal(48)).ln())


def interval(ell):
    return build_graph(["a", "b"], [("e", "a", "b", ell)])


class TestHBound:
    def test_reference_value(self):
        rep = h_bound(1.0, h=1.0)
        want = 12.0 / 48.0 ** 5
        assert rep.value == pytest.approx(want, rel=1e-12)
        assert rep.value == pytest.approx(4.7e-8, rel=3e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            h_bound(48.0, h=1.0)
        with pytest.raises(ValueError):
            h_bound(0.0, h=1.0)
        with pytest.raises(ValueError):
            h_bound(0.5, h=0.5)
        with pytest.raises(ValueError, match="one of h, log_h is required"):
            h_bound(0.5)
        with pytest.raises(ValueError, match="log_h must be nonnegative"):
            h_bound(0.5, log_h=-1.0)

    def test_against_decimal_oracle(self):
        for gamma, h in [(0.5, 48.0), (0.9, 2.0), (0.1, 1e6), (1.0, 1.0)]:
            rep = h_bound(gamma, h=h)
            want = decimal_log_bound(gamma, h)
            assert rep.log_value == pytest.approx(want, rel=1e-12)

    def test_underflow_flagged(self):
        rep = h_bound(0.01, h=1e40)
        assert rep.underflow and rep.value == 0.0
        assert math.isfinite(rep.log_value)


class TestSpectralBound:
    def test_domain(self):
        with pytest.raises(ValueError, match="rho must be positive"):
            spectral_bound(0.5, 0.0, 10.0)
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            spectral_bound(0.5, 0.5, -1.0)

    def test_lambda_zero_collapses(self):
        rep = spectral_bound(0.7, 0.3, 0.0)
        assert rep.value == pytest.approx(12.0 * (0.7 / 48.0) ** 5, rel=1e-12)

    def test_identity_with_h_route(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            gamma = float(rng.uniform(0.01, 1.0))
            rho = float(rng.uniform(0.01, 2.0))
            lam = float(rng.uniform(0.0, 400.0))
            direct = spectral_bound(gamma, rho, lam)
            via = h_bound(gamma, log_h=10.0 * rho * math.sqrt(lam))
            assert (direct.log_value, direct.inputs["exponent"]) == \
                (via.log_value, via.inputs["exponent"])

    def test_specific_h_match(self):
        direct = spectral_bound(0.5, 0.5, math.pi ** 2)
        via = h_bound(0.5, log_h=5.0 * math.pi)
        assert direct.log_value == pytest.approx(via.log_value, rel=1e-12)

    def test_power_law_series_budget(self):
        # the series budget sum_m sqrt(lam^m) (10 rho)^m / m!, summed, is the
        # exp(10 rho sqrt(lam)) that spectral_bound takes in closed form
        lam, rho, gamma = 7.3, 0.42, 0.3
        series = sum(math.sqrt(lam ** m) * (10 * rho) ** m / math.factorial(m)
                     for m in range(60))
        via = h_bound(gamma, h=series)
        assert spectral_bound(gamma, rho, lam).log_value == pytest.approx(via.log_value,
                                                                         rel=1e-12)

    def test_power_law_series_budget_at_zero_energy(self):
        # at lam = 0 only the m = 0 term is left: h = 1
        assert spectral_bound(0.3, 1.0, 0.0).log_value == h_bound(0.3, h=1.0).log_value

    def test_monotonicity(self):
        base = spectral_bound(0.5, 0.5, 10.0)
        assert spectral_bound(0.6, 0.5, 10.0).log_value > base.log_value
        assert spectral_bound(0.5, 0.6, 10.0).log_value < base.log_value
        assert spectral_bound(0.5, 0.5, 11.0).log_value < base.log_value

    def test_bound_below_prefactor_cap(self):
        for gamma in (0.1, 0.5, 1.0):
            for lam in (0.0, 5.0, 100.0):
                rep = spectral_bound(gamma, 0.4, lam)
                assert 0.0 <= rep.value <= 12.0 / 48.0 ** 5 + 1e-20


class TestStandardRange:
    def test_interval_ordering(self):
        m = metrics(interval(math.pi))
        rng = standard_range(m, k=2, gamma=1.0, rho=math.pi / 2)
        assert rng.lower_length.log_value <= rng.upper.log_value + 1e-12

    def test_rho_to_zero_limit(self):
        m = metrics(interval(1.0))
        rng = standard_range(m, k=3, gamma=1.0, rho=1e-12)
        cap = 12.0 / 48.0 ** 5
        for rep in (rng.lower_length, rng.upper, rng.lower_diameter):
            assert rep.value == pytest.approx(cap, rel=1e-6)

    def test_lasso_betti_enters(self):
        lasso = build_graph(["v", "w"], [("loop", "v", "v", 1.0),
                                         ("tail", "v", "w", 1.0)])
        m = metrics(lasso)
        assert m.betti == 1
        rng = standard_range(m, k=2, gamma=0.5, rho=0.25)
        flat = standard_range(metrics(interval(2.0)), k=2, gamma=0.5, rho=0.25)
        # extra cycle makes the guaranteed lower constant smaller
        assert rng.lower_length.log_value < flat.lower_length.log_value

    def test_k_domain(self):
        with pytest.raises(ValueError):
            standard_range(metrics(interval(1.0)), k=1, gamma=0.5, rho=0.1)
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            standard_range(metrics(interval(1.0)), k=2, gamma=0.0, rho=0.1)
        with pytest.raises(ValueError, match="rho must be positive"):
            standard_range(metrics(interval(1.0)), k=2, gamma=0.5, rho=0.0)
        from qgs.graphs import Edge, MetricGraph
        ray = MetricGraph(["a"], [Edge("r", "a", None, math.inf)])
        with pytest.raises(ValueError, match="the range needs a compact graph"):
            standard_range(metrics(ray), k=2, gamma=0.5, rho=0.1)
        # metrics of a connected compact graph always carry a diameter; a
        # hand-built record without one is refused
        no_diameter = dataclasses.replace(metrics(interval(1.0)), diameter=None)
        with pytest.raises(ValueError, match="diameter unavailable"):
            standard_range(no_diameter, k=2, gamma=0.5, rho=0.1)


class TestTrace:
    def test_bound_dominates_exact(self):
        # Neumann interval of length pi: lambda = n^2, full-mass control set
        masses = [(float(n * n), 1.0) for n in range(11)]
        for t in (0.5, 1.0, 2.0):
            rep = heat_trace_bound(masses, gamma=1.0, rho=0.02, t=t,
                                   total_length=math.pi, edges=1)
            exact = sum(math.exp(-n * n * t) for n in range(2000))
            assert rep.exact_partial == pytest.approx(exact, abs=1e-10)
            assert rep.bound >= exact
            assert rep.tail_bound >= 0.0

    def test_prefactor_only_limit(self):
        # rho -> 0: bound tends to 48^5/12 times the mass-weighted heat sum
        masses = [(float(n * n), 1.0) for n in range(11)]
        rep = heat_trace_bound(masses, gamma=1.0, rho=1e-9, t=1.0,
                               total_length=math.pi, edges=1)
        exact = sum(math.exp(-n * n) for n in range(11))
        assert rep.bound == pytest.approx(48.0 ** 5 / 12.0 * exact, rel=1e-6)

    def test_domain(self):
        masses = [(0.0, 1.0), (1.0, 1.0)]
        for kwargs, message in (({"t": 0.0}, "t must be positive"),
                                ({"gamma": 0.0}, r"gamma must lie in \(0, 1\]"),
                                ({"rho": 0.0}, "rho must be positive")):
            args = {"gamma": 0.5, "rho": 0.01, "t": 1.0, **kwargs}
            with pytest.raises(ValueError, match=message):
                heat_trace_bound(masses, total_length=math.pi, edges=1, **args)
        with pytest.raises(ValueError, match="need at least one eigenpair"):
            heat_trace_bound([], gamma=0.5, rho=0.01, t=1.0, total_length=math.pi, edges=1)

    def test_cutoff_below_peak_rejected(self):
        masses = [(0.0, 1.0), (1.0, 1.0)]
        with pytest.raises(ValueError, match="peak"):
            heat_trace_bound(masses, gamma=0.5, rho=1.0, t=0.1,
                             total_length=math.pi, edges=1)

    def test_tail_covers_early_truncation(self):
        # only lambda <= 16 supplied: the rigorous tail must still dominate
        # the full trace
        masses = [(float(n * n), 1.0) for n in range(5)]
        rep = heat_trace_bound(masses, gamma=1.0, rho=0.01, t=1.0,
                               total_length=math.pi, edges=1)
        exact = sum(math.exp(-n * n) for n in range(2000))
        assert rep.bound >= 48.0 ** 5 / 12.0 * exact
        assert rep.tail_bound > 0.0

    @pytest.mark.parametrize("graph, condition", [
        ("star", "neumann"), ("star", "anti-kirchhoff"), ("star", "dirichlet"),
        ("k4", "standard"), ("k4", "anti-kirchhoff"), ("k4", "neumann")])
    def test_tail_dominates_the_remainder_under_every_condition(self, graph,
                                                                condition):
        # the remainder past the cutoff, at mass 1, summed over a spectrum up
        # to lambda = 6000 (the terms beyond it are below exp(-800))
        if graph == "star":
            g = build_graph(["c", "w0", "w1", "w2", "w3"],
                            [(f"e{i}", "c", f"w{i}", ell)
                             for i, ell in enumerate((0.6, 0.8, 1.1, 1.3))])
        else:
            ends = ("ab", "bc", "cd", "da", "ac", "bd")
            lengths = (0.83, 1.07, 0.91, 1.19, 0.77, 1.02)
            g = build_graph(list("abcd"), [(f"e{i}", a, b, ell) for i, ((a, b), ell)
                                           in enumerate(zip(ends, lengths))])
        spectrum = [p.lam for p in eigenvalues_up_to(
            g, vertex_conditions_subspace(g, condition), 6000.0)]
        log_pref = -math.log(12.0) + 5.0 * math.log(48.0)
        for t, rho, cutoff in ((1.0, 0.02, 20.0), (0.5, 0.05, 150.0),
                               (0.2, 0.02, 150.0)):
            head = [(lam, 1.0) for lam in spectrum if lam <= cutoff]
            rep = heat_trace_bound(head, gamma=1.0, rho=rho, t=t,
                                   total_length=sum(g.edge_lengths.values()),
                                   edges=len(g.edges))
            c = 40.0 * rho / math.log(2.0) * math.log(48.0)
            rest = [-lam * t + c * math.sqrt(lam) for lam in spectrum[len(head):]]
            top = max(rest)
            log_rest = top + math.log(sum(math.exp(v - top) for v in rest))
            assert math.log(rep.tail_bound) >= log_pref + log_rest
            assert rep.inputs["edges"] == len(g.edges)
            assert rep.inputs["zero_modes"] == sum(lam == 0.0 for lam, _ in head)

    def test_floor_needs_its_2e_slack(self):
        # a Dirichlet centre with Neumann leaves of one length l splits into
        # E Dirichlet-Neumann intervals, k = (n + 1/2) pi / l each: the i-th
        # eigenvalue's count i exceeds |G| sqrt(lambda_i) / pi by up to E / 2,
        # so the floor pi (i - z) / |G| fails and pi (i - z - 2E) / |G| holds
        edges, ell = 6, 1.0
        g = build_graph(["c", *(f"w{i}" for i in range(edges))],
                        [(f"e{i}", "c", f"w{i}", ell) for i in range(edges)])
        y = vertex_conditions_subspace(g, "neumann", {"c": "dirichlet"})
        lams = [p.lam for p in eigenvalues_up_to(g, y, 100.0)]
        total = edges * ell
        assert len(lams) == 3 * edges
        excess = max(i - total * math.sqrt(lam) / math.pi for i, lam in enumerate(lams, 1))
        assert excess == pytest.approx(edges / 2, abs=1e-9)
        assert 0.0 < excess <= 2 * edges
        # the documented tail, at mass 1: (j - n - 1) terms at the cutoff, then
        # the geometric series of the floors from the first index j above it
        t, rho = 1.0, 0.02
        rep = heat_trace_bound([(lam, 1.0) for lam in lams], gamma=1.0, rho=rho, t=t,
                               total_length=total, edges=edges)
        assert rep.inputs["zero_modes"] == 0
        c = 40.0 * rho / math.log(2.0) * math.log(48.0)
        n, cut = len(lams), lams[-1]

        def floor(i):
            return math.pi * (i - 2 * edges) / total

        j = n + 1
        while floor(j) <= math.sqrt(cut):
            j += 1
        ratio = math.exp(math.pi / total * (c - t * (2.0 * floor(j) + math.pi / total)))
        tail = 48.0 ** 5 / 12.0 * (
            (j - n - 1) * math.exp(-cut * t + c * math.sqrt(cut))
            + math.exp(-floor(j) ** 2 * t + c * floor(j)) / (1.0 - ratio))
        assert j > n + 1
        assert rep.tail_bound == pytest.approx(tail, rel=1e-12)


class TestObservability:
    def test_d0_value(self):
        rep = observability_constant(1.0, 0.5, 1.0)
        assert rep.d0 == pytest.approx(48.0 ** 5 / 12.0, rel=1e-12)
        assert rep.d0 == pytest.approx(2.123e7, rel=1e-3)

    def test_d1_value(self):
        rho = 0.7
        rep = observability_constant(1.0, rho, 1.0)
        assert rep.d1 == pytest.approx(40.0 * rho / math.log(2.0) * math.log(48.0),
                                       rel=1e-12)

    def test_vanishes_as_horizon_grows(self):
        vals = [observability_constant(0.5, 0.5, T).c_squared.log_value
                for T in (1.0, 2.0, 4.0, 8.0, 1e6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            observability_constant(0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            observability_constant(1.5, 0.5, 1.0)
        with pytest.raises(ValueError, match="rho must be positive"):
            observability_constant(0.5, 0.0, 1.0)

    def test_default_marker(self):
        rep = observability_constant(0.5, 0.5, 1.0)
        assert any("default" in n for n in rep.c_squared.notes)


class TestTorsionProfile:
    def test_one_dirichlet_end(self):
        ell = 1.0
        g = interval(ell)
        sol = solve_torsion(g, ["a"])
        rep = torsion_profile(sol, rho=ell / 2.0, gamma=0.5)
        want = 1.0 + 5.0 * math.sqrt(3.0) + 75.0 / 2.0
        assert rep.h_prime == pytest.approx(want, rel=1e-12)
        assert rep.h_prime < 48.0
        assert rep.h <= rep.h_prime

    def test_two_dirichlet_ends(self):
        ell = 1.0
        g = interval(ell)
        sol = solve_torsion(g, ["a", "b"])
        rep = torsion_profile(sol, rho=ell / 2.0, gamma=0.5)
        want = 1.0 + 10.0 * math.sqrt(3.0) + 150.0
        assert rep.h_prime == pytest.approx(want, rel=1e-12)
        assert rep.h_prime < 169.0

    def test_scale_free_h_prime(self):
        # h' at rho = ell/2 is independent of the interval length
        for ell in (0.5, 2.0, 7.0):
            g = interval(ell)
            sol = solve_torsion(g, ["a"])
            rep = torsion_profile(sol, rho=ell / 2.0, gamma=0.5)
            assert rep.h_prime == pytest.approx(1.0 + 5.0 * math.sqrt(3.0) + 37.5,
                                                rel=1e-12)

    def test_profile_validity(self):
        g = build_graph(["c", "w1", "w2", "w3"],
                        [("e1", "c", "w1", 1.0), ("e2", "c", "w2", 1.3),
                         ("e3", "c", "w3", 0.7)])
        sol = solve_torsion(g, ["w1", "w3"])
        rep = torsion_profile(sol, rho=0.4, gamma=0.3)
        # Bernstein inequality for m = 0, 1, 2 holds with the exact norms
        coeffs = rep.profile["coeffs"]
        assert rep.norms["du"] <= coeffs[1] * rep.norms["u"] * (1 + 1e-12)
        assert rep.norms["d2u"] == pytest.approx(coeffs[2] * rep.norms["u"], rel=1e-10)

    def test_h_is_the_finite_series_of_the_profile(self):
        g = build_graph(["c", "w1", "w2", "w3"],
                        [("e1", "c", "w1", 1.0), ("e2", "c", "w2", 1.3),
                         ("e3", "c", "w3", 0.7)])
        sol = solve_torsion(g, ["w1", "w3"])
        for rho in (0.05, 0.4, 3.0):
            rep = torsion_profile(sol, rho=rho, gamma=0.3)
            assert rep.profile["kind"] == "finite" and rep.profile["coeffs"][0] == 1.0
            series = sum(math.sqrt(c) * (10.0 * rho) ** m / math.factorial(m)
                         for m, c in enumerate(rep.profile["coeffs"]))
            assert rep.h == series
            assert rep.h <= rep.h_prime * (1 + 1e-12)
        with pytest.raises(ValueError, match="rho"):
            torsion_profile(sol, rho=0.0, gamma=0.3)

    def test_graph_comes_from_the_function(self):
        # |G| is the total length of the torsion function's own graph; a
        # function on a ray graph is refused by that graph alone
        from qgs.graphs import Edge, MetricGraph
        from qgs.polytrig import GraphFunction
        from qgs.spectral import TorsionSolution
        ray = MetricGraph(["a"], [Edge("r", "a", None, math.inf)])
        fake = TorsionSolution(GraphFunction.zero(ray), rigidity=1.0, dirichlet=("a",))
        with pytest.raises(ValueError, match="torsion profile needs a compact graph"):
            torsion_profile(fake, rho=0.5, gamma=0.5)
        sol = solve_torsion(interval(2.0), ["a"])
        assert torsion_profile(sol, rho=0.5, gamma=0.5).norms["total_length"] == 2.0
