import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs import spectral
from qgs.cli import main
from qgs.graphs import (RANK_TOL, build_graph, dual_subspace, full_subspace,
                        gauge_transform, standard_subspace, subspace_from_basis,
                        vertex_conditions_subspace, zero_subspace)
from qgs.polytrig import GraphFunction, PolyTrigTerm, _gauss_norm_sq, gram, inner_product
from qgs.spectral import (_TURN, CLUSTER_GAP, SIN_CLUSTER, EigenPair, _Eigenphases,
                          _pair_integrals, _phase_fix, _unitary_eig, boundary_residual, count_bound,
                          eigenvalues_up_to, secular_matrix, solve_torsion, spectral_sample,
                          wavenumber_range)

from oracles import _phase_fix as loop_phase_fix
from oracles import (collocation_eigenvalues, det_scan_roots, fold_spectral_sample,
                     loop_conditioned, loop_eigenphase_roots, loop_eigenvalues_up_to,
                     loop_null_space, loop_secular_matrix, loop_solve_torsion, norm_sq,
                     sigma_min_scan, strip_fluxes, torsion_fd)


def interval(ell=math.pi):
    return build_graph(["a", "b"], [("e", "a", "b", ell)])


def three_star(ell=1.0):
    return build_graph(["c", "w1", "w2", "w3"],
                       [("e1", "c", "w1", ell), ("e2", "c", "w2", ell),
                        ("e3", "c", "w3", ell)])


def loop(length, flux=0.0):
    return build_graph(["v"], [("loop", "v", "v", length, flux)])


def lasso():
    return build_graph(["v", "w"], [("loop", "v", "v", 1.0),
                                    ("tail", "v", "w", 1.0)])


def lam_list(pairs):
    return [p.lam for p in pairs]


class TestSecularMatrix:
    def test_interval_neumann_zero_set(self):
        g = interval(math.pi)
        y = full_subspace(g)
        for n in (1, 2, 5):
            m = secular_matrix(g, y, float(n))
            assert np.linalg.svd(m, compute_uv=False)[-1] < 1e-12
        m = secular_matrix(g, y, 1.5)
        assert np.linalg.svd(m, compute_uv=False)[-1] > 1e-3

    def test_interval_dirichlet_zero_set(self):
        g = interval(math.pi)
        y = zero_subspace(g)
        for n in (1, 2, 3):
            m = secular_matrix(g, y, float(n))
            assert np.linalg.svd(m, compute_uv=False)[-1] < 1e-12

    def test_lasso_loop_mode(self):
        g = lasso()
        y = standard_subspace(g)
        m = secular_matrix(g, y, 2.0 * math.pi)
        assert np.linalg.svd(m, compute_uv=False)[-1] < 1e-10

    def test_non_compact_rejected(self):
        from qgs.graphs import Edge, MetricGraph
        g = MetricGraph(["a"], [Edge("r", "a", None, math.inf)])
        with pytest.raises(ValueError):
            secular_matrix(g, full_subspace(g), 1.0)
        with pytest.raises(ValueError, match="wavenumber must be nonnegative"):
            secular_matrix(interval(), full_subspace(interval()), -1.0)


class TestIntervalSpectra:
    def test_neumann(self):
        g = interval(math.pi)
        pairs = eigenvalues_up_to(g, full_subspace(g), 100.0)
        assert lam_list(pairs) == pytest.approx([n * n for n in range(11)], abs=1e-8)

    def test_dirichlet(self):
        g = interval(math.pi)
        pairs = eigenvalues_up_to(g, zero_subspace(g), 100.0)
        assert lam_list(pairs) == pytest.approx([n * n for n in range(1, 11)], abs=1e-8)

    def test_eigenfunctions_normalized_and_valid(self):
        g = interval(math.pi)
        y = full_subspace(g)
        for p in eigenvalues_up_to(g, y, 30.0):
            assert norm_sq(p.function) == pytest.approx(1.0, abs=1e-10)
            assert boundary_residual(g, y, p.function) < 1e-8
            assert p.residual < 1e-8


class TestCycleSpectrum:
    def test_doubled_eigenvalues(self):
        g = loop(2.0 * math.pi)
        pairs = eigenvalues_up_to(g, standard_subspace(g), 10.0)
        want = [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]
        assert lam_list(pairs) == pytest.approx(want, abs=1e-8)

    def test_cluster_orthonormal(self):
        g = loop(2.0 * math.pi)
        pairs = eigenvalues_up_to(g, standard_subspace(g), 5.0)
        same = [p for p in pairs if abs(p.lam - 1.0) < 1e-6]
        assert len(same) == 2
        assert abs(inner_product(same[0].function, same[1].function)) < 1e-8


class TestStarSpectrum:
    def test_closed_form(self):
        # equilateral star, standard: k in pi*Z simple (plus 0), k in pi/2+pi*Z double
        g = three_star(1.0)
        pairs = eigenvalues_up_to(g, standard_subspace(g), 30.0)
        want = sorted([0.0] + [(math.pi * n) ** 2 for n in (1,)]
                      + [((n + 0.5) * math.pi) ** 2 for n in (0, 1)] * 2)
        assert lam_list(pairs) == pytest.approx(want, abs=1e-8)

    def test_hundred_edges_below_the_size_cap(self):
        # the size cap counts the matrices a solve holds: a few cells and
        # one per root (101 here, of 200 x 200)
        g = build_graph(["c", *(f"w{i}" for i in range(100))],
                        [(f"e{i}", "c", f"w{i}", 1.0) for i in range(100)])
        pairs = eigenvalues_up_to(g, standard_subspace(g), 10.0)
        want = [0.0] + [(math.pi / 2) ** 2] * 99 + [math.pi ** 2]
        assert lam_list(pairs) == pytest.approx(want, abs=1e-8)

    def test_against_fine_scan(self):
        g = three_star(1.0)
        y = standard_subspace(g)
        pairs = eigenvalues_up_to(g, y, 60.0)
        ks = []
        for p in pairs:
            if p.k > 1e-8 and (not ks or p.k - ks[-1] > 1e-6):
                ks.append(p.k)
        roots = sigma_min_scan(lambda k: secular_matrix(g, y, k), 1e-3,
                               math.sqrt(60.0), 1e-3)
        merged = []
        for r in roots:
            if not merged or r - merged[-1] > 1e-6:
                merged.append(r)
        assert len(merged) == len(ks)
        for a, b in zip(ks, merged):
            assert a == pytest.approx(b, abs=1e-8)


class TestGaugeFlux:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 3.0, math.pi])
    def test_loop_flux_law(self, theta):
        L = 1.0
        g = loop(L, flux=theta)
        pairs = eigenvalues_up_to(g, standard_subspace(g), 200.0)
        want = sorted(((2.0 * math.pi * n + theta) / L) ** 2 for n in range(-3, 4))
        want = [w for w in want if w <= 200.0]
        assert lam_list(pairs) == pytest.approx(want, abs=1e-8)

    def test_gauge_covariance(self):
        # fluxes split across a cycle of two edges: only the total matters
        g1 = build_graph(["a", "b"], [("e1", "a", "b", 1.0, 0.9),
                                      ("e2", "b", "a", 1.0, 0.1)])
        g2 = build_graph(["a", "b"], [("e1", "a", "b", 1.0, 0.35),
                                      ("e2", "b", "a", 1.0, 0.65)])
        y1 = standard_subspace(g1)
        l1 = lam_list(eigenvalues_up_to(g1, y1, 120.0))
        l2 = lam_list(eigenvalues_up_to(g2, standard_subspace(g2), 120.0))
        assert l1 == pytest.approx(l2, abs=1e-9)
        # and equal to the free problem with the gauged subspace
        g0 = strip_fluxes(g1)
        ly = lam_list(eigenvalues_up_to(g0, gauge_transform(y1, g1), 120.0))
        assert l1 == pytest.approx(ly, abs=1e-9)


class TestDualBoundary:
    def test_derivative_satisfies_dual_conditions(self):
        for g, y in [(interval(math.pi), full_subspace(interval(math.pi))),
                     (three_star(1.0), standard_subspace(three_star(1.0)))]:
            y = standard_subspace(g)
            dual = dual_subspace(y)
            for p in eigenvalues_up_to(g, y, 40.0):
                if p.lam < 1e-10:
                    continue
                fp = p.function.derivative()
                res = boundary_residual(g, dual, fp)
                assert res < 1e-7
                # -(f')'' = lam * f' termwise
                diff = fp.derivative(2) + p.lam * fp
                assert norm_sq(diff) < 1e-12 * p.lam ** 2


class TestBracketing:
    def test_standard_two_sided_estimate(self):
        for g in (interval(math.pi), three_star(1.0), lasso()):
            from qgs.graphs import metrics
            m = metrics(g)
            pairs = eigenvalues_up_to(g, standard_subspace(g), 80.0)
            for idx, p in enumerate(pairs, start=1):
                if idx < 2:
                    continue
                lo = idx ** 2 * math.pi ** 2 / (4.0 * m.total_length ** 2)
                hi = ((idx - 1 + 1.5 * m.betti + 0.5 * m.degree1_count)
                      * math.pi / m.total_length) ** 2
                assert lo - 1e-8 <= p.lam <= hi + 1e-8


class TestSpectralSample:
    def test_single_mode(self):
        g = interval(math.pi)
        pairs = eigenvalues_up_to(g, full_subspace(g), 10.0)
        f = spectral_sample(pairs[:1], [1.0])
        assert norm_sq(f - pairs[0].function) < 1e-20

    def test_zero_coeffs(self):
        g = interval(math.pi)
        pairs = eigenvalues_up_to(g, full_subspace(g), 10.0)
        f = spectral_sample(pairs, [0.0] * len(pairs))
        assert f.is_zero()

    def test_refusals(self):
        g = interval(math.pi)
        pairs = eigenvalues_up_to(g, full_subspace(g), 10.0)
        with pytest.raises(ValueError, match="one coefficient per eigenpair required"):
            spectral_sample(pairs, [1.0])
        with pytest.raises(ValueError, match="empty eigenpair list"):
            spectral_sample([], [])
        h = interval(math.pi)
        other = eigenvalues_up_to(h, full_subspace(h), 10.0)
        with pytest.raises(ValueError, match="functions live on different graphs"):
            spectral_sample([pairs[0], other[1]], [1.0, 1.0])

    def test_norm_is_coefficient_norm(self):
        g = interval(math.pi)
        pairs = eigenvalues_up_to(g, full_subspace(g), 30.0)[:5]
        rng = np.random.default_rng(11)
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        f = spectral_sample(pairs, c)
        assert norm_sq(f) == pytest.approx(float(np.sum(np.abs(c) ** 2)), abs=1e-10)

    def test_one_merge_equals_the_fold(self):
        # term for term, in the same edge order, on every audit graph (the
        # cycles have double eigenvalues whose modes share frequencies)
        from qgs.verify import audit_pool
        rng = np.random.default_rng(29)
        for entry in audit_pool(np.random.default_rng(29), 200.0):
            pairs = entry["pairs"]
            for _ in range(20):
                idx = sorted(rng.choice(len(pairs), size=min(5, len(pairs)), replace=False))
                chosen = [pairs[i] for i in idx]
                c = rng.normal(size=len(chosen)) + 1j * rng.normal(size=len(chosen))
                got, want = spectral_sample(chosen, c), fold_spectral_sample(chosen, c)
                assert list(got.terms.items()) == list(want.terms.items())


class TestTorsion:
    def test_interval_both_ends(self):
        ell = 1.7
        g = interval(ell)
        sol = solve_torsion(g, ["a", "b"])
        assert sol.rigidity == pytest.approx(ell ** 3 / 12.0, abs=1e-12 * ell ** 3)
        # u = x (ell - x) / 2
        x = 0.3 * ell
        assert sol.function.evaluate("e", x) == pytest.approx(x * (ell - x) / 2.0, rel=1e-12)

    def test_interval_one_end(self):
        ell = 2.3
        g = interval(ell)
        sol = solve_torsion(g, ["a"])
        assert sol.rigidity == pytest.approx(ell ** 3 / 3.0, abs=1e-12 * ell ** 3)

    def test_second_derivative_is_minus_one(self):
        g = three_star(1.0)
        sol = solve_torsion(g, ["w1", "w2", "w3"])
        d2 = sol.function.derivative(2)
        for eid in g.edge_ids:
            terms = d2.terms.get(eid, ())
            assert len(terms) == 1 and terms[0].coeff == pytest.approx(-1.0)

    def test_star_against_finite_differences(self):
        g = three_star(1.0)
        sol = solve_torsion(g, ["w1", "w2", "w3"])
        fd = torsion_fd(g, {"w1", "w2", "w3"}, h=1e-4)
        assert sol.rigidity == pytest.approx(fd, rel=1e-6)

    def test_dirichlet_values_zero(self):
        g = lasso()
        sol = solve_torsion(g, ["w"])
        assert abs(sol.function.evaluate("tail", 1.0)) < 1e-12

    def test_empty_dirichlet_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            solve_torsion(interval(), [])
        with pytest.raises(ValueError, match="unknown vertex 'z'"):
            solve_torsion(interval(), ["a", "z"])
        from qgs.graphs import Edge, MetricGraph
        ray = MetricGraph(["a"], [Edge("r", "a", None, math.inf)])
        with pytest.raises(ValueError, match="torsion solve requires a compact graph"):
            solve_torsion(ray, ["a"])

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            solve_torsion(build_graph(["a"], []), ["a"])

    def test_disconnected_detected(self):
        g = build_graph(["a", "b", "c", "d"],
                        [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)])
        with pytest.raises(ValueError, match="singular"):
            solve_torsion(g, ["a"])

    def test_dirichlet_free_path_refused(self):
        # the incidence system of the LU solve is singular here only up to
        # roundoff: it returned rigidity 3.3e16
        g = build_graph(["a", "b", "c", "d", "e"],
                        [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.1159794704733146),
                         ("e3", "d", "e", 0.6950339633868166)])
        with pytest.raises(ValueError, match="singular"):
            solve_torsion(g, ["a"])

    def test_dirichlet_free_triangle_with_tail_refused(self):
        # LU returned rigidity -8.3e16 here
        g = build_graph(["a", "b", "c", "d", "e", "f"],
                        [("i", "a", "b", 1.0), ("t1", "c", "d", 1.043624991465423),
                         ("t2", "d", "e", 1.4350724237877683),
                         ("t3", "e", "c", 1.3158535541215322),
                         ("tail", "e", "f", 0.5027385001701481)])
        with pytest.raises(ValueError, match="singular"):
            solve_torsion(g, ["a"])

    def test_matches_incidence_system(self):
        # random connected graphs (spanning tree plus extra edges, loops and
        # multi-edges included) and random Dirichlet sets against the
        # hand-built incidence system; coefficients to 1e-13 of the edge
        # scale ell_max (u ~ ell_max^2, u' ~ ell_max)
        rng = np.random.default_rng(1010)
        shapes = set()
        for _ in range(320):
            nv = int(rng.integers(1, 7))
            vs = [f"v{i}" for i in range(nv)]
            edges = [(vs[int(rng.integers(i))], vs[i]) for i in range(1, nv)]
            edges += [(vs[int(rng.integers(nv))], vs[int(rng.integers(nv))])
                      for _ in range(int(rng.integers(0 if nv > 1 else 1, 4)))]
            g = build_graph(vs, [(f"e{j}", a, b, float(rng.uniform(0.2, 3.0)))
                                 for j, (a, b) in enumerate(edges)])
            dirichlet = [vs[i] for i in rng.choice(nv, size=int(rng.integers(1, nv + 1)),
                                                   replace=False)]
            shapes.update(("loop" if a == b else "multi" if edges.count((a, b)) > 1
                           else "plain") for a, b in edges)
            got, want = solve_torsion(g, dirichlet), loop_solve_torsion(g, dirichlet)
            scale = max(g.edge_lengths.values())
            for eid in g.edge_ids:
                a = {t.power: t.coeff for t in got.function.terms.get(eid, ())}
                b = {t.power: t.coeff for t in want.function.terms.get(eid, ())}
                assert abs(a.get(2, 0.0) - b.get(2, 0.0)) == 0.0
                assert abs(a.get(1, 0.0) - b.get(1, 0.0)) <= 1e-13 * scale
                assert abs(a.get(0, 0.0) - b.get(0, 0.0)) <= 1e-13 * scale ** 2
            assert got.rigidity == pytest.approx(want.rigidity, rel=1e-12, abs=0.0)
            assert got.dirichlet == want.dirichlet
        assert shapes == {"loop", "multi", "plain"}

    def test_refused_exactly_with_a_zero_mode(self):
        # possibly disconnected multigraphs: the solve is refused exactly
        # when the eigen-solve under the same conditions finds 0
        rng = np.random.default_rng(4404)
        refused = 0
        for _ in range(150):
            nv = int(rng.integers(2, 7))
            vs = [f"v{i}" for i in range(nv)]
            g = build_graph(vs, [(f"e{j}", vs[int(rng.integers(nv))], vs[int(rng.integers(nv))],
                                  float(rng.uniform(0.2, 3.0)))
                                 for j in range(int(rng.integers(1, 6)))])
            dirichlet = [vs[i] for i in rng.choice(nv, size=int(rng.integers(1, 3)),
                                                   replace=False)]
            y = vertex_conditions_subspace(g, "standard", dict.fromkeys(dirichlet, "dirichlet"))
            zero = any(p.lam == 0.0 for p in eigenvalues_up_to(g, y, 1.0))
            try:
                solve_torsion(g, dirichlet)
            except ValueError as exc:
                assert "singular" in str(exc) and zero
                refused += 1
            else:
                assert not zero
        assert 20 <= refused <= 130


class TestZeroModes:
    """k = 0 from the null space of M = P_{Y-perp} D / sqrt(2): the zero
    modes are edgewise constants, and the rank counts the singular values of
    M above RANK_TOL itself (D / sqrt(2) is an isometry)."""

    @pytest.mark.parametrize("g, default, mult", [
        # M is 0 up to roundoff: a rank relative to its largest singular
        # value would be 1 and lose the zero mode
        (loop(1.0), "standard", 1),
        # Y is everything, Y-perp nothing: every edge carries its own constant
        (three_star(1.0), "neumann", 3),
        (loop(1.0, flux=0.5), "standard", 0),
    ], ids=["standard-loop", "neumann-star3", "fluxed-loop"])
    def test_edge_cases(self, g, default, mult):
        y = vertex_conditions_subspace(g, default)
        pairs = eigenvalues_up_to(g, y, 20.0)
        zero = [p for p in pairs if p.lam == 0.0]
        assert len(zero) == mult and all(p.k > 0.0 for p in pairs[mult:])
        sv = np.linalg.svd(_contraction(g, gauge_transform(y, g)), compute_uv=False)
        assert int(np.sum(sv <= 1e-10)) == mult
        if default == "standard" and mult:
            assert sv.max() <= 1e-15
        dev = gram([p.function for p in zero]) - np.eye(mult)
        assert np.max(np.abs(dev), initial=0.0) <= 1e-14
        for p in zero:
            assert p.residual <= 1e-15

    @pytest.mark.parametrize("flux", [1e-11, 1e-10, 1.9e-10, 2.1e-10, 3e-10, 5e-10, 1e-9,
                                      1e-7, 1e-5])
    def test_small_flux_counted_once(self, flux):
        # the lowest eigenvalue of a fluxed unit loop is flux^2; the affine
        # rule (multiplicity tolerance 1e-6) also read it as a zero mode,
        # and the eigenphase count found it once more: four eigenvalues.
        # M's singular value is sin(flux / 2) and U(0)'s phase 2 pi - flux:
        # flux^2 is a zero mode exactly when the count leaves it out, on
        # both sides of sin(flux / 2) = RANK_TOL
        g = loop(1.0, flux=flux)
        lams = [p.lam for p in eigenvalues_up_to(g, standard_subspace(g), 50.0)]
        assert len(lams) == 3
        if math.sin(0.5 * flux) <= RANK_TOL:
            assert lams[0] == 0.0
        else:
            assert lams[0] == pytest.approx(flux ** 2, rel=1e-6)


class TestSubdivisionInvariance:
    def test_spectrum_unchanged(self):
        # inserted degree-2 vertices with standard conditions are transparent
        from oracles import subdivide
        g = lasso()
        sub, _ = subdivide(g, 0.45)
        base = lam_list(eigenvalues_up_to(g, standard_subspace(g), 60.0))
        fine = lam_list(eigenvalues_up_to(sub, standard_subspace(sub), 60.0))
        assert base == pytest.approx(fine, abs=1e-7)


def _window_ks(pairs, lo, hi):
    return [p.k for p in pairs if lo <= p.k <= hi]


class TestCompleteness:
    """Spectra with two roots a few thousandths apart in k, where a scan of
    the smallest singular value over a wavenumber grid loses one of them.
    Counts and values come from closed forms or from the independent
    determinant scan."""

    def test_dirichlet_interval_beside_triangle(self):
        ell, sides = 1.465813, (0.973243, 0.977883, 0.984873)
        g = build_graph(["a", "b", "p", "q", "r"],
                        [("e", "a", "b", ell), ("t1", "p", "q", sides[0]),
                         ("t2", "q", "r", sides[1]), ("t3", "r", "p", sides[2])])
        y = vertex_conditions_subspace(g, "standard",
                                       {"a": "dirichlet", "b": "dirichlet"})
        pairs = eigenvalues_up_to(g, y, 400.0)
        # a Dirichlet interval (n pi / ell) and a standard triangle, which is
        # a cycle: 0 once, then 2 pi m / |cycle| twice
        cycle = sum(sides)
        want = [(n * math.pi / ell) ** 2 for n in range(1, 10)]
        want += [0.0] + [(2.0 * math.pi * m / cycle) ** 2 for m in range(1, 10)] * 2
        want = sorted(w for w in want if w <= 400.0)
        assert len(want) == 28
        assert lam_list(pairs) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_lasso_scrambled_raw_basis(self):
        from scipy.optimize import brentq

        from qgs.graphs import subspace_from_basis
        loop_len, tail = 1.513225, 1.009786
        g = build_graph(["v", "w"], [("loop", "v", "v", loop_len),
                                     ("tail", "v", "w", tail)])
        # vertex indicators on (loop,0), (tail,0), (loop,len), (tail,len)
        indicators = np.array([[1, 1, 1, 0], [0, 0, 0, 1]], dtype=complex)
        rng = np.random.default_rng(3)
        mix = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)) + 3.0 * np.eye(2)
        raw = eigenvalues_up_to(g, subspace_from_basis(g, mix @ indicators), 1000.0)
        std = eigenvalues_up_to(g, standard_subspace(g), 1000.0)
        # closed form: the loop's odd modes 2 pi n / loop and the roots of
        # 2 sin(k loop / 2) cos(k tail) + cos(k loop / 2) sin(k tail)
        k_max = math.sqrt(1000.0)
        ks = [0.0] + [2.0 * math.pi * n / loop_len
                      for n in range(1, int(k_max * loop_len / (2.0 * math.pi)) + 1)]

        def even(k):
            return (2.0 * math.sin(k * loop_len / 2.0) * math.cos(k * tail)
                    + math.cos(k * loop_len / 2.0) * math.sin(k * tail))

        grid = np.arange(1e-3, k_max, 1e-3)
        vals = [even(k) for k in grid]
        ks += [brentq(even, a, b, xtol=1e-14)
               for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]) if fa * fb < 0.0]
        want = sorted(k * k for k in ks)
        assert len(want) == 25
        assert lam_list(raw) == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert lam_list(raw) == pytest.approx(lam_list(std), rel=1e-9, abs=1e-9)

    def test_raw_basis_row_order_keeps_the_spectrum(self):
        # the third row is a combination of the first two up to 3e-10
        # relative, next to the 1e-10 rank tolerance: a rank decided row by row
        # depends on where that row stands (6 or 7 eigenvalues below 100)
        g = build_graph(["v", "w"], [("loop", "v", "v", 1.3), ("tail", "v", "w", 0.8)])
        rows = np.array([
            [45.79620096442079, 158.20990458634284, -10.951872486888252, -22.06957333312951],
            [0.16212255296628225, 4.296361686636023, 3.6712578315718747, -1.5641559555800832],
            [49.13233208689614, 766.0360962855679, 580.3608862583369, -260.8433196656076]])
        with pytest.warns(UserWarning, match="reduced"):
            a = eigenvalues_up_to(g, subspace_from_basis(g, rows), 100.0)
        with pytest.warns(UserWarning, match="reduced"):
            b = eigenvalues_up_to(g, subspace_from_basis(g, rows[::-1]), 100.0)
        assert len(a) == len(b) == 6
        assert lam_list(a) == pytest.approx(lam_list(b), rel=1e-12, abs=1e-12)

    def test_k4_mixed_conditions(self):
        g = build_graph("abcd", [("e1", "a", "b", 0.977027), ("e2", "b", "c", 1.038758),
                                 ("e3", "c", "d", 0.969668), ("e4", "d", "a", 0.974166),
                                 ("e5", "a", "c", 1.047653), ("e6", "b", "d", 0.998396)])
        y = vertex_conditions_subspace(g, "standard", {"a": "dirichlet", "b": "neumann"})
        pairs = eigenvalues_up_to(g, y, 400.0)
        # the determinant scan over all of (0, 20] at step 1e-5 finds the
        # same 38 simple roots (about a minute); here it checks the window
        # that holds the pair 0.0035 apart
        assert len(pairs) == 38
        roots = det_scan_roots(g, y, 11.0, 11.6, 1e-5, chunk=20_000)
        assert len(roots) == 2
        assert _window_ks(pairs, 11.0, 11.6) == pytest.approx(roots, abs=1e-9)

    def test_audit_pool_triangle_tail(self):
        from qgs.verify import audit_pool
        entry = next(e for e in audit_pool(np.random.default_rng(12345), 200.0)
                     if e["name"] == "triangle-tail")
        pairs = entry["pairs"]
        # one zero mode and 19 simple roots; the window holds a pair 0.0045 apart
        assert len(pairs) == 20
        roots = det_scan_roots(entry["graph"], entry["subspace"], 13.0,
                               math.sqrt(200.0), 1e-5, chunk=20_000)
        assert len(roots) == 2
        assert _window_ks(pairs, 13.0, math.sqrt(200.0)) == pytest.approx(roots, abs=1e-9)

    def test_debug_record_counts_every_pair(self, caplog):
        g = lasso()
        with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
            pairs = eigenvalues_up_to(g, standard_subspace(g), 300.0)
        [record] = [r for r in caplog.records if r.name == "qgs.spectral"]
        assert record.diagnostics["count"] == len(pairs)
        assert record.diagnostics["zero_multiplicity"] == 1

    def test_silent_by_default(self, capsys):
        g = lasso()
        eigenvalues_up_to(g, standard_subspace(g), 50.0)
        assert capsys.readouterr() == ("", "")


class TestPhaseFix:
    def test_near_tie_pivots_on_first_entry(self):
        # |b| exceeds |a| by roundoff in one vector and falls short in the
        # other: both must be turned by the same phase
        for eps in (1e-13, -1e-13):
            v = np.array([1j, -(1.0 + eps)], dtype=complex)
            fixed = _phase_fix(v)
            assert fixed[0] == pytest.approx(1.0, abs=1e-15)
            assert fixed[1] == pytest.approx(1j * (1.0 + eps), abs=1e-15)

    def test_clear_maximum_is_the_pivot(self):
        fixed = _phase_fix(np.array([0.5j, -2.0], dtype=complex))
        assert fixed[1] == pytest.approx(2.0)

    def test_stack_is_the_per_vector_fix(self):
        # bit for bit, near ties included: a stacked harvest pivots and turns
        # every vector as the per-vector fix does
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(6, 3, 8)) + 1j * rng.normal(size=(6, 3, 8))
        vecs[:3, :, 5] = 4.0 * np.exp(1j * rng.uniform(0.0, 6.0, (3, 3)))
        vecs[:3, :, 2] = vecs[:3, :, 5] * (1.0 + rng.uniform(-1e-12, 1e-12, (3, 3)))
        want = np.array([[loop_phase_fix(v) for v in stack] for stack in vecs])
        assert np.array_equal(_phase_fix(vecs).view(np.uint64), want.view(np.uint64))


class TestDefensive:
    def test_lam_max_positive(self):
        with pytest.raises(ValueError):
            eigenvalues_up_to(interval(), full_subspace(interval()), -1.0)

    def test_edgeless_graph_rejected(self):
        g = build_graph(["a"], [])
        with pytest.raises(ValueError, match="at least one edge"):
            eigenvalues_up_to(g, standard_subspace(g), 10.0)

    def test_unconverged_root_search_raises(self, monkeypatch):
        # a bracket still live when the rounds run out is a failure, not an
        # eigenvalue
        monkeypatch.setattr(spectral, "_MAX_ROUNDS", 1)
        g = three_star()
        with pytest.raises(ValueError, match="did not converge in 1 rounds"):
            eigenvalues_up_to(g, standard_subspace(g), 100.0)


def _equilateral(shape):
    """K4, K5, K3,3, a 5-star or a 3-petal flower, every edge of length 1."""
    if shape == "k4":
        names = "abcd"
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    elif shape == "k5":
        names = "abcde"
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    elif shape == "k33":
        names = "abcxyz"
        pairs = [(u, v) for u in "abc" for v in "xyz"]
    elif shape == "star5":
        names = ["c"] + [f"w{i}" for i in range(5)]
        pairs = [("c", w) for w in names[1:]]
    else:
        names = ["v"]
        pairs = [("v", "v")] * 3
    return build_graph(names, [(f"e{i}", u, v, 1.0) for i, (u, v) in enumerate(pairs)])


def _harvest_cases():
    """(graph, subspace, lam_max) of the one-pass harvest's reference cases."""
    cases = {}
    for shape in ("k4", "k5", "k33", "star5", "flower3"):
        g = _equilateral(shape)
        cases[f"{shape}-standard"] = (g, standard_subspace(g), 150.0)
        cases[f"{shape}-dirichlet"] = (
            g, vertex_conditions_subspace(g, "standard", {g.vertices[0]: "dirichlet"}), 150.0)
        cases[f"{shape}-anti-kirchhoff"] = (g, vertex_conditions_subspace(g, "anti-kirchhoff"),
                                            150.0)
    star = build_graph(["c", "w1", "w2", "w3", "w4"],
                       [("e1", "c", "w1", 0.97), ("e2", "c", "w2", 1.03),
                        ("e3", "c", "w3", 1.01), ("e4", "c", "w4", 0.98)])
    cases["star-dirichlet"] = (star, vertex_conditions_subspace(star, "dirichlet",
                                                                {"c": "standard"}), 400.0)
    cases["star-anti-kirchhoff"] = (star, vertex_conditions_subspace(
        star, "standard", {"c": "anti-kirchhoff"}), 400.0)
    flux = build_graph(["v", "w"], [("loop", "v", "v", 1.52, 1.1), ("tail", "v", "w", 0.96)])
    cases["lasso-flux"] = (flux, standard_subspace(flux), 400.0)
    g = lasso()
    indicators = np.array([[1, 1, 1, 0], [0, 0, 0, 1]], dtype=complex)
    rng = np.random.default_rng(5)
    mix = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)) + 3.0 * np.eye(2)
    cases["lasso-raw-basis"] = (g, subspace_from_basis(g, mix @ indicators), 400.0)
    g = build_graph(["a", "b", "p", "q", "r"],
                    [("e", "a", "b", 1.47), ("t1", "p", "q", 0.97), ("t2", "q", "r", 0.98),
                     ("t3", "r", "p", 0.99)])
    cases["interval+triangle"] = (g, vertex_conditions_subspace(
        g, "standard", {"a": "dirichlet", "b": "dirichlet"}), 400.0)
    return cases


HARVEST_CASES = _harvest_cases()


def _clusters(pairs):
    out: dict[float, list] = {}
    for p in pairs:
        out.setdefault(p.k, []).append(p)
    return list(out.values())


def _coefficients(f):
    """{(edge, power, freq): coeff} of a function's terms."""
    return {(eid, t.power, t.freq): t.coeff for eid, ts in f.terms.items() for t in ts}


def _contraction(g, y):
    """M = P_{Y-perp} D / sqrt(2), D copying each edge's constant to both of
    its ends, built from the projector of y."""
    ne = len(g.edges)
    perp = np.eye(g.n_boundary) - y.basis.T @ y.basis.conj()
    d = np.zeros((g.n_boundary, ne))
    for row, (eid, _) in enumerate(g.boundary_coords):
        d[row, g.edge_ids.index(eid)] = 1.0
    return perp @ d / math.sqrt(2.0)


def _constants(g, pairs):
    """The edgewise constants of zero modes, one row each."""
    return np.array([[sum(t.coeff for t in p.function.terms.get(eid, ())) for eid in g.edge_ids]
                     for p in pairs])


class TestOnePassHarvest:
    """The harvest from the null space of U(k) - I against the per-root
    secular harvest (tests/oracles.py): the same roots and multiplicities bit
    for bit, and each cluster the same eigenspace with an orthonormal basis."""

    @pytest.mark.parametrize("name", sorted(HARVEST_CASES))
    def test_matches_per_root_oracle(self, name):
        g, y, lam_max = HARVEST_CASES[name]
        new = eigenvalues_up_to(g, y, lam_max)
        old = loop_eigenvalues_up_to(g, y, lam_max)
        assert [(p.k, p.lam) for p in new] == [(p.k, p.lam) for p in old]
        for ps, qs in zip(_clusters(new), _clusters(old)):
            # rotate the cluster onto the oracle's basis by the unitary polar
            # factor W of the cross-Gram C[i, j] = <new_i, old_j>: sum_i
            # conj(W[i, j]) new_i is old_j when both span one eigenspace
            m = len(ps)
            cross = gram([p.function for p in ps + qs])[:m, m:]
            u, _, vh = np.linalg.svd(cross)
            w = u @ vh
            got = [_coefficients(p.function) for p in ps]
            for j, q in enumerate(qs):
                want = _coefficients(q.function)
                big = max(map(abs, want.values()))
                for key in want.keys() | {key for c in got for key in c}:
                    turned = sum(np.conj(w[i, j]) * c.get(key, 0.0) for i, c in enumerate(got))
                    assert abs(turned - want.get(key, 0.0)) <= 1e-13 * big

    def test_stacked_secular_matrices_are_the_scalar_ones(self):
        # secular_matrix against the loop that first built it, bit for bit,
        # signs of zeros included
        rng = np.random.default_rng(0)
        for g, y, _ in HARVEST_CASES.values():
            y = gauge_transform(y, g)
            ks = np.concatenate([[0.0, 1e-9, 0.5], rng.uniform(0.0, 20.0, 10)])
            for k in ks.tolist():
                assert np.array_equal(secular_matrix(g, y, k).view(np.uint64),
                                      loop_secular_matrix(g, y, k).view(np.uint64))

    @pytest.mark.parametrize("name", sorted(HARVEST_CASES))
    def test_clusters_orthonormal(self, name):
        g, y, lam_max = HARVEST_CASES[name]
        for cluster in _clusters(eigenvalues_up_to(g, y, lam_max)):
            dev = gram([p.function for p in cluster]) - np.eye(len(cluster))
            assert np.max(np.abs(dev)) <= 1e-12

    def test_equilateral_cases_are_degenerate(self):
        # every equilateral case has a root of multiplicity >= 3 (K5 reaches 7)
        for name, (g, y, lam) in HARVEST_CASES.items():
            if not name.startswith(("star-", "lasso", "interval")):
                assert max(len(c) for c in _clusters(eigenvalues_up_to(g, y, lam))) >= 3

    @pytest.mark.parametrize("ell", [1e-3, 1.0, 20.0])
    def test_pair_integrals_match_kernel_gram(self, ell):
        g = interval(ell)
        ks = np.array([0.0, 1e-3, 0.7, 5.0])
        ints = _pair_integrals(np.array([ell]), ks)
        for r, k in enumerate(ks.tolist()):
            # exp(-ikx) and exp(ikx), both 1 at k = 0
            want = gram([GraphFunction(g, {"e": [PolyTrigTerm(1.0, 0, w)]}) for w in (-k, k)])
            got = [[ints[0, r, 0], ints[1, r, 0]], [np.conj(ints[1, r, 0]), ints[2, r, 0]]]
            assert np.max(np.abs(want - got)) <= 1e-14 * max(ell, ell ** 3)

    @pytest.mark.parametrize("edges", [
        [("e1", "c", "a", 20.0), ("e2", "c", "b", 17.3), ("e3", "c", "s", 1e-3)],
        [("e1", "a", "v", 30.0), ("e2", "v", "b", 20.0), ("stub", "v", "s", 2e-3)],
        # a 50-edge path (k_1 = pi / 50, k l < 0.09 on every edge) and a
        # 40-cycle with flux 0.3 (k_1 = 0.3 / 40)
        [(f"e{i}", f"v{i:02d}", f"v{i + 1:02d}", 1.0) for i in range(50)],
        [(f"e{i}", f"v{i:02d}", f"v{(i + 1) % 40:02d}", 1.0, 0.3 if i == 0 else 0.0)
         for i in range(40)],
    ])
    def test_unit_norm_at_small_k_ell(self, edges):
        # k ~ 0.0075-0.2: k l ~ 1e-4 on the short edges, and k_1 l below 0.09
        # on every edge of the path and the cycle, where the exponentials
        # exp(ikx) and exp(-ikx) of one edge are nearly parallel
        g = build_graph(sorted({v for e in edges for v in e[1:3]}), edges)
        pairs = eigenvalues_up_to(g, standard_subspace(g), 0.05)
        assert len(pairs) >= 3 and [p.k for p in pairs if p.k > 0.0][0] < 0.1
        for p in pairs:
            assert abs(_gauss_norm_sq(p.function, None) - 1.0) <= 1e-13
        dev = gram([p.function for p in pairs]) - np.eye(len(pairs))
        assert np.max(np.abs(dev)) <= 1e-12

    def test_terms_are_canonical(self):
        # built straight from the coefficients, each eigenfunction's terms are
        # what canonical_terms makes of them, bit for bit
        def bits(f):
            return {e: [(t.coeff.real.hex(), t.coeff.imag.hex(), t.power, t.freq.hex())
                        for t in ts] for e, ts in f.terms.items()}

        for g, y, lam_max in [*HARVEST_CASES.values(), *map(_seeded_graph, range(200))]:
            for p in eigenvalues_up_to(g, y, lam_max):
                assert bits(p.function) == bits(GraphFunction(g, p.function.terms))

    def test_one_svd_and_two_solves_per_multiplicity(self, caplog):
        # the SVD runs at k = 0 only; the roots of one multiplicity take
        # their null vectors from two stacked LU solves
        g = _equilateral("star5")
        with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
            pairs = eigenvalues_up_to(g, standard_subspace(g), 150.0)
        [record] = [r for r in caplog.records if r.name == "qgs.spectral"]
        mults = {len(c) for c in _clusters(pairs) if c[0].k > 0.0}
        assert mults == {1, 4}  # the 5-star has simple and 4-fold roots
        d = record.diagnostics
        assert (d["svds"], d["solves"]) == (1, 2 * len(mults))
        assert d["kept"] == d["count"] == len(pairs)
        assert d["worst_residual"] == max(p.residual for p in pairs)

    @pytest.mark.parametrize("name", sorted(HARVEST_CASES))
    def test_residual_against_the_oracle_sigma(self, name):
        # ||(U - I) V||_2 of the returned block is at least the m-th smallest
        # singular value sigma_m of U - I (the oracle's residual) in exact
        # arithmetic; the shift of the solves must not cost more than a
        # factor of 2 above a roundoff floor.  At k = 0 the residual is
        # ||M V||_2 of the zero modes' constants, M = P_{Y-perp} D / sqrt(2),
        # which is basis-free: any orthonormal basis V of their span gives it
        g, y, lam_max = HARVEST_CASES[name]
        new = eigenvalues_up_to(g, y, lam_max)
        old = loop_eigenvalues_up_to(g, y, lam_max)
        for p, q in zip(new, old):
            if p.k > 0.0:
                assert 0.5 * q.residual - 1e-14 <= p.residual <= 2.0 * q.residual + 1e-14
        zero = [p for p in new if p.k == 0.0]
        assert len(zero) == sum(q.k == 0.0 for q in old)
        if zero:
            v = np.linalg.qr(_constants(g, zero).T)[0]
            want = np.linalg.norm(_contraction(g, gauge_transform(y, g)) @ v, 2)
            assert {p.residual for p in zero} == {zero[0].residual}
            assert abs(zero[0].residual - want) <= 1e-15

    def test_record_is_opt_in(self, caplog, capsys, tmp_path):
        path = tmp_path / "lasso.json"
        path.write_text(json.dumps({"vertices": ["v", "w"], "edges": [
            {"id": "loop", "from": "v", "to": "v", "length": 1.0},
            {"id": "tail", "from": "v", "to": "w", "length": 1.0}]}))
        assert main(["spectrum", "--graph", str(path), "--lambda-max", "50"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["count"] == len(
            eigenvalues_up_to(lasso(), standard_subspace(lasso()), 50.0))
        assert not [r for r in caplog.records if r.name == "qgs.spectral"]
        # and the report's bytes do not change with the record on
        with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
            assert main(["spectrum", "--graph", str(path), "--lambda-max", "50"]) == 0
        assert capsys.readouterr() == (out, "")
        assert [r for r in caplog.records if r.name == "qgs.spectral"]


def _bits(p):
    """A pair's wavenumber, eigenvalue, residual and terms, as exact bits."""
    return (p.k.hex(), p.lam.hex(), p.residual.hex(),
            {e: [(t.coeff.real.hex(), t.coeff.imag.hex(), t.power, t.freq.hex()) for t in ts]
             for e, ts in p.function.terms.items()})


class TestCountStop:
    """A solve stopped at the count-th eigenvalue is the full solve's first
    pairs, bit for bit, through the end of that eigenvalue's cluster."""

    @pytest.mark.parametrize("name", sorted(HARVEST_CASES))
    def test_prefix_of_the_full_solve(self, name):
        g, y, lam_max = HARVEST_CASES[name]
        full = eigenvalues_up_to(g, y, lam_max)
        for count in sorted({1, 2, 3, len(full) // 2, len(full) - 1, len(full)}):
            part = eigenvalues_up_to(g, y, lam_max, count)
            # the count-th pair's cluster is kept whole, and nothing above it
            end = max(i for i, p in enumerate(full) if p.k == full[count - 1].k) + 1
            assert [_bits(p) for p in part] == [_bits(p) for p in full[:end]]

    def test_degenerate_cluster_cut_at_the_count(self, caplog):
        # the 5-star's 4-fold pi / 2 follows the zero mode: any count from 2
        # to 5 keeps all of it
        g = _equilateral("star5")
        y = standard_subspace(g)
        full = eigenvalues_up_to(g, y, 150.0)
        assert [len(c) for c in _clusters(full)][:2] == [1, 4]
        for count in range(2, 6):
            with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
                part = eigenvalues_up_to(g, y, 150.0, count)
            assert [_bits(p) for p in part] == [_bits(p) for p in full[:5]]
            d = caplog.records[-1].diagnostics
            assert (d["kept"], d["count"]) == (5, len(full))
        assert [_bits(p) for p in eigenvalues_up_to(g, y, 150.0, 1)] == [_bits(full[0])]

    def test_cluster_split_across_a_cell_edge_is_kept_whole(self):
        # an equilateral 8-star solved to k = pi: the cells end at j pi / 4,
        # and roundoff puts one of the 7-fold pi / 2 in the cell below the
        # end pi / 2 and six in the cell above; a count of 2 names the cell
        # below, and the cluster takes in the cell above
        g = build_graph(["c"] + [f"w{i}" for i in range(8)],
                        [(f"e{i}", "c", f"w{i}", 1.0) for i in range(8)])
        y = standard_subspace(g)
        lam_max = math.pi ** 2 / (1.0 + 1e-12)
        assert math.sqrt(lam_max * (1.0 + 1e-12)) == math.pi
        assert [m for *_, m in _Eigenphases(g, y).cells(math.pi)] == [1, 6]
        full = eigenvalues_up_to(g, y, lam_max)
        assert [len(c) for c in _clusters(full)] == [1, 7]
        for count in (2, 8):
            assert ([_bits(p) for p in eigenvalues_up_to(g, y, lam_max, count)]
                    == [_bits(p) for p in full])

    def test_zero_modes_alone(self):
        # two components: 0 twice, and a count of 1 or 2 keeps both
        g = build_graph(["a", "b", "c", "d"], [("e", "a", "b", 1.0), ("f", "c", "d", 1.3)])
        y = standard_subspace(g)
        full = eigenvalues_up_to(g, y, 50.0)
        for count in (1, 2):
            part = eigenvalues_up_to(g, y, 50.0, count)
            assert [_bits(p) for p in part] == [_bits(p) for p in full[:2]]
        assert [p.lam for p in part] == [0.0, 0.0]

    def test_count_above_the_range_is_the_full_solve(self):
        g = lasso()
        y = standard_subspace(g)
        full = eigenvalues_up_to(g, y, 100.0)
        assert ([_bits(p) for p in eigenvalues_up_to(g, y, 100.0, len(full) + 5)]
                == [_bits(p) for p in full])

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be positive"):
            eigenvalues_up_to(lasso(), standard_subspace(lasso()), 10.0, 0)


def _seeded_graph(seed):
    """(graph, subspace, lam_max): up to 4 vertices and 6 edges with loops,
    multi-edges and fluxes, under mixed vertex conditions or (every fourth
    seed) a random raw boundary subspace."""
    from qgs.graphs import CONDITION_NAMES
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(int(rng.integers(1, 5)))]
    edges = []
    for i in range(int(rng.integers(1, 7))):
        u = str(rng.choice(names))
        v = u if rng.random() < 0.2 else str(rng.choice(names))
        flux = float(rng.uniform(-math.pi, math.pi)) if rng.random() < 0.3 else 0.0
        edges.append((f"e{i}", u, v, round(float(rng.uniform(0.4, 1.6)), 6), flux))
    g = build_graph(names, edges)
    if seed % 4 == 3:
        rows = rng.normal(size=(int(rng.integers(0, g.n_boundary + 1)), g.n_boundary))
        y = subspace_from_basis(g, rows + 1j * rng.normal(size=rows.shape))
    else:
        conds = sorted(CONDITION_NAMES)
        y = vertex_conditions_subspace(g, str(rng.choice(conds)), {
            v: str(rng.choice(conds)) for v in names if rng.random() < 0.3})
    return g, y, float(rng.uniform(50.0, 300.0))


def _generic_k4():
    g = build_graph("abcd", [("e1", "a", "b", 0.977027), ("e2", "b", "c", 1.038758),
                             ("e3", "c", "d", 0.969668), ("e4", "d", "a", 0.974166),
                             ("e5", "a", "c", 1.047653), ("e6", "b", "d", 0.998396)])
    return g, standard_subspace(g)


class TestUnitaryEig:
    """The eigh route of _unitary_eig against LAPACK's general eig on random
    unitary stacks with planted hard cases: a pair within SIN_CLUSTER in
    sin(theta - _TURN), pairs of equal sine, pairs theta and pi - theta,
    phases at 0 and pi, near pi / 2, and exact multiplicities."""

    @staticmethod
    def stack(rng, planted, n=12, count=16):
        out = []
        for _ in range(count):
            theta = np.concatenate([planted, rng.uniform(0.0, 2.0 * math.pi, n - len(planted))])
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            out.append((q * np.exp(1j * theta)) @ q.conj().T)
        return np.array(out)

    @pytest.mark.parametrize("planted", [
        [0.3, 0.3 + 0.5 * SIN_CLUSTER],                  # close in sine and in theta
        [0.7, math.pi + 2.0 * _TURN - 0.7, 2.0, math.pi + 2.0 * _TURN - 2.0],  # equal sines
        [0.7, math.pi - 0.7, 2.0, math.pi - 2.0],        # theta beside pi - theta
        [0.0, 0.0, 1e-9, math.pi],                       # at 0, and pi, whose sine is 0 too
        [0.5 * math.pi - 1e-3, 0.5 * math.pi, 0.5 * math.pi + 2e-3],  # where sin is flat
        [1.9] * 3 + [4.0] * 4,                           # exact multiplicities
    ])
    def test_against_eig(self, planted):
        u = self.stack(np.random.default_rng(len(planted)), np.array(planted))
        phases, vecs = _unitary_eig(u)
        want = np.linalg.eigvals(u)
        for p, v, w, m in zip(phases, vecs, want, u):
            assert np.all((0.0 <= p) & (p <= 2.0 * math.pi))
            # both sorted around the circle from the middle of eig's widest gap
            ref = np.sort(np.mod(np.angle(w), 2.0 * math.pi))
            gaps = np.diff(np.append(ref, ref[0] + 2.0 * math.pi))
            cut = ref[np.argmax(gaps)] + 0.5 * gaps.max()
            assert np.allclose(np.sort(np.mod(p - cut, 2.0 * math.pi)),
                               np.sort(np.mod(np.angle(w) - cut, 2.0 * math.pi)),
                               rtol=0.0, atol=1e-13)
            assert np.max(np.abs(m @ v - v * np.exp(1j * p))) <= 1e-11
            assert np.max(np.abs(v.conj().T @ v - np.eye(len(p)))) <= 1e-13


class TestEigenphaseCount:
    """The count that sizes the heat-trace tail and observability_numeric's
    one solve: |G| k / pi - 2E <= #{0 < lambda <= k^2} <= count_bound, and
    its inverse wavenumber_range, under Dirichlet, anti-Kirchhoff, raw-basis
    and fluxed conditions alike."""

    @pytest.mark.parametrize("name", sorted(HARVEST_CASES))
    def test_count_and_its_inverse(self, name):
        g, y, lam_max = HARVEST_CASES[name]
        total, edges = sum(g.edge_lengths.values()), len(g.edges)
        roots = [p.k for p in eigenvalues_up_to(g, y, lam_max) if p.lam > 0.0]
        # each root and a point just below it: the count's upper and lower extremes
        for k in sorted({*roots, *(r * (1.0 - 1e-9) for r in roots), math.sqrt(lam_max)}):
            count = sum(1 for r in roots if r <= k)
            assert total * k / math.pi - 2 * edges <= count <= count_bound(total, edges, k)
        for n, k in enumerate(roots, start=1):
            lo, hi = wavenumber_range(total, edges, n)
            assert lo <= k <= hi


class TestRootSearch:
    """The stacked rounds, the predicted splits and the Newton acceptance rule
    against the root search they replaced (tests/oracles.py): the same roots
    and multiplicities, every root within 1e-12 relative, and no accepted
    root worse than a residual of 1e-10."""

    @staticmethod
    def assert_same_roots(g, y, lam_max):
        pairs = eigenvalues_up_to(g, y, lam_max)
        want, _ = loop_eigenphase_roots(g, y, lam_max)
        got = [(c[0].k, len(c)) for c in _clusters(pairs) if c[0].k > 0.0]
        assert [m for _, m in got] == [m for _, m in want]
        for (k, _), (k0, _) in zip(got, want):
            # below CLUSTER_GAP the loop search has returned k = 0 for a root
            # of the first cell (TestFirstCell); the residual judges that root
            assert k0 < CLUSTER_GAP or abs(k - k0) <= 1e-12 * k0
        assert max(p.residual for p in pairs) <= 1e-10

    def test_seeded_graphs(self):
        for seed in range(200):
            self.assert_same_roots(*_seeded_graph(seed))

    @pytest.mark.parametrize("name", sorted(HARVEST_CASES))
    def test_harvest_cases(self, name):
        self.assert_same_roots(*HARVEST_CASES[name])

    def test_stacked_points_are_the_single_ones(self):
        # bit for bit: the counts and phases cannot tell the two apart
        rng = np.random.default_rng(1)
        for g, y, _ in HARVEST_CASES.values():
            phases = _Eigenphases(g, gauge_transform(y, g))
            ks = np.concatenate([[0.0, 1e-9], rng.uniform(0.0, 20.0, 12)])
            for p in phases.points(ks):
                [q] = phases.points([p.k])
                assert np.array_equal(p.phases.view(np.uint64), q.phases.view(np.uint64))
                assert np.array_equal(p.vecs.view(np.uint64), q.vecs.view(np.uint64))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unseparating_prediction_is_followed_by_the_midpoint(self, side, monkeypatch):
        # the first prediction is forced next to one end of its bracket, so
        # the split separates nothing; in the next round the split of what is
        # left must be that bracket's midpoint
        g, y = _generic_k4()
        rounds, forced = [], {}
        points, predicted = _Eigenphases.points, _Eigenphases._predicted_split

        def spy_points(self, ks):
            out = points(self, ks)
            rounds.append(out)
            return out

        def force(self, a, b, m):
            if forced:
                return predicted(self, a, b, m)
            forced.update(a=a, b=b, m=m)
            forced["t"] = a.k + 1e-6 * (b.k - a.k) if side == "left" else b.k - 1e-6 * (b.k - a.k)
            return [forced["t"]]

        monkeypatch.setattr(_Eigenphases, "points", spy_points)
        monkeypatch.setattr(_Eigenphases, "_predicted_split", force)
        self.assert_same_roots(g, y, 1000.0)
        r, cut = next((r, p) for r, pts in enumerate(rounds) for p in pts if p.k == forced["t"])
        lo, hi = (forced["t"], forced["b"].k) if side == "left" else (forced["a"].k, forced["t"])
        assert _Eigenphases(g, y).count(forced["a"], cut) == (0 if side == "left" else forced["m"])
        assert 0.5 * (lo + hi) in [p.k for p in rounds[r + 1]]

    def test_counters_against_the_loop_search(self, caplog):
        g, y = _generic_k4()
        with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
            eigenvalues_up_to(g, y, 1000.0)
        [record] = [r for r in caplog.records if r.name == "qgs.spectral"]
        _, loop = loop_eigenphase_roots(g, y, 1000.0)
        d = record.diagnostics
        assert d["eigs"] < 2 / 3 * loop["eigs"]
        assert d["eig_calls"] < 0.5 * loop["eigs"]
        assert d["bisections"] <= loop["bisections"]
        # splits and Newton steps share rounds: the same points, fewer calls
        assert (d["eigs"], d["newton_steps"], d["bisections"]) == (125, 59, 31)
        assert d["eig_calls"] <= 5

    @pytest.mark.parametrize("case", ["k4-generic", "k33-standard", "lasso-flux",
                                      "interval+triangle"])
    def test_brackets_together_are_the_brackets_alone(self, case, monkeypatch):
        # a round only groups points into one LAPACK call: each bracket visits
        # the points it visits alone, so its roots have the same bits
        g, y, lam_max = (*_generic_k4(), 1000.0) if case == "k4-generic" else HARVEST_CASES[case]
        roots, seen = _Eigenphases.roots, []

        def spy(self, brackets):
            seen.append((self, brackets, roots(self, brackets)))
            return seen[-1][2]

        monkeypatch.setattr(_Eigenphases, "roots", spy)
        eigenvalues_up_to(g, y, lam_max)
        [(phases, brackets, together)] = seen
        alone = [r for br in brackets for r in roots(phases, [br])]
        assert len(brackets) > 1
        assert sorted((k.hex(), m) for k, m in together) == sorted((k.hex(), m) for k, m in alone)

    @pytest.mark.parametrize("name", sorted(
        n for n in HARVEST_CASES if n.startswith(("k4-", "k5-", "k33-", "star5-", "flower3-"))))
    def test_equilateral_clusters_close_in_few_calls(self, name, caplog):
        # every root of an equilateral graph is a cluster; the probes around
        # its predictions close it without a crawl of midpoints
        with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
            self.assert_same_roots(*HARVEST_CASES[name])
        [record] = [r for r in caplog.records if r.name == "qgs.spectral"]
        assert record.diagnostics["eig_calls"] <= 8

    def test_triangle_double_roots_close_by_probes(self, caplog):
        # a cycle of length 3.01: 0 and every (2 pi m / 3.01)^2 twice, each
        # double root closed by two probes
        g = build_graph("pqr", [("t1", "p", "q", 0.97), ("t2", "q", "r", 1.03),
                                ("t3", "r", "p", 1.01)])
        with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
            pairs = eigenvalues_up_to(g, standard_subspace(g), 400.0)
        [record] = [r for r in caplog.records if r.name == "qgs.spectral"]
        want = [0.0] + [(2.0 * math.pi * m / 3.01) ** 2 for m in range(1, 10) for _ in "ab"]
        assert len(pairs) == len(want)
        for p, lam in zip(pairs, want):
            assert abs(p.lam - lam) <= 1e-12 * lam
        d = record.diagnostics
        assert d["probes"] == 18 and d["eig_calls"] <= 3

    def test_root_at_the_lower_end_belongs_below(self):
        # a Dirichlet interval beside a standard triangle: the lower end a of
        # (a.k, b.k] sits on the triangle's double root 6 pi / |cycle|, whose
        # two phases read as just crossed there.  Newton from b on them heads
        # for a.k, which is no root of the bracket; its one root is the
        # interval's 3 pi / ell
        ell, sides = 1.465813, (0.973243, 0.977883, 0.984873)
        g = build_graph(["a", "b", "p", "q", "r"],
                        [("e", "a", "b", ell), ("t1", "p", "q", sides[0]),
                         ("t2", "q", "r", sides[1]), ("t3", "r", "p", sides[2])])
        phases = _Eigenphases(g, vertex_conditions_subspace(
            g, "standard", {"a": "dirichlet", "b": "dirichlet"}))
        a, b = phases.points([6.0 * math.pi / sum(sides), 6.857])
        assert np.count_nonzero(a.phases < 1e-15) == 2 and phases.count(a, b) == 1
        [(k, m)] = phases.roots([(a, b, 1)])
        assert m == 1 and abs(k - 3.0 * math.pi / ell) <= 1e-15 * k

    def test_stuck_midpoint_ends_its_bracket(self, caplog, monkeypatch):
        # a Newton bracket a few ulps wide around a degenerate root whose
        # midpoint counts 0 < c < m ends instead of being decomposed again in
        # every round
        with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
            self.assert_same_roots(*HARVEST_CASES["k33-standard"])
        [record] = [r for r in caplog.records if r.name == "qgs.spectral"]
        assert record.diagnostics["eig_calls"] <= 30
        # the 3-fold root 3 pi / 1.47 of the interval beside the triangle
        # (the cycle is twice the interval, so the triangle's double roots
        # fall on the interval's) in a 2-ulp bracket: two of its phases read
        # as crossed at the midpoint, one does not.  With
        # no Newton target (the NaN that too few phases inside the bracket's
        # windows give), the bracket is bisected; the next midpoint is that
        # point again, so the bracket ends there instead of running to the
        # round cap
        g, y, _ = HARVEST_CASES["interval+triangle"]
        phases = _Eigenphases(g, y)
        a, b = phases.points([6.411413578754679, 6.411413578754681])
        [mid] = phases.points([0.5 * (a.k + b.k)])
        assert (phases.count(a, b), phases.count(a, mid)) == (3, 2)
        newton = _Eigenphases._newton_steps

        def no_target(self, *args):
            steps, errs = newton(self, *args)
            return np.full_like(steps, math.nan), errs

        monkeypatch.setattr(_Eigenphases, "_newton_steps", no_target)
        assert phases.roots([(a, b, 3)]) == [(mid.k, 3)]
        assert phases.stats["eig_calls"] <= 3


class TestFirstCell:
    """Eigenphases at 1 for k = 0 leave it counter-clockwise and are no roots,
    but Newton on them heads for k = 0.  The first cell's roots must be found
    (the search once returned k = 0 or 1e-15 for them, a copy of a zero mode
    or a residual of 0.01, and lost the true root); the reference is a scan
    of the smallest singular value of the conditioned secular matrix."""

    @pytest.mark.parametrize("edges, default, overrides", [
        # a fluxed loop beside an anti-Kirchhoff lasso-like part
        ([("e0", "v1", "v2", 0.830948, 0.5578291747029591),
          ("e1", "v3", "v3", 0.690467, 0.10119249198931879),
          ("e2", "v2", "v2", 0.418524, 0.0)], "anti-kirchhoff", {}),
        # five loops at one standard vertex, one of them fluxed
        ([("e0", "v0", "v0", 0.472083, 0.0), ("e1", "v0", "v0", 0.45084, 0.0),
          ("e2", "v0", "v0", 1.364789, 0.0), ("e3", "v0", "v0", 0.930405, -0.2836768837171899),
          ("e4", "v0", "v0", 0.87642, 0.0)], "standard", {}),
    ])
    def test_first_cell_roots_are_roots(self, edges, default, overrides):
        g = build_graph(sorted({v for e in edges for v in e[1:3]}), edges)
        y = vertex_conditions_subspace(g, default, overrides)
        pairs = eigenvalues_up_to(g, y, 2.0)
        y_eff = gauge_transform(y, g)
        want = sigma_min_scan(lambda k: loop_conditioned(g, y_eff, k)[0], 1e-3, 1.5, 1e-3)
        assert [p.k for p in pairs if p.k > 0.0] == pytest.approx(want, rel=1e-9)
        assert max(p.residual for p in pairs) <= 1e-10
        dev = gram([p.function for p in pairs]) - np.eye(len(pairs))
        assert np.max(np.abs(dev)) <= 1e-12


_SHAPES = {
    "interval": ("ab", [("a", "b")]),
    "lasso": ("vw", [("v", "v"), ("v", "w")]),
    "star3": ("cxyz", [("c", "x"), ("c", "y"), ("c", "z")]),
    "triangle+tail": ("pqrs", [("p", "q"), ("q", "r"), ("r", "p"), ("r", "s")]),
    "k4": ("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c"), ("b", "d")]),
}


@st.composite
def _collocation_problems(draw):
    """(graph, subspace, lam_max): a shape of _SHAPES with lengths in
    [0.6, 1.4] and some fluxes, under a random global basis of random rank or
    a random subspace of random rank at every vertex (local conditions)."""
    vertices, ends = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
    edges = [(f"e{i}", u, v, draw(st.floats(0.6, 1.4)),
              draw(st.sampled_from([0.0, 0.0, draw(st.floats(-math.pi, math.pi))])))
             for i, (u, v) in enumerate(ends)]
    g = build_graph(list(vertices), edges)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nb = g.n_boundary
    if draw(st.booleans()):
        rank = draw(st.integers(0, nb))
        rows = rng.normal(size=(rank, nb)) + 1j * rng.normal(size=(rank, nb))
    else:
        blocks = []
        for v in g.vertices:
            at = g.vertex_coords(v)
            block = np.zeros((int(rng.integers(0, len(at) + 1)), nb), dtype=complex)
            block[:, at] = rng.normal(size=(len(block), len(at))) + 1j * rng.normal(
                size=(len(block), len(at)))
            blocks.append(block)
        rows = np.concatenate(blocks)
    return g, subspace_from_basis(g, rows), draw(st.floats(10.0, 100.0))


class TestCollocationOracle:
    """Completeness under every vertex condition the loader accepts, against
    Chebyshev-Lobatto collocation of the magnetic Laplacian
    (tests/oracles.py), which shares no step with the eigenphase solver."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(problem=_collocation_problems())
    def test_counts_and_values(self, problem):
        g, y, lam_max = problem
        nodes = 16 + math.ceil(math.sqrt(lam_max) * max(g.edge_lengths.values()))
        coarse, fine = (collocation_eigenvalues(g, y, 1.1 * lam_max, n).real
                        for n in (nodes, 2 * nodes))
        # the cut lies in the widest gap of the fine spectrum in
        # [0.85, 0.95] lam_max, so no eigenvalue sits near it
        edges = np.concatenate([[0.85 * lam_max], fine[(fine > 0.85 * lam_max)
                                                       & (fine < 0.95 * lam_max)],
                                [0.95 * lam_max]])
        i = int(np.argmax(np.diff(edges)))
        cut = 0.5 * (edges[i] + edges[i + 1])
        want, twin = fine[fine <= cut], coarse[coarse <= cut]
        scale = np.maximum(1.0, np.abs(want))
        assert len(twin) == len(want)
        # the coarse error is at most about the node-doubling difference:
        # its truncation error where the fine spectrum has converged, and
        # below the fine spectrum's roundoff (which grows like nodes^4) where
        # both have
        tol = 2.0 * float(np.max(np.abs(twin - want) / scale, initial=0.0)) + 1e-12
        got = np.array([p.lam for p in eigenvalues_up_to(g, y, lam_max) if p.lam <= cut])
        assert len(got) == len(want)
        assert np.all(np.abs(got - twin) <= tol * scale)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(problem=_collocation_problems())
    def test_zero_multiplicity(self, problem):
        # the zero modes against the nullity of the affine secular matrix
        # a + b x (the rule the solver used before) and against the
        # collocation eigenvalues at 0; each one is edgewise constant, a term
        # of power 0 at frequency +0.0 per edge
        g, y, _ = problem
        zero = [p for p in eigenvalues_up_to(g, y, 1.0) if p.lam == 0.0]
        nullity = len(loop_null_space(g, gauge_transform(y, g), 0.0)[1])
        near = collocation_eigenvalues(g, y, 1.0, 16)
        assert len(zero) == nullity == int(np.sum(np.abs(near) <= 1e-8))
        for p in zero:
            assert p.k == 0.0 and math.copysign(1.0, p.k) == 1.0
            for ts in p.function.terms.values():
                assert [(t.power, t.freq, math.copysign(1.0, t.freq)) for t in ts] == [(0, 0.0, 1.0)]
