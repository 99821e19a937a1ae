import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs import sampling
from qgs.graphs import build_graph
from qgs.polytrig import IntervalUnion
from qgs.sampling import (Cover, CoverViolation, GammaResult, PeriodicTail,
                          SamplingParams, SamplingSet, _candidates, certified_params,
                          certify, gap_analysis, necessary_check, optimal_gamma,
                          optimal_rho, periodic_params, periodic_uniform_gamma,
                          svc_set, verify_cover)

from oracles import (bisection_optimal_gamma, bisection_optimal_rho,
                     bottleneck_gamma, loop_candidates, unrolled_gaps)


def single_edge_set(iu):
    return SamplingSet(finite={"e": iu})


def single_edge_cover(bps):
    return Cover(breakpoints={"e": tuple(bps)})


class TestSvcConstruction:
    def test_depth0(self):
        iu, meas = svc_set(0)
        assert iu.intervals == ((0.0, 1.0),)
        assert meas == 1

    def test_depth1(self):
        iu, meas = svc_set(1)
        assert iu.intervals == ((0.0, 0.375), (0.625, 1.0))
        assert meas == Fraction(3, 4)

    def test_measures(self):
        for n in range(8):
            iu, meas = svc_set(n)
            assert meas == Fraction(1, 2) + Fraction(1, 2 ** (n + 1))
            assert iu.measure == pytest.approx(float(meas), abs=1e-15)

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="depth"):
            svc_set(21)
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            svc_set(-1)


class TestFatCantorSearches:
    """The cover searches on the depth-8 and depth-10 fat Cantor sets, whose
    1 024 intervals are the largest union here, pinned to the float."""

    @pytest.mark.parametrize("depth, gamma", [(8, 0.4461805555555556),
                                              (10, 0.4448784722222222)])
    def test_optimal_gamma(self, depth, gamma):
        res = optimal_gamma(svc_set(depth)[0], 9 / 32)
        assert (res.gamma, res.breakpoints) == (gamma, (0.0, 0.21875, 0.5, 0.78125, 1.0))

    @pytest.mark.parametrize("depth, rho, bps", [
        (8, 0.1259918212890625, (0.0, 0.1220245361328125, 0.248016357421875,
                                 0.3740081787109375, 0.5, 0.6259918212890625, 0.748046875,
                                 0.8740081787109375, 1.0)),
        (10, 0.12525582313537598, (0.0, 0.12423253059387207, 0.24948835372924805,
                                   0.374744176864624, 0.5, 0.625255823135376,
                                   0.7495179176330566, 0.874744176864624, 1.0)),
    ], ids=["depth-8", "depth-10"])
    def test_optimal_rho(self, depth, rho, bps):
        res = optimal_rho(svc_set(depth)[0], 1e-6)
        assert (res.rho, res.breakpoints) == (rho, bps)

    def test_optimal_gamma_peak_memory(self):
        # the prefix measures of 4 865 candidates over 1 024 intervals once
        # took an 80 MB clip matrix
        iu, _ = svc_set(10)
        tracemalloc.start()
        try:
            optimal_gamma(iu, 9 / 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000


class TestVerifyCover:
    def test_domain(self):
        sset = single_edge_set(IntervalUnion([(0.0, 1.0)], length=1.0))
        cover = single_edge_cover([0.0, 1.0])
        for gamma in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
                verify_cover(sset, cover, gamma=gamma, rho=1.0)
        with pytest.raises(ValueError, match="rho must be positive"):
            verify_cover(sset, cover, gamma=0.5, rho=0.0)

    def test_svc_half_half(self):
        iu, _ = svc_set(6)
        res = verify_cover(single_edge_set(iu), single_edge_cover([0.0, 0.5, 1.0]),
                           gamma=0.5, rho=0.5)
        assert isinstance(res, SamplingParams)
        assert res.gamma >= 0.5 and res.rho == 0.5

    def test_svc_four_ninths(self):
        iu, _ = svc_set(6)
        cover = single_edge_cover([0.0, 7 / 32, 0.5, 25 / 32, 1.0])
        res = verify_cover(single_edge_set(iu), cover, gamma=4 / 9, rho=9 / 32)
        assert isinstance(res, SamplingParams)
        # every window of the limit set holds measure exactly 1/8; the depth-6
        # superset keeps each window at or above that
        assert all(d * w >= 1 / 8 - 1e-12 for d, w in
                   zip(res.densities["e"], np.diff(cover.breakpoints["e"])))

    def test_half_open_set_fails_small_rho(self):
        ell = 1.0
        iu = IntervalUnion([(0.0, ell / 2)], length=ell)
        res = verify_cover(single_edge_set(iu), single_edge_cover([0.0, 0.5, 1.0]),
                           gamma=0.1, rho=0.5)
        assert isinstance(res, CoverViolation)
        assert any("holds measure" in msg for msg in res.issues)

    def test_achieved_parameters(self):
        iu = IntervalUnion([(0.0, 0.25), (0.5, 0.75)], length=1.0)
        res = verify_cover(single_edge_set(iu), single_edge_cover([0.0, 0.5, 1.0]),
                           gamma=0.4, rho=0.6)
        assert isinstance(res, SamplingParams)
        assert res.gamma == pytest.approx(0.5)
        assert res.rho == pytest.approx(0.5)

    def test_edge_mismatch(self):
        iu = IntervalUnion([(0.0, 1.0)], length=1.0)
        with pytest.raises(ValueError, match="different edges"):
            verify_cover(single_edge_set(iu), Cover(breakpoints={"x": (0.0, 1.0)}),
                         0.5, 1.0)

    def test_monotone_in_parameters(self):
        iu, _ = svc_set(4)
        cover = single_edge_cover([0.0, 0.5, 1.0])
        sset = single_edge_set(iu)
        base = verify_cover(sset, cover, gamma=0.5, rho=0.5)
        assert isinstance(base, SamplingParams)
        for gamma in (0.5, 0.3, 0.1):
            for rho in (0.5, 0.7, 1.0):
                res = verify_cover(sset, cover, gamma=gamma, rho=rho)
                assert isinstance(res, SamplingParams)


class TestGaps:
    def test_whole_edge(self):
        iu = IntervalUnion([(0.0, 1.0)], length=1.0)
        gaps = gap_analysis(single_edge_set(iu))
        ok, _ = necessary_check(gaps, 0.99, 0.01)
        assert ok
        assert gaps["e"].left == 0.0 and gaps["e"].max_interior == 0.0

    def test_svc_interior_gap(self):
        iu, _ = svc_set(5)
        gaps = gap_analysis(single_edge_set(iu))
        assert gaps["e"].max_interior == pytest.approx(0.25)
        # not sampling for rho <= 1/8, whatever gamma
        for gamma in (1e-6, 0.3, 0.9):
            ok, issues = necessary_check(gaps, gamma, 0.125)
            assert not ok and issues

    def test_necessary_check_refuses_gamma_outside_the_unit_interval(self):
        gaps = gap_analysis(single_edge_set(IntervalUnion([(0.0, 1.0)], length=1.0)))
        for gamma in (0.0, -0.5, 1.0 + 1e-12, 3.0):
            with pytest.raises(ValueError, match="gamma"):
                necessary_check(gaps, gamma, 1.0)

    @pytest.mark.parametrize("period", [1e17, 1e300, 1e308])
    def test_huge_periods_keep_their_gaps(self, period):
        # once the unrolled body rounded to empty pieces (max_interior 0.0 at
        # 1e17 and 1e300) or left the float range (refused at 1e308): the wrap
        # gap is the nearest float to p - 1/2, with or without a head
        g = build_graph(["v"], [("r", "v", None, math.inf)])
        want = float(Fraction(period) - Fraction(1, 2))
        for head in ([], [[0.0, 0.25]]):
            tail = {"head": head, "period": period, "body": [[0.0, 0.5]]}
            gaps = gap_analysis(SamplingSet.from_dict(g, {"external": {"r": tail}}))["r"]
            assert (gaps.left, gaps.max_interior, gaps.right) == (0.0, want, 0.0)

    def test_ray_gaps_match_the_unrolled_union(self):
        # ordinary periods: the direct gaps are the three unrolled periods' to
        # a few ulps of the unrolled span; the left gap is the same float
        rng = np.random.default_rng(8)
        for _ in range(300):
            period = float(rng.uniform(0.5, 20.0))
            cuts = np.sort(rng.uniform(0.0, period, size=2 * int(rng.integers(1, 4))))
            body = IntervalUnion(cuts.reshape(-1, 2).tolist(), length=period)
            head = IntervalUnion(np.sort(rng.uniform(0.0, 3.0, size=2 * int(rng.integers(0, 3))))
                                 .reshape(-1, 2).tolist())
            tail = PeriodicTail(head=head, period=period, body=body)
            left, interior = unrolled_gaps(tail)
            gaps = gap_analysis(SamplingSet(external={"r": tail}))["r"]
            assert gaps.left == left
            assert abs(gaps.max_interior - interior) <= 4 * math.ulp(tail.head_span + 3 * period)

    def test_ray_gaps_of_an_empty_body_and_a_touching_body(self):
        head = IntervalUnion([(0.5, 1.0), (1.5, 2.0)])
        empty = PeriodicTail(head=head, period=1.0, body=IntervalUnion([], length=1.0))
        # touching its period end: no wrap gap, only the one inside the body
        touching = PeriodicTail(head=head, period=1.0,
                                body=IntervalUnion([(0.0, 0.3), (0.6, 1.0)], length=1.0))
        nothing = PeriodicTail(head=IntervalUnion([]), period=1.0,
                               body=IntervalUnion([], length=1.0))
        gaps = gap_analysis(SamplingSet(external={"a": empty, "b": touching, "c": nothing}))
        assert (gaps["a"].left, gaps["a"].max_interior) == unrolled_gaps(empty) == (0.5, 0.5)
        assert (gaps["b"].left, gaps["b"].max_interior) == unrolled_gaps(touching) == (0.5, 0.5)
        assert gaps["b"].max_interior == 0.5  # the head's gap beats the body's 0.3
        # no body: the tail past the head is one infinite gap (once 0.0, which
        # let a head-only set pass the necessary check); no set at all: the
        # whole ray is its left gap too
        assert (gaps["a"].right, gaps["b"].right) == (math.inf, 0.0)
        c = gaps["c"]
        assert (c.left, c.max_interior, c.right) == (math.inf, 0.0, math.inf)
        assert not necessary_check({"a": gaps["a"]}, 0.5, 1.0)[0]
        assert necessary_check({"b": gaps["b"]}, 0.5, 1.0)[0]

    def test_centered_window_endpoint_gaps(self):
        ell = 2.0
        iu = IntervalUnion([(ell / 4, 3 * ell / 4)], length=ell)
        gaps = gap_analysis(single_edge_set(iu))
        assert gaps["e"].left == pytest.approx(ell / 4)
        assert gaps["e"].right == pytest.approx(ell / 4)
        for gamma in (0.01, 0.5):
            ok, _ = necessary_check(gaps, gamma, ell / 4)
            assert not ok


class TestOptimalGamma:
    def test_full_edge(self):
        iu = IntervalUnion([(0.0, 1.0)], length=1.0)
        res = optimal_gamma(iu, rho=0.3)
        assert res.feasible and res.gamma == pytest.approx(1.0, abs=1e-12)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError, match="rho must be positive"):
            optimal_gamma(IntervalUnion([(0.0, 1.0)], length=1.0), rho=0.0)

    @pytest.mark.parametrize("rho_frac", [0.55, 0.62, 0.75, 0.9])
    def test_half_interval_closed_form(self, rho_frac):
        ell = 1.0
        rho = rho_frac * ell
        iu = IntervalUnion([(0.0, ell / 2)], length=ell)
        res = optimal_gamma(iu, rho=rho)
        assert res.feasible
        assert res.gamma == pytest.approx(1.0 - ell / (2.0 * rho), abs=1e-6)

    def test_half_interval_infeasible(self):
        iu = IntervalUnion([(0.0, 0.5)], length=1.0)
        res = optimal_gamma(iu, rho=0.5)
        assert not res.feasible and res.gamma == 0.0
        assert "gap" in res.gap_witness

    def test_self_certifying(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            pts = np.sort(rng.uniform(0.0, 1.0, size=8))
            iu = IntervalUnion([(pts[2 * i], pts[2 * i + 1]) for i in range(4)],
                               length=1.0)
            if iu.measure < 1e-3:
                continue
            rho = float(rng.uniform(0.3, 1.0))
            res = optimal_gamma(iu, rho=rho)
            if not res.feasible:
                continue
            check = verify_cover(single_edge_set(iu),
                                 single_edge_cover(res.breakpoints),
                                 gamma=res.gamma, rho=rho)
            assert isinstance(check, SamplingParams)
            assert check.gamma == pytest.approx(res.gamma, abs=1e-12)

    def test_matches_independent_maxmin_on_same_grid(self):
        # independent oracle: recursive max-min over the identical candidate set
        from qgs.sampling import _EQ_SLACK, _candidates, _reach, _walk  # noqa: PLC2701

        rng = np.random.default_rng(17)
        for _ in range(12):
            pts = np.sort(rng.uniform(0.0, 1.0, size=10))
            iu = IntervalUnion([(pts[2 * i], pts[2 * i + 1]) for i in range(5)],
                               length=1.0)
            if iu.measure < 0.05:
                continue
            rho = float(rng.uniform(0.4, 0.9))
            ts = _candidates(iu, rho, 50)
            pref = iu.prefix_measures(ts)

            import functools

            @functools.lru_cache(maxsize=None)
            def best_from(i):
                if i == ts.size - 1:
                    return 1.0
                out = 0.0
                for j in range(i + 1, ts.size):
                    w = ts[j] - ts[i]
                    if w > rho + 1e-12:
                        break
                    if w <= 0:
                        continue
                    dens = (pref[j] - pref[i]) / w
                    out = max(out, min(dens, best_from(j)))
                return out

            want = best_from(0)
            lo, hi = 0.0, 1.0
            best = None
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                # the feasibility DP at mid, called as optimal_gamma calls it (length 1)
                t, q = ts.tolist(), (pref - mid * ts).tolist()
                if _reach(t, q, rho + _EQ_SLACK, _EQ_SLACK):
                    lo, best = mid, _walk(t, q, rho + _EQ_SLACK, _EQ_SLACK)
                else:
                    hi = mid
            got = min((pref[list(ts).index(b)] - pref[list(ts).index(a)]) / (b - a)
                      for a, b in zip(best, best[1:])) if best else 0.0
            assert got == pytest.approx(want, abs=1e-6)

    def test_necessary_check_consistency(self):
        # a gap-criterion failure implies the optimiser cannot reach that gamma
        iu = IntervalUnion([(0.0, 0.2), (0.8, 1.0)], length=1.0)
        gaps = gap_analysis(single_edge_set(iu))
        rho = 0.4
        gamma_req = 0.5
        ok, _ = necessary_check(gaps, gamma_req, rho)
        assert not ok  # interior gap 0.6 > 2*(1-0.5)*0.4
        res = optimal_gamma(iu, rho=rho)
        assert (not res.feasible) or res.gamma < gamma_req


class TestOptimalRho:
    def test_full_edge(self):
        iu = IntervalUnion([(0.0, 1.0)], length=1.0)
        res = optimal_rho(iu, gamma=1.0)
        assert res.feasible and res.rho <= 1.0

    def test_gamma_domain(self):
        for gamma in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
                optimal_rho(IntervalUnion([(0.0, 1.0)], length=1.0), gamma=gamma)

    def test_quarters_closed_form(self):
        ell = 1.0
        iu = IntervalUnion([(0.0, ell / 4), (3 * ell / 4, ell)], length=ell)
        res = optimal_rho(iu, gamma=0.5)
        assert res.feasible
        assert res.rho == pytest.approx(ell / 2, abs=1e-8)

    def test_svc_four_ninths(self):
        iu, _ = svc_set(6)
        res = optimal_rho(iu, gamma=4 / 9)
        assert res.feasible and res.rho <= 9 / 32 + 1e-9

    def test_infeasible_reports_density(self):
        iu = IntervalUnion([(0.0, 0.25)], length=1.0)
        res = optimal_rho(iu, gamma=0.5)
        assert not res.feasible
        assert res.global_density == pytest.approx(0.25)

    @settings(max_examples=30, deadline=None)
    @given(gamma=st.floats(0.05, 0.95), seed=st.integers(0, 10 ** 6))
    def test_certificate_verifies(self, gamma, seed):
        rng = np.random.default_rng(seed)
        pts = np.sort(rng.uniform(0.0, 1.0, size=6))
        iu = IntervalUnion([(pts[0], pts[1]), (pts[2], pts[3]), (pts[4], pts[5])],
                           length=1.0)
        res = optimal_rho(iu, gamma=gamma, grid_n=60)
        if res.feasible:
            check = verify_cover(single_edge_set(iu),
                                 single_edge_cover(res.breakpoints),
                                 gamma=gamma, rho=res.rho)
            assert isinstance(check, SamplingParams)


class TestOneEdgePerSet:
    """A union stores its edge length, and every search and check covers
    exactly [0, omega.length]: a union built without a length ends its edge
    at its last end."""

    IU = IntervalUnion([(0.1, 0.3), (0.5, 0.9)])  # length 0.9

    def assert_covers_the_edge(self, bps, gamma, rho):
        assert self.IU.length == 0.9 and (bps[0], bps[-1]) == (0.0, 0.9)
        check = verify_cover(single_edge_set(self.IU), single_edge_cover(bps),
                             gamma=gamma, rho=rho)
        assert isinstance(check, SamplingParams)

    @pytest.mark.parametrize("rho", [0.3, 0.5])
    def test_optimal_gamma(self, rho):
        res = optimal_gamma(self.IU, rho=rho)
        assert res.feasible
        self.assert_covers_the_edge(res.breakpoints, res.gamma, rho)

    def test_optimal_rho(self):
        res = optimal_rho(self.IU, gamma=0.3)
        assert res.feasible and res.global_density == pytest.approx(0.6 / 0.9)
        self.assert_covers_the_edge(res.breakpoints, 0.3, res.rho)

    def test_certified_params(self):
        gamma, rho, bps = certified_params(self.IU)
        self.assert_covers_the_edge(bps, gamma, rho)

    def test_verify_cover_reads_the_same_edge(self):
        # a cover that stops short of the union's edge, or runs past it, is refused
        for bps in ((0.0, 0.45, 0.8), (0.0, 0.5, 1.0)):
            res = verify_cover(single_edge_set(self.IU), single_edge_cover(bps),
                               gamma=0.1, rho=0.6)
            assert isinstance(res, CoverViolation)
            assert res.issues == ["e: breakpoints must run from 0 to 0.9"]

    def test_infeasible_names_the_widest_gap(self):
        # a set with no intervals has no gap to name
        empty = optimal_gamma(IntervalUnion([], length=1.0), rho=0.3)
        assert (empty.feasible, empty.gamma, empty.gap_witness) == (False, 0.0, "empty set")
        # the witness reads the gaps of the edge the search covered: once 0.0
        # for a union of length 0.5 searched on [0, 1]
        res = optimal_gamma(IntervalUnion([(0.0, 0.5)], length=1.0), rho=0.3)
        assert not res.feasible
        assert res.gap_witness == "gap of length 0.5 cannot be covered at rho=0.3"
        refused = 0
        for iu, rho, _, grid_n in reference_corpus(count=60):
            res = optimal_gamma(iu, rho, grid_n=grid_n)
            if not res.feasible and iu.measure > 0.0:
                left, interior, right = iu.gaps()
                assert res.gap_witness == (f"gap of length {max([left, right] + interior)} "
                                           f"cannot be covered at rho={rho}")
                refused += 1
        assert refused >= 10

    def test_a_stale_edge_length_argument_is_refused(self):
        # grid_n is keyword-only: (omega, ell, rho) no longer runs with rho = ell
        with pytest.raises(TypeError):
            optimal_gamma(self.IU, 0.9, 9 / 32)
        with pytest.raises(TypeError):
            optimal_rho(self.IU, 0.9, 1e-6)
        with pytest.raises(TypeError):
            certified_params(self.IU, 0.9)


def reference_corpus(seed=2024, count=200):
    """Seeded (union, rho, gamma, grid_n) cases: random unions on edges of
    length ell, with rho below the widest gap, at or above ell and in between, touching and nearly
    touching intervals, plus sets of measure below 1e-11 and the fat Cantor
    set."""
    rng = np.random.default_rng(seed)
    cases = []
    for c in range(count):
        ell = float(rng.uniform(0.5, 3.0))
        k = int(rng.integers(1, 7))
        pts = np.sort(rng.uniform(0.0, ell, 2 * k))
        ivs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
        if k > 1 and c % 10 == 1:
            ivs[1] = (ivs[0][1], ivs[1][1])            # touching: merged
        if k > 1 and c % 10 == 2:
            ivs[1] = (ivs[0][1] + 1e-13, ivs[1][1])    # a gap of 1e-13
        iu = IntervalUnion(ivs, length=ell)
        left, interior, right = iu.gaps()
        widest = max([left, right] + interior)
        rho = (widest * float(rng.uniform(0.3, 0.99)) if c % 4 == 0
               else ell * float(rng.uniform(1.0, 1.5)) if c % 4 == 1
               else max(widest, 1e-3) * float(rng.uniform(1.0, 4.0)))
        grid_n = int(rng.choice([20, 50, 100, 200]))
        cases.append((iu, rho, float(rng.uniform(0.02, 1.0)), grid_n))
    tiny = IntervalUnion([(0.3, 0.3 + 5e-12)], length=1.0)
    dust = IntervalUnion([(0.05 + 0.1 * j, 0.05 + 0.1 * j + 1e-13)
                          for j in range(10)], length=1.0)
    svc, _ = svc_set(6)
    cases += [(tiny, 0.8, 1e-12, 200), (tiny, 1.2, 1e-12, 200),
              (dust, 0.3, 1e-13, 200), (svc, 9 / 32, 4 / 9, 200),
              (svc, 0.5, 0.5, 200), (svc, 0.1, 1.0, 200)]
    return cases


class TestReferenceKernels:
    """The optimisers against the loop versions kept in oracles.py: every
    decision, hence every returned number, must be the same."""

    def test_corpus_exercises_every_branch(self):
        corpus = reference_corpus()
        results = [optimal_gamma(iu, rho, grid_n=n) for iu, rho, _, n in corpus]
        assert sum(r.feasible for r in results) >= 100
        assert sum(not r.feasible for r in results) >= 30
        # the measure-zero rule refuses sets whose max-min density is positive
        for iu, rho, _, grid_n in corpus[-5:-3]:
            ts = _candidates(iu, rho, grid_n)
            assert 0.0 < bottleneck_gamma(ts, iu.prefix_measures(ts), rho, iu.length)
            assert not optimal_gamma(iu, rho, grid_n=grid_n).feasible

    def test_optimal_gamma_matches_bisection(self):
        for iu, rho, _, grid_n in reference_corpus():
            assert np.array_equal(_candidates(iu, rho, grid_n),
                                  loop_candidates(iu, iu.length, rho, grid_n))
            got = optimal_gamma(iu, rho, grid_n=grid_n)
            want = bisection_optimal_gamma(iu, iu.length, rho, grid_n)
            assert (got.feasible, got.gamma, got.breakpoints, got.gap_witness) == \
                (want["feasible"], want["gamma"], want["breakpoints"],
                 want["gap_witness"])

    def test_optimal_rho_matches_bisection(self):
        for iu, _, gamma, grid_n in reference_corpus():
            got = optimal_rho(iu, gamma, grid_n=grid_n)
            want = bisection_optimal_rho(iu, iu.length, gamma, grid_n)
            assert (got.feasible, got.rho, got.breakpoints, got.global_density) == \
                (want["feasible"], want["rho"], want["breakpoints"],
                 want["global_density"])

    def test_optimal_gamma_is_exact_on_its_grid(self):
        checked = 0
        for iu, rho, _, grid_n in reference_corpus(seed=77, count=60):
            res = optimal_gamma(iu, rho, grid_n=grid_n)
            ts = _candidates(iu, rho, grid_n)
            want = bottleneck_gamma(ts, iu.prefix_measures(ts), rho, iu.length)
            if res.feasible:
                assert res.gamma == pytest.approx(want, abs=1e-12)
                checked += 1
            else:
                assert want <= 10.0 * 1e-12
        assert checked >= 30


def grid_aligned_corpus(seed=5, count=40):
    """(union, gamma, grid_n) with every endpoint on the grid ell*i/grid_n,
    so that points shifted by the bisection's dyadic rho land on grid points
    and on other shifted points."""
    rng = np.random.default_rng(seed)
    cases = []
    for c in range(count):
        ell, grid_n = (1.0, 8) if c % 2 else (float(rng.uniform(0.5, 3.0)), 200)
        ticks = np.unique(rng.integers(0, grid_n + 1, size=2 * int(rng.integers(1, 5))))
        ivs = [(ell * a / grid_n, ell * b / grid_n) for a, b in zip(ticks[::2], ticks[1::2])]
        if ivs:
            cases.append((IntervalUnion(ivs, length=ell),
                          1e-6 if c % 3 else float(rng.uniform(0.02, 1.0)), grid_n))
    return cases


class TestRhoSearchSteps:
    """optimal_rho merges each step's shifted points into one rho-free base:
    every step must run its DP on exactly the candidates, and the q = pref -
    gamma*t, that building them anew at its rho gives."""

    def test_each_step_sees_the_candidates_of_its_rho(self, monkeypatch):
        steps = []
        reach = sampling._reach

        def spy(t, q, slack_w, slack_m):
            steps.append((list(t), list(q)))
            steps[-1] += (reach(t, q, slack_w, slack_m),)
            return steps[-1][-1]

        monkeypatch.setattr(sampling, "_reach", spy)
        corpus = [(iu, gamma, n) for iu, _, gamma, n in reference_corpus(count=40)]
        shared = 0  # steps where a shifted point is a base point or another shift
        for iu, gamma, grid_n in corpus + grid_aligned_corpus():
            steps.clear()
            res = optimal_rho(iu, gamma, grid_n=grid_n)
            ell = iu.length
            base = loop_candidates(iu, ell, 0.0, grid_n).size
            lo, hi = 0.0, ell
            for t, q, feasible in steps:
                mid = 0.5 * (lo + hi)
                ts = loop_candidates(iu, ell, mid, grid_n)
                assert t == ts.tolist()
                assert q == (iu.prefix_measures(ts) - gamma * ts).tolist()
                shifted = [x for e in (0.0, ell, *iu.starts, *iu.ends)
                           for x in (e - mid, e + mid) if 0.0 < x < ell]
                shared += len(shifted) > ts.size - base
                lo, hi = (lo, mid) if feasible else (mid, hi)
            assert bool(steps) == res.feasible
            assert hi - lo <= sampling.RHO_TOL_REL * ell or not res.feasible
        assert shared > 100


class TestPeriodic:
    def test_branch_values(self):
        assert periodic_params(0.5, 1.0) == pytest.approx(0.5)
        assert periodic_params(0.5, 1.5) == pytest.approx(1.0 / 3.0)
        assert periodic_params(0.5, 0.75) == pytest.approx(1.0 - 0.5 / 0.75)

    def test_uniform_floor(self):
        assert periodic_uniform_gamma(0.5) == pytest.approx(1.0 / 3.0)
        for rho in np.linspace(1.0, 6.0, 40):
            assert periodic_params(0.5, float(rho)) >= 1.0 / 3.0 - 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            periodic_params(0.5, 0.4)
        with pytest.raises(ValueError):
            periodic_params(1.2, 1.0)
        with pytest.raises(ValueError, match=r"density must lie in \(0, 1\)"):
            periodic_uniform_gamma(1.0)


class TestGraphAggregation:
    def test_min_max_rule(self):
        sset = SamplingSet(finite={
            "a": IntervalUnion([(0.1, 0.3), (0.6, 0.8)], length=1.0),
            "b": IntervalUnion([(0.0, 0.2), (1.0, 1.1), (1.5, 1.6)], length=2.0)})
        found = {eid: certified_params(iu) for eid, iu in sset.finite.items()}
        params = certify(sset)
        assert params.gamma == min(gamma for gamma, _, _ in found.values())
        assert params.rho <= max(rho for _, rho, _ in found.values())
        assert params.cover.breakpoints == {eid: bps for eid, (_, _, bps) in found.items()}

    def test_refusals(self):
        with pytest.raises(ValueError, match="no edges"):
            certify(SamplingSet())
        with pytest.raises(ValueError, match="edge 'b': set cannot be certified"):
            certify(SamplingSet(finite={"a": IntervalUnion([(0.0, 0.5)], length=1.0),
                                        "b": IntervalUnion([], length=1.0)}))


class TestJsonRoundTrip:
    def test_sampling_set_io(self, tmp_path):
        g = build_graph(["a", "b"], [("e", "a", "b", 1.0)])
        data = {"edges": {"e": [[0.0, 0.25], [0.5, 0.75]]}}
        s = SamplingSet.from_dict(g, data)
        assert s.finite["e"].measure == pytest.approx(0.5)
        p = tmp_path / "set.json"
        p.write_text(__import__("json").dumps(data))
        again = SamplingSet.load(g, p)
        assert again.finite["e"] == s.finite["e"]

    def test_external_set(self):
        from qgs.graphs import Edge, MetricGraph
        g = MetricGraph(["v"], [Edge("r", "v", None, math.inf)])
        data = {"external": {"r": {"head": [[0.0, 0.5]], "period": 1.0,
                                   "body": [[0.25, 0.75]]}}}
        s = SamplingSet.from_dict(g, data)
        tail = s.external["r"]
        assert tail.head_span == 0.5
        gaps = gap_analysis(s)
        assert gaps["r"].left == 0.0
        assert gaps["r"].max_interior == pytest.approx(0.5)

    def test_misplaced_entries_refused(self):
        from qgs.graphs import Edge, MetricGraph
        g = MetricGraph(["v"], [Edge("r", "v", None, math.inf)])
        with pytest.raises(ValueError, match="edge 'r' is infinite; use the external section"):
            SamplingSet.from_dict(g, {"edges": {"r": [[0.0, 0.5]]}})
        with pytest.raises(ValueError, match="body must live inside one period"):
            PeriodicTail(head=IntervalUnion([]), period=1.0,
                         body=IntervalUnion([(0.25, 1.5)]))

    def test_external_cover_verified(self):
        from qgs.graphs import Edge, MetricGraph
        g = MetricGraph(["v"], [Edge("r", "v", None, math.inf)])
        s = SamplingSet.from_dict(g, {"external": {
            "r": {"head": [[0.0, 0.5]], "period": 1.0, "body": [[0.25, 0.75]]}}})
        cover = Cover(breakpoints={}, external={"r": ((0.0, 0.5), (0.0, 1.0))})
        res = verify_cover(s, cover, gamma=0.5, rho=1.0)
        assert isinstance(res, SamplingParams)
        assert res.gamma == pytest.approx(0.5)
        bad = verify_cover(s, cover, gamma=0.8, rho=1.0)
        assert isinstance(bad, CoverViolation)
