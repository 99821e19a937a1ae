import json
import logging
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs.cli import main
from qgs.graphs import build_graph
from qgs.polytrig import IntervalUnion
from qgs.sampling import (COVER_SIZE, RHO_TOL_REL, Cover, CoverViolation, PeriodicTail,
                          SamplingParams, SamplingSet, certified_params, certify,
                          gap_analysis, necessary_check, optimal_gamma, optimal_rho,
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
    1 024 intervals are the largest union here, pinned to the float: gamma
    is never below, and rho never above, what the 200-point candidate grid
    found (`grid`), beyond the searches' stated widths."""

    GAMMA = {8: (0.44618055514112853, (0.0, 0.21875000011655754, 0.5000000001165575,
                                       0.7812499996956349, 1.0)),
             10: (0.4448784718090079, (0.0, 0.21875000011621648, 0.5000000001162165,
                                       0.78124999969751, 1.0))}

    @pytest.mark.parametrize("depth, grid", [(8, 0.4461805555555556),
                                             (10, 0.4448784722222222)])
    def test_optimal_gamma(self, depth, grid):
        iu = svc_set(depth)[0]
        res = optimal_gamma(iu, 9 / 32)
        assert res.gamma >= grid - RHO_TOL_REL * iu.measure
        assert (res.gamma, res.breakpoints) == self.GAMMA[depth]

    @pytest.mark.parametrize("depth, grid", [(8, 0.1259918212890625), (10, 0.12525582313537598)],
                             ids=["depth-8", "depth-10"])
    def test_optimal_rho(self, depth, grid):
        # the middle gap 1/4 needs rho >= 1/8/(1 - 1e-6); the grid stopped
        # up to 1e-3 above that
        res = optimal_rho(svc_set(depth)[0], 1e-6)
        assert 0.125 / (1 - 1e-6) <= res.rho <= grid
        assert (res.rho, res.breakpoints) == (0.1250001256680116, (
            0.0, 0.12499962366385114, 0.24999974933186275, 0.37499987499987436,
            0.500000000667886, 0.6250001250001243, 0.7499997486639769,
            0.8749998743319884, 1.0))

    def test_optimal_gamma_peak_memory(self):
        # the prefix measures of 4 865 grid candidates over 1 024 intervals
        # once took an 80 MB clip matrix
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

    def test_never_below_an_independent_maxmin_on_a_grid(self):
        # independent oracle: recursive max-min over the covers whose
        # breakpoints lie in a 50-point candidate grid, a subset of the covers
        # the search decides over
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(12):
            pts = np.sort(rng.uniform(0.0, 1.0, size=10))
            iu = IntervalUnion([(pts[2 * i], pts[2 * i + 1]) for i in range(5)],
                               length=1.0)
            if iu.measure < 0.05:
                continue
            rho = float(rng.uniform(0.4, 0.9))
            ts = loop_candidates(iu, 1.0, rho, 50)
            want = bottleneck_gamma(ts, iu.prefix_measures(ts), rho, 1.0)
            res = optimal_gamma(iu, rho=rho)
            assert res.feasible and res.gamma >= want - RHO_TOL_REL * min(1.0, iu.measure)
            checked += 1
        assert checked >= 8

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
        res = optimal_rho(iu, gamma=gamma)
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
        for iu, rho, _, _ in reference_corpus(count=60):
            res = optimal_gamma(iu, rho)
            if not res.feasible and iu.measure > 0.0:
                left, interior, right = iu.gaps()
                assert res.gap_witness == (f"gap of length {max([left, right] + interior)} "
                                           f"cannot be covered at rho={rho}")
                refused += 1
        assert refused >= 10

    def test_a_stale_edge_length_argument_is_refused(self):
        # the searches take no edge length: (omega, ell, rho) does not run with rho = ell
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


def assert_gamma_against_the_grid(iu, rho, grid_n=200):
    """optimal_gamma decides over every cover, the grid's among them: never
    below the grid's gamma beyond its stated width, refusing only what the
    grid refuses and always what the necessary check refuses, and its cover
    verifies with at most 2*length/rho + 2m windows."""
    got = optimal_gamma(iu, rho)
    want = bisection_optimal_gamma(iu, iu.length, rho, grid_n)
    sset = single_edge_set(iu)
    if want["feasible"]:
        assert got.feasible
        assert got.gamma >= want["gamma"] - RHO_TOL_REL * min(1.0, iu.measure / iu.length)
    if not got.feasible:
        assert got.gap_witness == want["gap_witness"]
        return
    check = verify_cover(sset, single_edge_cover(got.breakpoints), gamma=got.gamma, rho=rho)
    assert isinstance(check, SamplingParams)
    assert len(got.breakpoints) - 1 <= 2 * iu.length / rho + 2 * len(iu)
    assert necessary_check(gap_analysis(sset), got.gamma, rho)[0]


def assert_rho_against_the_grid(iu, gamma, grid_n=200):
    """optimal_rho likewise: feasible exactly where the grid is, and never
    above the grid's rho beyond RHO_TOL_REL times the length where the
    grid's cover holds gamma without verify_cover's 1e-12 measure slack (at
    gamma ~ 1e-12 that slack passes empty windows, and at the global density
    windows 1e-12 short of it, which the exact decision does not); its cover
    verifies with at most 2*COVER_SIZE + 2m windows."""
    got = optimal_rho(iu, gamma)
    want = bisection_optimal_rho(iu, iu.length, gamma, grid_n)
    assert (got.feasible, got.global_density) == (want["feasible"], want["global_density"])
    if not got.feasible:
        return
    grid = want["breakpoints"]
    if min(iu.measure_in(a, b) / (b - a) for a, b in zip(grid, grid[1:])) >= gamma:
        assert got.rho <= want["rho"] + RHO_TOL_REL * iu.length
    check = verify_cover(single_edge_set(iu), single_edge_cover(got.breakpoints),
                         gamma=gamma, rho=got.rho)
    assert isinstance(check, SamplingParams)
    assert len(got.breakpoints) - 1 <= 2 * COVER_SIZE + 2 * len(iu)


class TestReferenceKernels:
    """The searches against the candidate-grid bisections kept in oracles.py,
    which they match to their stated widths or beat."""

    def test_corpus_exercises_every_branch(self):
        corpus = reference_corpus()
        results = [optimal_gamma(iu, rho) for iu, rho, _, _ in corpus]
        assert sum(r.feasible for r in results) >= 100
        assert sum(not r.feasible for r in results) >= 30
        # the measure-zero rule refuses sets whose max-min density is positive
        for iu, rho, _, grid_n in corpus[-5:-3]:
            ts = loop_candidates(iu, iu.length, rho, grid_n)
            assert 0.0 < bottleneck_gamma(ts, iu.prefix_measures(ts), rho, iu.length)
            assert not optimal_gamma(iu, rho).feasible

    def test_optimal_gamma_matches_bisection(self):
        for iu, rho, _, grid_n in reference_corpus():
            assert_gamma_against_the_grid(iu, rho, grid_n)

    def test_optimal_rho_matches_bisection(self):
        for iu, _, gamma, grid_n in reference_corpus():
            assert_rho_against_the_grid(iu, gamma, grid_n)

    def test_gamma_search_at_the_rho_searchs_rho(self):
        # the property certified_params asserts: optimal_gamma at optimal_rho's
        # rho finds a cover at least as dense as optimal_rho's own
        checked = 0
        for iu, _, _, _ in reference_corpus():
            res_r = optimal_rho(iu, gamma=1e-6)
            if not res_r.feasible:
                continue
            own = verify_cover(single_edge_set(iu), single_edge_cover(res_r.breakpoints),
                               gamma=1e-6, rho=res_r.rho)
            res_g = optimal_gamma(iu, rho=max(res_r.rho, iu.length / COVER_SIZE))
            assert res_g.feasible
            assert res_g.gamma >= own.gamma - RHO_TOL_REL * min(1.0, iu.measure / iu.length)
            checked += 1
        assert checked >= 150

    @settings(max_examples=40, deadline=None)
    @given(ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=14, unique=True),
           touch=st.sampled_from(["none", "left", "right", "both"]),
           ell=st.floats(0.3, 3.0), gamma=st.floats(0.0, 1.0, exclude_min=True),
           rho_frac=st.floats(1.0 / COVER_SIZE, 1.0))
    def test_random_unions_against_the_grid(self, ends, touch, ell, gamma, rho_frac):
        # 1 to 7 intervals, their ends touching 0 or the edge's end or not
        pts = sorted(ell * e for e in ends)[:len(ends) // 2 * 2]
        if touch in ("left", "both"):
            pts[0] = 0.0
        if touch in ("right", "both"):
            pts[-1] = ell
        iu = IntervalUnion(list(zip(pts[::2], pts[1::2])), length=ell)
        assert_gamma_against_the_grid(iu, max(ell * rho_frac, ell / COVER_SIZE))
        assert_rho_against_the_grid(iu, gamma)

    def test_largest_gain_over_the_grid(self):
        # the 200-point grid finds 0.01275 here and a 20 000-point one 0.03725
        ell, rho = 0.7245800989871807, 0.07245800989871808
        iu = IntervalUnion([(0.0014903475513633397, 0.11759017282559865),
                            (0.22644361025231963, 0.2617077142157061),
                            (0.40121785878697364, 0.6709352080901841)], length=ell)
        assert bisection_optimal_gamma(iu, ell, rho)["gamma"] < 0.0128
        res = optimal_gamma(iu, rho=rho)
        assert res.gamma >= 0.03725
        check = verify_cover(single_edge_set(iu), single_edge_cover(res.breakpoints),
                             gamma=res.gamma, rho=rho)
        assert isinstance(check, SamplingParams)


class TestCoverSize:
    """The searches take rho >= length/COVER_SIZE, which bounds a cover at
    about 2*COVER_SIZE + 2m windows: on a whole edge the exact infimum of
    rho is 0."""

    WHOLE = IntervalUnion([(0.0, 1.0)], length=1.0)

    def test_rho_search_stops_at_the_floor(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="qgs.sampling"):
            start = time.perf_counter()
            res = optimal_rho(self.WHOLE, 0.5)
            elapsed = time.perf_counter() - start
        [record] = [r for r in caplog.records if r.name == "qgs.sampling"]
        assert res.feasible and res.rho <= 1.0 / COVER_SIZE
        windows = len(res.breakpoints) - 1
        assert windows <= 2 * COVER_SIZE + 2
        assert record.diagnostics == {"search": "rho", "sweeps": 1, "pieces": 1,
                                      "windows": windows, "feasible": True}
        assert elapsed < 0.25  # one sweep and one walk: a few milliseconds

    def test_gamma_search_refuses_a_rho_below_the_floor(self):
        with pytest.raises(ValueError, match=r"rho = 1e-09 is below the edge length / 200"):
            optimal_gamma(self.WHOLE, rho=1e-9)
        # certified_params takes the floor: the whole edge certifies at gamma 1
        gamma, rho, bps = certified_params(self.WHOLE)
        assert (gamma, rho) == (1.0, 1.0 / COVER_SIZE) and len(bps) - 1 <= 2 * COVER_SIZE + 2


class TestSearchRecord:
    """One DEBUG record per search on the qgs.sampling logger."""

    IU = IntervalUnion([(0.1, 0.3), (0.5, 0.9)], length=1.0)

    def records(self, caplog, search, *args):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="qgs.sampling"):
            res = search(self.IU, *args)
        return res, [r.diagnostics for r in caplog.records if r.name == "qgs.sampling"]

    def test_one_record_per_search(self, caplog):
        # at rho = 0.5 the top density 0.6 passes at once (windows of 1/4,
        # 1/2 and 1/4); at 0.3 the bisection halves its bracket 30 times
        res, [diag] = self.records(caplog, optimal_gamma, 0.5)
        assert (res.gamma, diag) == (0.6, {"search": "gamma", "sweeps": 1, "pieces": 2,
                                           "windows": 3, "feasible": True})
        res, [diag] = self.records(caplog, optimal_gamma, 0.3)
        assert diag["sweeps"] == 2 + math.ceil(math.log2(1.0 / RHO_TOL_REL))
        assert diag["windows"] == len(res.breakpoints) - 1
        res, [diag] = self.records(caplog, optimal_rho, 0.99)
        assert (res.feasible, diag) == (False, {"search": "rho", "sweeps": 0, "pieces": 2,
                                                "windows": 0, "feasible": False})
        _, diags = self.records(caplog, certified_params)
        assert [d["search"] for d in diags] == ["rho", "gamma"]

    def test_record_leaves_the_report_alone(self, caplog, capsys, tmp_path):
        graph, sset = tmp_path / "interval.json", tmp_path / "set.json"
        graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": [
            {"id": "e", "from": "a", "to": "b", "length": 1.0}]}))
        sset.write_text(json.dumps({"edges": {"e": [[0.1, 0.3], [0.5, 0.9]]}}))
        argv = ["sampling", "gamma", "--graph", str(graph), "--set", str(sset), "--rho", "0.5"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        with caplog.at_level(logging.DEBUG, logger="qgs.sampling"):
            assert main(argv) == 0
        loud = capsys.readouterr()
        assert (loud.out, loud.err) == (quiet.out, quiet.err) and quiet.err == ""
        assert [r.name for r in caplog.records] == ["qgs.sampling"]


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

    def test_omitted_finite_edge_is_empty(self):
        # a file that omits a finite edge puts the empty set there, so the
        # graph-level certificate is refused instead of passing over it
        g = build_graph(["a", "b", "c"], [("e1", "a", "b", 1.0), ("e2", "b", "c", 2.0)])
        s = SamplingSet.from_dict(g, {"edges": {"e1": [[0.0, 0.5]]}})
        assert list(s.finite) == ["e1", "e2"]
        assert s.finite["e2"] == IntervalUnion([], length=2.0)
        with pytest.raises(ValueError, match="edge 'e2': set cannot be certified"):
            certify(s)

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
