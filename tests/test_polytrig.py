import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgs import verify
from qgs.graphs import build_graph
from qgs.polytrig import (_RESOLVED_REL, GraphFunction, IntervalUnion, PolyTrigTerm,
                          _coerce_region, _gauss_norm_sq, cosine_power_terms,
                          gram, inner_product, integrate_powexp, masses,
                          sup_on_disk_neighborhood, whole_edge)
from qgs.spectral import solve_torsion

from oracles import (adaptive_simpson, clip_prefix_measures, edge_windows, edgewise_gram,
                     eval_terms, exact_prefix_measures, integral_pairs_simpson,
                     loop_integrate_powexp, loop_norm_sq, norm_sq, term_gram)

# w*d values on both sides of the series/closed-form switch at 1/2 and at the
# extremes of both branches
SWITCH_WD = (0.0, 1e-300, 1e-12, 1e-3, math.nextafter(0.5, 0.0), 0.5,
             math.nextafter(0.5, 1.0), 3.0, 200.0)


def interval_graph(ell=math.pi, name="e"):
    return build_graph(["a", "b"], [(name, "a", "b", ell)])


def cos_fn(graph, k, eid="e", amp=1.0):
    return GraphFunction(graph, {eid: [PolyTrigTerm(0.5 * amp, 0, k),
                                       PolyTrigTerm(0.5 * amp, 0, -k)]})


def sin_fn(graph, k, eid="e", amp=1.0):
    return GraphFunction(graph, {eid: [PolyTrigTerm(-0.5j * amp, 0, k),
                                       PolyTrigTerm(0.5j * amp, 0, -k)]})


# an irrational scale: uniform doubles on [0, 2) are multiples of 2**-52,
# whose sums are exact, so a bound on their rounding would test nothing
_SCALE = math.pi * math.sqrt(2.0)


def _summation_bound(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2**-53: the relative error of a sum of n
    nonnegative terms, each one rounded subtraction, added in any order."""
    u = 2.0 ** -53
    return n * u / (1.0 - n * u)


@st.composite
def _scaled_union_and_points(draw):
    ends = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=60, unique=True)))
    iu = IntervalUnion([(_SCALE * a, _SCALE * b) for a, b in zip(ends[::2], ends[1::2])],
                       length=_SCALE)
    pts = [_SCALE * t for t in draw(st.lists(st.floats(-0.1, 1.1), max_size=20))]
    mids = 0.5 * (iu.starts + iu.ends)
    return iu, np.concatenate((pts, iu.starts, iu.ends, mids))


class TestIntervalUnion:
    def test_measure_and_merge(self):
        iu = IntervalUnion([(0.5, 1.0), (0.0, 0.5)], length=2.0)
        assert iu.intervals == ((0.0, 1.0),)
        assert iu.measure == 1.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion([(0.0, 0.6), (0.5, 1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IntervalUnion([(0.2, 1.5)], length=1.0)
        with pytest.raises(ValueError):
            IntervalUnion([(-0.2, 0.5)], length=1.0)

    def test_gaps(self):
        iu = IntervalUnion([(0.25, 0.375), (0.625, 0.75)], length=1.0)
        left, interior, right = iu.gaps()
        assert left == 0.25 and right == 0.25
        assert interior == [0.25]

    def test_prefix_measures(self):
        iu = IntervalUnion([(0.0, 0.25), (0.5, 1.0)], length=1.0)
        pts = np.array([0.0, 0.125, 0.3, 0.75, 1.0])
        np.testing.assert_allclose(iu.prefix_measures(pts),
                                   [0.0, 0.125, 0.25, 0.5, 0.75], atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_end_rejected(self, bad):
        # a NaN pair once fell out as empty (b > a is false)
        for pair in ((0.1, bad), (bad, 0.9)):
            with pytest.raises(ValueError, match="interval ends must be finite"):
                IntervalUnion([(0.0, 0.05), pair], length=1.0)

    def test_arrays(self):
        iu = IntervalUnion([(0.5, 0.75), (0.0, 0.25), (0.25, 0.375)], length=1.0)
        assert iu.starts.tolist() == [0.0, 0.5] and iu.ends.tolist() == [0.375, 0.75]
        assert iu.cum.tolist() == [0.0, 0.375, 0.625] and iu.measure == 0.625
        with pytest.raises(ValueError):  # read-only: the union does not change
            iu.cum[0] = 1.0
        empty = IntervalUnion([], length=1.0)
        assert (empty.starts.size, empty.ends.size, empty.cum.tolist()) == (0, 0, [0.0])
        assert type(empty.measure) is float and empty.measure == 0.0

    def test_sorted_parts_build_the_public_union(self, monkeypatch):
        # every cover-first set of 2 000 audit trials, and a last end one ulp
        # past the length, which both clamp: the same intervals and the same
        # starts, ends and cum bit for bit
        def assert_same(got, parts, length):
            want = IntervalUnion(parts, length=length)
            assert (got.intervals, got.length) == (want.intervals, want.length)
            for name in ("starts", "ends", "cum"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert not getattr(got, name).flags.writeable

        built = IntervalUnion._sorted.__func__
        seen = []

        def spy(cls, parts, length):
            seen.append((built(cls, parts, length), list(parts), length))
            return seen[-1][0]

        monkeypatch.setattr(IntervalUnion, "_sorted", classmethod(spy))
        pool = verify.audit_pool(np.random.default_rng(1), 200.0)
        for i in range(2000):
            verify._trial_sample(pool, 1, i)
        monkeypatch.undo()
        assert len(seen) > 2000
        for got, parts, length in seen:
            assert_same(got, parts, length)
        spill = [(0.1, 0.3), (0.5, math.nextafter(1.0, 2.0))]
        got = IntervalUnion._sorted(spill, 1.0)
        assert got.intervals[-1] == (0.5, 1.0) and spill[-1][1] > 1.0
        assert_same(got, spill, 1.0)
        assert_same(IntervalUnion._sorted([], 1.0), [], 1.0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=_scaled_union_and_points())
    def test_prefix_measures_against_the_clip_sum_and_rationals(self, case):
        # below 8 intervals the clip sum (numpy's pairwise sum) is sequential,
        # so F is the same float; at every size both lie within the a-priori
        # summation bound of the exact value
        iu, pts = case
        got, ref = iu.prefix_measures(pts), clip_prefix_measures(iu, pts)
        if len(iu) < 8:
            assert got.tobytes() == ref.tobytes()
        bound = _summation_bound(len(iu))
        for g, r, x in zip(got.tolist(), ref.tolist(), exact_prefix_measures(iu, pts)):
            assert abs(Fraction(g) - x) <= bound * x and abs(Fraction(r) - x) <= bound * x

    def test_prefix_measure_rounding_is_seen(self):
        # the bound above has teeth: on these unions both routes round
        rng = np.random.default_rng(8)
        inexact = [0, 0]
        for _ in range(60):
            n = int(rng.integers(8, 40))
            ends = np.sort(rng.uniform(0.0, 1.0, 2 * n)) * _SCALE
            iu = IntervalUnion(zip(ends[::2], ends[1::2]), length=_SCALE)
            pts = rng.uniform(0.0, _SCALE, 20)
            exact = exact_prefix_measures(iu, pts)
            for k, vals in enumerate((iu.prefix_measures(pts), clip_prefix_measures(iu, pts))):
                errs = [abs(Fraction(v) - x) for v, x in zip(vals.tolist(), exact)]
                assert all(e <= _summation_bound(len(iu)) * x for e, x in zip(errs, exact))
                inexact[k] += sum(e > 0 for e in errs)
        assert min(inexact) > 100


class TestDifferentiate:
    def test_cos_second_derivative(self):
        g = interval_graph()
        k = 3.0
        f = cos_fn(g, k)
        d2 = f.derivative(2)
        want = cos_fn(g, k, amp=-k * k)
        diff = d2 - want
        assert norm_sq(diff) < 1e-24

    def test_polynomial_vanishes(self):
        g = interval_graph(1.0)
        f = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 2, 0.0)]})
        assert f.derivative(3).is_zero()

    def test_order_zero_identity(self):
        g = interval_graph(1.0)
        f = GraphFunction(g, {"e": [PolyTrigTerm(2.0, 1, 1.5)]})
        assert norm_sq(f.derivative(0) - f) < 1e-28

    def test_refusals(self):
        g = interval_graph(1.0)
        f = GraphFunction(g, {"e": [PolyTrigTerm(2.0, 1, 1.5)]})
        with pytest.raises(ValueError, match="derivative order must be >= 0"):
            f.derivative(-1)
        with pytest.raises(ValueError, match="functions live on different graphs"):
            f + GraphFunction(interval_graph(1.0), {"e": [PolyTrigTerm(1.0, 0, 0.0)]})
        for power in (-1, 3):
            with pytest.raises(ValueError, match=f"term power {power} outside 0..2"):
                GraphFunction(g, {"e": [PolyTrigTerm(1.0, power, 0.0)]})
        with pytest.raises(ValueError, match="unknown edge 'x'"):
            GraphFunction(g, {"x": [PolyTrigTerm(1.0, 0, 0.0)]})

    def test_torsion_profile_norms(self):
        # u = ell*x - x^2/2 on [0, ell]: u'' = -1, so |u''|^2 integrates to ell
        ell = 2.7
        g = interval_graph(ell)
        u = GraphFunction(g, {"e": [PolyTrigTerm(ell, 1, 0.0), PolyTrigTerm(-0.5, 2, 0.0)]})
        u2 = u.derivative(2)
        assert norm_sq(u2) == pytest.approx(ell, rel=1e-14)

    def test_compose_orders(self):
        g = interval_graph(1.0)
        f = GraphFunction(g, {"e": [PolyTrigTerm(1.0 + 0.5j, 2, 2.0),
                                    PolyTrigTerm(-0.25, 1, -3.0)]})
        lhs = f.derivative(2).derivative(3)
        rhs = f.derivative(5)
        assert norm_sq(lhs - rhs) < 1e-20


class TestQuadrature:
    def test_cos_norm_on_half_period(self):
        g = interval_graph(math.pi)
        f = cos_fn(g, 1.0)
        assert norm_sq(f) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_constant_on_subset(self):
        g = interval_graph(1.0)
        one = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 0, 0.0)]})
        gamma = 0.37
        region = {"e": IntervalUnion([(0.0, gamma)], length=1.0)}
        assert norm_sq(one, region) == pytest.approx(gamma, rel=1e-14)

    def test_sin_integer_modes(self):
        g = interval_graph(math.pi)
        for k in (1, 2, 5):
            assert norm_sq(sin_fn(g, float(k))) == pytest.approx(math.pi / 2, rel=1e-13)

    def test_zero_function(self):
        g = interval_graph(1.0)
        assert norm_sq(GraphFunction.zero(g)) == 0.0

    def test_cos_squared_against_simpson(self):
        # cos^2(2 pi x) mass in a centred window, closed form vs oracle
        g = interval_graph(1.0)
        terms = cosine_power_terms(2, 2.0 * math.pi)
        f = GraphFunction(g, {"e": list(terms)})
        gamma = 0.4
        a, b = 0.25 * (1 - gamma), 0.25 * (1 + gamma)
        region = {"e": IntervalUnion([(a, b)], length=1.0)}
        got = norm_sq(f, region)
        want = integral_pairs_simpson(terms, terms, a, b)
        assert got == pytest.approx(want.real, abs=1e-10)

    def test_low_frequency_branch_matches_series(self):
        # near-zero combined frequency takes the series path, and w*d = 0.75 w
        # just either side of 1/2 the last series and first closed-form
        # windows; compare to oracle
        for p in range(5):
            for w in (0.0, 1e-12, 1e-7, 1e-3, (0.5 - 1e-9) / 0.75, (0.5 + 1e-9) / 0.75):
                vals = integrate_powexp(np.array([p]), np.array([w]), 0.2, 1.7)
                want = adaptive_simpson(lambda x: x ** p * cmath.exp(1j * w * x), 0.2, 1.7)
                assert abs(vals[0] - want) < 1e-12 * max(1.0, abs(want))

    def test_kernel_matches_loop_oracle(self):
        # exact half-widths (powers of 2) put w*d exactly on each SWITCH_WD value
        rng = np.random.default_rng(2026)
        for wd in SWITCH_WD:
            for d in (0.125, 0.25, 0.5):
                a = float(rng.integers(0, 64)) / 64.0
                w = wd / d * rng.choice([-1.0, 1.0], size=5)
                powers = np.arange(5)
                coeff = rng.normal(size=5) + 1j * rng.normal(size=5)
                got = coeff * integrate_powexp(powers, w, a, a + 2.0 * d)
                want = coeff * loop_integrate_powexp(powers, w, a, a + 2.0 * d)
                gross = float(np.abs(want).sum())
                assert float(np.abs(got - want).sum()) <= 1e-13 * gross, (wd, d)
                for p in powers:
                    one = integrate_powexp(np.array([p]), w[p:p + 1], a, a + 2.0 * d)
                    assert abs(coeff[p] * one[0] - want[p]) <= 1e-13 * abs(want[p]), (wd, d, p)

    def test_batched_windows_match_single_windows(self):
        # touching and separated windows of one edge in one call, against the
        # loop oracle per window and against single-window calls
        rng = np.random.default_rng(11)
        a = np.array([0.0, 0.25, 0.5, 0.9, 1.3])
        b = np.array([0.25, 0.5, 0.6, 1.3, 1.3 + 1e-9])
        for _ in range(40):
            n = int(rng.integers(1, 12))
            powers = rng.integers(0, 5, size=n) * (rng.random() < 0.5)
            freqs = rng.choice([0.0, 1e-13, 1.0, 4.0, 400.0], size=n) * rng.normal(size=n)
            coeff = rng.normal(size=n) + 1j * rng.normal(size=n)
            batch = coeff[:, None] * integrate_powexp(powers[:, None], freqs[:, None], a, b)
            assert batch.shape == (n, a.size)
            single = np.array([coeff * integrate_powexp(powers, freqs, lo, hi)
                               for lo, hi in zip(a, b)]).T
            want = np.array([coeff * loop_integrate_powexp(powers, freqs, lo, hi)
                             for lo, hi in zip(a, b)]).T
            gross = float(np.abs(want).sum())
            assert float(np.abs(batch - want).sum()) <= 1e-13 * gross
            assert float(np.abs(batch - single).sum()) <= 1e-15 * gross
            assert abs(batch.sum() - single.sum()) <= 1e-15 * gross

    def test_empty_window_integrates_to_zero(self):
        vals = integrate_powexp(np.arange(5), np.array([0.0, 1.0, 2.0, 0.0, 30.0]), 0.7, 0.7)
        assert np.all(vals == 0.0)

    def test_gram_matches_simpson(self):
        g = build_graph(["a", "b", "c"], [("e", "a", "b", 1.3), ("f", "b", "c", 0.8)])
        rng = np.random.default_rng(5)
        fns = [GraphFunction(g, {e: [PolyTrigTerm(complex(*rng.normal(size=2)),
                                                  int(rng.integers(0, 3)),
                                                  float(rng.choice([0.0, 2.0, -3.5])))
                                     for _ in range(3)] for e in ("e", "f")})
               for _ in range(4)]
        region = {"e": IntervalUnion([(0.1, 0.4), (0.4, 0.9)], length=1.3),
                  "f": IntervalUnion([(0.2, 0.5)], length=0.8)}
        for reg in (None, region):
            got = gram(fns, reg)
            for i, fi in enumerate(fns):
                for j, fj in enumerate(fns):
                    want = 0j
                    for e, ell in g.edge_lengths.items():
                        windows = [(0.0, ell)] if reg is None else reg[e].intervals
                        for a, b in windows:
                            want += integral_pairs_simpson(list(fi.terms[e]),
                                                           list(fj.terms[e]), a, b)
                    assert abs(got[i, j] - want) <= 1e-9 * max(1.0, abs(want))
                    assert abs(got[i, j] - inner_product(fi, fj, reg)) <= 1e-13 * abs(want)

    def test_term_gram_per_window(self):
        p = np.array([0, 1, 2])
        w = np.array([0.0, 3.0, -1.5])
        a, b = np.array([0.0, 0.5]), np.array([0.5, 1.25])
        got = term_gram(p, w, a, b)
        assert got.shape == (3, 3, 2)
        for s in range(3):
            for t in range(3):
                for k in range(2):
                    want = loop_integrate_powexp(np.array([p[s] + p[t]]),
                                                 np.array([w[s] - w[t]]), a[k], b[k])[0]
                    assert abs(got[s, t, k] - want) <= 1e-13 * max(1.0, abs(want))

    def test_randomized_against_simpson(self):
        rng = np.random.default_rng(7)
        g = interval_graph(1.3)
        for _ in range(100):
            nf = rng.integers(1, 4)
            tf = [PolyTrigTerm(complex(*rng.normal(size=2)), int(rng.integers(0, 3)),
                               float(rng.uniform(-12, 12))) for _ in range(nf)]
            tg = [PolyTrigTerm(complex(*rng.normal(size=2)), int(rng.integers(0, 3)),
                               float(rng.uniform(-12, 12))) for _ in range(nf)]
            a, b = sorted(rng.uniform(0, 1.3, size=2))
            if b - a < 1e-3:
                continue
            f = GraphFunction(g, {"e": tf})
            h = GraphFunction(g, {"e": tg})
            got = inner_product(f, h, {"e": IntervalUnion([(a, b)], length=1.3)})
            want = integral_pairs_simpson(list(f.terms["e"]), list(h.terms["e"]), a, b)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_tiny_window_mass_is_resolved(self):
        # cos^8(2 pi x) on windows of half-width h around its zeros 1/4, 3/4:
        # the mass, 2 * (1/pi) * int_0^{2 pi h} sin^16, is 6e-21 and 1.6e-14,
        # below the closed form's rounding floor (it returns -1.1e-18 and is
        # off by 1.4e-4).  f itself is at most 1.4e-9 on the narrow windows,
        # so evaluating it from O(1) terms costs about 7 digits: rel 1e-6.
        g = interval_graph(1.0)
        f = GraphFunction(g, {"e": list(cosine_power_terms(8, 2.0 * math.pi))})
        for h in (0.0125, 0.03):
            region = {"e": IntervalUnion([(0.25 - h, 0.25 + h), (0.75 - h, 0.75 + h)],
                                         length=1.0)}
            nodes, weights = np.polynomial.legendre.leggauss(60)
            theta = math.pi * h * (nodes + 1.0)
            want = 2.0 / math.pi * math.pi * h * float(weights @ np.sin(theta) ** 16)
            assert norm_sq(f, region) == pytest.approx(want, rel=1e-6, abs=0.0)

    def test_gauss_fallback_matches_closed_form(self):
        # where the closed form is resolved, the fallback must agree with it
        rng = np.random.default_rng(17)
        g = interval_graph(1.3)
        for _ in range(30):
            f = GraphFunction(g, {"e": [PolyTrigTerm(complex(*rng.normal(size=2)),
                                                     int(rng.integers(0, 3)),
                                                     float(rng.uniform(-30, 30)))
                                        for _ in range(4)]})
            a, b = sorted(rng.uniform(0, 1.3, size=2))
            region = {"e": IntervalUnion([(a, b), (1.3 - 1e-3, 1.3)], length=1.3)}
            want = norm_sq(f, region)
            assert _gauss_norm_sq(f, region) == pytest.approx(want, rel=1e-10)
            assert _gauss_norm_sq(f, None) == pytest.approx(norm_sq(f), rel=1e-10)

    def test_region_outside_edge_rejected(self):
        g = interval_graph(1.0)
        f = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 0, 0.0)]})
        with pytest.raises(ValueError):
            norm_sq(f, {"e": [(0.5, 1.5)]})
        with pytest.raises(ValueError, match=r"region outside \[0, 1.0\] on edge 'e'"):
            norm_sq(f, {"e": IntervalUnion([(0.5, 1.5)], length=2.0)})
        with pytest.raises(ValueError, match="region references unknown edge 'x'"):
            norm_sq(f, {"x": IntervalUnion([(0.0, 0.5)], length=1.0)})

    def test_monotone_and_additive(self):
        g = interval_graph(2.0)
        f = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 1, 4.0), PolyTrigTerm(0.5j, 0, -2.0)]})
        s1 = {"e": IntervalUnion([(0.2, 0.7)], length=2.0)}
        s2 = {"e": IntervalUnion([(0.2, 0.7), (1.1, 1.9)], length=2.0)}
        n1 = norm_sq(f, s1)
        n2 = norm_sq(f, s2)
        assert n1 <= n2
        part = norm_sq(f, {"e": IntervalUnion([(1.1, 1.9)], length=2.0)})
        assert n1 + part == pytest.approx(n2, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.0, 0.9),
        width=st.floats(0.01, 0.5),
        w1=st.floats(-15.0, 15.0),
        w2=st.floats(-15.0, 15.0),
        p=st.integers(0, 4),
    )
    # width 0.5 has d = 1/4, so w1 - w2 = 2 -+ 1e-9 puts w*d either side of 1/2
    @example(a=0.25, width=0.5, w1=2.0 - 1e-9, w2=0.0, p=4)
    @example(a=0.25, width=0.5, w1=2.0 + 1e-9, w2=0.0, p=4)
    @example(a=0.25, width=0.5, w1=0.0, w2=2.0 - 1e-9, p=3)
    @example(a=0.25, width=0.5, w1=0.0, w2=2.0 + 1e-9, p=3)
    def test_kernel_matches_oracle_property(self, a, width, w1, w2, p):
        b = min(a + width, 1.0)
        vals = integrate_powexp(np.array([p]), np.array([w1 - w2]), a, b)
        want = adaptive_simpson(lambda x: x ** p * cmath.exp(1j * (w1 - w2) * x), a, b)
        assert abs(vals[0] - want) <= 1e-10


_EPS = 2.0 ** -52


def _products(f, region):
    """The products c_s conj(c_t) I_st over every term pair and window of f
    on the region (the whole graph without one), flat: the per-function
    loop's, which masses sums in another order."""
    reg = _coerce_region(f.graph, region)
    out = [np.empty(0, dtype=complex)]
    for eid, terms in f.terms.items():
        a, b = edge_windows(f, reg, eid)
        c, p, w = np.array(terms, dtype=complex).T
        out.append((np.multiply.outer(c, c.conj())[..., None]
                    * term_gram(p.real, w.real, a, b)).ravel())
    return np.concatenate(out)


def assert_summed(got, f, region, *others):
    """got is ∫ |f|^2 over the region: within (N - 1) eps gross of math.fsum
    of the N products and within 2 (N - 1) eps gross of the per-function loop
    (loop_norm_sq) and of each of others, the a-priori bounds of two
    summation orders; where the sum is unresolved, the Gauss rule's value
    exactly."""
    x = _products(f, region)
    gross = float(np.abs(x).sum())
    exact = math.fsum(x.real)
    others = (loop_norm_sq(f, region), *others)
    if exact <= _RESOLVED_REL * gross:
        assert {got, *others} == {_gauss_norm_sq(f, _coerce_region(f.graph, region))}
        return
    bound = (x.size - 1) * _EPS * gross
    assert abs(got - exact) <= bound
    assert all(abs(got - other) <= 2.0 * bound for other in others)


class TestMasses:
    """masses against the per-function loop it replaced, to the summation
    bounds of assert_summed, whatever else shares the kernel call; f' against
    f.derivative() the same way; the kept edge arrays against term_gram
    exactly."""

    @staticmethod
    def assert_matches_loop(fns, region):
        got = masses(fns, region)
        assert len(got) == len(fns)
        for f, m in zip(fns, got):
            fp = f.derivative()
            mp = masses([fp], region)[0]  # f' as a function of its own
            assert_summed(m.whole, f, None)
            assert_summed(m.part, f, region)
            assert_summed(m.d_whole, fp, None, mp.whole)
            assert_summed(m.d_part, fp, region, mp.part)
            assert set(f.terms) <= set(m.edges)
            for i, eid in enumerate(m.edges):
                # f's terms first, then zero terms at the (p - 1, w) f' needs
                terms = f.terms.get(eid, ())
                n, size = len(terms), m.sizes[i]
                needs = {(p - 1, w) for _, p, w in terms if p} - {t[1:] for t in terms}
                assert size == n + len(needs)
                assert not (m.coeffs[i, n:].any() or m.freqs[i, size:].any())
                if not n:
                    continue
                c, p, w = np.array(terms, dtype=complex).T
                assert np.array_equal(m.coeffs[i, :n], c)
                assert np.array_equal(m.freqs[i, :n], w.real)
                assert sorted(m.freqs[i, n:size].tolist()) == sorted(w for _, w in needs)
                want = term_gram(p.real, w.real, 0.0, f.graph.edge_lengths[eid])[..., 0]
                assert np.array_equal(m.gram[i, :n, :n], want)

    @pytest.fixture(scope="class")
    def pool(self):
        return verify.audit_pool(np.random.default_rng(5), 200.0)

    def test_audit_functions_and_derivatives(self, pool):
        for i in range(60):
            _, _, sset, _, f, _ = verify._trial_sample(pool, 5, i)
            fp = f.derivative()
            self.assert_matches_loop([f], sset.finite)
            self.assert_matches_loop([f, fp], sset.finite)
            self.assert_matches_loop([fp.derivative(), fp, f], sset.finite)

    def test_torsion_function(self):
        g = build_graph(["c", "w1", "w2", "w3"],
                        [("e1", "c", "w1", 0.7), ("e2", "c", "w2", 1.1),
                         ("e3", "c", "w3", 1.4)])
        u = solve_torsion(g, ["w1", "w2"]).function
        assert max(t.power for ts in u.terms.values() for t in ts) == 2
        region = {"e1": IntervalUnion([(0.1, 0.3), (0.5, 0.65)], length=0.7),
                  "e3": IntervalUnion([(0.2, 1.3)], length=1.4)}
        self.assert_matches_loop([u, u.derivative(), u.derivative(2)], region)
        self.assert_matches_loop([u.derivative(2), u], region)

    def test_affine_term_at_zero_frequency(self):
        # a + b x beside a mode: f' has the constant b at a key f lacks
        g = interval_graph(1.3)
        f = GraphFunction(g, {"e": [PolyTrigTerm(0.4 - 0.2j, 0, 0.0), PolyTrigTerm(1.5, 1, 0.0),
                                    PolyTrigTerm(0.3j, 0, 2.5)]})
        g_only = GraphFunction(g, {"e": [PolyTrigTerm(1.5, 1, 0.0)]})
        region = {"e": IntervalUnion([(0.2, 0.5), (0.9, 1.2)], length=1.3)}
        self.assert_matches_loop([f, g_only], region)
        self.assert_matches_loop([g_only], None)

    def test_region_with_an_empty_edge(self):
        g = build_graph(["a", "b", "c"], [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.5)])
        f = GraphFunction(g, {"e1": [PolyTrigTerm(1.0, 0, 3.0), PolyTrigTerm(0.5j, 0, -3.0)],
                              "e2": [PolyTrigTerm(2.0, 1, 0.0), PolyTrigTerm(-1.0, 0, 2.0)]})
        for region in ({"e1": IntervalUnion([], length=1.0),
                        "e2": IntervalUnion([(0.2, 0.9)], length=1.5)},
                       {"e2": IntervalUnion([(0.2, 0.9)], length=1.5)},
                       {"e1": IntervalUnion([], length=1.0)}):
            self.assert_matches_loop([f, f.derivative()], region)
        m = masses([f], {"e1": IntervalUnion([], length=1.0)})[0]
        assert m.part == m.d_part == 0.0

    def test_edge_without_terms(self):
        g = build_graph(["a", "b", "c"], [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.5)])
        f = GraphFunction(g, {"e1": [PolyTrigTerm(1.0, 0, 3.0), PolyTrigTerm(0.5j, 0, -3.0)]})
        h = GraphFunction(g, {"e2": [PolyTrigTerm(1.0 - 1j, 2, 0.5)]})
        region = {"e1": IntervalUnion([(0.1, 0.4)], length=1.0),
                  "e2": IntervalUnion([(0.0, 1.5)], length=1.5)}
        self.assert_matches_loop([f, h, GraphFunction.zero(g)], region)
        zero = masses([GraphFunction.zero(g)], region)[0]
        assert (zero.whole, zero.part, zero.d_whole, zero.d_part, zero.edges) == (
            0.0, 0.0, 0.0, 0.0, ())

    def test_region_none_is_the_whole_graph(self):
        g = interval_graph(1.3)
        f = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 1, 4.0), PolyTrigTerm(0.5j, 0, -2.0)]})
        self.assert_matches_loop([f, f.derivative()], None)
        m = masses([f])[0]
        assert m.whole == m.part == norm_sq(f)
        assert m.d_whole == m.d_part
        assert_summed(m.whole, f, None)

    def test_whole_mass_is_kept(self, monkeypatch):
        import qgs.polytrig as polytrig
        g = interval_graph(1.3)
        f = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 1, 4.0), PolyTrigTerm(0.5j, 0, -2.0)]})
        first = masses([f, f.derivative()], {"e": IntervalUnion([(0.2, 0.7)], length=1.3)})[0]
        assert_summed(first.whole, f, None)
        monkeypatch.setattr(polytrig, "integrate_powexp", None)  # no kernel call below
        kept = masses([f])[0]
        assert kept.whole == kept.part == first.whole == norm_sq(f)
        assert kept.d_whole == kept.d_part == first.d_whole
        assert kept.gram is first.gram

    def test_one_kernel_call_per_masses_call(self, pool, monkeypatch):
        import qgs.polytrig as polytrig
        calls = []
        kernel = polytrig.integrate_powexp
        monkeypatch.setattr(polytrig, "integrate_powexp",
                            lambda *args: calls.append(1) or kernel(*args))
        for i in range(20):
            _, _, sset, _, f, _ = verify._trial_sample(pool, 5, i)
            for fns, region in (([f], sset.finite), ([f, f.derivative()], None),
                                ([GraphFunction.zero(f.graph)], None)):
                calls.clear()
                masses([GraphFunction._canonical(h.graph, h.terms) for h in fns], region)
                assert len(calls) == 1
        calls.clear()
        assert masses([]) == [] and not calls

    def test_gauss_fallback_case_of_criterion_7(self):
        # optimality_example(1, ((8.5) 2 pi)^2, 0.05): cos^8(2 pi x) on windows of
        # half-width 1/80 around its zeros, a mass below the closed form's floor
        ell, gamma = 1.0, 0.05
        f = GraphFunction(interval_graph(ell), {"e": list(cosine_power_terms(8, 2.0 * math.pi))})
        omega = {"e": IntervalUnion([(0.25 * (1.0 - gamma), 0.25 * (1.0 + gamma)),
                                     (0.25 * (3.0 - gamma), 0.25 * (3.0 + gamma))], length=ell)}
        self.assert_matches_loop([f, f.derivative()], omega)
        m = masses([f], omega)[0]
        assert m.part == _gauss_norm_sq(f, omega)
        assert 0.0 < m.part < 1e-18
        # f' vanishes to seventh order there too: its mass is the Gauss rule's
        assert m.d_part == _gauss_norm_sq(f.derivative(), omega)
        assert 0.0 < m.d_part < 1e-14

    def test_empty_and_mixed_graphs(self):
        assert masses([]) == []
        f = cos_fn(interval_graph(1.0), 2.0)
        for fn in (masses, gram):
            with pytest.raises(ValueError, match="different graphs"):
                fn([f, cos_fn(interval_graph(1.0), 2.0)])


def _gram_gross(fns, region):
    """|G|[i, j]: the sum of |c_s| |c_t| |I_st| over every edge, window and
    term pair s of fns[i], t of fns[j] (the per-edge Gram's basis, in abs)."""
    graph, n = fns[0].graph, len(fns)
    reg = _coerce_region(graph, region)
    out = np.zeros((n, n))
    for eid in graph.edge_ids:
        owner = [i for i, f in enumerate(fns) for _ in f.terms.get(eid, ())]
        a, b = edge_windows(fns[0], reg, eid)
        if owner and a.size:
            c, p, w = np.array([t for f in fns for t in f.terms.get(eid, ())], dtype=complex).T
            coeffs = np.zeros((n, len(owner)))
            coeffs[owner, np.arange(len(owner))] = np.abs(c)
            out += coeffs @ np.abs(term_gram(p.real, w.real, a, b)).sum(axis=-1) @ coeffs.T
    return out


def assert_gram_matches_edgewise(fns, region):
    """gram against the per-edge Gram it replaced, entry by entry, within
    twice the a-priori bound of either: gamma_N of the gross sum, N the
    longest window sum plus the longest key-pair and edge sum (every key of
    the padded blocks) plus 6 for the two complex products (sqrt(2) gamma_2
    each)."""
    got, want = gram(fns, region), edgewise_gram(fns, region)
    edges, windows, keys = len(fns[0].graph.edges), 1, 0
    for f in fns:
        keys = max([keys, *(2 * len(ts) for ts in f.terms.values())])  # f's terms and f''s keys
    if region is not None:
        windows = max([1, *(len(iv) for iv in _coerce_region(fns[0].graph, region).values())])
    n = windows + edges * (len(fns) * keys) ** 2 + 6
    bound = 2.0 * _summation_bound(n) * _gram_gross(fns, region)
    assert got.shape == want.shape == (len(fns), len(fns))
    assert np.all(np.abs(got - want) <= bound)


def _random_function(rng, graph, eids):
    return GraphFunction(graph, {
        e: [PolyTrigTerm(complex(*rng.normal(size=2)), int(rng.integers(0, 3)),
                         float(rng.choice([0.0, 1.5, -1.5, 4.0, float(rng.uniform(-20, 20))])))
            for _ in range(int(rng.integers(1, 4)))]
        for e in eids})


class TestGram:
    """gram, one kernel call over the layout of masses, against the per-edge
    Gram it replaced (tests/oracles.py) to the summation bound of
    assert_gram_matches_edgewise."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_edgewise_gram(self, seed):
        rng = np.random.default_rng(seed)
        n_edges = int(rng.integers(1, 7))
        lengths = rng.uniform(0.3, 2.5, size=n_edges)
        g = build_graph([f"v{i}" for i in range(n_edges + 1)],
                        [(f"e{i}", f"v{i}", f"v{i + 1}", lengths[i]) for i in range(n_edges)])
        eids = list(g.edge_ids)
        # each function on a random subset of the edges (possibly none)
        fns = [_random_function(rng, g, [e for e in eids if rng.random() < 0.7])
               for _ in range(int(rng.integers(1, 7)))]
        # a region on a subset of the edges, the first with 8 to 12 windows
        chosen = [e for e in eids if rng.random() < 0.6] or eids[:1]
        region = {}
        for j, e in enumerate(chosen):
            ell = g.edge_lengths[e]
            cuts = np.sort(rng.uniform(0.0, ell, size=2 * (int(rng.integers(8, 13)) if j == 0
                                                            else int(rng.integers(0, 4)))))
            region[e] = IntervalUnion(cuts.reshape(-1, 2).tolist(), length=ell)
        assert len(region[chosen[0]]) >= 8
        for reg in (None, region):
            assert_gram_matches_edgewise(fns, reg)

    def test_one_kernel_call_per_gram_call(self, monkeypatch):
        import qgs.polytrig as polytrig
        calls = []
        kernel = polytrig.integrate_powexp
        monkeypatch.setattr(polytrig, "integrate_powexp",
                            lambda *args: calls.append(1) or kernel(*args))
        rng = np.random.default_rng(3)
        g = build_graph(["a", "b", "c", "d"], [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.5),
                                               ("e3", "b", "d", 0.7)])
        fns = [_random_function(rng, g, eids) for eids in (["e1", "e2"], ["e2", "e3"], ["e3"])]
        region = {"e1": IntervalUnion([(0.1, 0.4), (0.6, 0.9)], length=1.0),
                  "e3": IntervalUnion([(0.0, 0.2)], length=0.7)}
        for fs in (fns, fns[:1], [fns[0], GraphFunction.zero(g)]):
            for reg in (None, region):
                calls.clear()
                gram(fs, reg)
                assert len(calls) == 1
                calls.clear()
                inner_product(fs[0], fs[-1], reg)
                assert len(calls) == 1
        calls.clear()
        assert gram([]).shape == (0, 0) and not calls

    def test_interval_plus_ray(self):
        # a region Gram on a graph with a ray integrates the region's windows
        # only; the whole-graph Gram refuses, as the per-edge Gram did
        g = build_graph(["a", "b"], [("e", "a", "b", 1.2), ("r", "b", None, math.inf)])
        rng = np.random.default_rng(11)
        fns = [_random_function(rng, g, eids) for eids in (["e", "r"], ["r"], ["e"])]
        region = {"e": IntervalUnion([(0.1, 0.5), (0.7, 1.1)], length=1.2)}
        assert_gram_matches_edgewise(fns, region)
        assert gram(fns[1:2], region)[0, 0] == 0.0
        for fn in (gram, edgewise_gram):
            with pytest.raises(ValueError, match="^whole-graph quadrature on a non-compact graph$"):
                fn(fns)
            with pytest.raises(ValueError, match="^quadrature region on an infinite edge$"):
                fn(fns, {"r": IntervalUnion([(0.0, 1.0)], length=1.0)})
        with pytest.raises(ValueError, match="^whole-graph quadrature on a non-compact graph$"):
            masses(fns, region)


class TestParsevalStyle:
    def test_orthonormal_eigen_family(self):
        # sqrt(2/pi) cos(k x) on [0, pi] are orthonormal
        g = interval_graph(math.pi)
        amp = math.sqrt(2.0 / math.pi)
        fns = [cos_fn(g, float(k), amp=amp) for k in range(1, 6)]
        for i, fi in enumerate(fns):
            for j, fj in enumerate(fns):
                want = 1.0 if i == j else 0.0
                assert abs(inner_product(fi, fj) - want) < 1e-8


class TestCosinePower:
    def test_jensen_lower_bound(self):
        # |cos|^(2 alpha) mass over a period is at least ell (2/pi)^(2 alpha)
        ell = 1.0
        for alpha in (2, 3, 5, 8):
            g = interval_graph(ell)
            f = GraphFunction(g, {"e": list(cosine_power_terms(alpha, 2 * math.pi / ell))})
            assert norm_sq(f) >= ell * (2.0 / math.pi) ** (2 * alpha)

    def test_expansion_pointwise(self):
        terms = cosine_power_terms(7, 3.0)
        for x in (0.1, 0.5, 1.3):
            assert abs(eval_terms(terms, x) - math.cos(3.0 * x) ** 7) < 1e-12

    def test_alpha_range_refused(self):
        for alpha in (-1, 31):
            with pytest.raises(ValueError, match="alpha outside 0..30"):
                cosine_power_terms(alpha, 3.0)


class TestSupBound:
    def test_constant(self):
        assert sup_on_disk_neighborhood([PolyTrigTerm(1.0, 0, 0.0)], 1.0, 4.0) \
            == pytest.approx(1.0, rel=1e-12)

    def test_radius_refused(self):
        with pytest.raises(ValueError, match="radius factor must be positive"):
            sup_on_disk_neighborhood([PolyTrigTerm(1.0, 0, 0.0)], 1.0, 0.0)

    def test_linear(self):
        # F(z) = z on (0,1)+D_4 peaks at z = 5
        got = sup_on_disk_neighborhood([PolyTrigTerm(1.0, 1, 0.0)], 1.0, 4.0)
        assert 5.0 <= got <= 5.05

    def test_plane_wave(self):
        k, ell = 2.0, 1.0
        got = sup_on_disk_neighborhood([PolyTrigTerm(1.0, 0, k)], ell, 4.0)
        true = math.exp(4.0 * k * ell)
        assert true <= got <= 1.01 * true

    @pytest.mark.parametrize("terms", [[PolyTrigTerm(1.0, 0, 200.0)],
                                       [PolyTrigTerm(1e300, 2, 170.0)],
                                       [PolyTrigTerm(1e300, 0, 170.0),
                                        PolyTrigTerm(-1e300, 0, -170.0)]],
                             ids=["growth", "coefficient", "opposite"])
    def test_past_the_float_range_is_inf(self, terms):
        # e^{|w| R} or the sampled values leave the float range: the bound is
        # inf, never nan (max(1, nan) would read as 1), and numpy stays quiet
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = sup_on_disk_neighborhood(terms, 1.0, 4.0)
        assert got == math.inf and caught == []
