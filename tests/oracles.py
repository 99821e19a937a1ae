"""Independent oracles used by the test suite.

Everything here deliberately avoids the closed-form paths of the package:
adaptive Simpson quadrature for integrals, dense point clouds, a verbatim copy
of the old max-min LPs per edge pair and a rational-arithmetic edge-pair
maximum for the graph diameter, the union-find components and edge-end degrees
the graph invariants once came from, a fine determinant-style scan for
eigenvalues and a second-order finite-difference solve for the torsion
function.  The sampling optimisers keep their plain loop versions here
(bisection over a loop feasibility DP) as the reference the vectorised kernels
must reproduce decision for decision, and the quadrature kernel keeps its
per-window loop version with a data-dependent series stop as the reference for
the batched one.  The per-function mass loop that `qgs.polytrig.masses`
replaced is kept as the reference its masses must match to a summation bound,
and so are the per-edge masses and edge classification that read a dict of
per-edge Grams (the flags must be equal) and the ray gaps read from three
unrolled periods, the per-root eigenfunction harvest as the reference for the
one-pass harvest of `qgs.spectral.eigenvalues_up_to`, the incidence-system
torsion solve as the reference for the secular one of
`qgs.spectral.solve_torsion`, the root search with one eig per wavenumber and
midpoint splits as the reference for the stacked one, the graph
transformations only the tests use (flux removal, subdivision with its
coordinate map) live here too, and so do the hand-written field-by-field JSON
encoders of the report classes, the reference for the one encoder of
`qgs.report`.  The n × m clip-matrix sum over every interval is the reference
for the sorted-search prefix measures of `qgs.polytrig.IntervalUnion`, and
exact rationals bound both.  The hand-written Horner loop is the reference for
the numpy `polyval` that `qgs.verify.kovrijkine_check` evaluates with.  The
per-edge Gram that `qgs.polytrig.gram` replaced, with its window picker and
term Gram, is the reference its one-call Gram must match to a summation bound.
Chebyshev-Lobatto collocation of the magnetic Laplacian, one generalized
eigenproblem with the vertex conditions as rows, is the completeness oracle
of the eigenphase solver under every boundary subspace and flux.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.linalg
import scipy.sparse.linalg
from scipy.optimize import linprog

from qgs.graphs import (BoundarySubspace, Edge, GraphMetrics, MetricGraph, _edge_pair_max,
                        _vertex_distances, gauge_transform)
from qgs.polytrig import (_RESOLVED_REL, GraphFunction, IntervalUnion, PolyTrigTerm,
                          _coerce_region, _gauss_norm_sq, integrate_powexp, masses)
from qgs.spectral import _SNAP, _TWO_PI, CLUSTER_GAP, EigenPair, TorsionSolution, _Eigenphases
from qgs.verify import M_MAX, EdgeClassification

# the affine k = 0 rule, the reference for the solver's zero modes: sigma_min
# acceptance of the root on the row-scaled affine secular matrix, and the
# singular-value threshold of its multiplicity
TOL_ACCEPT = 1e-8
TOL_NULL = 1e-6


def norm_sq(f: GraphFunction, region=None) -> float:
    """f's mass on the region (the whole graph without one), read from
    masses."""
    return masses([f], region)[0].part


def _simpson(fun, a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(fun, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = fun(lm), fun(rm)
    left = _simpson(fun, a, m, fa, flm, fm)
    right = _simpson(fun, m, b, fm, frm, fb)
    if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive(fun, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _adaptive(fun, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def adaptive_simpson(fun, a, b, tol=1e-12, depth=48):
    """Adaptive Simpson quadrature for a complex-valued integrand."""
    if b <= a:
        return 0.0j
    fa, fb = fun(a), fun(b)
    fm = fun(0.5 * (a + b))
    whole = _simpson(fun, a, b, fa, fm, fb)
    return _adaptive(fun, a, b, fa, fm, fb, whole, tol, depth)


def eval_terms(terms, x):
    """Evaluate a list of (coeff, power, freq) terms pointwise."""
    return sum(c * x ** p * cmath.exp(1j * w * x) for c, p, w in terms)


def integral_pairs_simpson(terms_f, terms_g, a, b, tol=1e-12):
    """∫_a^b f conj(g) by adaptive Simpson on the pointwise product."""
    return adaptive_simpson(
        lambda x: eval_terms(terms_f, x) * eval_terms(terms_g, x).conjugate(),
        a, b, tol=tol)


def diameter_point_cloud(g, pts_per_edge=200):
    """Diameter estimate from shortest paths on a dense point graph."""
    index = {}
    rows, cols, vals = [], [], []

    def node(key):
        if key not in index:
            index[key] = len(index)
        return index[key]

    def link(i, j, w):
        rows.append(i)
        cols.append(j)
        vals.append(w)
        rows.append(j)
        cols.append(i)
        vals.append(w)

    for e in g.edges:
        n = pts_per_edge
        step = e.length / n
        prev = node(("v", e.source))
        for i in range(1, n):
            cur = node(("p", e.id, i))
            link(prev, cur, step)
            prev = cur
        link(prev, node(("v", e.target)), step)
    size = len(index)
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
    dist = scipy.sparse.csgraph.shortest_path(mat, method="D", directed=False)
    return float(dist.max())


# The HiGHS formulation that the exact enumeration in qgs.graphs replaced,
# kept verbatim (only renamed) as its reference.
def lp_edge_pair_max(e, f, dv):
    """Max over x in e, y in f of the point distance, via tiny max-min LPs."""
    le, lf = e.length, f.length
    routes = [
        (1.0, 1.0, dv[e.source][f.source]),
        (1.0, -1.0, dv[e.source][f.target] + lf),
        (-1.0, 1.0, dv[e.target][f.source] + le),
        (-1.0, -1.0, dv[e.target][f.target] + le + lf),
    ]
    same = e.id == f.id
    best = 0.0
    triangles = ((1.0, -1.0), (-1.0, 1.0)) if same else (None,)
    for tri in triangles:
        pieces = list(routes)
        if same:
            # direct route |s - t| restricted to the triangle where it is affine
            pieces.append((tri[0], tri[1], 0.0))
        # maximize z s.t. z <= a*s + b*t + c  ->  minimize -z
        a_ub = [[-a, -b, 1.0] for a, b, _ in pieces]
        b_ub = [c for _, _, c in pieces]
        if same:
            a_ub.append([-tri[0], -tri[1], 0.0])  # keep s-t (or t-s) nonnegative
            b_ub.append(0.0)
        res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b_ub,
                      bounds=[(0.0, le), (0.0, lf), (0.0, None)],
                      method="highs")
        if not res.success:
            raise RuntimeError(f"diameter LP failed on edges {e.id}, {f.id}: {res.message}")
        best = max(best, -res.fun)
    return best


def exact_edge_pair_max(g, e, f):
    """The same maximum in rational arithmetic: exact vertex distances by
    Floyd-Warshall, then every meeting point of two lines (sides, s = t and
    the lines where two distance pieces are equal) that lies in the
    rectangle, solved by Cramer's rule without rounding."""
    dist = {u: {v: Fraction(0) if u == v else None for v in g.vertices}
            for u in g.vertices}
    for edge in g.edges:
        w = Fraction(edge.length)
        for a, b in ((edge.source, edge.target), (edge.target, edge.source)):
            if dist[a][b] is None or w < dist[a][b]:
                dist[a][b] = w
    for k in g.vertices:
        for i in g.vertices:
            for j in g.vertices:
                if dist[i][k] is not None and dist[k][j] is not None:
                    via = dist[i][k] + dist[k][j]
                    if dist[i][j] is None or via < dist[i][j]:
                        dist[i][j] = via
    le, lf = Fraction(e.length), Fraction(f.length)
    routes = [(1, 1, dist[e.source][f.source]),
              (1, -1, dist[e.source][f.target] + lf),
              (-1, 1, dist[e.target][f.source] + le),
              (-1, -1, dist[e.target][f.target] + le + lf)]
    same = e.id == f.id
    pieces = routes + ([(1, -1, Fraction(0)), (-1, 1, Fraction(0))] if same else [])
    lines = [(1, 0, Fraction(0)), (1, 0, le), (0, 1, Fraction(0)), (0, 1, lf)]
    lines += [(p[0] - q[0], p[1] - q[1], q[2] - p[2])
              for i, p in enumerate(pieces) for q in pieces[i + 1:]
              if (p[0], p[1]) != (q[0], q[1])]
    best = Fraction(0)
    for i, (a1, b1, c1) in enumerate(lines):
        for a2, b2, c2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            s = (c1 * b2 - c2 * b1) / det
            t = (a1 * c2 - a2 * c1) / det
            if 0 <= s <= le and 0 <= t <= lf:
                d = min(a * s + b * t + c for a, b, c in routes)
                best = max(best, min(d, abs(s - t)) if same else d)
    return best


# The graph invariants as qgs.graphs computed them before `metrics` read them
# all from its distance table: the union-find components and the edge-end
# degree of MetricGraph, kept verbatim (only renamed), and the metrics that
# read them.
def union_find_components(self) -> list[set[str]]:
    parent = {v: v for v in self.vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in self.edges:
        if e.target is not None:
            ra, rb = find(e.source), find(e.target)
            if ra != rb:
                parent[ra] = rb
    comps: dict[str, set[str]] = {}
    for v in self.vertices:
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def edge_end_degree(self, v: str) -> int:
    d = 0
    for e in self.edges:
        if e.source == v:
            d += 1
        if e.target == v:
            d += 1
    return d


def union_find_metrics(g: MetricGraph) -> GraphMetrics:
    components = len(union_find_components(g))
    connected = components <= 1
    diam = None
    if connected and g.is_compact and g.edges:
        dv = _vertex_distances(g)
        diam = max((_edge_pair_max(e, f, dv) for i, e in enumerate(g.edges) for f in g.edges[i:]),
                   default=0.0)
    return GraphMetrics(
        total_length=sum(e.length for e in g.edges),
        betti=len(g.edges) - (len(g.vertices) + len(g.external_ids)) + components,
        diameter=diam,
        degree1_count=sum(1 for v in g.vertices if edge_end_degree(g, v) == 1),
        connected=connected,
    )


# The hand-written Horner loop that kovrijkine_check evaluated phi with before
# numpy's polyval, kept verbatim (only renamed) as its reference.
def horner_eval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z, dtype=complex)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def sigma_min_scan(matrix_fun, k_lo, k_hi, step, accept=1e-7):
    """Brute-force scan: locate minima of the normalised smallest singular
    value of matrix_fun(k) on a uniform grid, refine by ternary search."""

    def sig(k):
        m = matrix_fun(k)
        norms = np.linalg.norm(m, axis=1)
        norms[norms < 1e-12 * max(norms.max(), 1.0)] = 1.0
        return float(np.linalg.svd(m / norms[:, None], compute_uv=False)[-1])

    ks = np.arange(k_lo, k_hi + step, step)
    vals = np.array([sig(k) for k in ks])
    roots = []
    for i in range(1, len(ks) - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1] and vals[i] < 1e-2:
            lo, hi = ks[i - 1], ks[i + 1]
            for _ in range(200):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if sig(m1) <= sig(m2):
                    hi = m2
                else:
                    lo = m1
                if hi - lo < 1e-13:
                    break
            k = 0.5 * (lo + hi)
            if sig(k) < accept:
                roots.append(k)
    return roots


def det_scan_roots(g, y, k_lo, k_hi, step, chunk=100_000):
    """Independent fine-grid determinant scan for secular roots.

    Builds the boundary-condition matrix for every k on the grid in batches,
    locates dips of |det| and refines each by ternary search.  Returns the
    refined root positions (no multiplicities)."""
    ne = len(g.edges)
    nb = g.n_boundary
    col_a = {e.id: i for i, e in enumerate(g.edges)}
    perp = y.perp()

    def batch(ks):
        n = ks.size
        b_plus = np.zeros((n, nb, 2 * ne), dtype=complex)
        b_minus = np.zeros((n, nb, 2 * ne), dtype=complex)
        for row, (eid, end) in enumerate(g.boundary_coords):
            ia = col_a[eid]
            ib = ia + ne
            ell = g.edge_lengths[eid]
            if end == 0:
                b_plus[:, row, ia] = 1.0
                b_minus[:, row, ib] = -1.0j * ks
            else:
                c, s = np.cos(ks * ell), np.sin(ks * ell)
                b_plus[:, row, ia] = c
                b_plus[:, row, ib] = s
                b_minus[:, row, ia] = -1.0j * ks * s
                b_minus[:, row, ib] = 1.0j * ks * c
        rows = []
        if perp.dim:
            rows.append(np.einsum("ij,njk->nik", perp.basis.conj(), b_plus))
        if y.dim:
            rows.append(np.einsum("ij,njk->nik", y.basis.conj(), b_minus))
        mats = np.concatenate(rows, axis=1)
        # row normalisation makes |det| the product of scale-free singulars
        norms = np.linalg.norm(mats, axis=2)
        mats = mats / np.maximum(norms, 1.0)[:, :, None]
        return np.abs(np.linalg.det(mats))

    ks = np.arange(k_lo, k_hi + step, step)
    dets = np.empty(ks.size)
    for lo in range(0, ks.size, chunk):
        dets[lo:lo + chunk] = batch(ks[lo:lo + chunk])

    def det_at(k):
        return batch(np.array([k]))[0]

    roots = []
    for i in range(1, ks.size - 1):
        if dets[i] <= dets[i - 1] and dets[i] <= dets[i + 1] \
                and dets[i] < 1e-2:
            lo, hi = ks[i - 1], ks[i + 1]
            for _ in range(200):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if det_at(m1) <= det_at(m2):
                    hi = m2
                else:
                    lo = m1
                if hi - lo < 1e-12:
                    break
            k_root = 0.5 * (lo + hi)
            if det_at(k_root) < 1e-10:
                if not roots or k_root - roots[-1] > 1e-7:
                    roots.append(k_root)
    return roots


def torsion_fd(g, dirichlet, h=1e-4):
    """Finite-difference torsion solve: -u'' = 1 edgewise, u = 0 on the
    Dirichlet set, continuity and flux balance elsewhere.  Returns the
    total integral of u (composite trapezoid)."""
    # unknowns: one value per interior grid point per edge, one per free vertex
    n_per = {e.id: max(2, int(round(e.length / h))) for e in g.edges}
    index = {}
    for v in g.vertices:
        if v not in dirichlet:
            index[("v", v)] = len(index)
    for e in g.edges:
        for i in range(1, n_per[e.id]):
            index[("p", e.id, i)] = len(index)
    size = len(index)
    A = scipy.sparse.lil_matrix((size, size))
    rhs = np.zeros(size)

    def vid(v):
        return None if v in dirichlet else index[("v", v)]

    for e in g.edges:
        n = n_per[e.id]
        dx = e.length / n
        ends = [vid(e.source), vid(e.target)]
        for i in range(1, n):
            row = index[("p", e.id, i)]
            A[row, row] = 2.0 / dx ** 2
            rhs[row] = 1.0
            left = ends[0] if i == 1 else index[("p", e.id, i - 1)]
            right = ends[1] if i == n - 1 else index[("p", e.id, i + 1)]
            if left is not None:
                A[row, left] = -1.0 / dx ** 2
            if right is not None:
                A[row, right] = -1.0 / dx ** 2
    # Kirchhoff at free vertices: one-sided second-order derivative balance
    for v in g.vertices:
        if v in dirichlet:
            continue
        row = index[("v", v)]
        for e in g.edges:
            n = n_per[e.id]
            dx = e.length / n
            for end, first in ((e.source, 1), (e.target, n - 1)):
                if end != v:
                    continue
                # u'(v) toward the edge ≈ (u1 - uv)/dx + dx/2 (from -u'' = 1)
                A[row, row] += 1.0 / dx
                A[row, index[("p", e.id, first)]] -= 1.0 / dx
                rhs[row] += dx / 2.0
    u = scipy.sparse.linalg.spsolve(A.tocsr(), rhs)
    total = 0.0
    for e in g.edges:
        n = n_per[e.id]
        dx = e.length / n
        vals = np.empty(n + 1)
        vals[0] = 0.0 if e.source in dirichlet else u[index[("v", e.source)]]
        vals[n] = 0.0 if e.target in dirichlet else u[index[("v", e.target)]]
        for i in range(1, n):
            vals[i] = u[index[("p", e.id, i)]]
        total += float(np.trapezoid(vals, dx=dx))
    return total


# ---------------------------------------------------------------------------
# ray gaps by unrolling: a verbatim copy of PeriodicTail.unroll (renamed, a
# function of the tail) and of the ray branch of gap_analysis, which read the
# gaps of the head plus three periods as one finite union; the reference the
# direct head/body/wrap gaps must match to a few ulps where the unrolled
# span is a float whose pieces do not round away


def unroll(tail, periods: int) -> IntervalUnion:
    """Head plus the first few periods, as a finite union."""
    w = tail.head_span
    parts = list(tail.head.intervals)
    for j in range(periods):
        parts.extend((w + j * tail.period + a, w + j * tail.period + b)
                     for a, b in tail.body.intervals)
    return IntervalUnion(parts, length=w + periods * tail.period)


def unrolled_gaps(tail, periods: int = 3) -> tuple[float, float]:
    """(left gap, largest interior gap) of the unrolled tail."""
    left, interior, _ = unroll(tail, periods).gaps()
    return left, max(interior, default=0.0)


# ---------------------------------------------------------------------------
# prefix measures: the clip matrix and exact rationals


def clip_prefix_measures(omega: IntervalUnion, points) -> np.ndarray:
    """|omega ∩ [0, t]| for each t as the sum of every interval's clipped
    length: an n × m matrix summed along its rows (numpy's pairwise sum), the
    reference `IntervalUnion.prefix_measures` replaced."""
    pts = np.asarray(points, dtype=float)
    if not omega.intervals:
        return np.zeros_like(pts)
    a = np.array([iv[0] for iv in omega.intervals])
    b = np.array([iv[1] for iv in omega.intervals])
    return (np.clip(pts[:, None], a[None, :], b[None, :]) - a[None, :]).sum(axis=1)


def exact_prefix_measures(omega: IntervalUnion, points) -> list[Fraction]:
    """|omega ∩ [0, t]| for each t, exactly, in rationals."""
    ivs = [(Fraction(a), Fraction(b)) for a, b in omega.intervals]
    out = []
    for t in map(Fraction, points):
        out.append(sum((min(t, b) - a for a, b in ivs if t > a), Fraction(0)))
    return out


# ---------------------------------------------------------------------------
# sampling optimisers: the loop versions

_EQ_SLACK = 1e-12
_GAMMA_TOL = 1e-9
_RHO_TOL_REL = 1e-9


def loop_candidates(omega, ell, rho, grid_n):
    pts = {0.0, ell}
    pts.update(x for iv in omega.intervals for x in iv)
    for x in list(pts):
        for y in (x - rho, x + rho):
            if 0.0 < y < ell:
                pts.add(y)
    pts.update(ell * i / grid_n for i in range(1, grid_n))
    return np.array(sorted(p for p in pts if -1e-15 <= p <= ell * (1 + 1e-15)))


def loop_cover_dp(ts, pref, rho, gamma, ell):
    """Earliest-predecessor cover of [0, ell] by candidate windows of length
    <= rho and density >= gamma, or None."""
    n = ts.size
    slack_w = rho + _EQ_SLACK * max(1.0, ell)
    slack_m = _EQ_SLACK * max(1.0, ell)
    reach = np.zeros(n, dtype=bool)
    parent = np.full(n, -1, dtype=int)
    reach[0] = True
    lo = 0
    for i in range(1, n):
        while ts[i] - ts[lo] > slack_w:
            lo += 1
        js = np.arange(lo, i)
        if js.size == 0:
            continue
        ok = reach[js] & (pref[i] - pref[js] + slack_m >= gamma * (ts[i] - ts[js]))
        hits = np.flatnonzero(ok)
        if hits.size:
            parent[i] = js[hits[0]]
            reach[i] = True
    if not reach[n - 1]:
        return None
    bps = [float(ts[n - 1])]
    i = n - 1
    while parent[i] >= 0:
        i = parent[i]
        bps.append(float(ts[i]))
    return bps[::-1]


def _loop_achieved(omega, bps):
    dens = [omega.measure_in(a, b) / (b - a) for a, b in zip(bps, bps[1:])]
    widths = [b - a for a, b in zip(bps, bps[1:])]
    return min(dens), max(widths)


def _gap_refusal(omega, rho):
    left, interior, right = omega.gaps()
    worst = max([left, right] + interior)
    return {"gamma": 0.0, "breakpoints": None, "feasible": False,
            "gap_witness": f"gap of length {worst} cannot be covered at rho={rho}"}


def bottleneck_gamma(ts, pref, rho, ell):
    """Max over covers with breakpoints in ts of the least window density, by
    the backward max-min recursion best_from(i) = max_j min(dens(i, j),
    best_from(j)) with best_from(last) = 1 (0 when no cover reaches ell)."""
    n = len(ts)
    best_from = [0.0] * n
    best_from[-1] = 1.0
    for i in range(n - 2, -1, -1):
        out = 0.0
        for j in range(i + 1, n):
            w = ts[j] - ts[i]
            if w > rho + _EQ_SLACK * max(1.0, ell):
                break
            out = max(out, min((pref[j] - pref[i]) / w, best_from[j]))
        best_from[i] = out
    return best_from[0]


def bisection_optimal_gamma(omega, ell, rho, grid_n=200):
    """Best gamma by bisection to 1e-9 over the loop DP, as a dict of the
    fields of ``qgs.sampling.GammaResult``."""
    if omega.measure <= 0.0:
        return {"gamma": 0.0, "breakpoints": None, "feasible": False,
                "gap_witness": "empty set"}
    ts = loop_candidates(omega, ell, rho, grid_n)
    pref = omega.prefix_measures(ts)
    if loop_cover_dp(ts, pref, rho, 1e-12, ell) is None:
        return _gap_refusal(omega, rho)
    lo, hi = 0.0, 1.0
    best = None
    while hi - lo > _GAMMA_TOL:
        mid = 0.5 * (lo + hi)
        bps = loop_cover_dp(ts, pref, rho, mid, ell)
        if bps is None:
            hi = mid
        else:
            lo = mid
            best = bps
    if best is None:
        best = loop_cover_dp(ts, pref, rho, lo, ell)
    gamma_star, _ = _loop_achieved(omega, best)
    if gamma_star <= 10.0 * _EQ_SLACK:
        return _gap_refusal(omega, rho)
    return {"gamma": gamma_star, "breakpoints": tuple(best), "feasible": True,
            "gap_witness": None}


def bisection_optimal_rho(omega, ell, gamma, grid_n=200):
    """Smallest rho by bisection over the loop DP, as a dict of the fields of
    ``qgs.sampling.RhoResult``."""
    global_density = omega.measure / ell if ell > 0 else 0.0
    if global_density + _EQ_SLACK < gamma:
        return {"rho": math.inf, "breakpoints": None, "feasible": False,
                "global_density": global_density}
    lo, hi = 0.0, ell
    best = [0.0, ell]
    while hi - lo > _RHO_TOL_REL * ell:
        mid = 0.5 * (lo + hi)
        ts = loop_candidates(omega, ell, mid, grid_n)
        bps = loop_cover_dp(ts, omega.prefix_measures(ts), mid, gamma, ell)
        if bps is None:
            lo = mid
        else:
            hi = mid
            best = bps
    _, rho_star = _loop_achieved(omega, best)
    return {"rho": rho_star, "breakpoints": tuple(best), "feasible": True,
            "global_density": global_density}


# ---------------------------------------------------------------------------
# the loop quadrature kernel: a verbatim copy of the per-window closed form with
# a data-dependent stopping test in its series branch, kept as the reference
# the batched kernel in qgs.polytrig must reproduce

_SERIES_SWITCH = 0.5
_BINOM = np.array([[math.comb(p, q) if q <= p else 0 for q in range(5)] for p in range(5)],
                  dtype=float)


def _loop_exp_poly_base(freqs: np.ndarray, d: float, qmax: int) -> np.ndarray:
    """I[i, q] = ∫_{-d}^{d} y**q exp(1j*freqs[i]*y) dy for q = 0..qmax.

    Two branches: the antiderivative form away from w*d = 0 and a rapidly
    converging parity series near it, which avoids the 1/w**(q+1)
    cancellation blow-up of the closed form.
    """
    n = freqs.size
    out = np.zeros((n, qmax + 1), dtype=complex)
    s = freqs * d
    small = np.abs(s) <= _SERIES_SWITCH

    big = ~small
    if big.any():
        w = freqs[big]
        iw = 1j * w
        epd = np.exp(iw * d)
        emd = np.exp(-iw * d)
        for q in range(qmax + 1):
            acc_p = np.zeros(w.size, dtype=complex)
            acc_m = np.zeros(w.size, dtype=complex)
            for j in range(q + 1):
                coef = (-1.0) ** j * math.perm(q, j)
                ipow = iw ** (j + 1)
                acc_p += coef * d ** (q - j) / ipow
                acc_m += coef * (-d) ** (q - j) / ipow
            out[big, q] = epd * acc_p - emd * acc_m

    if small.any():
        w = freqs[small]
        iw2d2 = (1j * w) ** 2 * d * d
        for q in range(qmax + 1):
            n0 = q % 2  # only n with n + q even contribute
            term = (2.0 * (1j * w) ** n0 * d ** (n0 + q + 1)
                    / (math.factorial(n0) * (n0 + q + 1)))
            acc = term.copy()
            nn = n0
            for _ in range(40):
                term = term * iw2d2 * (nn + q + 1) / ((nn + 1) * (nn + 2) * (nn + q + 3))
                acc += term
                nn += 2
                if np.max(np.abs(term)) <= 1e-18 * max(np.max(np.abs(acc)), 1e-300):
                    break
            out[small, q] = acc
    return out


def loop_integrate_powexp(powers: np.ndarray, freqs: np.ndarray, a: float, b: float) -> np.ndarray:
    """∫_a^b x**p exp(1j*w*x) dx, elementwise over the vectors p, w."""
    powers = np.asarray(powers, dtype=int)
    freqs = np.asarray(freqs, dtype=float)
    if b <= a:
        return np.zeros(powers.size, dtype=complex)
    m = 0.5 * (a + b)
    d = 0.5 * (b - a)
    qmax = int(powers.max(initial=0))
    base = _loop_exp_poly_base(freqs, d, qmax)
    res = np.zeros(powers.size, dtype=complex)
    for q in range(qmax + 1):
        mask = powers >= q
        if not mask.any():
            continue
        p = powers[mask]
        res[mask] += _BINOM[p, q] * m ** (p - q) * base[mask, q]
    return np.exp(1j * freqs * m) * res


# ---------------------------------------------------------------------------
# the per-edge Gram: verbatim copies of qgs.polytrig's window picker, term Gram
# and Gram (one kernel call per edge over an "owner" basis of every function's
# terms there) before the Gram became one kernel call over the layout of
# qgs.polytrig.masses, renamed; _coerce_region now takes the graph.  The
# reference gram must reproduce to a summation bound, and the term integrals
# the package keeps in its Mass must equal exactly


def edge_windows(f: GraphFunction, reg, eid: str) -> tuple[np.ndarray, np.ndarray]:
    """Left and right ends of the windows of edge eid: the whole edge without
    a region."""
    if reg is None:
        ell = f.graph.edge_lengths[eid]
        if not math.isfinite(ell):
            raise ValueError("whole-graph quadrature on a non-compact graph")
        return np.array([0.0]), np.array([ell])
    iv = reg.get(eid)
    return (iv.starts, iv.ends) if iv is not None else (np.empty(0), np.empty(0))


def term_gram(powers, freqs, a, b) -> np.ndarray:
    """B[s, t, k] = ∫ x**(p_s + p_t) exp(1j*(w_s - w_t)*x) dx over the window
    [a_k, b_k] (a, b scalars or arrays of ends): one kernel call."""
    p = np.asarray(powers, dtype=int)
    w = np.asarray(freqs, dtype=float)
    return integrate_powexp(np.add.outer(p, p)[..., None], np.subtract.outer(w, w)[..., None],
                            np.atleast_1d(a), np.atleast_1d(b))


def edgewise_gram(fns: Sequence[GraphFunction], region=None) -> np.ndarray:
    """G[i, j] = <fns[i], fns[j]> = ∫ fns[i] conj(fns[j]) over the region (the
    whole graph without one).  Per edge, the terms of all the functions are
    one basis whose term_gram B over every window is one kernel call, and G is
    the sum over edges of C B C^H, C the coefficients on that basis:
    Hermitian up to rounding."""
    n = len(fns)
    out = np.zeros((n, n), dtype=complex)
    if not n:
        return out
    graph = fns[0].graph
    if any(f.graph is not graph for f in fns):
        raise ValueError("functions live on different graphs")
    reg = _coerce_region(graph, region)
    for eid in graph.edge_ids:
        owner = [i for i, f in enumerate(fns) for _ in f.terms.get(eid, ())]
        a, b = edge_windows(fns[0], reg, eid)
        if not (owner and a.size):
            continue
        c, p, w = np.array([t for f in fns for t in f.terms.get(eid, ())], dtype=complex).T
        coeffs = np.zeros((n, len(owner)), dtype=complex)
        coeffs[owner, np.arange(len(owner))] = c
        out += coeffs @ term_gram(p.real, w.real, a, b).sum(axis=-1) @ coeffs.conj().T
    return out


# ---------------------------------------------------------------------------
# the per-function mass loop: a verbatim copy of the norm_sq that integrated
# each function and region on its own, kept as the reference qgs.polytrig.masses
# must reproduce to the summation bounds of tests/test_polytrig.py


def loop_norm_sq_gross(f: GraphFunction, region) -> tuple[complex, float]:
    """∫ |f|^2 over the region, as a complex number, and its gross scale: the
    sum of |c conj(c') I| over every term pair and window."""
    reg = _coerce_region(f.graph, region)
    total, gross = 0j, 0.0
    for eid, terms in f.terms.items():
        a, b = edge_windows(f, reg, eid)
        if a.size:
            c, p, w = np.array(terms, dtype=complex).T
            vals = np.multiply.outer(c, c.conj())[..., None] * term_gram(p.real, w.real, a, b)
            total += vals.sum()
            gross += float(np.abs(vals).sum())
    return complex(total), gross


def loop_norm_sq(f: GraphFunction, region=None) -> float:
    """Squared L2 norm over the region; asserts the imaginary residue is noise.

    The closed form cancels down to about 1e-16 of its gross scale, so a norm
    below _RESOLVED_REL of that scale (f tiny on the region next to its
    coefficients) is integrated again by _gauss_norm_sq, which is positive
    and accurate relative to |f| itself."""
    val, gross = loop_norm_sq_gross(f, region)
    re, im = val.real, val.imag
    if abs(im) > 1e-10 * max(re, 0.0) + 1e-12 * gross + 1e-300:
        raise AssertionError(f"norm_sq lost hermiticity: {val!r}")
    if re <= _RESOLVED_REL * gross:
        return _gauss_norm_sq(f, _coerce_region(f.graph, region))
    return re


# ---------------------------------------------------------------------------
# the per-edge masses and edge classification: verbatim copies of
# qgs.polytrig.masses (one kernel call per edge over a union basis of the
# functions' terms, f' a function of its own) and qgs.verify.classify_edges
# (four LAPACK calls per edge on a dict of per-edge Grams) before both read
# one (functions, edges, keys, keys, windows) array, renamed.  The Mass they
# returned is EdgewiseMass here, and a function does not keep it (the
# package's GraphFunction keeps the new Mass); the kept Mass was the same
# floats, so no result moves.  The reference the one-call route must
# reproduce to a summation bound, and its classification flags exactly.


class EdgewiseMass(NamedTuple):
    """||f||^2 on the whole graph, ||f||^2 on the region (the whole graph
    again without one) and, per edge, the whole-edge term Gram of f's terms."""

    whole: float
    part: float
    edge_grams: dict[str, np.ndarray]


def edgewise_masses(fns: Sequence[GraphFunction], region=None) -> list[EdgewiseMass]:
    """The Mass of each function in fns, with one kernel call per edge over
    [0, l] and the region's windows: the term pairs of each distinct (power,
    freq) basis on the edge, concatenated.  Each function's sums run over a
    contiguous copy of its own block, so a mass is the same float whatever
    else is in fns."""
    if not fns:
        return []
    graph = fns[0].graph
    if any(f.graph is not graph for f in fns):
        raise ValueError("functions live on different graphs")
    reg = _coerce_region(graph, region)
    blocks: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}  # (eid, basis) -> whole, part
    for eid in graph.edge_ids:
        bases = list(dict.fromkeys(tuple(t[1:] for t in f.terms[eid])
                                   for f in fns if eid in f.terms))
        if not bases:
            continue
        a, b = edge_windows(fns[0], None, eid)
        if reg is not None:
            ra, rb = edge_windows(fns[0], reg, eid)
            a, b = np.concatenate([a, ra]), np.concatenate([b, rb])
        pw = [np.array(basis).T for basis in bases]
        powers = np.concatenate([np.add.outer(p, p).ravel() for p, _ in pw])
        freqs = np.concatenate([np.subtract.outer(w, w).ravel() for _, w in pw])
        vals = integrate_powexp(powers[:, None], freqs[:, None], a, b)
        start = 0
        for basis in bases:
            n = len(basis)
            block = vals[start:start + n * n].reshape(n, n, a.size)
            blocks[eid, basis] = block[..., :1].copy(), block[..., 1:].copy()
            start += n * n
    out = []
    for f in fns:
        per_edge = {eid: (np.array([t.coeff for t in ts]), *blocks[eid, tuple(t[1:] for t in ts)])
                    for eid, ts in f.terms.items()}
        whole = edgewise_settle(f, None, [(c, ints) for c, ints, _ in per_edge.values()])
        part = whole if reg is None else edgewise_settle(
            f, reg, [(c, ints) for c, _, ints in per_edge.values()])
        grams = {eid: ints[..., 0] for eid, (_, ints, _) in per_edge.items()}
        out.append(EdgewiseMass(whole, part, grams))
    return out


def edgewise_settle(f: GraphFunction, reg, blocks) -> float:
    """∫ |f|^2 from the coefficients c and term integrals I of each edge: the
    sum of c conj(c') I over every term pair and window, checked and, if
    unresolved, integrated again (see masses)."""
    total, gross = 0j, 0.0
    for c, ints in blocks:
        if ints.shape[-1]:
            vals = np.multiply.outer(c, c.conj())[..., None] * ints
            total += vals.sum()
            gross += float(np.abs(vals).sum())
    val = complex(total)
    re, im = val.real, val.imag
    if abs(im) > 1e-10 * max(re, 0.0) + 1e-12 * gross + 1e-300:
        raise AssertionError(f"norm_sq lost hermiticity: {val!r}")
    if re <= _RESOLVED_REL * gross:
        return _gauss_norm_sq(f, reg)
    return re


def edgewise_max_generalized_eig(a: np.ndarray, b: np.ndarray) -> float:
    """Largest mu with a x = mu b x, for a Hermitian and b Hermitian positive
    definite, by Cholesky reduction b = L L^H to L^-1 a L^-H.  Raises
    np.linalg.LinAlgError when b is not positive definite."""
    low = np.linalg.cholesky(b)
    reduced = np.linalg.solve(low, np.linalg.solve(low, a).conj().T)
    return float(np.linalg.eigvalsh(reduced)[-1])


def edgewise_classify_edges(f: GraphFunction, lam: float) -> EdgeClassification:
    """Flag each edge good when ||f_e^(m)||^2 <= 2^(m+1) lam^m ||f_e||^2 for
    m = 1..M_MAX, for f in the spectral subspace up to energy lam; good edges
    must then carry more than half the mass.

    The Bernstein estimate ||f^(m)||^2 <= lam^m ||f||^2 is asserted for f
    itself first.  For pure exponential edge data the per-order norms come
    from one Gram matrix per edge; if additionally lam > 0 and the one-step
    derivative gain on every edge is at most 2*lam, the classification
    extends to every order m (no truncation caveat).
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if f.is_zero():
        raise ValueError("cannot classify the zero function")
    g = f.graph
    mass = edgewise_masses([f])[0]
    total = mass.whole

    orders = np.arange(M_MAX + 1)
    caps = np.array([float(lam) ** m for m in range(M_MAX + 1)])  # C(m) = lam^m
    per_edge: dict[str, np.ndarray] = {}
    gains: list[float] = []
    for eid, terms in f.terms.items():
        if all(t.power == 0 for t in terms):
            coeff, _, freqs = np.array(terms, dtype=complex).T
            # the modes' Gram, transposed: x^H (G^T) x is the norm
            gram_t = mass.edge_grams[eid].T
            iw = 1j * freqs.real
            derivs = coeff * iw ** orders[:, None]  # row m: the modes of f_e^(m)
            per_edge[eid] = np.real(np.sum((derivs.conj() @ gram_t) * derivs, axis=1))
            # largest one-step derivative gain on the span of these modes
            d = np.diag(iw)
            try:
                gains.append(edgewise_max_generalized_eig(d.conj().T @ gram_t @ d, gram_t))
            except np.linalg.LinAlgError:
                gains.append(math.inf)
        else:
            ds = [GraphFunction(g, {eid: list(terms)})]
            for _ in orders[1:]:  # order by order: one derivative step each
                ds.append(ds[-1].derivative())
            per_edge[eid] = np.array([d.whole for d in edgewise_masses(ds)])
            gains.append(0.0 if all(t.freq == 0.0 for t in terms) else math.inf)

    # the function itself must obey the estimate before edges are judged by it
    lhs = sum(per_edge.values())
    over = np.flatnonzero(lhs[1:] > caps[1:] * total * (1.0 + 1e-9) + 1e-12 * total)
    if over.size:
        m = int(over[0]) + 1
        raise ValueError(f"profile violated at order {m}: "
                         f"||f^({m})||^2 = {lhs[m]} > C({m})||f||^2 = {caps[m] * total}")

    good = {eid: bool(np.all(norms[1:] <= 2.0 ** (orders[1:] + 1) * caps[1:] * norms[0]
                             * (1.0 + 1e-9) + 1e-14 * total))
            for eid, norms in per_edge.items()}

    closure = lam > 0.0 and all(gain <= 2.0 * lam * (1.0 + 1e-9) for gain in gains)
    good_mass = sum(float(n[0]) for e, n in per_edge.items() if good[e])
    bad_mass = sum(float(n[0]) for e, n in per_edge.items() if not good[e])
    # edges where f vanishes identically are good and carry no mass
    if bad_mass >= 0.5 * total:
        raise AssertionError("bad edges carry at least half the mass")
    if not total < 2.0 * good_mass:
        raise AssertionError("good-edge mass bound failed")
    return EdgeClassification(good=good, m_max=M_MAX, good_mass=good_mass,
                              bad_mass=bad_mass, total_mass=total,
                              closure_complete=closure)


# ---------------------------------------------------------------------------
# the per-root eigenfunction harvest: one secular matrix (with its own
# y.perp() SVD), one conditioned SVD per root and the eigenfunction
# normalisation through the kernel Gram of throw-away functions, copied
# verbatim from the solver before the stacked harvest (renamed only, and the
# solver's DEBUG record dropped); the reference the one-pass harvest must
# reproduce: eigenvalues and multiplicities bit for bit, and each root's
# eigenspace


def loop_secular_matrix(g: MetricGraph, y: BoundarySubspace, k: float) -> np.ndarray:
    """Square 2|E| matrix on the edgewise (cos, sin) coefficients whose rank
    defect at wavenumber k marks the eigenvalue k^2; k = 0 uses the affine
    ansatz a + b*x."""
    if not g.is_compact:
        raise ValueError("secular matrix requires a compact graph")
    if k < 0.0:
        raise ValueError("wavenumber must be nonnegative")
    ne = len(g.edges)
    nb = g.n_boundary
    b_plus = np.zeros((nb, 2 * ne), dtype=complex)
    b_minus = np.zeros((nb, 2 * ne), dtype=complex)
    col_a = {e.id: i for i, e in enumerate(g.edges)}
    for row, (eid, end) in enumerate(g.boundary_coords):
        ia = col_a[eid]
        ib = ia + ne
        ell = g.edge_lengths[eid]
        if k == 0.0:
            # f = a + b x, i f' = i b
            if end == 0:
                b_plus[row, ia] = 1.0
                b_minus[row, ib] = -1.0j
            else:
                b_plus[row, ia] = 1.0
                b_plus[row, ib] = ell
                b_minus[row, ib] = 1.0j
        else:
            c, s = math.cos(k * ell), math.sin(k * ell)
            if end == 0:
                b_plus[row, ia] = 1.0
                b_minus[row, ib] = -1.0j * k
            else:
                b_plus[row, ia] = c
                b_plus[row, ib] = s
                b_minus[row, ia] = -1.0j * k * s
                b_minus[row, ib] = 1.0j * k * c
    perp = y.perp()
    rows = []
    if perp.dim:
        rows.append(perp.basis.conj() @ b_plus)
    if y.dim:
        rows.append(y.basis.conj() @ b_minus)
    if not rows:
        return np.zeros((0, 2 * ne), dtype=complex)
    return np.vstack(rows)


def loop_conditioned(g, y, k) -> tuple[np.ndarray, float]:
    """Secular matrix with the sin-coefficient columns rescaled by 1/k below
    k = 1.  Those columns vanish like k as k -> 0 (the cos/sin ansatz
    degenerates toward the affine one), which would drive sigma_min to zero
    near k = 0 whether or not an eigenvalue sits there; the rescaled matrix
    instead converges to the k = 0 affine matrix.  Returns the matrix and the
    factor that maps conditioned sin-coefficients back to plain ones."""
    m = loop_secular_matrix(g, y, k)
    if 0.0 < k < 1.0:
        m = m.copy()
        m[:, len(g.edges):] /= k
        return m, 1.0 / k
    return m, 1.0


def loop_null_space(g, y, k, nullity=None) -> tuple[float, np.ndarray]:
    """The `nullity` trailing right-singular vectors of the conditioned
    secular matrix at k (rows scaled down to O(1) but never up: amplifying a
    vanishing row would erase the rank defect at exactly degenerate roots),
    as plain coefficients, and the largest of their singular values.  Without
    a nullity (k = 0) it is read off the singular values; it may be 0."""
    m, back = loop_conditioned(g, y, k)
    _, s, vh = np.linalg.svd(m / np.maximum(np.linalg.norm(m, axis=1), 1.0)[:, None])
    if nullity is None:
        nullity = int(np.sum(s < TOL_NULL)) if s[-1] < TOL_ACCEPT else 0
        if not nullity:
            return float(s[-1]), vh[:0]
    vecs = np.conj(vh[len(vh) - nullity:]).copy()
    vecs[:, len(g.edges):] *= back
    return float(s[len(s) - nullity]), vecs


# the per-root harvest's helpers, copied verbatim from the solver before the
# harvest ran in arrays: one function per coefficient row through
# canonical_terms, one phase fix per vector
def _coeffs_to_function(g: MetricGraph, k: float, coeffs: np.ndarray) -> GraphFunction:
    ne = len(g.edges)
    terms: dict[str, list[PolyTrigTerm]] = {}
    for i, e in enumerate(g.edges):
        a, b = coeffs[i], coeffs[i + ne]
        if k == 0.0:
            ts = [PolyTrigTerm(a, 0, 0.0), PolyTrigTerm(b, 1, 0.0)]
        else:
            # a cos(kx) + b sin(kx) in complex exponentials
            ts = [PolyTrigTerm(0.5 * (a - 1j * b), 0, k),
                  PolyTrigTerm(0.5 * (a + 1j * b), 0, -k)]
        terms[e.id] = ts
    return GraphFunction(g, terms)


def _phase_fix(vec: np.ndarray) -> np.ndarray:
    """Rotate vec so its pivot entry is real and positive.  The pivot is the
    first entry within a relative 1e-8 of the largest modulus, so entries of
    equal modulus (a travelling wave has |a| = |b|) cannot trade places under
    roundoff and turn the vector by a phase."""
    mag = np.abs(vec)
    top = float(mag.max(initial=0.0))
    if top == 0.0:
        return vec
    piv = vec[int(np.argmax(mag >= top * (1.0 - 1e-8)))]
    return vec * (abs(piv) / piv)


def loop_eigenvalues_up_to(g: MetricGraph, y: BoundarySubspace, lam_max: float) -> list[EigenPair]:
    """All eigenpairs with eigenvalue in [0, lam_max], multiplicities included.

    k = 0 is read off the affine secular matrix.  For k > 0 the roots and
    their multiplicities come from the solver's eigenphase search (its own
    reference is loop_eigenphase_roots).  Eigenfunctions are the trailing right-singular vectors of the secular
    matrix at each root, as many as the count says, L2-orthonormalised
    through the Cholesky factor of their Gram matrix.
    """
    if not g.is_compact:
        raise ValueError("eigenvalue solve requires a compact graph")
    if not g.edges:
        raise ValueError("eigenvalue solve requires at least one edge")
    if lam_max <= 0.0:
        raise ValueError("lam_max must be positive")
    y_eff = gauge_transform(y, g) if any(e.flux != 0.0 for e in g.edges) else y
    pairs: list[EigenPair] = []

    def harvest(k: float, residual: float, vecs: np.ndarray):
        if not len(vecs):
            return
        vecs = np.array([_phase_fix(v) for v in vecs])
        # L2-orthonormalise within the multiplicity cluster: with the L2 Gram
        # G = L L^H of the functions, the rows of L^-1 vecs (Gram-Schmidt in
        # closed form) give orthonormal ones
        low = np.linalg.cholesky(edgewise_gram([_coeffs_to_function(g, k, v) for v in vecs]))
        for v in np.linalg.solve(low, vecs):
            pairs.append(EigenPair(k=k, lam=k * k, function=_coeffs_to_function(g, k, v),
                                   residual=residual))

    residual, vecs = loop_null_space(g, y_eff, 0.0)
    harvest(0.0, residual, vecs)

    # the solver's own root search: this reference checks the harvest
    phases = _Eigenphases(g, y_eff)
    roots = phases.roots(phases.cells(math.sqrt(lam_max * (1.0 + 1e-12))))

    # a degenerate root that roundoff split across a cell edge is one root
    merged: list[list] = []  # [wavenumber, multiplicity]
    for k, m in sorted(roots):
        if merged and k - merged[-1][0] < CLUSTER_GAP:
            merged[-1][1] += m
        else:
            merged.append([k, m])
    for k, m in merged:
        harvest(k, *loop_null_space(g, y_eff, k, m))
    return pairs


# ---------------------------------------------------------------------------
# the root search before the stacked cell grid: one eig per wavenumber,
# multi-root cells split at their midpoints, and a Newton step accepted only
# once the step after it is tiny, copied verbatim from the solver (renamed
# only); the reference the stacked grid, the predicted splits and the
# acceptance rule must reproduce root for root


@dataclass
class _Point:
    k: float
    phases: np.ndarray   # eigenphases of U(k) in [0, 2 pi]
    vecs: np.ndarray     # unit eigenvectors, as columns


class LoopEigenphases:
    """U(k) = S J exp(ikL) on the bond coordinates (the (e, 0) block, then
    the (e, len) block) and the exact root count between two wavenumbers."""

    def __init__(self, g: MetricGraph, y: BoundarySubspace):
        ne = len(g.edges)
        scatter = 2.0 * (y.basis.T @ y.basis.conj()) - np.eye(g.n_boundary)
        self.sj = scatter[:, np.r_[ne:2 * ne, 0:ne]]
        self.lengths = np.tile([g.edge_lengths[eid] for eid in g.edge_ids], 2)
        self.ell_max = float(self.lengths.max())
        self.stats = {"eigs": 0, "newton_steps": 0, "bisections": 0}

    def at(self, k: float) -> _Point:
        self.stats["eigs"] += 1
        w, v = np.linalg.eig(self.sj * np.exp(1j * k * self.lengths))
        return _Point(k, np.mod(np.angle(w), _TWO_PI), v)

    def count(self, a: _Point, b: _Point) -> int:
        """Roots in (a.k, b.k]: the lifted eigenphases gain 2|G|(b - a) in
        total, and each crossing of 1 moves one wrapped phase back by 2 pi."""
        turn = float(self.lengths.sum()) * (b.k - a.k)
        return round((turn + a.phases.sum() - b.phases.sum()) / _TWO_PI)

    def resolve(self, a: _Point, b: _Point, m: int) -> list[tuple[float, int]]:
        """(wavenumber, multiplicity) of the m roots in (a.k, b.k]."""
        if m == 1 or b.k - a.k < CLUSTER_GAP:
            return [(self.root(a, b, m), m)]
        self.stats["bisections"] += 1
        mid = self.at(0.5 * (a.k + b.k))
        left = self.count(a, mid)
        out = self.resolve(a, mid, left) if left else []
        return out + (self.resolve(mid, b, m - left) if m > left else [])

    def _newton_step(self, p: _Point, lo: float, hi: float, m: int) -> float | None:
        """Newton step on the sum of the m eigenphases that can cross 1 inside
        (lo, hi]: each turns at most ell_max per unit k, so one that has
        crossed sits in [0, ell_max (k - lo)) and one still to cross in
        (2 pi - ell_max (hi - k), 2 pi).  The derivative of an eigenphase is
        <v, L v> (Hellmann-Feynman)."""
        crossed = p.phases < self.ell_max * (p.k - lo)
        ahead = p.phases > _TWO_PI - self.ell_max * (hi - p.k)
        delta = np.where(crossed, p.phases, p.phases - _TWO_PI)
        cand = np.flatnonzero(crossed | ahead)
        if cand.size < m:
            return None
        pick = cand[np.argsort(np.abs(delta[cand]))[:m]]
        q = p.vecs[:, pick] if m == 1 else np.linalg.qr(p.vecs[:, pick])[0]
        speed = float(self.lengths @ np.sum(np.abs(q) ** 2, axis=1))
        return -float(delta[pick].sum()) / speed

    def root(self, a: _Point, b: _Point, m: int) -> float:
        """Newton from b, kept inside the count bracket (a.k, b.k]: a step
        that leaves it is replaced by a bisection, and every new point
        narrows the bracket by its count."""
        p = b
        for _ in range(100):
            step = self._newton_step(p, a.k, b.k, m)
            t = p.k + step if step is not None else math.nan
            if a.k <= t <= b.k:
                if abs(step) <= 1e-12 * max(1.0, p.k):
                    return t
                self.stats["newton_steps"] += 1
            else:
                t = 0.5 * (a.k + b.k)
                if t in (a.k, b.k):
                    return b.k
                self.stats["bisections"] += 1
            p = self.at(t)
            c = self.count(a, p)
            if c == m:
                b = p
            elif c == 0:
                a = p
        return p.k


def loop_eigenphase_roots(g: MetricGraph, y: BoundarySubspace,
                          lam_max: float) -> tuple[list[tuple[float, int]], dict]:
    """(wavenumber, multiplicity) of every root k > 0 with k^2 <= lam_max,
    after the merge pass of eigenvalues_up_to, and the search's counters."""
    y_eff = gauge_transform(y, g) if any(e.flux != 0.0 for e in g.edges) else y
    phases = LoopEigenphases(g, y_eff)
    k_hi = math.sqrt(lam_max * (1.0 + 1e-12))
    n_cells = max(1, math.ceil(k_hi * phases.ell_max))
    prev = phases.at(0.0)
    prev.phases[prev.phases > _TWO_PI - _SNAP] = 0.0
    roots: list[tuple[float, int]] = []
    for k in np.linspace(0.0, k_hi, n_cells + 1)[1:]:
        cur = phases.at(float(k))
        m = phases.count(prev, cur)
        if m:
            roots += phases.resolve(prev, cur, m)
        prev = cur
    merged: list[list] = []
    for k, m in sorted(roots):
        if merged and k - merged[-1][0] < CLUSTER_GAP:
            merged[-1][1] += m
        else:
            merged.append([k, m])
    return [(k, m) for k, m in merged], phases.stats


# ---------------------------------------------------------------------------
# Chebyshev-Lobatto collocation of the magnetic Laplacian: the completeness
# oracle for every vertex condition, sharing nothing with the eigenphase
# solver (no scattering matrix, no count, no gauge rotation)


def _cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto points t_j = cos(pi j / n) and the differentiation
    matrix on them (Trefethen, Spectral Methods in MATLAB, cheb.m)."""
    t = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[[0, n]] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dt = t[:, None] - t[None, :]
    d = np.outer(c, 1.0 / c) / (dt + np.eye(n + 1))
    return t, d - np.diag(d.sum(axis=1))


def collocation_eigenvalues(g: MetricGraph, y: BoundarySubspace, lam_max: float,
                            nodes: int) -> np.ndarray:
    """The eigenvalues in [0, lam_max] of the magnetic Laplacian
    -(d/dx - i A_e)^2 (A_e = flux_e / length_e) under the boundary subspace
    y, multiplicities included, as finite eigenvalues of one generalized
    eigenproblem.  Each edge carries its values at nodes + 1 Chebyshev-Lobatto
    points, x_0 = 0 and x_nodes = length.  The interior rows collocate the
    equation; the 2E end rows are replaced by the conditions perp^H F = 0 and
    Y^H (i F') = 0 on the end values F and the outward magnetic derivatives
    F', rows with no right-hand side, so their eigenvalues are infinite.
    Returned sorted, complex (a real spectrum up to the discretisation)."""
    ne, n1 = len(g.edges), nodes + 1
    t, d_t = _cheb(nodes)
    a_mat = np.zeros((ne * n1, ne * n1), dtype=complex)
    b_mat = np.zeros_like(a_mat)
    ends = np.zeros((g.n_boundary, ne * n1), dtype=complex)   # F
    outward = np.zeros_like(ends)                              # F'
    col = {}
    for i, e in enumerate(g.edges):
        sl = slice(i * n1, (i + 1) * n1)
        col[e.id] = i * n1
        # x = length (1 - t) / 2 runs from 0 (t = 1) to the length (t = -1)
        dm = -2.0 / e.length * d_t - 1j * (e.flux / e.length) * np.eye(n1)
        a_mat[sl, sl] = -dm @ dm
        b_mat[sl, sl] = np.eye(n1)
        for row, (eid, end) in enumerate(g.boundary_coords):
            if eid == e.id:
                j = 0 if end == 0 else nodes
                ends[row, i * n1 + j] = 1.0
                outward[row, sl] = dm[j] if end else -dm[j]
    cond = np.concatenate([y.perp().basis.conj() @ ends, y.basis.conj() @ (1j * outward)])
    end_rows = [col[e.id] + j for e in g.edges for j in (0, nodes)]
    a_mat[end_rows] = cond
    b_mat[end_rows] = 0.0
    w = scipy.linalg.eig(a_mat, b_mat, right=False)
    w = w[np.isfinite(w) & (w.real <= lam_max)]
    return w[np.argsort(w.real)]


# ---------------------------------------------------------------------------
# the spectral sample as a fold of GraphFunction + and *, re-canonicalising
# the partial sum at every step: the reference for the one-merge version


def fold_spectral_sample(pairs, coeffs) -> GraphFunction:
    out = GraphFunction.zero(pairs[0].function.graph)
    for c, p in zip(coeffs, pairs):
        out = out + complex(c) * p.function
    return out


# ---------------------------------------------------------------------------
# the torsion solve as a hand-built incidence system (continuity, flux balance
# and Dirichlet rows per vertex) solved by LU: the reference for the k = 0
# secular system of qgs.spectral.solve_torsion


def loop_solve_torsion(g: MetricGraph, dirichlet) -> TorsionSolution:
    """Edgewise quadratic solution of -u'' = 1 with u = 0 on the Dirichlet
    vertex set and continuity + flux balance (standard) elsewhere; also
    returns the total integral of u (the torsional rigidity)."""
    dirichlet = tuple(dict.fromkeys(str(v) for v in dirichlet))
    if not dirichlet:
        raise ValueError("Dirichlet vertex set must be nonempty")
    for v in dirichlet:
        if v not in g.vertices:
            raise ValueError(f"unknown vertex {v!r}")
    if not g.is_compact:
        raise ValueError("torsion solve requires a compact graph")
    ne = len(g.edges)
    # unknowns: (alpha_e, beta_e) with u_e = -x^2/2 + alpha x + beta
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    col_a = {e.id: i for i, e in enumerate(g.edges)}

    def value_row(eid: str, at_end: int) -> tuple[np.ndarray, float]:
        """(coefficient row, constant) with u(endpoint) = row @ x + constant."""
        r = np.zeros(2 * ne)
        ell = g.edge_lengths[eid]
        if at_end == 0:
            r[col_a[eid] + ne] = 1.0
            return r, 0.0
        r[col_a[eid]] = ell
        r[col_a[eid] + ne] = 1.0
        return r, -0.5 * ell * ell

    for v in g.vertices:
        incid = [(e.id, end) for e in g.edges
                 for end in ((0,) if e.source == v and e.target != v else ())
                 + ((0, 1) if e.source == v and e.target == v else ())
                 + ((1,) if e.target == v and e.source != v else ())]
        if not incid:
            continue
        if v in dirichlet:
            for eid, end in incid:
                r, c = value_row(eid, end)
                rows.append(r)
                rhs.append(-c)
        else:
            ref = value_row(*incid[0])
            for eid, end in incid[1:]:
                r, c = value_row(eid, end)
                rows.append(r - ref[0])
                rhs.append(ref[1] - c)
            # flux balance: sum over incoming u'(ell) minus outgoing u'(0) = 0,
            # with u'(x) = -x + alpha
            r = np.zeros(2 * ne)
            const = 0.0
            for eid, end in incid:
                if end == 1:
                    r[col_a[eid]] += 1.0
                    const += -g.edge_lengths[eid]
                else:
                    r[col_a[eid]] -= 1.0
            rows.append(r)
            rhs.append(-const)
    mat = np.array(rows)
    vec = np.array(rhs)
    if mat.shape[0] != 2 * ne:
        raise ValueError("vertex incidences do not close the torsion system")
    try:
        sol = np.linalg.solve(mat, vec)
    except np.linalg.LinAlgError as exc:
        raise ValueError("torsion system singular: some part of the graph is "
                         "not connected to the Dirichlet set") from exc
    terms = {}
    rigidity = 0.0
    for e in g.edges:
        alpha, beta = sol[col_a[e.id]], sol[col_a[e.id] + ne]
        terms[e.id] = [PolyTrigTerm(-0.5, 2, 0.0), PolyTrigTerm(alpha, 1, 0.0),
                       PolyTrigTerm(beta, 0, 0.0)]
        ell = e.length
        rigidity += -ell ** 3 / 6.0 + 0.5 * alpha * ell * ell + beta * ell
    return TorsionSolution(function=GraphFunction(g, terms), rigidity=rigidity,
                           dirichlet=dirichlet)


# ---------------------------------------------------------------------------
# graph transformations used only by the tests: flux removal


def strip_fluxes(g: MetricGraph) -> MetricGraph:
    return MetricGraph(g.vertices, [Edge(e.id, e.source, e.target, e.length, 0.0)
                                    for e in g.edges])


# ---------------------------------------------------------------------------
# ... and subdivision


@dataclass
class CoordinateMap:
    """Translates edge-local data from a graph to its subdivision."""

    source: MetricGraph
    target: MetricGraph
    pieces: dict[str, list[tuple[str, float, float]]] = field(default_factory=dict)

    def map_intervals(self, eid: str, iv: IntervalUnion) -> dict[str, IntervalUnion]:
        out: dict[str, IntervalUnion] = {}
        for nid, c0, c1 in self.pieces[eid]:
            parts = [(max(a, c0) - c0, min(b, c1) - c0) for a, b in iv.intervals
                     if min(b, c1) > max(a, c0)]
            if parts:
                out[nid] = IntervalUnion(parts, length=c1 - c0)
        return out

    def map_region(self, region: Mapping[str, IntervalUnion]) -> dict[str, IntervalUnion]:
        out: dict[str, IntervalUnion] = {}
        for eid, iv in region.items():
            out.update(self.map_intervals(eid, iv))
        return out

    def map_function(self, f: GraphFunction) -> GraphFunction:
        terms: dict[str, list[PolyTrigTerm]] = {}
        for eid, ts in f.terms.items():
            for nid, c0, c1 in self.pieces[eid]:
                acc = terms.setdefault(nid, [])
                for c, p, w in ts:
                    # substitute x = c0 + y and expand (c0 + y)**p
                    phase = c * complex(math.cos(w * c0), math.sin(w * c0))
                    for j in range(p + 1):
                        acc.append(PolyTrigTerm(phase * math.comb(p, j) * c0 ** (p - j), j, w))
        return GraphFunction(self.target, terms)


def subdivide(g: MetricGraph, max_len: float) -> tuple[MetricGraph, CoordinateMap]:
    """Split every finite edge into equal pieces of length <= max_len.

    Inserted vertices are degree-2, meant to carry standard conditions
    (transparent for the Laplacian); edges already short enough are kept as is.
    """
    if not (max_len > 0.0):
        raise ValueError("max_len must be positive")
    if not g.is_compact:
        raise ValueError("subdivision requires a compact graph")
    vertices = list(g.vertices)
    new_edges: list[Edge] = []
    cmap_pieces: dict[str, list[tuple[str, float, float]]] = {}
    for e in g.edges:
        n = max(1, math.ceil(e.length / max_len - 1e-12))
        if n == 1:
            new_edges.append(e)
            cmap_pieces[e.id] = [(e.id, 0.0, e.length)]
            continue
        cuts = [e.length * i / n for i in range(n + 1)]
        mids = [f"{e.id}.v{i}" for i in range(1, n)]
        vertices.extend(mids)
        chain = [e.source] + mids + [e.target]
        pieces = []
        for i in range(n):
            nid = f"{e.id}.{i}"
            new_edges.append(Edge(nid, chain[i], chain[i + 1],
                                  cuts[i + 1] - cuts[i], e.flux / n))
            pieces.append((nid, cuts[i], cuts[i + 1]))
        cmap_pieces[e.id] = pieces
    sub = MetricGraph(vertices, new_edges)
    return sub, CoordinateMap(source=g, target=sub, pieces=cmap_pieces)


# ---------------------------------------------------------------------------
# hand-written report encoders: each report's JSON written out field by
# field, as the report classes once did, the reference for the generic
# dataclass rule of `qgs.report.sanitize`; a nested report goes through
# oracle_json too


def _bound_report_json(self) -> dict:
    return {"formula": self.formula, "value": self.value,
            "log_value": self.log_value, "inputs": dict(self.inputs),
            "underflow": self.underflow, "notes": list(self.notes)}


def _standard_range_json(self) -> dict:
    return {"lower_length": oracle_json(self.lower_length),
            "upper": oracle_json(self.upper),
            "lower_diameter": oracle_json(self.lower_diameter)}


def _trace_report_json(self) -> dict:
    return {"bound": self.bound, "log_bound": self.log_bound,
            "exact_partial": self.exact_partial, "tail_bound": self.tail_bound,
            "inputs": dict(self.inputs), "notes": list(self.notes)}


def _observability_report_json(self) -> dict:
    return {"c_squared": oracle_json(self.c_squared),
            "envelope": oracle_json(self.envelope), "d0": self.d0, "d1": self.d1}


def _torsion_profile_report_json(self) -> dict:
    return {"profile": dict(self.profile), "h": self.h,
            "h_prime": self.h_prime, "bound": oracle_json(self.bound),
            "norms": dict(self.norms)}


def _sampling_params_json(self) -> dict:
    return {"gamma": self.gamma, "rho": self.rho, "cover": self.cover.to_json(),
            "densities": {e: list(d) for e, d in sorted(self.densities.items())}}


def _cover_violation_json(self) -> dict:
    return {"gamma": self.gamma, "rho": self.rho, "issues": list(self.issues)}


def _edge_gaps_json(self) -> dict:
    return {"left": self.left, "right": self.right,
            "max_interior": self.max_interior}


def _gamma_result_json(self) -> dict:
    return {"gamma": self.gamma, "feasible": self.feasible,
            "breakpoints": list(self.breakpoints) if self.breakpoints else None,
            "gap_witness": self.gap_witness}


def _rho_result_json(self) -> dict:
    return {"rho": self.rho, "feasible": self.feasible,
            "breakpoints": list(self.breakpoints) if self.breakpoints else None,
            "global_density": self.global_density}


def _ratio_report_json(self) -> dict:
    return {"kind": self.kind, "observed": self.observed,
            "bound": oracle_json(self.bound), "margin": self.margin,
            "passed": self.passed, "vacuous": self.vacuous,
            "extras": dict(self.extras)}


def _edge_classification_json(self) -> dict:
    return {"good": dict(self.good), "m_max": self.m_max,
            "good_mass": self.good_mass, "bad_mass": self.bad_mass,
            "total_mass": self.total_mass,
            "closure_complete": self.closure_complete}


def _check_report_json(self) -> dict:
    return {"name": self.name, "passed": self.passed, "lhs": self.lhs,
            "rhs": self.rhs, "details": dict(self.details)}


def _observability_numeric_json(self) -> dict:
    return {"observable": self.observable,
            "numeric_c_squared": self.numeric_c_squared,
            "formula_c_squared": self.formula_c_squared,
            "modes": self.modes, "horizon": self.horizon,
            "numeric_log_c_squared": self.numeric_log_c_squared,
            "formula_log_c_squared": self.formula_log_c_squared}


def _audit_result_json(self) -> dict:
    return {"seed": self.seed, "trials": self.trials,
            "lam_max": self.lam_max, "violations": self.violations,
            "pool": list(self.pool), "rows": self.rows}


ORACLE_ENCODERS = {
    "BoundReport": _bound_report_json, "StandardRange": _standard_range_json,
    "TraceReport": _trace_report_json, "ObservabilityReport": _observability_report_json,
    "TorsionProfileReport": _torsion_profile_report_json,
    "SamplingParams": _sampling_params_json, "CoverViolation": _cover_violation_json,
    "EdgeGaps": _edge_gaps_json, "GammaResult": _gamma_result_json,
    "RhoResult": _rho_result_json, "RatioReport": _ratio_report_json,
    "EdgeClassification": _edge_classification_json, "CheckReport": _check_report_json,
    "ObservabilityNumeric": _observability_numeric_json,
    "AuditResult": _audit_result_json,
}


def oracle_json(obj) -> dict:
    """The hand-written JSON of a report object, by its class name."""
    return ORACLE_ENCODERS[type(obj).__name__](obj)
