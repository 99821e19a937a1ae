"""Eigenpairs of free and magnetic Laplacians on compact graphs, plus the
torsion-function solve.

The solver works with the wavenumber k (energy k^2).  Every boundary subspace
Y has the scale-invariant form "plus-trace in Y, minus-trace of i*f' in the
complement of Y", so the bond scattering matrix U(k) = S J exp(ikL) on the
2|E| edge ends is unitary, with S = 2 Q_Y - I constant, J swapping the two
ends of each edge and L holding their lengths.  k > 0 is an eigenvalue of
multiplicity m exactly when U(k) has the eigenvalue 1 with multiplicity m,
and the null space of U(k) - I, found by inverse iteration (two LU solves),
holds the eigenfunctions' outgoing amplitudes alpha: edge e carries
alpha_(e,0) exp(ikx) + alpha_(e,l) exp(ikl) exp(-ikx).
k = 0 comes from the quadratic form, which the same scale invariance makes
exactly sum_e int |f'|^2: the zero modes are the edgewise constants a whose
end values D a (a_e at both ends of edge e) lie in Y, the null space of
P_{Y-perp} D / sqrt(2).  Magnetic fluxes are absorbed into
the boundary subspace by the gauge rotation, so the solver itself only ever
sees a free Laplacian; the returned eigenfunctions are the gauge-reduced
representatives (same pointwise modulus as the magnetic ones).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .graphs import (RANK_TOL, BoundarySubspace, MetricGraph, gauge_transform,
                     vertex_conditions_subspace)
from .polytrig import PRUNE_REL, GraphFunction, PolyTrigTerm, _pruned

CLUSTER_GAP = 1e-7       # count cells narrower than this hold one root
SIN_CLUSTER = 1e-3       # eigh columns whose sin(theta - _TURN) lie this close share one eig
_TURN = 0.1              # eigh works on exp(-i _TURN) U, so phases 0 and pi differ in sine
_SNAP = 2.0 * RANK_TOL   # eigenphases of U(0) this close to 1 sit at 1 (see cells)
_SHIFT = 1e-12           # shift of U - I in the null-vector solves, far below any phase gap
MAX_SOLVE_ENTRIES = 2 ** 22  # cap on the (2E)^2 entries of a solve's cell or root stack
_MAX_ROUNDS = 200        # root-search rounds: a split tree ~50 deep and 100 Newton rounds
_TWO_PI = 2.0 * math.pi

_log = logging.getLogger("qgs.spectral")


@dataclass
class EigenPair:
    """An eigenpair.  At a root k > 0 of multiplicity m, residual is
    ||(U(k) - I) V||_2 of the orthonormal block V of outgoing amplitudes the
    root's m eigenfunctions come from (a vector norm when m = 1), which the
    m-th smallest singular value of U(k) - I bounds from below; at k = 0 it
    is ||M V||_2 of the orthonormal block V of edgewise constants the zero
    modes come from, M = P_{Y-perp} D / sqrt(2) (see _zero_modes)."""
    k: float
    lam: float
    function: GraphFunction
    residual: float

    def to_json(self) -> dict:
        return {"k": self.k, "lambda": self.lam, "residual": self.residual,
                **self.function.to_json()}


@dataclass
class TorsionSolution:
    function: GraphFunction
    rigidity: float
    dirichlet: tuple[str, ...]


def secular_matrix(g: MetricGraph, y: BoundarySubspace, k: float) -> np.ndarray:
    """Square 2|E| matrix on the edgewise (cos, sin) coefficients whose rank
    defect at wavenumber k marks the eigenvalue k^2; k = 0 uses the affine
    ansatz a + b*x."""
    if not g.is_compact:
        raise ValueError("secular matrix requires a compact graph")
    if k < 0.0:
        raise ValueError("wavenumber must be nonnegative")
    return _secular(g, y, k)


def _secular(g: MetricGraph, y: BoundarySubspace, k: float) -> np.ndarray:
    """secular_matrix without its checks.  The rows hold the end values of
    f = a cos kx + b sin kx (a + b x at k = 0) and of i f'."""
    ne = len(g.edges)
    b_plus = np.zeros((g.n_boundary, 2 * ne), dtype=complex)
    b_minus = np.zeros_like(b_plus)
    col_a = {e.id: i for i, e in enumerate(g.edges)}
    for row, (eid, end) in enumerate(g.boundary_coords):
        ia, ib = col_a[eid], col_a[eid] + ne
        if end == 0:
            b_plus[row, ia] = 1.0
            b_minus[row, ib] = -1.0j if k == 0.0 else -1.0j * k
        elif k == 0.0:  # f = a + b x, i f' = i b
            b_plus[row, [ia, ib]] = 1.0, g.edge_lengths[eid]
            b_minus[row, ib] = 1.0j
        else:
            c, s = math.cos(k * g.edge_lengths[eid]), math.sin(k * g.edge_lengths[eid])
            b_plus[row, [ia, ib]] = c, s
            b_minus[row, [ia, ib]] = -1.0j * k * s, 1.0j * k * c
    rows = [basis.conj() @ b for basis, b in ((y.perp().basis, b_plus), (y.basis, b_minus))
            if len(basis)]
    return np.concatenate(rows) if rows else np.zeros((0, 2 * ne), complex)


def _zero_modes(g: MetricGraph, y: BoundarySubspace) -> tuple[np.ndarray, float]:
    """The zero modes under y, the null space of M = P_{Y-perp} D / sqrt(2)
    as orthonormal rows a of edgewise constants, and the residual ||M V||_2
    of their block V (0.0 when there are none).  D / sqrt(2) is an isometry,
    so M's singular values lie in [0, 1], and the rank counts those above
    RANK_TOL itself: a rule relative to the largest would read a standard
    loop's M, 0 up to roundoff, as rank 1 and lose its zero mode."""
    ne = len(g.edges)
    perp = np.eye(g.n_boundary) - y.basis.T @ y.basis.conj()
    m = (perp[:, :ne] + perp[:, ne:]) / math.sqrt(2.0)
    _, sv, vh = np.linalg.svd(m)
    modes = vh[np.count_nonzero(sv > RANK_TOL):].conj()
    return modes, float(np.linalg.norm(m @ modes.T, 2)) if len(modes) else 0.0


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    """Rotate every vector along the last axis (none of them zero) so its
    pivot entry is real and positive.  The pivot is the first entry within a
    relative 1e-8 of the largest modulus, so entries of equal modulus (a
    standing wave has |A| = |B|) cannot trade places under roundoff and
    turn the vector by a phase.  The pivot's modulus is a hypot, the value
    abs gives one complex number, not np.abs's vectorised one."""
    mag = np.abs(vecs)
    near = mag >= mag.max(axis=-1, keepdims=True) * (1.0 - 1e-8)
    piv = np.take_along_axis(vecs, np.argmax(near, axis=-1)[..., None], axis=-1)
    return vecs * (np.hypot(piv.real, piv.imag) / piv)


def _eigenfunctions(g: MetricGraph, ks: np.ndarray, coeffs: np.ndarray) -> list[GraphFunction]:
    """The function A exp(-ikx) + B exp(ikx) on every edge, for each
    wavenumber of ks and row (A_e..., B_e...) of coeffs, built in the form
    canonical_terms gives it: each term kept when its modulus is
    at least PRUNE_REL times the larger of the two, -0.0 folded by adding 0j,
    and an edge whose terms are both 0 left out.  The moduli are hypots, as
    abs computes them, since np.abs can differ in the last bit."""
    ne = len(g.edges)
    first, second = coeffs[:, :ne] + 0j, coeffs[:, ne:] + 0j
    mag1, mag2 = np.hypot(first.real, first.imag), np.hypot(second.real, second.imag)
    peak = np.maximum(mag1, mag2)
    live = peak > 0.0
    keep1 = live & (mag1 >= PRUNE_REL * peak)
    keep2 = live & (mag2 >= PRUNE_REL * peak)
    eids = [e.id for e in g.edges]
    out = []
    for k, row1, row2, row_keep1, row_keep2 in zip(ks.tolist(), first.tolist(), second.tolist(),
                                                     keep1.tolist(), keep2.tolist()):
        terms = {}
        for eid, c1, c2, s1, s2 in zip(eids, row1, row2, row_keep1, row_keep2):
            if s1 or s2:
                # 0.0 - k: the frequency +0.0 at k = 0, not -0.0
                pair = (PolyTrigTerm(c1, 0, 0.0 - k), PolyTrigTerm(c2, 0, k))
                terms[eid] = pair[0 if s1 else 1:2 if s2 else 1]
        out.append(GraphFunction._canonical(g, terms))
    return out


def _unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenphases in [0, 2 pi] and the orthonormal eigenvectors (as
    columns) of every unitary matrix of the stack u, each matrix with the
    bits a one-matrix stack gives it.

    U shares its eigenvectors with the Hermitian skew part
    H = (R - R^H) / 2i of R = exp(-i _TURN) U, whose eigenvalues are
    sin(theta - _TURN): one stacked eigh of H resolves the phases well near
    theta = 0, where the roots are (its slope there is cos(_TURN)).  The
    turn keeps 0 and pi apart: under vertex conditions a bipartite graph's U
    is similar to -U, so each root's phase 0 has a partner at pi, and
    without the turn both have the sine 0.  The columns whose sin(theta - _TURN) lie within
    SIN_CLUSTER of a neighbour are contiguous in eigh's sorted output and
    form one cluster (close phases, or two whose sum is pi + 2 _TURN).
    U compressed onto a cluster's columns is a small normal block; one
    stacked eig per cluster size decomposes the blocks, and their
    eigenvectors, orthonormalised by QR, rotate the cluster's columns.  Each
    phase is the angle of its vector's Rayleigh quotient <v, U v>.

    Accuracy: a cluster separated from the rest by SIN_CLUSTER has its
    invariant subspace to about eps ||U|| / SIN_CLUSTER, and the Rayleigh
    quotient of a normal matrix errs by the square of that, so the phases
    are as accurate as eig's while the residuals ||U v - exp(i theta) v||
    grow to about eps / SIN_CLUSTER.  SIN_CLUSTER trades that residual
    against the size of the clusters: 1e-3 keeps it near 1e-12, and a
    larger one buys little accuracy for more eig work."""
    n = u.shape[-1]
    r = u * complex(math.cos(_TURN), -math.sin(_TURN))
    s, v = np.linalg.eigh(-0.5j * (r - np.swapaxes(r.conj(), 1, 2)))
    # the vectors as rows, and U applied to each, C-contiguous: every sum
    # below runs along a contiguous axis, whatever the stack's size
    rows = np.swapaxes(v, 1, 2).reshape(-1, n).copy()
    u_rows = (np.swapaxes(v, 1, 2) @ np.swapaxes(u, 1, 2)).reshape(-1, n)
    close = np.diff(s, axis=1) < SIN_CLUSTER
    if close.any():
        head = np.ones(s.shape, dtype=bool)
        head[:, 1:] = ~close
        first = np.flatnonzero(head)
        size = np.diff(np.append(first, head.size))
        for c in sorted(set(size[size > 1].tolist())):
            idx = first[size == c][:, None] + np.arange(c)
            block = rows[idx].conj() @ np.swapaxes(u_rows[idx], 1, 2)
            basis = np.swapaxes(np.linalg.qr(np.linalg.eig(block)[1])[0], 1, 2)
            rows[idx], u_rows[idx] = basis @ rows[idx], basis @ u_rows[idx]
    phases = np.mod(np.angle(np.einsum("ij,ij->i", rows.conj(), u_rows)), _TWO_PI)
    return (phases.reshape(-1, n),
            np.ascontiguousarray(np.swapaxes(rows.reshape(-1, n, n), 1, 2)))


@dataclass
class _Point:
    k: float
    phases: np.ndarray   # eigenphases of U(k) in [0, 2 pi]
    vecs: np.ndarray     # unit eigenvectors, as columns
    phase_sum: float     # phases.sum()


class _Eigenphases:
    """U(k) = S J exp(ikL) on the bond coordinates (the (e, 0) block, then
    the (e, len) block) and the exact root count between two wavenumbers."""

    def __init__(self, g: MetricGraph, y: BoundarySubspace):
        ne = len(g.edges)
        scatter = 2.0 * (y.basis.T @ y.basis.conj()) - np.eye(g.n_boundary)
        self.sj = scatter[:, np.r_[ne:2 * ne, 0:ne]]
        self.lengths = np.tile([g.edge_lengths[eid] for eid in g.edge_ids], 2)
        self.ell_max = float(self.lengths.max())
        self.length_sum = float(self.lengths.sum())
        self.stats = {"eigs": 0, "eig_calls": 0, "newton_steps": 0, "bisections": 0,
                      "probes": 0}

    def unitary(self, ks: np.ndarray) -> np.ndarray:
        """U at every wavenumber of ks, stacked on a leading axis."""
        return self.sj * np.exp(1j * ks[:, None] * self.lengths)[:, None, :]

    def points(self, ks) -> list[_Point]:
        """U at every wavenumber of ks, decomposed by _unitary_eig in one
        stacked call; each matrix gets the bits a one-matrix call gives it."""
        ks = np.asarray(ks, dtype=float)
        self.stats["eigs"] += ks.size
        self.stats["eig_calls"] += 1
        phases, vecs = _unitary_eig(self.unitary(ks))
        return [_Point(k, p, w, t) for k, p, w, t in zip(ks.tolist(), phases, vecs,
                                                        phases.sum(axis=1).tolist())]

    def count(self, a: _Point, b: _Point) -> int:
        """Roots in (a.k, b.k]: the lifted eigenphases gain 2|G|(b - a) in
        total, and each crossing of 1 moves one wrapped phase back by 2 pi."""
        turn = self.length_sum * (b.k - a.k)
        return round((turn + a.phase_sum - b.phase_sum) / _TWO_PI)

    def cells(self, k_hi: float) -> list[tuple[_Point, _Point, int]]:
        """The count brackets (a.k, b.k] of m > 0 roots among the cells of
        width at most 1 / ell_max that tile (0, k_hi], all cell ends
        decomposed in one points call and every count taken in one array
        pass with count's floating-point operations."""
        n_cells = max(1, math.ceil(k_hi * self.ell_max))
        self.stats["cells"] = n_cells
        ends = self.points(np.linspace(0.0, k_hi, n_cells + 1))
        # phases at 1 for k = 0 leave it counter-clockwise: no root at k = 0+.
        # U(0) = S J is a product of two reflections, so its phases near 1 are
        # +-2 asin(sigma) for the singular values sigma of _zero_modes' M:
        # the phases snapped here are the modes that M's rank rule counts
        # as zero modes (and phases exactly at 1 that are no eigenvalue).
        first = ends[0]
        first.phases[first.phases > _TWO_PI - _SNAP] = 0.0
        first.phase_sum = float(first.phases.sum())
        ks = np.array([p.k for p in ends])
        sums = np.array([p.phase_sum for p in ends])
        turn = self.length_sum * (ks[1:] - ks[:-1])
        counts = np.rint((turn + sums[:-1] - sums[1:]) / _TWO_PI).astype(int).tolist()
        return [(a, b, m) for a, b, m in zip(ends, ends[1:], counts) if m]

    def _predicted_split(self, a: _Point, b: _Point, m: int) -> list[float]:
        """Split points for the count bracket (a.k, b.k] of m roots, from the
        crossings b.k - theta / theta' that b predicts, with the
        Hellmann-Feynman speed theta' = <v, L v>, for the phases below
        ell_max (b.k - lo), lo = a.k - CLUSTER_GAP / 4: every phase whose
        prediction can lie above lo sits there.  When the m lowest predictions
        in (lo, b.k] span less than CLUSTER_GAP / 2 (a cluster on either end
        of the bracket included), the probes CLUSTER_GAP / 4 below and above
        them that lie inside (max(a.k, CLUSTER_GAP), b.k) close the cluster
        from both sides.  Otherwise the split is midway between the two
        lowest predictions inside that interval; [] when there are fewer than
        two."""
        lo = a.k - 0.25 * CLUSTER_GAP
        crossed = np.flatnonzero(b.phases < self.ell_max * (b.k - lo))
        at = b.k - b.phases[crossed] / (self.lengths @ np.abs(b.vecs[:, crossed]) ** 2)
        at = np.sort(at[(at > lo) & (at <= b.k)])
        floor = max(a.k, CLUSTER_GAP)
        if at.size >= m and at[m - 1] - at[0] < 0.5 * CLUSTER_GAP:
            probes = [t for t in (at[0] - 0.25 * CLUSTER_GAP, at[m - 1] + 0.25 * CLUSTER_GAP)
                      if floor < t < b.k]
            if probes:
                self.stats["probes"] += len(probes)
                return probes
        at = at[(at > floor) & (at < b.k)]
        return [0.5 * (at[0] + at[1])] if at.size >= 2 else []

    def roots(self, brackets: list[tuple[_Point, _Point, int]]) -> list[tuple[float, int]]:
        """(wavenumber, multiplicity) of the m roots in each count bracket
        (a.k, b.k], all brackets advanced together: in each round every live
        bracket takes one new point (a pair of probes takes two), and one
        points call decomposes them all.  A bracket of several roots at
        least CLUSTER_GAP wide is split at its predicted points (two probes
        around a cluster of predictions, or one split between them), or at
        its midpoint when there are none or when the split that made it
        separated nothing, so it at least halves every two splits.  It
        becomes up to three children by exact counts, and a child narrower
        than CLUSTER_GAP that holds a whole cluster goes straight to Newton.
        Any other bracket holds one root of multiplicity m, which Newton from
        b converges inside it: a step that leaves the bracket is replaced by
        the midpoint, and every new point narrows the bracket by its count.
        A step is accepted without another point when it is tiny or its
        estimated error is at most 1e-13 max(1, k), unless it lands that
        close above a.k from above: phases at 1 at a.k belong to the bracket
        below, so such a target is one more point (and a bracket already
        that narrow ends at b.k).  A midpoint that is an end or the current
        point cannot narrow the bracket and ends it there.
        A bracket still live after _MAX_ROUNDS rounds is a ValueError."""
        out, live = [], [(a, b, m, b, True) for a, b, m in brackets]
        for _ in range(_MAX_ROUNDS):
            split = [br for br in live if br[2] > 1 and br[1].k - br[0].k >= CLUSTER_GAP]
            self.stats["bisections"] += len(split)
            guesses = [self._predicted_split(a, b, m) if predict else []
                       for a, b, m, _, predict in split]
            cuts = [guess or [0.5 * (a.k + b.k)] for (a, b, *_), guess in zip(split, guesses)]
            ts = [t for cut in cuts for t in cut]
            moving = []
            newton = [br for br in live if br[2] == 1 or br[1].k - br[0].k < CLUSTER_GAP]
            for m in sorted({br[2] for br in newton}):
                group = [br for br in newton if br[2] == m]
                steps, errs = self._newton_steps([br[3] for br in group],
                                                 np.array([br[0].k for br in group]),
                                                 np.array([br[1].k for br in group]), m)
                for br, step, err in zip(group, steps.tolist(), errs.tolist()):
                    a, b, _, p, _ = br
                    t = p.k + step
                    # phases at 1 for k = 0 leave it counter-clockwise: Newton
                    # on them heads for k = 0, which is no root of the first cell
                    if max(a.k, CLUSTER_GAP) <= t <= b.k:
                        scale = max(1.0, p.k)
                        # so do phases at 1 at a.k, a root of the bracket
                        # below: a target that close to a.k from above is a
                        # root only if one more point counts it
                        near = p is not a and t - a.k <= 1e-13 * scale
                        if near and b.k - a.k <= 1e-13 * scale:
                            out.append((b.k, m))
                            continue
                        if not near and (abs(step) <= 1e-12 * scale or err <= 1e-13 * scale):
                            out.append((t, m))
                            continue
                        self.stats["newton_steps"] += 1
                    else:
                        t = 0.5 * (a.k + b.k)
                        if t in (a.k, b.k, p.k):
                            out.append((b.k if t in (a.k, b.k) else p.k, m))
                            continue
                        self.stats["bisections"] += 1
                    moving.append(br)
                    ts.append(t)
            if not ts:
                return out
            new = self.points(ts)
            live, used = [], 0
            for (a, b, m, _, _), guess, cut in zip(split, guesses, cuts):
                ends = [a, *new[used:used + len(cut)], b]
                used += len(cut)
                counts = [self.count(lo, hi) for lo, hi in zip(ends, ends[1:-1])]
                counts.append(m - sum(counts))
                predict = not guess or max(counts) < m
                live += [(lo, hi, c, hi, predict) for lo, hi, c in zip(ends, ends[1:], counts) if c]
            for (a, b, m, _, predict), p in zip(moving, new[used:]):
                c = self.count(a, p)
                live.append((p if c == 0 else a, p if c == m else b, m, p, predict))
        a, b, m, _, _ = live[0]
        raise ValueError(f"eigenvalue search did not converge in {_MAX_ROUNDS} rounds: "
                         f"{m} root(s) left in lambda ({a.k ** 2!r}, {b.k ** 2!r}]")

    def _newton_steps(self, ps: list[_Point], lo: np.ndarray, hi: np.ndarray,
                      m: int) -> tuple[np.ndarray, np.ndarray]:
        """At each point of ps, the Newton step on the sum of the m
        eigenphases that can cross 1 inside its bracket (lo, hi] (nan where
        fewer can) and the estimated distance of the step's end point from
        the root.  Each phase turns at most ell_max per unit k, so one that
        has crossed sits in [0, ell_max (k - lo)) and one still to cross in
        (2 pi - ell_max (hi - k), 2 pi).  The derivative of an eigenphase is
        <v, L v> (Hellmann-Feynman) and its second derivative is the sum of
        |<v_i, L v>|^2 cot((theta - theta_i) / 2) over the other eigenpairs,
        so the end point of a step s lies about |theta''| s^2 / (2 theta')
        from the root."""
        k = np.array([p.k for p in ps])
        phases = np.array([p.phases for p in ps])
        vecs = np.array([p.vecs for p in ps])
        crossed = phases < (self.ell_max * (k - lo))[:, None]
        delta = np.where(crossed, phases, phases - _TWO_PI)
        ahead = delta > (self.ell_max * (k - hi))[:, None]
        dist = np.where(crossed | ahead, np.abs(delta), math.inf)
        pick = np.argsort(dist, axis=1)[:, :m]
        q = np.take_along_axis(vecs, pick[:, None, :], axis=2)
        lq = np.swapaxes(q.conj(), 1, 2) * self.lengths
        speed = (lq * np.swapaxes(q, 1, 2)).real.sum(axis=(1, 2))
        step = -np.take_along_axis(delta, pick, axis=1).sum(axis=1) / speed
        step[np.take_along_axis(dist, pick[:, -1:], axis=1)[:, 0] == math.inf] = math.nan
        half = 0.5 * (np.take_along_axis(phases, pick, axis=1)[:, :, None] - phases[:, None, :])
        # the picked phases' terms cancel in the sum
        np.put_along_axis(half, np.repeat(pick[:, None, :], m, axis=1), 0.5 * math.pi, axis=2)
        c = lq @ vecs
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = ((c.real ** 2 + c.imag ** 2) / np.tan(half)).sum(axis=(1, 2))
            return step, 0.5 * np.abs(curv) / speed * step * step


def _pair_integrals(ells: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """P[:, r, e]: the entries <p, p>, <p, q> and <q, q> of the 2 x 2 Gram
    W_e of an edge's pair p = exp(-ikx), q = exp(ikx) over [0, l_e] at
    k = ks[r] (p = q = 1 at k = 0).  The coupling l exp(-ikl) sinc(kl / pi)
    does not cancel at small kl."""
    kl = np.multiply.outer(ks, ells)
    diag = np.broadcast_to(ells, kl.shape)
    return np.stack([diag, diag * np.exp(-1j * kl) * np.sinc(kl / math.pi), diag])


def count_bound(total_length: float, edges: int, k: float) -> float:
    """The eigenphase count: under every boundary subspace and flux at most
    |G| k / pi + 2E eigenvalues lie in (0, k^2], and at least |G| k / pi - 2E."""
    return total_length * k / math.pi + 2 * edges


def wavenumber_range(total_length: float, edges: int, n: int) -> tuple[float, float]:
    """Its inverse: the n-th positive eigenvalue has its square root in
    [pi (n - 2E) / |G|, pi (n + 2E) / |G|]."""
    return math.pi / total_length * (n - 2 * edges), math.pi / total_length * (n + 2 * edges)


def _refuse_oversize(entries: float, lam_max: float) -> None:
    if not entries <= MAX_SOLVE_ENTRIES:
        raise ValueError(f"eigenvalue solve too large: about {entries:.3g} matrix entries "
                         f"up to lambda = {lam_max:g}, above the cap of {MAX_SOLVE_ENTRIES}")


@cache
def _start_block(n: int, m: int) -> np.ndarray:
    """The fixed n x m start block of the null-vector solves,
    exp(i sqrt(2) (j l)^1.5) in row j and column l (both counted from 1): a
    closed form, so reports reproduce and no random generator is loaded."""
    jl = np.outer(np.arange(1.0, n + 1.0), np.arange(1.0, m + 1.0))
    block = np.exp(1j * math.sqrt(2.0) * jl ** 1.5)
    block.flags.writeable = False  # shared by every caller through the cache
    return block


def _null_vectors(u: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix of the stack u, U at a root of multiplicity m, an
    orthonormal basis V (as columns) of the eigenspace of U at 1, and the
    residual ||(U - I) V||_2 on the unshifted matrix.

    Two steps of inverse iteration from _start_block: two stacked solves with
    U - (1 + _SHIFT) I, then each column normalised (m = 1) or the block
    orthonormalised by QR.  Inverse iteration converges to the eigenvectors
    whose eigenvalues lie nearest the shift, and at a root the m eigenvalues
    of U - I in the cluster lie within the root's error of 0, while every
    other one lies a phase gap away: a shift far below that gap costs no
    accuracy, and it keeps an exact root (U - I exactly singular, as on an
    equilateral graph) from meeting a zero pivot, which a shift of 4e-16 did
    on a raw-basis lasso."""
    n = u.shape[-1]
    a = u - np.eye(n)
    shifted = a - _SHIFT * np.eye(n)
    x = np.linalg.solve(shifted, np.linalg.solve(shifted, _start_block(n, m)))
    if m == 1:
        v = x / np.linalg.norm(x, axis=1, keepdims=True)
        return v, np.linalg.norm((a @ v)[..., 0], axis=1)
    v = np.linalg.qr(x)[0]
    r = a @ v
    return v, np.sqrt(np.linalg.eigvalsh(np.swapaxes(r.conj(), 1, 2) @ r)[:, -1])


def _merged(roots: list[tuple[float, int]]) -> list[list]:
    """[wavenumber, multiplicity] of each root in order: a degenerate root
    that roundoff split across a cell edge, every root within CLUSTER_GAP
    above a cluster's first, is one root."""
    merged: list[list] = []
    for k, m in sorted(roots):
        if merged and k - merged[-1][0] < CLUSTER_GAP:
            merged[-1][1] += m
        else:
            merged.append([k, m])
    return merged


def eigenvalues_up_to(g: MetricGraph, y: BoundarySubspace, lam_max: float,
                      count: int | None = None) -> list[EigenPair]:
    """All eigenpairs with eigenvalue in [0, lam_max], multiplicities included;
    with a count, only the lowest of them up to the count-th (zero modes
    included) and the rest of its cluster, each the pair the full solve gives.

    For k > 0 the eigenphases of the bond scattering matrix U(k) are sampled
    on cells of width at most 1 / (longest edge), all cell ends decomposed
    by one _unitary_eig call (a stacked eigh of the skew part of U); the
    exact root count of each cell is split, between the crossings its
    phases predict, until every subcell holds one root (or is
    narrower than CLUSTER_GAP, then one root of that multiplicity), which
    Newton steps converge; a cluster of predicted crossings (a degenerate
    root) is closed by two probes just outside it.  The count is exact for
    every boundary subspace and flux, so the spectrum is complete.  With a
    count, the cells' cumulative counts name the cell that holds the
    count-th eigenvalue, and the cells above it are never searched: each
    cell's roots are searched independently, with the bits the full solve
    gives them.  A cluster that reaches the last searched cell's end takes
    in the next cell too, so it is kept whole.

    One harvest pass then turns the roots into eigenfunctions: the roots of
    one multiplicity m take their null vectors of U(k) - I from two stacked
    LU solves (_null_vectors, inverse iteration at a shift of _SHIFT), and
    the pair's residual is ||(U(k) - I) V||_2 of the returned block.  The
    zero modes are the edgewise constants of _zero_modes (one SVD of M =
    P_{Y-perp} D / sqrt(2), residual ||M V||_2), which enter as the
    amplitudes (a, 0): a_e is the term at frequency 0.  Each cluster is
    L2-orthonormalised through the Cholesky factor of its Gram matrix, which
    is closed form in the edgewise coefficients.  The roots of one
    multiplicity share one array pass (phase fix, Gram, Cholesky and solve),
    and the eigenfunctions' terms are built in canonical form directly.
    """
    if not g.is_compact:
        raise ValueError("eigenvalue solve requires a compact graph")
    if not g.edges:
        raise ValueError("eigenvalue solve requires at least one edge")
    if lam_max <= 0.0:
        raise ValueError("lam_max must be positive")
    if count is not None and count < 1:
        raise ValueError("count must be positive")
    k_hi = math.sqrt(lam_max * (1.0 + 1e-12))
    ne = len(g.edges)
    # the cell stack holds ceil(k ell_max) + 1 matrices, the root search and
    # the harvest about one per root; inf and nan are refused too
    _refuse_oversize((k_hi * max(g.edge_lengths.values()) + 2) * (2 * ne) ** 2, lam_max)
    y_eff = gauge_transform(y, g) if any(e.flux != 0.0 for e in g.edges) else y
    # k = 0 first, since a count includes the zero modes
    zero, zero_residual = _zero_modes(g, y_eff)
    zero_mult = len(zero)
    phases = _Eigenphases(g, y_eff)
    brackets = phases.cells(k_hi)
    reach = np.cumsum([zero_mult] + [m for *_, m in brackets])
    kept = brackets if count is None else brackets[:int(np.searchsorted(reach, count))]
    roots, new = [], kept
    while True:
        _refuse_oversize((sum(m for *_, m in kept) + 1) * (2 * ne) ** 2, lam_max)
        roots += phases.roots(new)
        merged = _merged(roots)
        if count is None:
            break
        cut = int(np.searchsorted(np.cumsum([zero_mult] + [m for _, m in merged]), count))
        new = brackets[len(kept):len(kept) + 1]
        # the count-th eigenvalue's cluster may go on into the next cell
        if not (0 < cut == len(merged) and new and merged[-1][0] + CLUSTER_GAP > new[0][0].k):
            merged = merged[:cut]
            break
        kept = kept + new

    clusters = [(0.0, zero_mult), *merged]
    ks = np.array([k for k, _ in clusters])
    ells = phases.lengths[:ne]
    ints = _pair_integrals(ells, ks)
    residuals = np.zeros(len(clusters))
    funcs: list[list[GraphFunction]] = [[] for _ in clusters]
    solves = 0
    for m in sorted({m for _, m in clusters} - {0}):
        idx = [i for i, (_, mi) in enumerate(clusters) if mi == m]
        blocks, at = [], [i for i in idx if i]
        if idx[0] == 0:
            blocks.append(np.concatenate([zero, np.zeros_like(zero)], axis=1)[None])
            residuals[0] = zero_residual
        if at:
            # the null vectors are the outgoing amplitudes alpha: edge e
            # carries A exp(-ikx) + B exp(ikx) with A = alpha_(e,l) exp(ikl)
            # and B = alpha_(e,0)
            null, residuals[at] = _null_vectors(phases.unitary(ks[at]), m)
            solves += 2
            amps = np.swapaxes(null, 1, 2)[..., np.r_[ne:2 * ne, 0:ne]]
            amps[..., :ne] *= np.exp(1j * ks[at, None, None] * ells)
            blocks.append(amps)
        vecs = _phase_fix(np.concatenate(blocks))
        # each cluster Gram G = sum_e V_e W_e V_e^H = L L^H: the rows of
        # L^-1 vecs are L2-orthonormal
        cross = (vecs[..., :ne] * ints[1, idx, None]) @ np.swapaxes(vecs[..., ne:].conj(), 1, 2)
        gram = ((vecs * np.concatenate([ints[0, idx], ints[2, idx]], axis=1)[:, None])
                @ np.swapaxes(vecs.conj(), 1, 2) + cross + np.swapaxes(cross.conj(), 1, 2))
        coeffs = np.linalg.solve(np.linalg.cholesky(gram), vecs)
        fs = _eigenfunctions(g, np.repeat(ks[idx], m), coeffs.reshape(-1, 2 * ne))
        for j, i in enumerate(idx):
            funcs[i] = fs[j * m:(j + 1) * m]
    pairs = [EigenPair(k=k, lam=k * k, function=f, residual=float(residuals[i]))
             for i, (k, m) in enumerate(clusters) for f in funcs[i]]
    diagnostics = dict(phases.stats, svds=1, solves=solves,
                       zero_multiplicity=zero_mult, count=int(reach[-1]), kept=len(pairs),
                       worst_residual=float(residuals.max()))
    _log.debug("eigenvalues_up_to %s", diagnostics, extra={"diagnostics": diagnostics})
    return pairs


def boundary_residual(g: MetricGraph, y: BoundarySubspace, f: GraphFunction) -> float:
    """Distance of (plus-trace, minus-trace of i f') from (Y, Y-perp)."""
    fp = f.derivative()
    plus = f.boundary_trace(+1)
    minus = 1.0j * fp.boundary_trace(-1)
    return y.residual(plus) + y.perp().residual(minus)


def spectral_sample(pairs: list[EigenPair], coeffs) -> GraphFunction:
    """Linear combination sum_j c_j phi_j of computed eigenfunctions."""
    coeffs = list(coeffs)
    if len(coeffs) != len(pairs):
        raise ValueError("one coefficient per eigenpair required")
    if not pairs:
        raise ValueError("empty eigenpair list")
    graph = pairs[0].function.graph
    # the eigenfunctions' terms are canonical: their sums by key need only
    # the pruning and sorting of canonical_terms
    sums: dict[str, dict[tuple[int, float], complex]] = {}
    for c, p in zip(coeffs, pairs):
        if p.function.graph is not graph:
            raise ValueError("functions live on different graphs")
        z = complex(c)
        for e, ts in p.function.terms.items():
            acc = sums.setdefault(e, {})
            for coeff, power, freq in ts:
                acc[power, freq] = acc.get((power, freq), 0j) + coeff * z
    return GraphFunction._canonical(graph, {e: ts for e, acc in sums.items()
                                            if (ts := _pruned(acc))})


def solve_torsion(g: MetricGraph, dirichlet) -> TorsionSolution:
    """Edgewise quadratic solution u = -x^2/2 + a + b x of -u'' = 1 with u = 0
    on the Dirichlet vertex set and standard conditions elsewhere; also
    returns the total integral of u (the torsional rigidity).  The edgewise
    (a, b) solve the k = 0 secular system of that boundary subspace, whose
    right side carries the traces of -x^2/2.  By the Fredholm alternative the
    system is solvable exactly when 0 is not an eigenvalue, so the solve is
    refused when _zero_modes, the rule eigenvalues_up_to takes its zero modes
    from, finds one."""
    dirichlet = tuple(dict.fromkeys(str(v) for v in dirichlet))
    if not dirichlet:
        raise ValueError("Dirichlet vertex set must be nonempty")
    for v in dirichlet:
        if v not in g.vertices:
            raise ValueError(f"unknown vertex {v!r}")
    if not g.is_compact:
        raise ValueError("torsion solve requires a compact graph")
    if not g.edges:
        raise ValueError("torsion solve requires at least one edge")
    y = vertex_conditions_subspace(g, "standard", dict.fromkeys(dirichlet, "dirichlet"))
    if len(_zero_modes(g, y)[0]):
        raise ValueError("torsion system singular: some part of the graph is "
                         "not connected to the Dirichlet set")
    # -x^2/2 has plus-trace -l^2/2 and minus-trace of i f' equal to -i l at
    # (e, l), both 0 at (e, 0)
    at_len = np.array([end * g.edge_lengths[eid] for eid, end in g.boundary_coords])
    rhs = np.concatenate([y.perp().basis.conj() @ (0.5 * at_len ** 2),
                          y.basis.conj() @ (1.0j * at_len)])
    sol = np.linalg.solve(_secular(g, y, 0.0), rhs).real
    terms, rigidity = {}, 0.0
    for e, a, b in zip(g.edges, sol, sol[len(g.edges):]):
        terms[e.id] = [PolyTrigTerm(-0.5, 2, 0.0), PolyTrigTerm(b, 1, 0.0),
                       PolyTrigTerm(a, 0, 0.0)]
        rigidity += -e.length ** 3 / 6.0 + 0.5 * b * e.length * e.length + a * e.length
    return TorsionSolution(function=GraphFunction(g, terms), rigidity=rigidity,
                           dirichlet=dirichlet)
