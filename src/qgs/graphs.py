"""Metric-graph data model, vertex-condition subspaces and geometric invariants.

A graph is a set of vertices plus oriented edges of positive (possibly
infinite) length; each finite edge may carry a magnetic flux, the integral
of the vector potential along the edge, which is the only gauge-observable
magnetic datum.  Boundary values live in C^(|E| + |E_int|), ordered as all
(e, 0) endpoints in edge declaration order followed by the (e, len) endpoints
of the finite edges; vertex conditions are encoded by an orthonormal basis
of a subspace Y of that space.
"""

from __future__ import annotations

import heapq
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

ORTHO_TOL = 1e-12        # orthonormality validation tolerance
RANK_TOL = 1e-10         # SVD rank tolerance: relative to the largest singular value in
                         # _span_and_perp, absolute on spectral._zero_modes' isometry-scaled M

CONDITION_NAMES = ("standard", "dirichlet", "neumann", "anti-kirchhoff")


@dataclass(frozen=True)
class Edge:
    id: str
    source: str
    target: str | None
    length: float
    flux: float = 0.0

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.length)


class MetricGraph:
    """Validated immutable metric graph."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        self.vertices: tuple[str, ...] = tuple(str(v) for v in vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        es: list[Edge] = []
        seen = set()
        for e in edges:
            if e.id in seen:
                raise ValueError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            if not (e.length > 0.0):
                raise ValueError(f"edge {e.id!r} has nonpositive length")
            if e.source not in vset:
                raise ValueError(f"edge {e.id!r} references unknown vertex {e.source!r}")
            if math.isfinite(e.length):
                if e.target is None:
                    raise ValueError(f"finite edge {e.id!r} needs a terminal vertex")
                if e.target not in vset:
                    raise ValueError(f"edge {e.id!r} references unknown vertex {e.target!r}")
            else:
                if e.target is not None:
                    raise ValueError(f"infinite edge {e.id!r} cannot have a terminal vertex")
                if e.flux != 0.0:
                    raise ValueError(f"infinite edge {e.id!r} cannot carry flux")
            es.append(e)
        self.edges: tuple[Edge, ...] = tuple(es)
        self.edge_ids: tuple[str, ...] = tuple(e.id for e in self.edges)
        self.internal_ids: tuple[str, ...] = tuple(e.id for e in self.edges if e.is_finite)
        self.external_ids: tuple[str, ...] = tuple(e.id for e in self.edges if not e.is_finite)
        self.edge_lengths: dict[str, float] = {e.id: e.length for e in self.edges}
        self._by_id: dict[str, Edge] = {e.id: e for e in self.edges}
        # boundary coordinates: (e, 0) block for all edges, then (e, len) block
        coords: list[tuple[str, int]] = [(eid, 0) for eid in self.edge_ids]
        coords += [(eid, 1) for eid in self.internal_ids]
        self.boundary_coords: tuple[tuple[str, int], ...] = tuple(coords)

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_coords)

    @property
    def is_compact(self) -> bool:
        return not self.external_ids

    def vertex_coords(self, v: str) -> list[int]:
        """Boundary coordinate indices whose endpoint is glued at vertex v."""
        idx = []
        for i, (eid, end) in enumerate(self.boundary_coords):
            e = self._by_id[eid]
            if end == 0 and e.source == v:
                idx.append(i)
            elif end == 1 and e.target == v:
                idx.append(i)
        return idx


def build_graph(vertices: Iterable[str], edges: Iterable[tuple]) -> MetricGraph:
    """Build and validate a graph from (id, source, target, length[, flux])
    tuples, with target None for rays."""
    return MetricGraph(vertices, [Edge(str(eid), str(src), None if tgt is None else str(tgt),
                                       float(ell), float(rest[0]) if rest else 0.0)
                                  for eid, src, tgt, ell, *rest in edges])


# ---------------------------------------------------------------------------
# geometric invariants


@dataclass(frozen=True)
class GraphMetrics:
    total_length: float
    betti: int
    diameter: float | None
    degree1_count: int
    connected: bool


def _vertex_distances(g: MetricGraph) -> dict[str, dict[str, float]]:
    adj: dict[str, list[tuple[str, float]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.target is None:
            continue
        adj[e.source].append((e.target, e.length))
        adj[e.target].append((e.source, e.length))
    dist: dict[str, dict[str, float]] = {}
    for src in g.vertices:
        d = {v: math.inf for v in g.vertices}
        d[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > d[u]:
                continue
            for w, ell in adj[u]:
                alt = du + ell
                if alt < d[w]:
                    d[w] = alt
                    heapq.heappush(heap, (alt, w))
        dist[src] = d
    return dist


def _edge_pair_max(e: Edge, f: Edge, dv: dict[str, dict[str, float]]) -> float:
    """Max over x in e, y in f of the point distance, by exact enumeration.

    At s on e and t on f the distance is the minimum of four routes through
    the edge ends (and of |s - t| when e is f), all affine with slopes +-1.
    The maximum over the rectangle is where two lines a*s + b*t + c = 0 meet:
    sides, or where two pieces are equal (s = t among them).  With a, b in
    {0, +-1, +-2}, Cramer's rule costs one rounding; points are clipped into
    the rectangle, so every value taken is a true distance.
    """
    le, lf = e.length, f.length
    pieces = np.array([
        (1.0, 1.0, dv[e.source][f.source]),
        (1.0, -1.0, dv[e.source][f.target] + lf),
        (-1.0, 1.0, dv[e.target][f.source] + le),
        (-1.0, -1.0, dv[e.target][f.target] + le + lf),
    ])
    same = e.id == f.id
    if same:  # the direct route: s - t on one triangle, t - s on the other
        pieces = np.vstack([pieces, [(1.0, -1.0, 0.0), (-1.0, 1.0, 0.0)]])
    i, j = np.triu_indices(len(pieces), 1)
    a, b, c = np.vstack([[(1.0, 0.0, 0.0), (1.0, 0.0, -le), (0.0, 1.0, 0.0),
                          (0.0, 1.0, -lf)], pieces[i] - pieces[j]]).T
    det = np.multiply.outer(a, b) - np.multiply.outer(b, a)
    hit = det != 0.0
    s = ((np.multiply.outer(b, c) - np.multiply.outer(c, b))[hit] / det[hit]).clip(0.0, le)
    t = ((np.multiply.outer(c, a) - np.multiply.outer(a, c))[hit] / det[hit]).clip(0.0, lf)
    dist = (pieces[:4, :1] * s + pieces[:4, 1:2] * t + pieces[:4, 2:]).min(axis=0)
    if same:
        dist = np.minimum(dist, np.abs(s - t))
    return float(dist.max())


def metrics(g: MetricGraph) -> GraphMetrics:
    """Total length, Betti number, diameter (None unless the graph is compact,
    connected and has edges), leaf count and connectedness, all read from one
    table of vertex distances."""
    dv = _vertex_distances(g)
    # a component is the set of vertices one vertex reaches: its row's finite entries
    components = len({frozenset(w for w, d in row.items() if d < math.inf) for row in dv.values()})
    connected = components <= 1
    diam = None
    if connected and g.is_compact and g.edges:
        diam = max(_edge_pair_max(e, f, dv) for i, e in enumerate(g.edges) for f in g.edges[i:])
    return GraphMetrics(
        total_length=sum(e.length for e in g.edges),
        # rays are trees: count a virtual leaf per external edge in the Euler formula
        betti=len(g.edges) - (len(g.vertices) + len(g.external_ids)) + components,
        diameter=diam,
        # a vertex's boundary coordinates are its edge ends: a loop counts twice
        degree1_count=sum(1 for v in g.vertices if len(g.vertex_coords(v)) == 1),
        connected=connected,
    )


# ---------------------------------------------------------------------------
# boundary subspaces


def _span_and_perp(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows for the span of rows and for its orthogonal
    complement, from one SVD: the rank counts the singular values above
    RANK_TOL times the largest."""
    _, sv, vh = np.linalg.svd(rows)
    rank = int(np.count_nonzero(sv > RANK_TOL * sv.max(initial=0.0)))
    return vh[:rank], vh[rank:]


class BoundarySubspace:
    """Orthonormal basis (rows) of a closed subspace of the boundary space."""

    __slots__ = ("graph", "basis")

    def __init__(self, graph: MetricGraph, basis: np.ndarray):
        basis = np.atleast_2d(np.asarray(basis, dtype=complex))
        if basis.size == 0:
            basis = basis.reshape(0, graph.n_boundary)
        if basis.shape[1] != graph.n_boundary:
            raise ValueError(f"basis vectors must have length {graph.n_boundary}")
        if basis.shape[0] > graph.n_boundary:
            raise ValueError("more basis vectors than boundary dimensions")
        gram = basis @ basis.conj().T
        if not (np.abs(gram - np.eye(basis.shape[0])) <= ORTHO_TOL).all():
            raise ValueError("basis is not orthonormal to 1e-12")
        self.graph = graph
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def perp(self) -> "BoundarySubspace":
        return BoundarySubspace(self.graph, _span_and_perp(self.basis)[1])

    def residual(self, vec: np.ndarray) -> float:
        """Distance from vec to the subspace."""
        v = np.asarray(vec, dtype=complex)
        return float(np.linalg.norm(v - self.basis.T @ (self.basis.conj() @ v)))

    def equals(self, other: "BoundarySubspace", tol: float = 1e-10) -> bool:
        """Span equality via mutual projection residuals."""
        if self.dim != other.dim:
            return False
        r = max((other.residual(v) for v in self.basis), default=0.0)
        s = max((self.residual(v) for v in other.basis), default=0.0)
        return max(r, s) < tol


def full_subspace(g: MetricGraph) -> BoundarySubspace:
    return BoundarySubspace(g, np.eye(g.n_boundary, dtype=complex))


def zero_subspace(g: MetricGraph) -> BoundarySubspace:
    return BoundarySubspace(g, np.zeros((0, g.n_boundary), dtype=complex))


def vertex_conditions_subspace(g: MetricGraph, default: str = "standard",
                               overrides: Mapping[str, str] | None = None) -> BoundarySubspace:
    """Compile per-vertex symbolic conditions into a boundary subspace.

    standard        span of the vertex indicator (continuity + zero flux balance);
    dirichlet       the vertex contributes nothing, its endpoint coordinates
                    drop out of the support of Y;
    neumann         the full coordinate block at the vertex (decoupled);
    anti-kirchhoff  the orthogonal complement, within the block, of the signed
                    indicator (-1 on outgoing (e,0) slots, +1 on incoming ones).
    """
    overrides = dict(overrides or {})
    for v, cond in overrides.items():
        if v not in g.vertices:
            raise ValueError(f"condition override for unknown vertex {v!r}")
        if cond not in CONDITION_NAMES:
            raise ValueError(f"unknown vertex condition {cond!r}")
    if default not in CONDITION_NAMES:
        raise ValueError(f"unknown vertex condition {default!r}")
    n = g.n_boundary
    rows: list[np.ndarray] = []
    for v in g.vertices:
        cond = overrides.get(v, default)
        idx = g.vertex_coords(v)
        if not idx:
            continue
        if cond == "dirichlet":
            continue
        if cond == "neumann":
            for i in idx:
                row = np.zeros(n, dtype=complex)
                row[i] = 1.0
                rows.append(row)
        elif cond == "standard":
            row = np.zeros(n, dtype=complex)
            row[idx] = 1.0
            rows.append(row / math.sqrt(len(idx)))
        else:  # anti-kirchhoff: block complement of the signed indicator
            signed = np.array([[-1.0 if g.boundary_coords[i][1] == 0 else 1.0 for i in idx]],
                              dtype=complex)
            for brow in _span_and_perp(signed)[1]:
                row = np.zeros(n, dtype=complex)
                row[idx] = brow
                rows.append(row)
    basis = np.array(rows) if rows else np.zeros((0, n), dtype=complex)
    return BoundarySubspace(g, basis)


def standard_subspace(g: MetricGraph) -> BoundarySubspace:
    """Continuity plus zero net derivative flux at every vertex."""
    return vertex_conditions_subspace(g, "standard")


def subspace_from_basis(g: MetricGraph, raw_rows: Sequence[Sequence[complex]]) -> BoundarySubspace:
    """Orthonormalise a user-supplied spanning set: its nonzero rows are scaled
    to unit norm, so the rank (tolerance RANK_TOL) depends neither on their
    order nor on their scales."""
    arr = np.array([[complex(z) for z in row] for row in raw_rows], dtype=complex)
    if arr.size == 0:
        return zero_subspace(g)
    if not np.isfinite(arr).all():
        raise ValueError("basis entries must be finite")
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    basis = _span_and_perp(arr / np.where(norms > 0.0, norms, 1.0))[0]
    if len(basis) < len(arr):
        warnings.warn(f"user basis reduced: dropped {len(arr) - len(basis)} "
                      "near-dependent vector(s)", stacklevel=2)
    return BoundarySubspace(g, basis)


def dual_subspace(y: BoundarySubspace) -> BoundarySubspace:
    """The subspace governing first derivatives of functions satisfying Y:
    negate the (e, 0) block of the orthogonal complement.  Involutive on
    subspaces (the basis may differ)."""
    basis = y.perp().basis
    basis[:, : len(y.graph.edge_ids)] *= -1.0
    return BoundarySubspace(y.graph, basis)


def gauge_transform(y: BoundarySubspace, g: MetricGraph) -> BoundarySubspace:
    """Rotate the (e, len) coordinate of every basis vector by exp(-1j*flux_e);
    absorbs the per-edge fluxes into the vertex conditions."""
    if y.graph is not g and y.graph.boundary_coords != g.boundary_coords:
        raise ValueError("subspace does not match the graph's boundary layout")
    basis = np.array(y.basis, dtype=complex)
    offset = len(g.edge_ids)
    for j, eid in enumerate(g.internal_ids):
        theta = g.edge(eid).flux
        if theta != 0.0:
            basis[:, offset + j] *= complex(math.cos(theta), -math.sin(theta))
    return BoundarySubspace(g, basis)


# ---------------------------------------------------------------------------
# JSON ingestion


@contextmanager
def malformed(what: str):
    """Report a JSON description of the wrong shape, which Python meets as a
    KeyError, IndexError, TypeError, AttributeError or OverflowError (an
    infinite count), as a ValueError naming what was read."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what} missing field {exc}") from exc
    except (IndexError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def read_json(path):
    """The JSON value in the file at `path`, or a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def graph_from_dict(data: Mapping) -> tuple[MetricGraph, BoundarySubspace]:
    """Parse the graph description format; returns the graph and the compiled
    vertex-condition subspace (standard by default)."""
    with malformed("graph description"):
        vertices = [str(v) for v in data["vertices"]]
        edges = []
        for i, ed in enumerate(data["edges"]):
            with malformed(f"edge {i}"):
                length = ed["length"]
                if isinstance(length, str):
                    if length.lower() not in ("inf", "infinity"):
                        raise ValueError(f"edge {i}: bad length {length!r}")
                    length = math.inf
                target = ed.get("to")
                edges.append(Edge(
                    id=str(ed.get("id", f"e{i}")),
                    source=str(ed["from"]),
                    target=None if target is None else str(target),
                    length=float(length),
                    flux=float(ed.get("flux", 0.0)),
                ))
        g = MetricGraph(vertices, edges)
        cond = data.get("conditions", {})
        if "subspace" in cond:
            rows = [[complex(z["re"], z.get("im", 0.0)) for z in row]
                    for row in cond["subspace"]["basis"]]
            return g, subspace_from_basis(g, rows)
        return g, vertex_conditions_subspace(g, cond.get("default", "standard"),
                                             cond.get("overrides"))


def load_graph(path) -> tuple[MetricGraph, BoundarySubspace]:
    return graph_from_dict(read_json(path))
