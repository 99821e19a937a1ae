import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs.graphs import (BoundarySubspace, Edge, MetricGraph, _edge_pair_max,
                        _vertex_distances, build_graph, dual_subspace,
                        full_subspace, gauge_transform, graph_from_dict, metrics,
                        standard_subspace, subspace_from_basis,
                        vertex_conditions_subspace, zero_subspace)
from qgs.polytrig import GraphFunction, IntervalUnion, PolyTrigTerm

from oracles import (diameter_point_cloud, edge_end_degree, exact_edge_pair_max,
                     lp_edge_pair_max, norm_sq, subdivide, union_find_metrics)


def interval(ell=math.pi):
    return build_graph(["a", "b"], [("e", "a", "b", ell)])


def three_star(ell=1.0):
    return build_graph(["c", "w1", "w2", "w3"],
                       [("e1", "c", "w1", ell), ("e2", "c", "w2", ell),
                        ("e3", "c", "w3", ell)])


def lasso(loop_len=1.0, tail_len=1.0):
    return build_graph(["v", "w"], [("loop", "v", "v", loop_len),
                                    ("tail", "v", "w", tail_len)])


def complete(n, length):
    vs = [f"v{i}" for i in range(n)]
    return build_graph(vs, [(f"e{a}{b}", vs[a], vs[b], length())
                            for a in range(n) for b in range(a + 1, n)])


def diameter_corpus(seed, count):
    """Seeded connected graphs in turn: trees, cycles (a loop and a parallel
    pair among them), multigraphs with loops and parallel edges, complete
    graphs.  Half the lengths are halves, so that many routes tie exactly."""
    rng = np.random.default_rng(seed)

    def length():
        if rng.random() < 0.5:
            return float(rng.uniform(0.1, 3.0))
        return int(rng.integers(1, 5)) / 2.0

    for i in range(count):
        kind = i % 4
        n = int(rng.integers(*((2, 6), (1, 6), (1, 6), (3, 5))[kind]))
        vs = [f"v{j}" for j in range(n)]
        if kind == 3:
            yield complete(n, length)
            continue
        if kind == 1:
            es = [(f"e{j}", vs[j], vs[(j + 1) % n], length()) for j in range(n)]
        else:
            es = [(f"t{j}", vs[int(rng.integers(j))], vs[j], length()) for j in range(1, n)]
        if kind == 2:
            es += [(f"x{j}", vs[int(rng.integers(n))], vs[int(rng.integers(n))], length())
                   for j in range(int(rng.integers(1, 4)))]
        yield build_graph(vs, es)


def invariants_corpus(seed, count):
    """The empty graph, one isolated vertex, then seeded graphs on up to six
    vertices with up to eight edges: rays, loops, parallel edges, isolated
    vertices and disconnected parts all occur."""
    rng = np.random.default_rng(seed)
    yield MetricGraph([], [])
    yield build_graph(["v"], [])
    for _ in range(count):
        n = int(rng.integers(1, 7))
        vs = [f"v{j}" for j in range(n)]
        es = []
        for j in range(int(rng.integers(0, 9))):
            a = vs[int(rng.integers(n))]
            if rng.random() < 0.15:
                es.append((f"r{j}", a, None, math.inf))
                continue
            b = a if rng.random() < 0.15 else vs[int(rng.integers(n))]
            halves = rng.random() < 0.5  # ties between routes, as in diameter_corpus
            ell = int(rng.integers(1, 5)) / 2.0 if halves else float(rng.uniform(0.1, 3.0))
            es.append((f"e{j}", a, b, ell))
        yield build_graph(vs, es)


def edge_pairs(g):
    return [(e, f) for i, e in enumerate(g.edges) for f in g.edges[i:]]


class TestBuild:
    def test_single_edge(self):
        g = interval(1.0)
        assert len(g.edges) == 1 and len(g.vertices) == 2
        assert g.is_compact and metrics(g).connected

    def test_lasso_valid(self):
        g = lasso()
        assert len(g.vertex_coords("v")) == 3 and len(g.vertex_coords("w")) == 1

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            build_graph(["a", "b"], [("e", "a", "b", 0.0)])

    def test_dangling_vertex_rejected(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            build_graph(["a"], [("e", "a", "b", 1.0)])

    def test_flux_on_ray_rejected(self):
        with pytest.raises(ValueError, match="flux"):
            MetricGraph(["a"], [Edge("r", "a", None, math.inf, 0.5)])

    def test_ray_with_target_rejected(self):
        with pytest.raises(ValueError, match="terminal"):
            MetricGraph(["a", "b"], [Edge("r", "a", "b", math.inf)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate vertex ids"):
            build_graph(["a", "b", "a"], [("e", "a", "b", 1.0)])
        with pytest.raises(ValueError, match="duplicate edge id 'e'"):
            build_graph(["a", "b"], [("e", "a", "b", 1.0), ("e", "b", "a", 2.0)])


class TestMetrics:
    def test_interval(self):
        m = metrics(interval(math.pi))
        assert m.total_length == pytest.approx(math.pi)
        assert m.betti == 0 and m.degree1_count == 2
        assert m.diameter == pytest.approx(math.pi, rel=1e-12)

    def test_three_star(self):
        m = metrics(three_star(1.0))
        assert m.total_length == 3.0 and m.betti == 0 and m.degree1_count == 3
        assert m.diameter == pytest.approx(2.0, rel=1e-12)

    def test_lasso(self):
        m = metrics(lasso(1.0, 1.0))
        assert m.betti == 1 and m.degree1_count == 1
        brute = diameter_point_cloud(lasso(1.0, 1.0), pts_per_edge=1000)
        assert m.diameter == pytest.approx(brute, abs=3e-3)
        assert m.diameter == pytest.approx(1.5, rel=1e-12)

    def test_loop_diameter(self):
        g = build_graph(["v"], [("loop", "v", "v", 2.0)])
        assert metrics(g).diameter == pytest.approx(1.0, rel=1e-12)

    def test_random_graph_diameter_vs_cloud(self):
        g = build_graph(
            ["a", "b", "c", "d"],
            [("e1", "a", "b", 0.8), ("e2", "b", "c", 1.3), ("e3", "c", "a", 0.6),
             ("e4", "c", "d", 0.9)])
        got = metrics(g).diameter
        brute = diameter_point_cloud(g, pts_per_edge=400)
        assert got == pytest.approx(brute, abs=5e-3)

    def test_diameter_matches_lp_reference(self):
        graphs = [lasso(1.0, 1.0), lasso(1.513225, 1.009786), complete(4, lambda: 1.0),
                  complete(5, lambda: 1.0), *diameter_corpus(5, 200)]
        for g in graphs:
            dv = _vertex_distances(g)
            ref = [lp_edge_pair_max(e, f, dv) for e, f in edge_pairs(g)]
            got = [_edge_pair_max(e, f, dv) for e, f in edge_pairs(g)]
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)
            assert metrics(g).diameter == pytest.approx(max(ref), rel=1e-14, abs=0.0)

    def test_diameter_exact_on_near_ties(self):
        # Lengths 1 + eps on complete graphs leave route gaps of 1e-15..1e-9.
        # There the LP reference drifts by up to 2.5e-10 relative within its
        # feasibility tolerance, so rational arithmetic is the arbiter.
        rng = np.random.default_rng(7)
        for n in (3, 4, 5) * 8:
            g = complete(n, lambda: 1.0 + float(rng.choice([0.0, 1e-15, 1e-13, -1e-13, 1e-9])))
            dv = _vertex_distances(g)
            for e, f in edge_pairs(g):
                exact = exact_edge_pair_max(g, e, f)
                assert abs(Fraction(_edge_pair_max(e, f, dv)) - exact) <= 1e-15 * exact

    def test_disconnected_diameter(self):
        g = build_graph(["a", "b", "c", "d"],
                        [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)])
        assert metrics(g).diameter is None

    def test_betti_with_ray(self):
        g = MetricGraph(["a"], [Edge("loop", "a", "a", 1.0),
                                Edge("ray", "a", None, math.inf)])
        assert metrics(g).betti == 1

    def test_metrics_match_the_union_find_oracle(self):
        # every field equal, the diameter bit for bit: the components now come
        # from the distance table the diameter reads, the leaves from vertex_coords
        seen = set()
        for g in invariants_corpus(11, 600):
            want = union_find_metrics(g)
            assert metrics(g) == want
            for v in g.vertices:
                assert len(g.vertex_coords(v)) == edge_end_degree(g, v)
            ends = [frozenset((e.source, e.target)) for e in g.edges if e.is_finite]
            seen.update(name for name, hit in (
                ("empty", not g.vertices), ("ray", not g.is_compact),
                ("loop", any(e.source == e.target for e in g.edges)),
                ("parallel", len(set(ends)) < len(ends)),
                ("isolated", any(not g.vertex_coords(v) for v in g.vertices)),
                ("disconnected", not want.connected),
                ("diameter", want.diameter is not None)) if hit)
        assert seen == {"empty", "ray", "loop", "parallel", "isolated", "disconnected",
                        "diameter"}


class TestSubspaces:
    def test_interval_standard_is_full(self):
        g = interval()
        y = standard_subspace(g)
        assert y.dim == 2
        assert y.equals(full_subspace(g))

    def test_interval_dirichlet_empty(self):
        g = interval()
        y = vertex_conditions_subspace(g, "dirichlet")
        assert y.dim == 0

    def test_star_center_indicator(self):
        g = three_star()
        y = standard_subspace(g)
        # center row has three equal entries on the (e,0) coordinates
        center = [row for row in y.basis
                  if np.count_nonzero(np.abs(row) > 1e-12) == 3]
        assert len(center) == 1
        np.testing.assert_allclose(np.abs(center[0][:3]), 1 / math.sqrt(3), atol=1e-12)

    def test_dual_extremes(self):
        g = interval()
        assert dual_subspace(full_subspace(g)).dim == 0
        assert dual_subspace(zero_subspace(g)).dim == g.n_boundary

    def test_dual_standard_star_is_anti_kirchhoff(self):
        g = three_star()
        dual = dual_subspace(standard_subspace(g))
        anti = vertex_conditions_subspace(g, "anti-kirchhoff")
        assert dual.equals(anti)

    def test_dual_involution(self):
        rng = np.random.default_rng(3)
        g = lasso()
        raw = rng.normal(size=(2, g.n_boundary)) + 1j * rng.normal(size=(2, g.n_boundary))
        y = subspace_from_basis(g, raw)
        twice = dual_subspace(dual_subspace(y))
        assert twice.equals(y, tol=1e-10)

    def test_gauge_identity_without_flux(self):
        g = lasso()
        y = standard_subspace(g)
        assert gauge_transform(y, g).equals(y)

    def test_gauge_two_pi_is_identity(self):
        g = build_graph(["v"], [("loop", "v", "v", 1.0, 2 * math.pi)])
        y = standard_subspace(g)
        assert gauge_transform(y, g).equals(y, tol=1e-9)

    def test_gauge_unitary(self):
        g = build_graph(["v", "w"], [("loop", "v", "v", 1.0, 0.7),
                                     ("tail", "v", "w", 1.0, -0.3)])
        y = standard_subspace(g)
        ty = gauge_transform(y, g)
        gram = ty.basis @ ty.basis.conj().T
        assert np.max(np.abs(gram - np.eye(ty.dim))) < 1e-12

    def test_user_basis_reduction_warns(self):
        g = interval()
        with pytest.warns(UserWarning, match="reduced"):
            y = subspace_from_basis(g, [[1.0, 0.0], [2.0, 0.0]])
        assert y.dim == 1

    def test_orthonormality_validated(self):
        # every basis is checked: the constructor has no flag to skip it
        for basis in ([[1.0, 1.0]], [[1.0 + 1e-11, 0.0]], [[1.0, 0.0], [1.0, 1e-6]],
                      [[math.nan, 0.0]]):
            with pytest.raises(ValueError, match="orthonormal"):
                BoundarySubspace(interval(), np.array(basis))

    def test_basis_shape_validated(self):
        with pytest.raises(ValueError, match="basis vectors must have length 2"):
            BoundarySubspace(interval(), np.eye(3))
        with pytest.raises(ValueError, match="more basis vectors than boundary dimensions"):
            BoundarySubspace(interval(), np.ones((3, 2)))

    def test_unknown_conditions_rejected(self):
        g = interval()
        with pytest.raises(ValueError, match="override for unknown vertex 'z'"):
            vertex_conditions_subspace(g, overrides={"z": "dirichlet"})
        with pytest.raises(ValueError, match="unknown vertex condition 'robin'"):
            vertex_conditions_subspace(g, overrides={"a": "robin"})
        with pytest.raises(ValueError, match="unknown vertex condition 'robin'"):
            vertex_conditions_subspace(g, "robin")

    def test_gauge_needs_the_same_boundary_layout(self):
        with pytest.raises(ValueError, match="does not match the graph's boundary layout"):
            gauge_transform(standard_subspace(three_star()), interval())

    def test_perp_is_the_direct_svd_bit_for_bit(self):
        # complements keep the bits of the SVD call they always came from
        k4 = build_graph("abcd", [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.1),
                                  ("e3", "c", "d", 0.9), ("e4", "d", "a", 1.2),
                                  ("e5", "a", "c", 0.8), ("e6", "b", "d", 1.3)])
        for g in (interval(), three_star(), lasso(), k4):
            n = g.n_boundary
            for y in (standard_subspace(g), vertex_conditions_subspace(g, "neumann"),
                      vertex_conditions_subspace(g, "standard", {g.vertices[0]: "dirichlet"}),
                      zero_subspace(g), full_subspace(g)):
                if y.dim == 0:
                    want = np.eye(n, dtype=complex)
                elif y.dim == n:
                    want = np.zeros((0, n), dtype=complex)
                else:
                    want = np.linalg.svd(y.basis)[2][y.dim:]
                got = y.perp().basis
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_independent_rows_far_apart_in_scale_are_kept(self):
        rng = np.random.default_rng(5)
        g = lasso()
        a, b = rng.normal(size=(2, g.n_boundary)) + 1j * rng.normal(size=(2, g.n_boundary))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = subspace_from_basis(g, [1e-6 * a, 1e6 * b])
        assert y.dim == 2

    def test_raw_basis_entries_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            subspace_from_basis(interval(), [[1.0, math.inf]])


def _raw_rows(rng, n, r, k, eta):
    """k rows of rank r in C^n, each scaled by 10^u with u uniform in [-6, 6];
    with eta > 0 one more row: a combination of them plus a perturbation of
    relative size eta in a random direction."""
    base = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
    rows = (rng.normal(size=(k, r)) + 1j * rng.normal(size=(k, r))) @ base
    if eta > 0.0 and r:
        near = (rng.normal(size=r) + 1j * rng.normal(size=r)) @ base
        kick = rng.normal(size=n) + 1j * rng.normal(size=n)
        near += eta * np.linalg.norm(near) * kick / np.linalg.norm(kick)
        rows = np.vstack([rows, near])
    return rows * 10.0 ** rng.uniform(-6.0, 6.0, size=(len(rows), 1))


def _reduced(g, rows):
    """subspace_from_basis on rows, and whether it warned of a reduction."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        y = subspace_from_basis(g, rows)
    return y, any("reduced" in str(w.message) for w in caught)


class TestRawBasisFuzz:
    """A raw basis's rank depends neither on the order nor on the scales of
    its rows, also with a near-dependent row (relative 3e-10, next to the
    1e-10 rank tolerance) that a rank decided row by row keeps or drops by
    its position."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), data=st.data(),
           eta=st.sampled_from([0.0, 1e-12, 3e-10]))
    def test_rank_and_complement(self, seed, n, data, eta):
        rng = np.random.default_rng(seed)
        r = data.draw(st.integers(0, n), label="rank")
        k = data.draw(st.integers(max(r, 1), r + 4), label="rows")
        g = build_graph(["c"], [(f"r{i}", "c", None, math.inf) for i in range(n)])  # C^n
        rows = _raw_rows(rng, n, r, k, eta)
        y, warned = _reduced(g, rows)
        if eta == 3e-10:
            assert r <= y.dim <= min(r + 1, n)
        else:
            assert y.dim == r
        assert warned == (y.dim < len(rows))
        for other in (rows[rng.permutation(len(rows))],
                      rows * 10.0 ** rng.uniform(-6.0, 6.0, size=(len(rows), 1))):
            assert _reduced(g, other)[0].dim == y.dim
        assert np.abs(y.basis @ y.basis.conj().T - np.eye(y.dim)).max(initial=0.0) <= 1e-12
        perp = y.perp()
        assert perp.dim + y.dim == n
        assert np.abs(perp.basis @ y.basis.conj().T).max(initial=0.0) <= 1e-12
        for row in rows[:k]:
            if np.linalg.norm(row) > 0.0:
                assert y.residual(row / np.linalg.norm(row)) <= 1e-9
        assert dual_subspace(dual_subspace(y)).equals(y, tol=1e-10)


class TestSubdivide:
    def test_piece_lengths(self):
        g = interval(1.0)
        sub, cmap = subdivide(g, 0.4)
        assert len(sub.edges) == 3
        assert all(e.length <= 0.4 + 1e-12 for e in sub.edges)
        assert metrics(sub).total_length == pytest.approx(1.0, rel=1e-12)

    def test_short_edge_unchanged(self):
        g = interval(0.3)
        sub, cmap = subdivide(g, 0.4)
        assert sub.edge_ids == g.edge_ids

    def test_betti_preserved(self):
        g = lasso()
        sub, _ = subdivide(g, 0.3)
        assert metrics(sub).betti == metrics(g).betti == 1

    def test_function_norm_roundtrip(self):
        g = interval(1.0)
        sub, cmap = subdivide(g, 0.21)
        f = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 2, 3.0),
                                    PolyTrigTerm(0.5j, 0, -7.0)]})
        fs = cmap.map_function(f)
        assert norm_sq(fs) == pytest.approx(norm_sq(f), rel=1e-12)

    def test_region_roundtrip(self):
        g = interval(1.0)
        sub, cmap = subdivide(g, 0.35)
        f = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 1, 2.0)]})
        region = {"e": IntervalUnion([(0.1, 0.55), (0.8, 0.97)], length=1.0)}
        got = norm_sq(cmap.map_function(f), cmap.map_region(region))
        assert got == pytest.approx(norm_sq(f, region), rel=1e-12)


class TestIngestion:
    def test_round_trip(self):
        data = {
            "vertices": ["v", "w"],
            "edges": [
                {"id": "loop", "from": "v", "to": "v", "length": 1.0, "flux": 0.5},
                {"id": "tail", "from": "v", "to": "w", "length": 2.0},
            ],
            "conditions": {"default": "standard", "overrides": {"w": "dirichlet"}},
        }
        g, y = graph_from_dict(data)
        assert g.edge("loop").flux == 0.5
        assert y.dim == 1  # only the joint vertex contributes

    def test_infinite_edge(self):
        data = {"vertices": ["v"],
                "edges": [{"id": "r", "from": "v", "length": "inf"}]}
        g, _ = graph_from_dict(data)
        assert not g.is_compact and g.external_ids == ("r",)

    def test_raw_subspace(self):
        s = 1 / math.sqrt(2)
        data = {"vertices": ["a", "b"],
                "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0}],
                "conditions": {"subspace": {"basis": [[{"re": s}, {"re": s}]]}}}
        _, y = graph_from_dict(data)
        assert y.dim == 1

    def test_missing_field_reported(self):
        with pytest.raises(ValueError, match="missing field"):
            graph_from_dict({"vertices": ["a"]})
        with pytest.raises(ValueError, match="edge 0: bad length 'long'"):
            graph_from_dict({"vertices": ["a", "b"],
                             "edges": [{"from": "a", "to": "b", "length": "long"}]})
