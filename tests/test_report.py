import math

import numpy as np
import pytest

from qgs import report
from qgs.bounds import (h_bound, heat_trace_bound, observability_constant,
                        spectral_bound, standard_range, torsion_profile)
from qgs.graphs import build_graph, metrics, standard_subspace
from qgs.polytrig import GraphFunction, IntervalUnion, PolyTrigTerm, whole_edge
from qgs.sampling import (Cover, SamplingSet, gap_analysis, optimal_gamma, optimal_rho,
                          verify_cover)
from qgs.spectral import solve_torsion
from qgs.verify import (CheckReport, audit, boundary_trace_check, classify_edges,
                        kovrijkine_check, local_estimate_check, observability_numeric,
                        ratio_reports)

from oracles import ORACLE_ENCODERS, oracle_json

STAR = build_graph(["c", "w1", "w2", "w3"], [("e1", "c", "w1", 0.9), ("e2", "c", "w2", 1.1),
                                             ("e3", "c", "w3", 1.3)])
GAPPY = IntervalUnion([(0.0, 0.1), (0.8, 1.0)], length=1.0)


def _interval(ell=1.0):
    return build_graph(["a", "b"], [("e", "a", "b", ell)])


def _cover_params():
    g = _interval()
    sset = SamplingSet(finite={"e": IntervalUnion([(0.1, 0.3), (0.6, 0.8)], length=1.0)})
    cover = Cover(breakpoints={"e": (0.0, 0.5, 1.0)})
    return g, sset, cover


def _reports():
    """Report objects of every hand-encoded class, from real calls, with the
    edge cases of the encoding: an underflowed bound, an infinite trace bound,
    a vacuous derivative ratio (nan observed) and infeasible optimiser results
    (breakpoints None)."""
    g, sset, cover = _cover_params()
    params = verify_cover(sset, cover, gamma=0.3, rho=0.6)
    cos = GraphFunction(g, {"e": [PolyTrigTerm(0.5, 0, math.pi), PolyTrigTerm(0.5, 0, -math.pi)]})
    one = GraphFunction(g, {"e": [PolyTrigTerm(1.0, 0, 0.0)]})
    neumann = [(float(n * n), 1.0) for n in range(11)]
    pi_interval = _interval(math.pi)
    ratio, derivative = ratio_reports(cos, sset.finite,
                                      spectral_bound(params.gamma, params.rho, math.pi ** 2))
    return {
        "bound": h_bound(0.5, h=3.0),
        "bound-underflow": spectral_bound(0.1, 2.0, 400.0),
        "standard-range": standard_range(metrics(STAR), 3, 0.3, 0.5),
        "trace": heat_trace_bound(neumann, gamma=1.0, rho=0.02, t=1.0,
                                  total_length=math.pi, edges=1),
        "trace-inf": heat_trace_bound(neumann, gamma=1e-60, rho=1e-3, t=1.0,
                                      total_length=math.pi, edges=1),
        "observability": observability_constant(0.3, 0.5, 2.0),
        "torsion-profile": torsion_profile(solve_torsion(g, ["a"]), rho=0.2, gamma=0.5),
        "sampling-params": params,
        "cover-violation": verify_cover(sset, cover, gamma=0.9, rho=0.6),
        "edge-gaps": gap_analysis(sset)["e"],
        "gamma": optimal_gamma(sset.finite["e"], rho=0.6),
        "gamma-infeasible": optimal_gamma(GAPPY, rho=0.3),
        "rho": optimal_rho(sset.finite["e"], gamma=0.3),
        "rho-infeasible": optimal_rho(GAPPY, gamma=0.9),
        "ratio": ratio,
        "ratio-derivative": derivative,
        "ratio-vacuous": ratio_reports(one, {"e": whole_edge(1.0)},
                                       spectral_bound(params.gamma, params.rho, 0.0))[1],
        "classification": classify_edges(cos, math.pi ** 2),
        "kovrijkine": kovrijkine_check([1.0, 0.5, 0.25], IntervalUnion([(0.0, 0.5)])),
        "local": local_estimate_check([(1.0, 0, 3.0)], 1.5, IntervalUnion([(0.2, 0.9)])),
        "boundary-trace": boundary_trace_check(cos),
        "observability-numeric": observability_numeric(
            pi_interval, standard_subspace(pi_interval),
            {"e": IntervalUnion([(0.3, 1.1)], length=math.pi)}, horizon=1.0, modes=3,
            params=params),
        "audit": audit(trials=4, lam_max=60.0),
    }


REPORTS = _reports()


def test_every_hand_encoded_class_is_covered():
    assert {type(obj).__name__ for obj in REPORTS.values()} == set(ORACLE_ENCODERS)


def test_edge_cases_are_present():
    assert REPORTS["bound-underflow"].underflow
    assert REPORTS["trace-inf"].bound == math.inf
    assert REPORTS["ratio-vacuous"].vacuous and math.isnan(REPORTS["ratio-vacuous"].observed)
    for name in ("gamma-infeasible", "rho-infeasible"):
        assert not REPORTS[name].feasible and REPORTS[name].breakpoints is None


def test_numpy_scalars_encode_as_json_scalars():
    rep = CheckReport(name="kovrijkine", passed=np.bool_(True), lhs=np.float64(0.5),
                      rhs=np.float64(np.inf), details={"grid": np.int64(2000)})
    assert report.json_dumps(rep) == (
        '{\n  "details": {\n    "grid": 2000\n  },\n  "lhs": 0.5,\n'
        '  "name": "kovrijkine",\n  "passed": true,\n  "rhs": null\n}\n')


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_fields_encode_as_the_hand_written_json(name):
    obj = REPORTS[name]
    assert report.sanitize(obj) == report.sanitize(oracle_json(obj))
    assert report.json_dumps(obj) == report.json_dumps(oracle_json(obj))
