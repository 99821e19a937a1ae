import argparse
import contextlib
import io
import json
import logging
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgs import verify
from qgs.cli import build_parser, main
from qgs.graphs import load_graph
from qgs.sampling import (Cover, SamplingParams, SamplingSet, certified_params, optimal_gamma,
                          optimal_rho, verify_cover)


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "from": "a", "to": "b", "length": math.pi}],
    }))
    return str(path)


@pytest.fixture
def set_file(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({
        "edges": {"e": [[0.0, 0.8], [1.6, 2.4]]},
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrum:
    def test_neumann_interval(self, capsys, interval_file):
        code, out, _ = run(capsys, "spectrum", "--graph", interval_file,
                           "--lambda-max", "100")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 11
        lams = [e["lambda"] for e in data["eigenvalues"]]
        assert lams == pytest.approx([n * n for n in range(11)], abs=1e-8)

    def test_oversize_solve_refused(self, capsys, tmp_path):
        # 1e12 wavelengths fit in this interval below lambda = 1: refused
        # before any matrix is allocated
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "from": "a", "to": "b", "length": 1e12}]}))
        code, out, err = run(capsys, "spectrum", "--graph", str(path), "--lambda-max", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: eigenvalue solve too large") and err.count("\n") == 1

    def test_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "spectrum", "--graph", str(bad))
        assert code == 1 and "line" in err


class TestTorsion:
    def test_one_end(self, capsys, interval_file):
        code, out, _ = run(capsys, "torsion", "--graph", interval_file,
                           "--dirichlet", "a")
        assert code == 0
        data = json.loads(out)
        assert data["rigidity"] == pytest.approx(math.pi ** 3 / 3.0, rel=1e-12)

    def test_dirichlet_free_component_refused(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c", "d"],
            "edges": [{"id": "e1", "from": "a", "to": "b", "length": 1.0},
                      {"id": "e2", "from": "c", "to": "d", "length": 1.3}],
        }))
        code, out, err = run(capsys, "torsion", "--graph", str(path), "--dirichlet", "a")
        assert code == 1 and out == ""
        assert err.startswith("error: torsion system singular") and err.count("\n") == 1


class TestSampling:
    def test_verify(self, capsys, tmp_path, interval_file, set_file):
        cover = tmp_path / "cover.json"
        cover.write_text(json.dumps({"edges": {"e": [0.0, math.pi / 2, math.pi]}}))
        code, out, _ = run(capsys, "sampling", "verify", "--graph", interval_file,
                           "--set", set_file, "--cover", str(cover),
                           "--gamma", "0.4", "--rho", "1.6")
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("bps, issue", [
        ([0.5, math.pi], "e: breakpoints must run from 0 to "),
        ([0.0, 1.5, 1.0, math.pi], "e: breakpoints not increasing at 1.5"),
        ([0.0, 1.0, math.pi], f"e: interval [1.0, {math.pi}] longer than rho=1.6"),
    ], ids=["ends", "order", "width"])
    def test_verify_refuses_a_bad_cover(self, capsys, tmp_path, interval_file, set_file,
                                        bps, issue):
        cover = tmp_path / "cover.json"
        cover.write_text(json.dumps({"edges": {"e": bps}}))
        code, out, _ = run(capsys, "sampling", "verify", "--graph", interval_file,
                           "--set", set_file, "--cover", str(cover),
                           "--gamma", "0.1", "--rho", "1.6")
        data = json.loads(out)
        assert code == 1 and data["ok"] is False
        assert any(i.startswith(issue) for i in data["issues"])

    def test_verify_prints_the_ray_cover(self, capsys, tmp_path):
        # the head/body cover of a ray is part of the certificate
        files = {}
        for name, data in (
                ("graph", _RAY),
                ("set", {"external": {"r": {"head": [[0.0, 0.5]], "period": 1.0,
                                            "body": [[0.25, 0.75]]}}}),
                ("cover", {"external": {"r": {"head": [0.0, 0.5], "body": [0.0, 1.0]}}})):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(data))
        code, out, err = run(capsys, "sampling", "verify", "--graph", str(files["graph"]),
                             "--set", str(files["set"]), "--cover", str(files["cover"]),
                             "--gamma", "0.4", "--rho", "1")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["ok"] is True and data["gamma"] == 0.5
        assert data["cover"] == {"edges": {}, "external": {
            "r": {"head": [0.0, 0.5], "body": [0.0, 1.0]}}}

    def test_gamma(self, capsys, interval_file, set_file):
        code, out, _ = run(capsys, "sampling", "gamma", "--graph", interval_file,
                           "--set", set_file, "--rho", "1.6")
        assert code == 0
        data = json.loads(out)
        assert data["aggregate"] is not None and 0.0 < data["aggregate"] <= 1.0

    def test_gamma_refuses_a_rho_below_the_floor(self, capsys, interval_file, set_file):
        # rho below length/200 could take a cover of more than 400 windows
        code, out, err = run(capsys, "sampling", "gamma", "--graph", interval_file,
                             "--set", set_file, "--rho", "1e-9")
        assert (code, out) == (1, "")
        assert err.startswith("error: rho = 1e-09 is below the edge length / 200")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["gamma", "--rho", "0.6"], ["rho", "--gamma", "0.3"]],
                             ids=["gamma", "rho"])
    def test_ray_entry_voids_the_aggregate(self, capsys, tmp_path, argv):
        # once the finite edge's optimum (gamma 0.1667, rho 0.714) as the
        # aggregate: on the ray, windows of length <= 0.6 hold at most 0.01
        # in 0.495, so gamma <= 0.0202 there
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"vertices": ["a", "b", "v"], "edges": [
            {"id": "e", "from": "a", "to": "b", "length": 1.0},
            {"id": "r", "from": "v", "length": "inf"}]}))
        sset = tmp_path / "set.json"
        sset.write_text(json.dumps({"edges": {"e": [[0.0, 0.5]]}, "external": {
            "r": {"period": 1.0, "body": [[0.0, 0.01]]}}}))
        code, out, err = run(capsys, "sampling", argv[0], "--graph", str(graph),
                             "--set", str(sset), *argv[1:])
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["aggregate"] is None
        assert set(data["edges"]) == {"e"} and data["edges"]["e"]["feasible"]

    def test_gaps(self, capsys, interval_file, set_file):
        code, out, _ = run(capsys, "sampling", "gaps", "--graph", interval_file,
                           "--set", set_file, "--gamma", "0.4", "--rho", "0.2")
        assert code == 0
        data = json.loads(out)
        assert not data["necessary_check"]["ok"]  # 0.8-gap exceeds 2*0.6*0.2


class TestBound:
    def test_thm26_reference(self, capsys):
        code, out, _ = run(capsys, "bound", "thm26", "--gamma", "1", "--h", "1")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(12.0 / 48.0 ** 5, rel=1e-12)

    def test_thm21(self, capsys):
        code, out, _ = run(capsys, "bound", "thm21", "--gamma", "0.5",
                           "--rho", "0.5", "--lambda", "10")
        assert code == 0
        assert json.loads(out)["formula"] == "thm21"

    def test_cor72(self, capsys, interval_file):
        code, out, _ = run(capsys, "bound", "cor72", "--graph", interval_file,
                           "--k", "2", "--gamma", "1", "--rho", "1.5707963")
        assert code == 0
        data = json.loads(out)
        assert data["lower_length"]["log_value"] <= data["upper"]["log_value"]

    def test_cor72_disconnected_refused(self, capsys, tmp_path):
        # the range needs a connected graph: one error line with exit 1
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c", "d"],
            "edges": [{"id": "e1", "from": "a", "to": "b", "length": 1.0},
                      {"id": "e2", "from": "c", "to": "d", "length": 1.3}],
        }))
        code, out, err = run(capsys, "bound", "cor72", "--graph", str(path),
                             "--k", "3", "--gamma", "0.5", "--rho", "0.3")
        assert (code, out, err) == (1, "", "error: the range needs a connected compact graph\n")

    def test_trace(self, capsys, interval_file):
        code, out, _ = run(capsys, "bound", "trace", "--graph", interval_file,
                           "--gamma", "1", "--rho", "0.02", "--t", "1",
                           "--lambda-max", "100")
        assert code == 0
        data = json.loads(out)
        exact = sum(math.exp(-n * n) for n in range(40))
        assert data["exact_partial"] == pytest.approx(exact, abs=1e-10)
        assert data["bound"] >= exact

    def test_observability(self, capsys):
        code, out, _ = run(capsys, "bound", "observability", "--gamma", "0.5",
                           "--rho", "0.5", "--horizon", "1.0")
        assert code == 0
        data = json.loads(out)
        assert data["d0"] == pytest.approx((48.0 / 0.5) ** 5 / 12.0, rel=1e-12)
        assert data["c_squared"]["formula"] == "observability"
        assert data["c_squared"]["notes"] == ["non-paper default constants"]

    def test_torsion_bound(self, capsys, interval_file):
        code, out, _ = run(capsys, "bound", "torsion", "--graph", interval_file,
                           "--dirichlet", "a", "--rho", str(math.pi / 2),
                           "--gamma", "0.5")
        assert code == 0
        data = json.loads(out)
        assert data["h_prime"] == pytest.approx(1 + 5 * math.sqrt(3) + 37.5,
                                                rel=1e-12)

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "bound", "thm26", "--gamma", "48", "--h", "1")
        assert code == 1 and "error" in err


class TestVerify:
    def test_lasso(self, capsys):
        code, out, _ = run(capsys, "verify", "lasso")
        assert code == 0
        data = json.loads(out)
        assert data["ratio_tail"] == 0.0 and data["ratio_loop"] == pytest.approx(1.0)

    def test_ratio(self, capsys, interval_file, set_file):
        code, out, _ = run(capsys, "verify", "ratio", "--graph", interval_file,
                           "--set", set_file, "--lambda-max", "50",
                           "--modes", "3", "--seed", "5")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True

    def test_zero_function(self, capsys, monkeypatch, interval_file, set_file):
        # the mass ratio of the zero function is refused; its derivative
        # ratio is vacuous
        import qgs.verify
        from qgs.polytrig import GraphFunction
        pick = qgs.verify.random_combination

        def zero_combination(*args):
            chosen, f, lam = pick(*args)
            return chosen, GraphFunction.zero(f.graph), lam

        monkeypatch.setattr(qgs.verify, "random_combination", zero_combination)
        argv = ["--graph", interval_file, "--set", set_file, "--lambda-max", "50"]
        code, out, err = run(capsys, "verify", "ratio", *argv)
        assert (code, out, err) == (1, "", "error: mass ratio undefined for the zero function\n")
        code, out, err = run(capsys, "verify", "derivative", *argv)
        assert (code, err) == (0, "") and json.loads(out)["vacuous"] is True

    @pytest.mark.parametrize("command", ["ratio", "derivative"])
    def test_uncertifiable_set_refused_before_the_solve(self, capsys, monkeypatch, interval_file,
                                                        tmp_path, command):
        # an edge without control set cannot be certified: the refusal comes
        # before the eigen-solve, whose own error would be printed otherwise
        import qgs.cli

        def solve(*args):
            raise ValueError("eigen-solve ran")

        monkeypatch.setattr(qgs.cli, "eigenvalues_up_to", solve)
        sset = tmp_path / "gap.json"
        sset.write_text(json.dumps({"edges": {"e": []}}))
        code, out, err = run(capsys, "verify", command, "--graph", interval_file,
                             "--set", str(sset), "--lambda-max", "50")
        assert (code, out, err) == (1, "", "error: edge 'e': set cannot be certified\n")

    @pytest.mark.parametrize("argv", [["ratio", "--lambda-max", "20"],
                                      ["derivative", "--lambda-max", "20"],
                                      ["observability", "--horizon", "0.5", "--modes", "2"]])
    def test_omitted_edge_refused(self, capsys, tmp_path, argv):
        # a set file that names one edge of a two-edge path says nothing
        # about the other: it carries the empty set there, and the set is
        # not certified for the graph (once a pass at gamma ~ 1e-6)
        graph, sset = tmp_path / "path2.json", tmp_path / "set.json"
        graph.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [
            {"id": "e1", "from": "a", "to": "b", "length": 1.0},
            {"id": "e2", "from": "b", "to": "c", "length": 1.0}]}))
        sset.write_text(json.dumps({"edges": {"e1": [[0.0, 0.5]]}}))
        code, out, err = run(capsys, "verify", *argv, "--graph", str(graph), "--set", str(sset))
        assert (code, out, err) == (1, "", "error: edge 'e2': set cannot be certified\n")

    def test_no_fallback_to_the_rho_cover(self, capsys, tmp_path):
        # certify seed 7107's lasso: on the tail, a candidate grid at
        # optimal_rho's rho once held no cover, and certified_params fell
        # back to optimal_rho's own; deciding over every cover, optimal_gamma
        # at that rho finds one at least as dense
        graph, sset = tmp_path / "lasso.json", tmp_path / "set.json"
        graph.write_text(json.dumps({"vertices": ["v", "w"], "edges": [
            {"id": "loop", "from": "v", "to": "v", "length": 1.486532},
            {"id": "tail", "from": "v", "to": "w", "length": 0.97472}]}))
        sset.write_text(json.dumps({"edges": {
            "loop": [[0.262232717, 0.390462], [0.552606459, 0.810202944],
                     [1.246223437, 1.348580724]],
            "tail": [[0.165297237, 0.246126], [0.246647912, 0.398450034],
                     [0.857616398, 0.94508746]]}}))
        code, out, err = run(capsys, "verify", "ratio", "--graph", str(graph), "--set",
                             str(sset), "--lambda-max", "100", "--modes", "4", "--seed", "5")
        assert (code, err) == (0, "") and json.loads(out)["passed"] is True
        g, _ = load_graph(str(graph))
        omega = SamplingSet.load(g, str(sset))
        tail = omega.finite["tail"]
        res_r = optimal_rho(tail, gamma=1e-6)
        own = verify_cover(SamplingSet(finite={"tail": tail}),
                           Cover(breakpoints={"tail": res_r.breakpoints}),
                           gamma=1e-6, rho=res_r.rho)
        assert isinstance(own, SamplingParams)
        res_g = optimal_gamma(tail, rho=res_r.rho)
        assert res_g.feasible and res_g.gamma >= own.gamma
        assert certified_params(tail) == (res_g.gamma, res_r.rho, res_g.breakpoints)
        found = {eid: certified_params(iu) for eid, iu in omega.finite.items()}
        params = verify_cover(omega, Cover(breakpoints={e: f[2] for e, f in found.items()}),
                              gamma=min(f[0] for f in found.values()),
                              rho=max(f[1] for f in found.values()))
        assert isinstance(params, SamplingParams)

    def test_kovrijkine(self, capsys):
        code, out, _ = run(capsys, "verify", "kovrijkine", "--coeffs", "[1, 0.5]",
                           "--e-set", "[[0.0, 0.4]]")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_local(self, capsys):
        code, out, _ = run(capsys, "verify", "local", "--terms",
                           "[[1.0, 0.0, 0, 2.0]]", "--ell", "1.0",
                           "--s-set", "[[0.2, 0.9]]")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_optimality(self, capsys):
        code, out, _ = run(capsys, "verify", "optimality", "--ell", "1.0",
                           "--lambda", str((4 * math.pi) ** 2), "--gamma", "0.3")
        assert code == 0
        data = json.loads(out)
        assert data["lower"] < data["ratio"] <= data["upper"]

    def test_observability(self, capsys, interval_file, set_file):
        code, out, _ = run(capsys, "verify", "observability", "--graph",
                           interval_file, "--set", set_file, "--horizon", "0.5",
                           "--modes", "3")
        assert code == 0
        data = json.loads(out)
        assert data["observable"] is True
        assert data["numeric_c_squared"] > 0.0

    def test_observability_prints_both_logs(self, capsys, tmp_path):
        # the half set certifies at gamma ~ 1e-6, where the formula's constant
        # passes exp(700) and prints null: its log still gives that side
        graph, sset = tmp_path / "interval.json", tmp_path / "half.json"
        graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": [
            {"id": "e", "from": "a", "to": "b", "length": 1.0}]}))
        sset.write_text(json.dumps({"edges": {"e": [[0.0, 0.5]]}}))
        code, out, _ = run(capsys, "verify", "observability", "--graph", str(graph),
                           "--set", str(sset), "--horizon", "0.5", "--modes", "2")
        assert code == 0
        data = json.loads(out)
        assert data["observable"] is True and data["formula_c_squared"] is None
        assert data["formula_log_c_squared"] == pytest.approx(521026.13267588743, rel=1e-12)
        assert data["numeric_log_c_squared"] == math.log(data["numeric_c_squared"])

    def _observe_star(self, capsys, caplog, tmp_path, lengths):
        """verify observability at 4 modes on a star with [0, l/2] on every
        edge: exit 0, observable, and the solve's DEBUG record."""
        n = len(lengths)
        graph, sset = tmp_path / "star.json", tmp_path / "set.json"
        graph.write_text(json.dumps({
            "vertices": ["c", *(f"w{i}" for i in range(n))],
            "edges": [{"id": f"e{i}", "from": "c", "to": f"w{i}", "length": ell}
                      for i, ell in enumerate(lengths)]}))
        sset.write_text(json.dumps({"edges": {f"e{i}": [[0.0, 0.5 * ell]]
                                              for i, ell in enumerate(lengths)}}))
        with caplog.at_level(logging.DEBUG, logger="qgs.spectral"):
            code, out, _ = run(capsys, "verify", "observability", "--graph", str(graph),
                               "--set", str(sset), "--horizon", "0.5", "--modes", "4")
        assert code == 0
        assert json.loads(out)["observable"] is True
        [record] = [r for r in caplog.records if r.name == "qgs.spectral"]
        return record.diagnostics

    def test_observability_on_seventy_edges(self, capsys, caplog, tmp_path):
        # the solve sized by the eigenphase count spans 141 roots of 140 x 140
        # matrices, under the size cap; stopped at the 4th eigenvalue, it
        # keeps the 0 and all of the 69-fold pi / 2
        d = self._observe_star(capsys, caplog, tmp_path, [1.0] * 70)
        assert (d["count"], d["kept"]) == (141, 70)

    def test_observability_stops_at_the_fourth_eigenvalue(self, capsys, caplog, tmp_path):
        # lengths uniform in [0.6, 1.4]: 147 simple roots up to the count's
        # bound, of which the solve keeps the 4 it needs
        rng = random.Random(1)
        d = self._observe_star(capsys, caplog, tmp_path, [rng.uniform(0.6, 1.4) for _ in range(70)])
        assert (d["count"], d["kept"]) == (147, 4)

    def test_classify_without_eigenvalues_refused(self, capsys, tmp_path):
        # a Dirichlet interval of length 1 has no eigenvalue below pi^2
        graph = tmp_path / "dirichlet.json"
        graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": [
            {"id": "e", "from": "a", "to": "b", "length": 1.0}],
            "conditions": {"default": "dirichlet"}}))
        code, out, err = run(capsys, "verify", "classify", "--graph", str(graph),
                             "--lambda-max", "5")
        assert (code, out, err) == (1, "", "error: no eigenvalues at or below 5.0\n")

    def test_classify_failing_its_mass_bounds_exits_2(self, capsys, monkeypatch, interval_file):
        cls = verify.EdgeClassification(good={"e": False}, m_max=verify.M_MAX, good_mass=0.0,
                                        bad_mass=1.0, total_mass=1.0, closure_complete=False)
        monkeypatch.setattr(verify, "classify_edges", lambda f, lam: cls)
        code, out, err = run(capsys, "verify", "classify", "--graph", interval_file,
                             "--lambda-max", "50")
        assert (code, err) == (2, "")
        assert json.loads(out)["good"] == {"e": False}

    def test_trace_ineq(self, capsys, interval_file):
        code, out, _ = run(capsys, "verify", "trace-ineq", "--graph",
                           interval_file, "--trials", "20", "--seed", "3")
        assert code == 0
        assert json.loads(out)["all_passed"] is True


class TestAudit:
    def test_json_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["audit", "--trials", "25", "--seed", "3",
                     "--lambda-max", "60", "--out", str(p1)]) == 0
        assert main(["audit", "--trials", "25", "--seed", "3",
                     "--lambda-max", "60", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_columns(self, capsys, tmp_path):
        out = tmp_path / "audit.csv"
        assert main(["audit", "--trials", "10", "--seed", "3",
                     "--lambda-max", "60", "--format", "csv",
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("trial,graph,gamma,rho,lam")
        assert len(out.read_text().splitlines()) == 11

    def test_violation_is_reported_and_exits_2(self, capsys, monkeypatch):
        trial = verify._audit_trial
        monkeypatch.setattr(verify, "_audit_trial", lambda pool, seed, i, classify: (
            trial(pool, seed, i, classify)[0], i != 1))
        code, out, err = run(capsys, "audit", "--trials", "3", "--seed", "3",
                             "--lambda-max", "30", "--format", "csv")
        assert (code, err) == (2, "AUDIT VIOLATIONS: 1 of 3 trials\n")
        assert len(out.splitlines()) == 4


@pytest.mark.parametrize("argv", [
    ["sampling", "gaps", "--graph", "{graph}", "--set", "{set}", "--gamma", "nan", "--rho", "0.5"],
    ["bound", "thm26", "--gamma", "1", "--h", "nan"],
    ["bound", "thm21", "--gamma", "0.5", "--rho", "inf", "--lambda", "10"],
    ["bound", "thm21", "--gamma", "0.5", "--rho", "nan", "--lambda", "10"],
], ids=["gaps-gamma-nan", "thm26-h-nan", "thm21-rho-inf", "thm21-rho-nan"])
def test_non_finite_flag_refused(capsys, interval_file, set_file, argv):
    code, out, err = run(capsys, *(a.format(graph=interval_file, set=set_file) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: argument --") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bound", "thm21", "--gamma", "0.5"],
    ["bound", "thm21", "--gamma", "x", "--rho", "0.5", "--lambda", "10"],
    ["bound"],
    ["sampling", "gamma", "--graph", "g.json", "--set", "s.json", "--rho", "0.5", "--grid", "5"],
    ["bound", "observability", "--gamma", "0.5", "--rho", "0.5", "--horizon", "1", "--c1", "2"],
], ids=["missing-flag", "bad-value", "missing-subcommand", "removed-grid", "removed-constant"])
def test_usage_error_is_one_input_error_line(capsys, argv):
    # exit 2 is kept for an observed violation
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--gamma", "--rho"])
def test_non_numeric_flag_names_its_value(capsys, flag):
    values = {"--gamma": "0.5", "--rho": "0.5", "--lambda": "10", flag: "x"}
    code, out, err = run(capsys, "bound", "thm21", *(a for kv in values.items() for a in kv))
    assert code == 1 and out == ""
    assert err == f"error: argument {flag}: not a number: 'x'\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "thm21", "--help"])
    assert exc.value.code == 0 and "--lambda" in capsys.readouterr().out


def _leaves(parser, path=()):
    """(command, parser) of every leaf command under `parser`."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*path, name))
            return
    yield " ".join(path), parser


def _flag(action) -> str:
    """An option as `--name[/-alias][:dest][!][=default]`: `:dest` when the
    dest is not the option's own, `!` when it is required."""
    text = "/".join(action.option_strings)
    if action.dest != action.option_strings[0].lstrip("-").replace("-", "_"):
        text += f":{action.dest}"
    if action.required:
        text += "!"
    if action.default is not None:
        text += f"={action.default!r}"
    return text


# every leaf command's options, defaults and required flags
_SURFACE = {
    "spectrum": ["--graph!", "--lambda-max=100.0", "--out"],
    "torsion": ["--dirichlet!", "--graph!", "--out"],
    "sampling verify": ["--cover!", "--gamma!", "--graph!", "--out", "--rho!", "--set!"],
    "sampling gamma": ["--graph!", "--out", "--rho!", "--set!"],
    "sampling rho": ["--gamma!", "--graph!", "--out", "--set!"],
    "sampling gaps": ["--gamma", "--graph!", "--out", "--rho", "--set!"],
    "bound thm21": ["--gamma!", "--lambda:lam!", "--out", "--rho!"],
    "bound thm26": ["--gamma!", "--h!", "--out"],
    "bound cor72": ["--gamma!", "--graph!", "--k!", "--out", "--rho!"],
    "bound trace": ["--gamma!", "--graph!", "--lambda-max=100.0", "--out", "--rho!", "--set",
                    "--t!"],
    "bound observability": ["--gamma!", "--horizon/-T!", "--out", "--rho!"],
    "bound torsion": ["--dirichlet!", "--gamma!", "--graph!", "--out", "--rho!"],
    "verify ratio": ["--graph!", "--lambda-max=100.0", "--modes=5", "--out", "--seed=20245",
                     "--set!"],
    "verify derivative": ["--graph!", "--lambda-max=100.0", "--modes=5", "--out",
                          "--seed=20245", "--set!"],
    "verify classify": ["--graph!", "--lambda-max=100.0", "--modes=5", "--out", "--seed=20245"],
    "verify kovrijkine": ["--coeffs!", "--e-set!", "--out"],
    "verify local": ["--ell!", "--out", "--s-set!", "--terms!"],
    "verify optimality": ["--ell!", "--gamma!", "--lambda:lam!", "--out"],
    "verify observability": ["--graph!", "--horizon/-T!", "--modes=4", "--out", "--set!"],
    "verify trace-ineq": ["--graph!", "--out", "--seed=20245", "--trials=100"],
    "verify lasso": ["--out"],
    "audit": ["--format='json'", "--lambda-max=200.0", "--out", "--seed=20245", "--trials=10000"],
}

# a quick run of every leaf command
_LEAF_ARGV = {
    "spectrum": "--graph {graph} --lambda-max 30",
    "torsion": "--graph {graph} --dirichlet a",
    "sampling verify": "--graph {graph} --set {set} --cover {cover} --gamma 0.4 --rho 1.6",
    "sampling gamma": "--graph {graph} --set {set} --rho 1.6",
    "sampling rho": "--graph {graph} --set {set} --gamma 0.4",
    "sampling gaps": "--graph {graph} --set {set} --gamma 0.4 --rho 0.2",
    "bound thm21": "--gamma 0.5 --rho 0.5 --lambda 10",
    "bound thm26": "--gamma 1 --h 1",
    "bound cor72": "--graph {graph} --k 2 --gamma 1 --rho 1.5",
    "bound trace": "--graph {graph} --set {set} --gamma 1 --rho 0.02 --t 1 --lambda-max 100",
    "bound observability": "--gamma 0.5 --rho 0.5 -T 1",
    "bound torsion": "--graph {graph} --dirichlet a --rho 1.5 --gamma 0.5",
    "verify ratio": "--graph {graph} --set {set} --lambda-max 50 --modes 3 --seed 5",
    "verify derivative": "--graph {graph} --set {set} --lambda-max 50 --modes 3 --seed 5",
    "verify classify": "--graph {graph} --lambda-max 50",
    "verify kovrijkine": "--coeffs [1,0.5] --e-set [[0,0.4]]",
    "verify local": "--terms [[1,0,0,2]] --ell 1 --s-set [[0.2,0.9]]",
    "verify optimality": "--ell 1 --lambda 158 --gamma 0.3",
    "verify observability": "--graph {graph} --set {set} --horizon 0.5 --modes 3",
    "verify trace-ineq": "--graph {graph} --trials 5 --seed 3",
    "verify lasso": "",
    "audit": "--trials 5 --seed 3 --lambda-max 30 --format csv",
}


def test_cli_surface():
    # no flag is added, removed, renamed or re-defaulted
    leaves = {name: sorted(_flag(a) for a in parser._actions if a.dest != "help")
              for name, parser in _leaves(build_parser())}
    assert leaves == _SURFACE and set(_LEAF_ARGV) == set(_SURFACE)


@pytest.mark.parametrize("leaf", sorted(_LEAF_ARGV))
def test_out_file_holds_the_printed_report(capsys, tmp_path, interval_file, set_file, leaf):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"edges": {"e": [0.0, math.pi / 2, math.pi]}}))
    argv = [*leaf.split(), *(a.format(graph=interval_file, set=set_file, cover=cover)
                             for a in _LEAF_ARGV[leaf].split())]
    code, printed, err = run(capsys, *argv)
    assert printed and err == ""
    path = tmp_path / "report"
    assert run(capsys, *argv, "--out", str(path)) == (code, "", "")
    assert path.read_bytes() == printed.encode("utf-8")


_INTERVAL = {"vertices": ["a", "b"], "edges": [{"id": "e", "from": "a", "to": "b",
                                                "length": 1.0}]}
_RAY = {"vertices": ["v"], "edges": [{"id": "r", "from": "v", "length": "inf"}]}
_RAY_SET = {"external": {"r": {"period": 1.0, "body": [[0.0, 0.5]]}}}


@pytest.mark.parametrize("graph, sset, cover", [
    ([1], None, None),
    ({"vertices": ["a", "b"], "edges": 5}, None, None),
    ({"vertices": ["a", "b"], "edges": [{"id": "e", "from": "a", "to": "b", "length": None}]},
     None, None),
    (dict(_INTERVAL, conditions={"subspace": {"basis": [[1]]}}), None, None),
    (_INTERVAL, [[0.0, 0.5]], None),
    (_INTERVAL, "", None),
    (_RAY, {"external": {"r": {"body": [[0.0, 0.5]]}}}, None),
    (_RAY, {"external": {"r": {"period": "inf", "body": [[0.0, 0.5]]}}}, None),
    (_RAY, _RAY_SET, {"external": {"r": {"body": [0.0, 1.0]}}}),
], ids=["graph-list", "edges-int", "length-null", "basis-of-ints", "set-list",
        "set-name-empty", "set-without-period", "set-period-inf", "cover-without-head"])
def test_malformed_input_is_one_error_line(capsys, tmp_path, graph, sset, cover):
    files = {}
    for name, data in (("graph", graph), ("set", sset), ("cover", cover)):
        if data is not None:
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(data))
    if cover is not None:
        argv = ["sampling", "verify", "--cover", str(files["cover"]), "--gamma", "0.1",
                "--rho", "1"]
    elif sset is not None:
        argv = ["sampling", "gaps"]
    else:
        argv = ["spectrum"]
    argv += ["--graph", str(files["graph"])]
    # an empty set is an empty file name
    argv += ["--set", "" if sset == "" else str(files["set"])] if sset is not None else []
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "kovrijkine", "--coeffs", "[[1]]", "--e-set", "[[0,0.4]]"],
    ["verify", "kovrijkine", "--coeffs", "3", "--e-set", "[[0,0.4]]"],
    ["verify", "kovrijkine", "--coeffs", "[1]", "--e-set", "5"],
    ["verify", "kovrijkine", "--coeffs", "[1]", "--e-set", "[1,2]"],
    ["verify", "local", "--terms", "[[1,0,0]]", "--ell", "1", "--s-set", "[[0.2,0.9]]"],
    ["verify", "local", "--terms", '[["a",0,0,1]]', "--ell", "1", "--s-set", "[[0.2,0.9]]"],
], ids=["coeffs-nested", "coeffs-number", "e-set-number", "e-set-flat", "terms-short",
        "terms-string"])
def test_malformed_inline_flag_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: malformed --") and err.count("\n") == 1


@pytest.mark.parametrize("form", ["s-set", "set-file"])
def test_non_finite_interval_end_is_one_error_line(capsys, tmp_path, interval_file, form):
    # once dropped as an empty interval: S (or the edge's set) lost it, exit 0
    if form == "s-set":
        argv = ["verify", "local", "--terms", "[[1,0,0,3]]", "--ell", "1",
                "--s-set", "[[0.1, NaN]]"]
    else:
        sset = tmp_path / "set.json"
        sset.write_text('{"edges": {"e": [[0.1, NaN]]}}')  # Python's JSON reader takes NaN
        argv = ["sampling", "gaps", "--graph", interval_file, "--set", str(sset)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: interval ends must be finite\n")


@pytest.mark.parametrize("argv, named", [
    (["verify", "trace-ineq", "--graph", "{graph}", "--trials", "0"], "--trials"),
    (["verify", "trace-ineq", "--graph", "{graph}", "--trials", "-3"], "--trials"),
    (["verify", "trace-ineq", "--graph", "{graph}", "--trials", "abc"],
     "--trials: not an integer: 'abc'"),
    (["verify", "ratio", "--graph", "{graph}", "--set", "{set}", "--modes", "-2"], "--modes"),
    (["verify", "observability", "--graph", "{graph}", "--set", "{set}", "-T", "1",
      "--modes", "0"], "--modes"),
    (["audit", "--trials", "0"], "--trials"),
    (["sampling", "gaps", "--graph", "{graph}", "--set", "{set}", "--gamma", "3", "--rho", "1"],
     "gamma must lie in (0, 1]"),
    (["sampling", "gaps", "--graph", "{graph}", "--set", "{set}", "--gamma", "0.5"], "--rho"),
    (["sampling", "gaps", "--graph", "{graph}", "--set", "{set}", "--rho", "0.5"], "--gamma"),
    (["verify", "optimality", "--ell", "1", "--lambda", "37000", "--gamma", "1e-10"],
     "undecidable in double precision"),
], ids=["trials-0", "trials-negative", "trials-not-integer", "modes-negative", "modes-0",
        "audit-trials-0", "gaps-gamma-3", "gaps-gamma-only", "gaps-rho-only",
        "optimality-undecidable"])
def test_refusal_names_its_input(capsys, interval_file, set_file, argv, named):
    # once a traceback-free but nameless message (an empty min(), negative
    # dimensions), an exit 0 at gamma = 3 or with one of --gamma/--rho (the
    # necessary check skipped without a word), or a certification failure
    # where double precision cannot decide
    code, out, err = run(capsys, *(a.format(graph=interval_file, set=set_file) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("period", ["1e17", "1e300", "1e308"])
def test_huge_ray_period_gets_its_gaps(capsys, tmp_path, period):
    # once max_interior 0.0 (the unrolled body rounded to empty pieces) or,
    # at 1e308, a refusal (the unrolled span left the float range): the wrap
    # gap p - 1/2 is reported, exit 0
    ray = tmp_path / "ray.json"
    ray.write_text('{"vertices": ["v"], "edges": [{"id": "r", "from": "v", "length": "inf"}]}')
    sset = tmp_path / "set.json"
    sset.write_text('{"external": {"r": {"period": %s, "body": [[0.0, 0.5]]}}}' % period)
    code, out, err = run(capsys, "sampling", "gaps", "--graph", str(ray), "--set", str(sset))
    assert (code, err) == (0, "")
    assert json.loads(out)["edges"]["r"] == {"left": 0.0, "max_interior": float(period) - 0.5,
                                             "right": 0.0}


def test_trace_peak_past_the_float_range_is_refused(capsys, interval_file):
    # (c / 2t)**2 once raised OverflowError; the saturated peak is inf
    code, out, err = run(capsys, "bound", "trace", "--graph", interval_file, "--gamma", "0.5",
                         "--rho", "1e160", "--t", "1")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: lambda cutoff ") and "below the exponent peak inf" in err


def test_cover_that_is_not_json_names_the_file(capsys, tmp_path, interval_file, set_file):
    cover = tmp_path / "cover.json"
    cover.write_text("{\n")
    code, out, err = run(capsys, "sampling", "verify", "--graph", interval_file, "--set",
                         set_file, "--cover", str(cover), "--gamma", "0.1", "--rho", "1")
    assert (code, out, err) == (1, "", f"error: {cover}: invalid JSON at line 2, column 1\n")


@pytest.mark.parametrize("argv, key", [
    ("bound observability --gamma 1e-300 --rho 0.5 -T 1", "c_squared"),
    ("bound trace --graph {graph} --gamma 1e-300 --rho 1e-6 --t 1", "tail_bound"),
    ("bound torsion --graph {graph} --dirichlet a --rho 1e300 --gamma 0.5", "h_prime"),
    ("verify kovrijkine --coeffs [1,1e100] --e-set [[0,0.4]]", "rhs"),
    ("verify local --terms [[1,0,0,200]] --ell 1 --s-set [[0.2,0.9]]", "details"),
], ids=["observability", "trace", "torsion", "kovrijkine", "local"])
def test_constants_past_the_float_range_saturate(capsys, interval_file, argv, key):
    # a constant past exp(700) is inf, printed as null, instead of an
    # OverflowError; no numpy warning is printed on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv.format(graph=interval_file).split())
    assert (code, err, [str(w.message) for w in caught]) == (0, "", [])
    report = json.loads(out)
    value = report[key]
    if key == "c_squared":
        value = value["value"]
    elif key == "details":  # the sup bound, and with it M, is inf: the lemma is vacuous
        value = value["M"]
        assert report["passed"] is True
    assert value is None


def test_import_loads_no_scipy():
    # nor numpy.polynomial, which kovrijkine_check reaches at call time, nor
    # fractions and decimal, which svc_set reaches at call time, nor
    # numpy.random, which only the commands that draw samples reach
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    code = ("import qgs.cli, sys; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy' "
            "or m.startswith(('numpy.polynomial', 'numpy.random')) "
            "or m in ('fractions', 'decimal')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert res.stdout.strip() == "[]"


_KEYS = ("vertices", "edges", "id", "from", "to", "length", "flux", "conditions", "default",
         "overrides", "subspace", "basis", "re", "im", "external", "head", "body", "period")
_LEAF = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3.0, 3.0)
         | st.sampled_from([0.0, -1.0, 1e308, math.inf, -math.inf, math.nan])
         | st.sampled_from(["a", "b", "e", "inf", "x", "standard", "dirichlet", "neumann",
                            "anti-kirchhoff", ""]))
_JSON = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner,
                                       max_size=4), max_leaves=12)
_EDGE = st.fixed_dictionaries(
    {"from": st.sampled_from(["a", "b"]) | _JSON,
     "length": st.floats(0.5, 2.0) | st.sampled_from(["inf", 0.0, -1.0, math.nan]) | _JSON},
    optional={"id": st.sampled_from(["e", "r"]) | _JSON, "to": st.sampled_from(["a", "b"]) | _JSON,
              "flux": st.floats(-1.0, 1.0) | _JSON})
# a well-formed interval (with a ray) half of the time, so the set and cover
# files are read too
_WELL_FORMED = st.sampled_from([
    {"vertices": ["a", "b"], "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.5}]},
    {"vertices": ["a", "b"], "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.5},
                                       {"id": "r", "from": "b", "length": "inf"}]}])
_GRAPH = _WELL_FORMED | _WELL_FORMED | _JSON | st.fixed_dictionaries(
    {"vertices": st.just(["a", "b"]) | _JSON, "edges": st.lists(_EDGE, max_size=3) | _JSON},
    optional={"conditions": _JSON})
_INTERVALS = st.lists(st.lists(st.floats(-0.5, 2.5) | _LEAF, max_size=3), max_size=3) | _JSON
_SET = _JSON | st.fixed_dictionaries({}, optional={
    "edges": st.dictionaries(st.sampled_from(["e", "r", "x"]), _INTERVALS, max_size=2) | _JSON,
    "external": st.dictionaries(st.sampled_from(["e", "r"]), st.fixed_dictionaries(
        {}, optional={"head": _INTERVALS, "body": _INTERVALS,
                      "period": st.floats(0.1, 2.0) | _LEAF}) | _JSON, max_size=2) | _JSON})
_COVER = _JSON | st.fixed_dictionaries({}, optional={
    "edges": st.dictionaries(st.sampled_from(["e", "r"]), st.lists(
        st.floats(0.0, 2.0) | _LEAF, max_size=4) | _JSON, max_size=2) | _JSON,
    "external": st.dictionaries(st.sampled_from(["e", "r"]), st.fixed_dictionaries(
        {}, optional={"head": st.lists(st.floats(0.0, 2.0), max_size=3) | _JSON,
                      "body": st.lists(st.floats(0.0, 2.0), max_size=3) | _JSON})
        | _JSON, max_size=2) | _JSON})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graph=_GRAPH, sset=_SET, cover=_COVER, verify=st.booleans())
def test_arbitrary_json_input_never_tracebacks(graph, sset, cover, verify):
    # whatever JSON the graph, set and cover files hold, the CLI answers, or
    # refuses with exit 1 and one error line; a cover that fails to verify
    # is an exit-1 report
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, data in (("graph", graph), ("set", sset), ("cover", cover)):
            files[name] = os.path.join(tmp, f"{name}.json")
            with open(files[name], "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        argv = ["sampling", "verify" if verify else "gaps", "--graph", files["graph"],
                "--set", files["set"]]
        argv += ["--cover", files["cover"], "--gamma", "0.1", "--rho", "1"] if verify else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 1 and err:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == "" and (code == 0 or (verify and json.loads(out)["ok"] is False))


@settings(max_examples=150, derandomize=True, deadline=None)
@example(graph={"vertices": ["a", "b"],
                "edges": [{"id": "e", "from": "a", "to": "b", "length": 1e308}]})
@given(graph=_GRAPH)
def test_arbitrary_graph_spectrum_never_tracebacks(graph):
    # whatever JSON the graph file holds, however long its edges, `spectrum`
    # answers or refuses with exit 1 and one error line
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(graph, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["spectrum", "--graph", path, "--lambda-max", "10"])
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert code == 0 and err == ""


# well-formed number lists, pairs and quadruples half of the time, so the
# checks run
_NUMBER = st.floats(-3.0, 3.0) | st.integers(-1, 3) | _LEAF
_GOOD_COEFFS = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5)
_GOOD_PAIRS = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
                       min_size=1, max_size=3)
_GOOD_TERMS = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                                 st.integers(0, 2), st.floats(-300.0, 300.0)),
                       min_size=1, max_size=3)
_COEFFS = _GOOD_COEFFS | _GOOD_COEFFS | st.lists(_NUMBER, max_size=5) | _JSON
_PAIRS = _GOOD_PAIRS | _GOOD_PAIRS | st.lists(
    st.lists(st.floats(-0.5, 1.5) | _LEAF, min_size=2, max_size=2) | _JSON, max_size=3) | _JSON
_TERMS = _GOOD_TERMS | _GOOD_TERMS | st.lists(
    st.lists(_NUMBER, min_size=4, max_size=4) | _JSON, max_size=3) | _JSON


@settings(max_examples=200, derandomize=True, deadline=None)
# once a traceback (an empty --coeffs, int(inf) in --terms), a violation
# reported for non-finite input (exit 2), and numpy overflow warnings
@example(coeffs=[], terms=[], pairs=[[0.0, 0.5]], local=False)
@example(coeffs=[math.inf, 3, 3], terms=[], pairs=[[0.0, 0.5]], local=False)
@example(coeffs=[], terms=[[0.85, 2, math.inf, True]], pairs=[[0.0, 0.5]], local=True)
@example(coeffs=[], terms=[[3, -3, 0, math.inf]], pairs=[[0.1, 0.5]], local=True)
@example(coeffs=[], terms=[[1e308, 0.47, True, True]], pairs=[], local=True)
@given(coeffs=_COEFFS, terms=_TERMS, pairs=_PAIRS, local=st.booleans())
def test_arbitrary_inline_json_never_tracebacks(coeffs, terms, pairs, local):
    # whatever JSON --coeffs and --e-set (kovrijkine) or --terms and --s-set
    # (local) hold, the check answers, or refuses with exit 1 and one error
    # line; exit 2 would be a proved inequality observed violated
    if local:
        argv = ["verify", "local", "--terms", json.dumps(terms), "--ell", "1",
                "--s-set", json.dumps(pairs)]
    else:
        argv = ["verify", "kovrijkine", "--coeffs", json.dumps(coeffs),
                "--e-set", json.dumps(pairs)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    if code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert code == 0 and err == ""
