"""Command-line front end.  argparse picks the command once: each leaf parser
holds one handler, which returns (report, exit code), and `main` writes every
report, JSON or the audit's CSV text, to stdout or `--out`.  Flags that
several commands share are declared once, in parent parsers.

Exit codes: 0 success, 1 domain or input error (a missing or malformed flag
too: one `error:` line), 2 inequality-audit violation (an observed ratio at
or below its proved bound, or a classification whose good edges carry at most
half the mass, which must never happen).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bounds as bnd
from . import report as rep
from . import sampling as smp
from . import verify as vfy
from .graphs import load_graph, malformed, metrics, read_json
from .polytrig import GraphFunction, IntervalUnion, PolyTrigTerm, masses
from .spectral import eigenvalues_up_to, solve_torsion


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error, reported by `main`
        raise ValueError(message)


def _number(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None


def _finite(value: str) -> float:
    x = _number(value)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError("must be finite")
    return x


def _positive(value: str) -> float:
    x = _number(value)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return x


def _count(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _vertices(value: str) -> list[str]:
    return [v for v in value.split(",") if v]


def _graph_and_set(args):
    g, y = load_graph(args.graph)
    return g, y, smp.SamplingSet.load(g, args.set)


def _random_sample(g, y, lam_max, modes, seed):
    pairs = eigenvalues_up_to(g, y, lam_max)
    if not pairs:
        raise ValueError(f"no eigenvalues at or below {lam_max}")
    return vfy.random_combination(np.random.default_rng(seed), pairs, modes)


def _spectrum(args):
    g, y = load_graph(args.graph)
    pairs = eigenvalues_up_to(g, y, args.lambda_max)
    return {"count": len(pairs), "lambda_max": args.lambda_max, "eigenvalues": pairs}, 0


def _torsion(args):
    g, _ = load_graph(args.graph)
    sol = solve_torsion(g, args.dirichlet)
    return {"rigidity": sol.rigidity, "dirichlet": list(sol.dirichlet),
            **sol.function.to_json()}, 0


def _sampling_verify(args):
    _, _, sset = _graph_and_set(args)
    cover = smp.Cover.from_dict(read_json(args.cover))
    res = smp.verify_cover(sset, cover, gamma=args.gamma, rho=args.rho)
    ok = isinstance(res, smp.SamplingParams)
    return {"ok": ok, **rep.sanitize(res)}, 0 if ok else 1


def _optimal_per_edge(args, optimise, attr, best, **fixed):
    """Each finite edge's `optimise` result at the fixed parameter, and the
    `best` of their `attr` when every edge is feasible and the set has no
    ray entries (not optimised, so the finite edges' best is no bound)."""
    _, _, sset = _graph_and_set(args)
    out = {eid: optimise(iu, **fixed)
           for eid, iu in sorted(sset.finite.items())}
    agg = None
    if out and not sset.external and all(r.feasible for r in out.values()):
        agg = best(getattr(r, attr) for r in out.values())
    return {"edges": out, "aggregate": agg}, 0


def _sampling_gamma(args):
    return _optimal_per_edge(args, smp.optimal_gamma, "gamma", min, rho=args.rho)


def _sampling_rho(args):
    return _optimal_per_edge(args, smp.optimal_rho, "rho", max, gamma=args.gamma)


def _sampling_gaps(args):
    if (args.gamma is None) != (args.rho is None):
        missing = "--rho" if args.rho is None else "--gamma"
        raise ValueError(f"argument {missing}: the necessary check needs both --gamma and --rho")
    _, _, sset = _graph_and_set(args)
    gaps = smp.gap_analysis(sset)
    report = {"edges": gaps}
    if args.gamma is not None:
        ok, issues = smp.necessary_check(gaps, args.gamma, args.rho)
        report["necessary_check"] = {"gamma": args.gamma, "rho": args.rho,
                                     "ok": ok, "issues": issues}
    return report, 0


def _bound_thm21(args):
    return bnd.spectral_bound(args.gamma, args.rho, args.lam), 0


def _bound_thm26(args):
    return bnd.h_bound(args.gamma, h=args.h), 0


def _bound_cor72(args):
    g, _ = load_graph(args.graph)
    return bnd.standard_range(metrics(g), args.k, args.gamma, args.rho), 0


def _bound_trace(args):
    g, y = load_graph(args.graph)
    sset = smp.SamplingSet.load(g, args.set) if args.set is not None else None
    pairs = eigenvalues_up_to(g, y, args.lambda_max)
    parts = ([m.part for m in masses([p.function for p in pairs], sset.finite)]
             if sset is not None else [1.0] * len(pairs))
    return bnd.heat_trace_bound([(p.lam, m) for p, m in zip(pairs, parts)],
                                gamma=args.gamma, rho=args.rho, t=args.t,
                                total_length=sum(g.edge_lengths.values()),
                                edges=len(g.edges)), 0


def _bound_observability(args):
    return bnd.observability_constant(args.gamma, args.rho, args.horizon), 0


def _bound_torsion(args):
    g, _ = load_graph(args.graph)
    sol = solve_torsion(g, args.dirichlet)
    return bnd.torsion_profile(sol, rho=args.rho, gamma=args.gamma), 0


def _compare(args, which):
    """A random combination of eigenfunctions against the certified bound of
    the set: report `which` of `ratio_reports` (0 mass, 1 derivative); exit 2
    on a violation."""
    g, y, sset = _graph_and_set(args)
    # a set that cannot be certified is refused before the eigen-solve
    params = smp.certify(sset)
    chosen, f, lam = _random_sample(g, y, args.lambda_max, args.modes, args.seed)
    bound = bnd.spectral_bound(params.gamma, params.rho, lam)
    out = vfy.ratio_reports(f, sset.finite, bound)[which]
    if out is None:
        raise ValueError("mass ratio undefined for the zero function")
    report = {"seed": args.seed, "modes": len(chosen), "lam": lam, **rep.sanitize(out)}
    return report, 0 if out.holds else 2


def _verify_ratio(args):
    return _compare(args, 0)


def _verify_derivative(args):
    return _compare(args, 1)


def _verify_classify(args):
    g, y = load_graph(args.graph)
    _, f, lam = _random_sample(g, y, args.lambda_max, args.modes, args.seed)
    out = vfy.classify_edges(f, lam)
    return out, 0 if out.mass_bounds_hold else 2


def _verify_kovrijkine(args):
    with malformed("--coeffs"):
        coeffs = [complex(c) for c in json.loads(args.coeffs)]
    with malformed("--e-set"):
        e_set = IntervalUnion(json.loads(args.e_set))
    out = vfy.kovrijkine_check(coeffs, e_set)
    return out, 0 if out.passed else 2


def _verify_local(args):
    with malformed("--terms"):
        terms = [(complex(t[0], t[1]), int(t[2]), float(t[3])) for t in json.loads(args.terms)]
    with malformed("--s-set"):
        s_set = IntervalUnion(json.loads(args.s_set))
    out = vfy.local_estimate_check(terms, args.ell, s_set)
    return out, 0 if out.passed else 2


def _verify_optimality(args):
    return vfy.optimality_example(args.ell, args.lam, args.gamma), 0


def _verify_observability(args):
    g, y, sset = _graph_and_set(args)
    params = smp.certify(sset)
    return vfy.observability_numeric(g, y, sset.finite, horizon=args.horizon,
                                     modes=args.modes, params=params), 0


def _verify_trace_ineq(args):
    rng = np.random.default_rng(args.seed)
    g, _ = load_graph(args.graph)
    reports = []
    for _ in range(args.trials):
        terms = {eid: [PolyTrigTerm(complex(*rng.normal(size=2)),
                                    int(rng.integers(0, 3)),
                                    float(rng.uniform(-8, 8)))
                       for _ in range(int(rng.integers(1, 4)))]
                 for eid in g.edge_ids}
        reports.append(vfy.boundary_trace_check(GraphFunction(g, terms)))
    ok = all(r.passed for r in reports)
    return {"trials": args.trials, "all_passed": ok,
            "worst_slack": min(r.rhs - r.lhs for r in reports)}, 0 if ok else 2


def _verify_lasso(args):
    return vfy.lasso_counterexample(), 0


def _audit(args):
    res = vfy.audit(trials=args.trials, seed=args.seed, lam_max=args.lambda_max)
    if res.violations:
        print(f"AUDIT VIOLATIONS: {res.violations} of {res.trials} trials",
              file=sys.stderr)
    report = rep.csv_dumps(res.rows, rep.AUDIT_COLUMNS) if args.format == "csv" else res
    return report, 2 if res.violations else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qgs argument parser, built once: parsing does not change it.  A flag
    that several leaves share is a one-flag parent parser, and each leaf
    parser holds its handler as the default of `func`."""
    def parent(*flags, **kwargs):
        shared = argparse.ArgumentParser(add_help=False)
        shared.add_argument(*flags, **kwargs)
        return shared

    out = parent("--out", help="write the report here (default stdout)")
    graph = parent("--graph", required=True, help="graph JSON file")
    sset = parent("--set", required=True, help="sampling-set JSON file")
    gamma = parent("--gamma", type=_finite, required=True)
    rho = parent("--rho", type=_positive, required=True)
    horizon = parent("--horizon", "-T", type=_positive, required=True)
    ell = parent("--ell", type=_positive, required=True)
    dirichlet = parent("--dirichlet", type=_vertices, required=True,
                       help="comma-separated vertex ids")
    lam_max = parent("--lambda-max", dest="lambda_max", type=_positive, default=100.0)
    modes = parent("--modes", type=_count, default=5)
    seed = parent("--seed", type=int, default=vfy.DEFAULT_SEED)

    def leaf(group, name, handler, *parents, **kwargs):
        s = group.add_parser(name, parents=[*parents, out], **kwargs)
        s.set_defaults(func=handler)
        return s

    p = _Parser(prog="qgs",
                description="Eigenpairs, sampling-set certification and explicit "
                            "spectral-inequality constants on compact metric graphs.")
    sub = p.add_subparsers(dest="cmd", required=True)

    leaf(sub, "spectrum", _spectrum, graph, lam_max, help="eigenvalues and eigenfunctions")
    leaf(sub, "torsion", _torsion, graph, dirichlet, help="torsion function and rigidity")

    ssub = sub.add_parser("sampling", help="sampling-set certification").add_subparsers(
        dest="sampling_cmd", required=True)
    s = leaf(ssub, "verify", _sampling_verify, graph, sset, gamma, rho)
    s.add_argument("--cover", required=True, help="cover JSON file")
    leaf(ssub, "gamma", _sampling_gamma, graph, sset, rho)
    leaf(ssub, "rho", _sampling_rho, graph, sset, gamma)
    s = leaf(ssub, "gaps", _sampling_gaps, graph, sset)
    s.add_argument("--gamma", type=_finite)
    s.add_argument("--rho", type=_positive)

    bsub = sub.add_parser("bound", help="explicit constants").add_subparsers(
        dest="bound_cmd", required=True)
    s = leaf(bsub, "thm21", _bound_thm21, gamma, rho)
    s.add_argument("--lambda", dest="lam", type=_finite, required=True)
    s = leaf(bsub, "thm26", _bound_thm26, gamma)
    s.add_argument("--h", type=_finite, required=True)
    s = leaf(bsub, "cor72", _bound_cor72, graph, gamma, rho)
    s.add_argument("--k", type=int, required=True)
    s = leaf(bsub, "trace", _bound_trace, graph, gamma, rho, lam_max)
    s.add_argument("--set", help="control-set JSON (default: whole graph)")
    s.add_argument("--t", type=_positive, required=True)
    leaf(bsub, "observability", _bound_observability, gamma, rho, horizon)
    leaf(bsub, "torsion", _bound_torsion, graph, gamma, rho, dirichlet)

    vsub = sub.add_parser("verify", help="certification checks").add_subparsers(
        dest="verify_cmd", required=True)
    leaf(vsub, "ratio", _verify_ratio, graph, sset, lam_max, modes, seed)
    leaf(vsub, "derivative", _verify_derivative, graph, sset, lam_max, modes, seed)
    leaf(vsub, "classify", _verify_classify, graph, lam_max, modes, seed)
    s = leaf(vsub, "kovrijkine", _verify_kovrijkine)
    s.add_argument("--coeffs", required=True, help='JSON list, e.g. "[1, 0.5]"')
    s.add_argument("--e-set", dest="e_set", required=True,
                   help='JSON intervals in [0,1], e.g. "[[0, 0.5]]"')
    s = leaf(vsub, "local", _verify_local, ell)
    s.add_argument("--terms", required=True, help='JSON list of [re, im, power, freq] terms')
    s.add_argument("--s-set", dest="s_set", required=True)
    s = leaf(vsub, "optimality", _verify_optimality, ell, gamma)
    s.add_argument("--lambda", dest="lam", type=_positive, required=True)
    s = leaf(vsub, "observability", _verify_observability, graph, sset, horizon)
    s.add_argument("--modes", type=_count, default=4)
    s = leaf(vsub, "trace-ineq", _verify_trace_ineq, graph, seed)
    s.add_argument("--trials", type=_count, default=100)
    leaf(vsub, "lasso", _verify_lasso)

    s = leaf(sub, "audit", _audit, seed, help="randomized inequality campaign")
    s.add_argument("--trials", type=_count, default=10000)
    s.add_argument("--lambda-max", dest="lambda_max", type=_positive, default=200.0)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, code = args.func(args)
        text = report if isinstance(report, str) else rep.json_dumps(report)
        if args.out is None:
            print(text, end="")
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ValueError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
