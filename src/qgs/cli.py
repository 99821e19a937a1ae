"""Command-line front end: file ingestion, dispatch, report emission.

Exit codes: 0 success, 1 domain or input error, 2 inequality-audit violation
(an observed ratio at or below its proved bound, which must never happen).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import bounds as bnd
from . import report as rep
from . import sampling as smp
from . import verify as vfy
from .graphs import load_graph, metrics
from .polytrig import GraphFunction, IntervalUnion, PolyTrigTerm, masses
from .spectral import eigenvalues_up_to, solve_torsion


def _positive(value: str) -> float:
    x = float(value)
    if x <= 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return x


def _vertices(value: str) -> list[str]:
    return [v for v in value.split(",") if v]


def _load(args):
    g, y = load_graph(args.graph)
    sset = smp.SamplingSet.load(g, args.set) if getattr(args, "set", None) is not None else None
    return g, y, sset


def _emit(args, payload) -> None:
    rep.emit(rep.json_dumps(payload), getattr(args, "out", None))


def _random_sample(g, y, lam_max, modes, seed):
    pairs = eigenvalues_up_to(g, y, lam_max)
    if not pairs:
        raise ValueError(f"no eigenvalues at or below {lam_max}")
    return vfy.random_combination(np.random.default_rng(seed), pairs, modes)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectrum(args) -> int:
    g, y, _ = _load(args)
    pairs = eigenvalues_up_to(g, y, args.lambda_max)
    _emit(args, {"count": len(pairs), "lambda_max": args.lambda_max, "eigenvalues": pairs})
    return 0


def _cmd_torsion(args) -> int:
    g, _, _ = _load(args)
    sol = solve_torsion(g, args.dirichlet)
    _emit(args, {"rigidity": sol.rigidity, "dirichlet": list(sol.dirichlet),
                 **sol.function.to_json()})
    return 0


def _cmd_sampling(args) -> int:
    g, _, sset = _load(args)
    if args.sampling_cmd == "verify":
        with open(args.cover, "r", encoding="utf-8") as fh:
            cover = smp.Cover.from_dict(json.load(fh))
        res = smp.verify_cover(sset, cover, gamma=args.gamma, rho=args.rho)
        ok = isinstance(res, smp.SamplingParams)
        _emit(args, {"ok": ok, **rep.sanitize(res)})
        return 0 if ok else 1
    if args.sampling_cmd in ("gamma", "rho"):
        cmd = args.sampling_cmd
        out = {}
        for eid, iu in sorted(sset.finite.items()):
            ell = g.edge_lengths[eid]
            if cmd == "gamma":
                out[eid] = smp.optimal_gamma(iu, ell, rho=args.rho, grid_n=args.grid)
            else:
                out[eid] = smp.optimal_rho(iu, ell, gamma=args.gamma, grid_n=args.grid)
        agg = None
        if out and all(r.feasible for r in out.values()):
            vals = [getattr(r, cmd) for r in out.values()]
            agg = min(vals) if cmd == "gamma" else max(vals)
        _emit(args, {"edges": out, "aggregate": agg})
        return 0
    # gaps
    gaps = smp.gap_analysis(sset)
    payload = {"edges": gaps}
    if args.gamma is not None and args.rho is not None:
        ok, issues = smp.necessary_check(gaps, args.gamma, args.rho)
        payload["necessary_check"] = {"gamma": args.gamma, "rho": args.rho,
                                      "ok": ok, "issues": issues}
    _emit(args, payload)
    return 0


def _cmd_bound(args) -> int:
    cmd = args.bound_cmd
    if cmd == "thm21":
        out = bnd.spectral_bound(args.gamma, args.rho, args.lam)
    elif cmd == "thm26":
        out = bnd.h_bound(args.gamma, h=args.h)
    elif cmd == "cor72":
        g, _, _ = _load(args)
        out = bnd.standard_range(metrics(g), args.k, args.gamma, args.rho)
    elif cmd == "observability":
        out = bnd.observability_constant(
            args.gamma, args.rho, args.horizon,
            **{name: getattr(args, name) for name in bnd.OBSERVABILITY_DEFAULTS})
    elif cmd == "torsion":
        g, _, _ = _load(args)
        sol = solve_torsion(g, args.dirichlet)
        out = bnd.torsion_profile(g, sol, rho=args.rho, gamma=args.gamma)
    else:  # trace
        g, y, sset = _load(args)
        pairs = eigenvalues_up_to(g, y, args.lambda_max)
        parts = ([m.part for m in masses([p.function for p in pairs], sset.region())]
                 if sset is not None else [1.0] * len(pairs))
        out = bnd.heat_trace_bound([(p.lam, m) for p, m in zip(pairs, parts)],
                                   gamma=args.gamma, rho=args.rho, t=args.t,
                                   total_length=sum(g.edge_lengths.values()),
                                   edges=len(g.edges))
    _emit(args, out)
    return 0


def _parse_intervals(text: str) -> IntervalUnion:
    return IntervalUnion(json.loads(text))


def _cmd_verify(args) -> int:
    cmd = args.verify_cmd
    if cmd == "lasso":
        _emit(args, vfy.lasso_counterexample())
        return 0
    if cmd == "kovrijkine":
        coeffs = [complex(c) for c in json.loads(args.coeffs)]
        out = vfy.kovrijkine_check(coeffs, _parse_intervals(args.e_set),
                                   grid_n=args.grid)
        _emit(args, out)
        return 0 if out.passed else 2
    if cmd == "local":
        terms = [(complex(t[0], t[1]), int(t[2]), float(t[3]))
                 for t in json.loads(args.terms)]
        out = vfy.local_estimate_check(terms, args.ell,
                                       _parse_intervals(args.s_set),
                                       grid_n=args.grid)
        _emit(args, out)
        return 0 if out.passed else 2
    if cmd == "optimality":
        _emit(args, vfy.optimality_example(args.ell, args.lam, args.gamma))
        return 0
    if cmd == "trace-ineq":
        rng = np.random.default_rng(args.seed)
        g, _, _ = _load(args)
        reports = []
        for _ in range(args.trials):
            terms = {eid: [PolyTrigTerm(complex(*rng.normal(size=2)),
                                        int(rng.integers(0, 3)),
                                        float(rng.uniform(-8, 8)))
                           for _ in range(int(rng.integers(1, 4)))]
                     for eid in g.edge_ids}
            reports.append(vfy.boundary_trace_check(GraphFunction(g, terms), g))
        ok = all(r.passed for r in reports)
        _emit(args, {"trials": args.trials, "all_passed": ok,
                     "worst_slack": min(r.rhs - r.lhs for r in reports)})
        return 0 if ok else 2

    g, y, sset = _load(args)
    if cmd == "observability":
        params = smp.certify(sset, args.grid)
        _emit(args, vfy.observability_numeric(g, y, sset.region(), horizon=args.horizon,
                                              modes=args.modes, params=params))
        return 0
    if cmd == "classify":
        _, f, lam = _random_sample(g, y, args.lambda_max, args.modes, args.seed)
        _emit(args, vfy.classify_edges(f, bnd.BernsteinProfile.power_law(lam),
                                       m_max=args.m_max))
        return 0
    # ratio / derivative
    chosen, f, lam = _random_sample(g, y, args.lambda_max, args.modes, args.seed)
    params = smp.certify(sset, args.grid)
    if cmd == "ratio":
        out = vfy.compare(f, sset.region(), params, lam=lam)
    else:
        out = vfy.compare_derivative(f, sset.region(), params, lam=lam)
    _emit(args, {"seed": args.seed, "modes": len(chosen), "lam": lam, **rep.sanitize(out)})
    return 0 if (out.passed or out.vacuous) else 2


def _cmd_audit(args) -> int:
    res = vfy.audit(trials=args.trials, seed=args.seed, lam_max=args.lambda_max)
    if args.format == "csv":
        text = rep.csv_dumps(res.rows, rep.AUDIT_COLUMNS)
    else:
        text = rep.json_dumps(res)
    rep.emit(text, args.out)
    if res.violations:
        print(f"AUDIT VIOLATIONS: {res.violations} of {res.trials} trials",
              file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qgs argument parser, built once: parsing does not change it."""
    p = argparse.ArgumentParser(
        prog="qgs",
        description="Eigenpairs, sampling-set certification and explicit "
                    "spectral-inequality constants on compact metric graphs.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--graph", required=True, help="graph JSON file")
        sp.add_argument("--out", help="write the report here (default stdout)")

    sp = sub.add_parser("spectrum", help="eigenvalues and eigenfunctions")
    add_common(sp)
    sp.add_argument("--lambda-max", dest="lambda_max", type=_positive, default=100.0)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("torsion", help="torsion function and rigidity")
    add_common(sp)
    sp.add_argument("--dirichlet", type=_vertices, required=True,
                    help="comma-separated vertex ids")
    sp.set_defaults(func=_cmd_torsion)

    sp = sub.add_parser("sampling", help="sampling-set certification")
    ssub = sp.add_subparsers(dest="sampling_cmd", required=True)
    for name in ("verify", "gamma", "rho", "gaps"):
        s = ssub.add_parser(name)
        add_common(s)
        s.add_argument("--set", required=True, help="sampling-set JSON file")
        if name == "verify":
            s.add_argument("--cover", required=True, help="cover JSON file")
            s.add_argument("--gamma", type=float, required=True)
            s.add_argument("--rho", type=_positive, required=True)
        elif name == "gamma":
            s.add_argument("--rho", type=_positive, required=True)
            s.add_argument("--grid", type=int, default=200)
        elif name == "rho":
            s.add_argument("--gamma", type=float, required=True)
            s.add_argument("--grid", type=int, default=200)
        else:
            s.add_argument("--gamma", type=float)
            s.add_argument("--rho", type=_positive)
        s.set_defaults(func=_cmd_sampling)

    sp = sub.add_parser("bound", help="explicit constants")
    bsub = sp.add_subparsers(dest="bound_cmd", required=True)
    s = bsub.add_parser("thm21")
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--rho", type=_positive, required=True)
    s.add_argument("--lambda", dest="lam", type=float, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_bound)
    s = bsub.add_parser("thm26")
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--h", type=float, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_bound)
    s = bsub.add_parser("cor72")
    add_common(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--rho", type=_positive, required=True)
    s.set_defaults(func=_cmd_bound)
    s = bsub.add_parser("trace")
    add_common(s)
    s.add_argument("--set", help="control-set JSON (default: whole graph)")
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--rho", type=_positive, required=True)
    s.add_argument("--t", type=_positive, required=True)
    s.add_argument("--lambda-max", dest="lambda_max", type=_positive, default=100.0)
    s.set_defaults(func=_cmd_bound)
    s = bsub.add_parser("observability")
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--rho", type=_positive, required=True)
    s.add_argument("--horizon", "-T", type=_positive, required=True)
    for name, dflt in bnd.OBSERVABILITY_DEFAULTS.items():
        s.add_argument(f"--{name}", type=float, default=dflt)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_bound)
    s = bsub.add_parser("torsion")
    add_common(s)
    s.add_argument("--dirichlet", type=_vertices, required=True)
    s.add_argument("--rho", type=_positive, required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("verify", help="certification checks")
    vsub = sp.add_subparsers(dest="verify_cmd", required=True)
    for name in ("ratio", "derivative"):
        s = vsub.add_parser(name)
        add_common(s)
        s.add_argument("--set", required=True)
        s.add_argument("--lambda-max", dest="lambda_max", type=_positive,
                       default=100.0)
        s.add_argument("--modes", type=int, default=5)
        s.add_argument("--seed", type=int, default=vfy.DEFAULT_SEED)
        s.add_argument("--grid", type=int, default=200)
        s.set_defaults(func=_cmd_verify)
    s = vsub.add_parser("classify")
    add_common(s)
    s.add_argument("--lambda-max", dest="lambda_max", type=_positive, default=100.0)
    s.add_argument("--modes", type=int, default=5)
    s.add_argument("--seed", type=int, default=vfy.DEFAULT_SEED)
    s.add_argument("--m-max", dest="m_max", type=int, default=vfy.DEFAULT_M_MAX)
    s.set_defaults(func=_cmd_verify)
    s = vsub.add_parser("kovrijkine")
    s.add_argument("--coeffs", required=True, help='JSON list, e.g. "[1, 0.5]"')
    s.add_argument("--e-set", dest="e_set", required=True,
                   help='JSON intervals in [0,1], e.g. "[[0, 0.5]]"')
    s.add_argument("--grid", type=int, default=2000)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_verify)
    s = vsub.add_parser("local")
    s.add_argument("--terms", required=True,
                   help='JSON list of [re, im, power, freq] terms')
    s.add_argument("--ell", type=_positive, required=True)
    s.add_argument("--s-set", dest="s_set", required=True)
    s.add_argument("--grid", type=int, default=4096)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_verify)
    s = vsub.add_parser("optimality")
    s.add_argument("--ell", type=_positive, required=True)
    s.add_argument("--lambda", dest="lam", type=_positive, required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_verify)
    s = vsub.add_parser("observability")
    add_common(s)
    s.add_argument("--set", required=True)
    s.add_argument("--horizon", "-T", type=_positive, required=True)
    s.add_argument("--modes", type=int, default=4)
    s.add_argument("--grid", type=int, default=200)
    s.set_defaults(func=_cmd_verify)
    s = vsub.add_parser("trace-ineq")
    add_common(s)
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--seed", type=int, default=vfy.DEFAULT_SEED)
    s.set_defaults(func=_cmd_verify)
    s = vsub.add_parser("lasso")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("audit", help="randomized inequality campaign")
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=vfy.DEFAULT_SEED)
    sp.add_argument("--lambda-max", dest="lambda_max", type=_positive, default=200.0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_audit)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
