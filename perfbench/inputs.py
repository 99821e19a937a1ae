"""Seeded input generator for the qgs benchmark.

Writes, for one seed, everything the workloads feed the program: graph,
sampling-set and cover JSON files in the formats `qgs` reads, the audit seed,
and a manifest describing each workload's items and the expected outcome of
each item.  The same seed always gives byte-identical files.

    python3 perfbench/inputs.py --seed 1 --out .perfbench_work/inputs-1
    python3 perfbench/inputs.py --seed 1 --out DIR --workload spectrum

The generator uses only the standard library: it must not depend on the code
it feeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random

WORKLOADS = ("audit", "spectrum", "certify")

# A run does a fixed amount of work, scaled to --seconds by these rates so
# that it lasts about that long at the baseline (2 cores, ~8 ms per audit
# trial, ~5 s per spectrum pass, ~10 s per certify pass).  Fixed work keeps
# the item mix, and so every percentile, the same on both sides of a
# comparison.
AUDIT_TRIALS_PER_SECOND = 100
SPECTRUM_PASS_SECONDS = 5.0
CERTIFY_PASS_SECONDS = 10.0
# Fixed-size audit for the traced runs, which run one pass of each workload.
AUDIT_TRACE_TRIALS = 300
# Smallest wavenumber gap between distinct eigenvalues of the spectrum members
# that the solver gets no eigenvalue-count check on (the disconnected graph
# and the raw-basis lasso).  At its default grid, eigenvalues_up_to misses one
# of two roots 0.003-0.011 apart there (perfbench/README.md, "Known solver
# defect"), so those members' lengths are redrawn until every gap is wider.
MIN_ROOT_GAP = 0.05


def _passes(seconds: int, pass_seconds: float, minimum: int) -> int:
    return max(minimum, round(seconds / pass_seconds))


def _write(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _graph(vertices, edges, conditions=None) -> dict:
    """edges: (id, from, to, length[, flux])."""
    out = {"vertices": list(vertices), "edges": []}
    for e in edges:
        ed = {"id": e[0], "from": e[1], "to": e[2], "length": e[3]}
        if len(e) > 4 and e[4]:
            ed["flux"] = e[4]
        out["edges"].append(ed)
    if conditions is not None:
        out["conditions"] = conditions
    return out


def _standard_basis_scrambled(graph: dict, rng: random.Random) -> list:
    """The standard-condition subspace (span of the vertex indicators over the
    boundary coordinates) written as a raw basis of random complex
    combinations, so the loader has to orthonormalise it."""
    edges = graph["edges"]
    coords = [(e["id"], 0, e["from"]) for e in edges]
    coords += [(e["id"], 1, e["to"]) for e in edges]
    indicators = []
    for v in graph["vertices"]:
        row = [1.0 if c[2] == v else 0.0 for c in coords]
        if any(row):
            indicators.append(row)
    n = len(indicators)
    rows = []
    for i in range(n):
        mix = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        mix[i] += 3.0  # diagonally dominant, hence invertible
        rows.append([sum(mix[j] * indicators[j][c] for j in range(n))
                     for c in range(len(coords))])
    return [[{"re": z.real, "im": z.imag} for z in row] for row in rows]


def _sign_change_roots(f, k_max: float, h: float = 1e-3) -> list:
    """Roots of f on (0, k_max], by sign changes on a grid of step h and
    bisection."""
    roots, k, fk = [], h, f(h)
    while k < k_max:
        k2 = min(k + h, k_max)
        f2 = f(k2)
        if fk * f2 <= 0.0:
            lo, hi = k, k2
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            roots.append(lo)
        k, fk = k2, f2
    return roots


def _separated(ks, gap: float = MIN_ROOT_GAP) -> bool:
    ks = sorted(ks)
    return all(b - a >= gap for a, b in zip(ks, ks[1:]))


def _lasso_wavenumbers(loop: float, tail: float, k_max: float) -> list:
    """Standard lasso: the loop's odd modes k = 2 pi n / loop, and the even
    modes, roots of 2 sin(k loop/2) cos(k tail) + cos(k loop/2) sin(k tail)."""
    odd = [2 * math.pi * n / loop for n in range(1, int(k_max * loop / (2 * math.pi)) + 1)]
    even = _sign_change_roots(
        lambda k: (2 * math.sin(k * loop / 2) * math.cos(k * tail)
                   + math.cos(k * loop / 2) * math.sin(k * tail)), k_max)
    return [0.0] + odd + even


def _interval_cycle_wavenumbers(ell: float, cycle: float, k_max: float) -> list:
    """Distinct wavenumbers of a Dirichlet interval beside a standard cycle
    (a triangle with standard conditions is a cycle): n pi / ell and
    2 pi m / cycle (the latter double)."""
    interval = [n * math.pi / ell for n in range(1, int(k_max * ell / math.pi) + 1)]
    ring = [2 * math.pi * m / cycle for m in range(0, int(k_max * cycle / (2 * math.pi)) + 1)]
    return interval + ring


# ---------------------------------------------------------------------------
# audit


def audit_inputs(seed: int, seconds: int) -> dict:
    rng = random.Random(f"audit-{seed}")
    return {"seed": rng.randrange(1, 2 ** 31),
            "trials": max(1, AUDIT_TRIALS_PER_SECOND * seconds),
            "trace_trials": AUDIT_TRACE_TRIALS,
            "lam_max": 200.0}


# ---------------------------------------------------------------------------
# spectrum


def spectrum_inputs(seed: int, out: str, seconds: int) -> dict:
    """A catalogue of solves at high lambda.  Lengths vary by +-5 % with the
    seed, so the catalogue's cost and eigenvalue counts stay comparable
    between seeds."""
    rng = random.Random(f"spectrum-{seed}")

    # redraws come from a stream of their own, so they change no other member
    redraw = random.Random(f"spectrum-redraw-{seed}")

    def L(base=1.0, source=rng):
        return round(base * source.uniform(0.95, 1.05), 6)

    def flux():
        return round(rng.uniform(0.2, math.pi - 0.2), 6)

    k4 = [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"),
          ("e4", "d", "a"), ("e5", "a", "c"), ("e6", "b", "d")]
    members = []

    def add(name, graph, lam_max, check=None):
        path = os.path.join("graphs", f"spectrum-{name}.json")
        _write(os.path.join(out, path), graph)
        members.append({"name": name, "graph": path, "lam_max": lam_max,
                        "check": check})
        return graph

    # ROADMAP's case: standard K4 up to 1000
    add("k4", _graph("abcd", [(i, s, t, L()) for i, s, t in k4]), 1000.0)
    add("k4-mixed", _graph("abcd", [(i, s, t, L()) for i, s, t in k4],
                           {"default": "standard",
                            "overrides": {"a": "dirichlet", "b": "neumann"}}),
        400.0)
    k4_flux = [(i, s, t, L(), flux() if i in ("e1", "e5") else 0.0)
               for i, s, t in k4]
    add("k4-flux", _graph("abcd", k4_flux), 400.0)
    add("star3-dirichlet",
        _graph(["c", "w1", "w2", "w3"],
               [("e1", "c", "w1", L()), ("e2", "c", "w2", L()),
                ("e3", "c", "w3", L())],
               {"default": "dirichlet", "overrides": {"c": "standard"}}),
        1000.0)
    add("star4-anti-kirchhoff",
        _graph(["c", "w1", "w2", "w3", "w4"],
               [("e1", "c", "w1", L()), ("e2", "c", "w2", L()),
                ("e3", "c", "w3", L()), ("e4", "c", "w4", L())],
               {"default": "standard", "overrides": {"c": "anti-kirchhoff"}}),
        600.0)
    loop, tail = L(1.5), L()
    while not _separated(_lasso_wavenumbers(loop, tail, math.sqrt(1000.0))):
        loop, tail = L(1.5, redraw), L(source=redraw)
    lasso_edges = [("loop", "v", "v", loop), ("tail", "v", "w", tail)]
    lasso = add("lasso", _graph(["v", "w"], lasso_edges), 1000.0)
    raw = _graph(["v", "w"], lasso_edges)
    raw["conditions"] = {"subspace": {"basis": _standard_basis_scrambled(lasso, rng)}}
    add("lasso-raw-basis", raw, 1000.0, {"same_as": "lasso"})
    add("lasso-flux",
        _graph(["v", "w"], [("loop", "v", "v", L(1.5), flux()),
                            ("tail", "v", "w", L())]), 600.0)
    ell = L(2.0)
    add("interval-dirichlet",
        _graph(["a", "b"], [("e", "a", "b", ell)], {"default": "dirichlet"}),
        1000.0, {"closed_form": "interval-dirichlet", "length": ell})
    ell = L(2.0)
    add("interval-neumann", _graph(["a", "b"], [("e", "a", "b", ell)]),
        1000.0, {"closed_form": "interval-neumann", "length": ell})
    ell, phi = L(3.0), flux()
    add("cycle-flux", _graph(["v"], [("loop", "v", "v", ell, phi)]), 1000.0,
        {"closed_form": "cycle-flux", "length": ell, "flux": phi})
    # disconnected: a Dirichlet interval beside a standard triangle; its
    # spectrum is the union of the two parts'
    ell = L(1.5)
    tri = [("t1", "p", "q", L()), ("t2", "q", "r", L()), ("t3", "r", "p", L())]
    cycle = sum(e[3] for e in tri)
    while not _separated(_interval_cycle_wavenumbers(ell, cycle, math.sqrt(400.0))):
        ell = L(1.5, redraw)
    add("triangle", _graph("pqr", tri), 400.0)
    add("interval+triangle",
        _graph(["a", "b", "p", "q", "r"], [("e", "a", "b", ell)] + tri,
               {"default": "standard",
                "overrides": {"a": "dirichlet", "b": "dirichlet"}}),
        400.0, {"union_of": [{"closed_form": "interval-dirichlet", "length": ell},
                             {"same_as": "triangle"}]})
    # one larger graph (11 edges, 22-column secular matrix): a wheel on a
    # pentagon plus one chord
    rim = [f"r{i}" for i in range(5)]
    wheel = [(f"s{i}", "h", rim[i], L()) for i in range(5)]
    wheel += [(f"c{i}", rim[i], rim[(i + 1) % 5], L()) for i in range(5)]
    wheel += [("x", rim[0], rim[2], L())]
    add("wheel5", _graph(["h"] + rim, wheel), 200.0)
    return {"members": members, "passes": _passes(seconds, SPECTRUM_PASS_SECONDS, 2)}


# ---------------------------------------------------------------------------
# certify


def _certified_set(rng: random.Random, lengths: dict, gamma: float):
    """Cover-first control set: cut each edge into windows, then place mass
    gamma*|J| inside each window.  Three windows per edge keep the cost of
    the cover searches comparable between seeds.  Returns the set, its cover
    and the largest window (the cover's rho)."""
    edges, cover, rho = {}, {}, 0.0
    for eid, ell in lengths.items():
        cuts = sorted({0.0, ell, *(round(rng.uniform(lo, lo + 0.3) * ell, 6)
                                   for lo in (0.1, 0.55))})
        parts = []
        for t0, t1 in zip(cuts, cuts[1:]):
            w = t1 - t0
            m = gamma * w
            # the first window's mass sits at its right end, leaving a left
            # gap of width (1 - gamma)|J| for the refusal cases
            start = t1 - m if t0 == 0.0 else t0 + rng.uniform(0.0, w - m)
            parts.append([round(start, 9), round(start + m, 9)])
            rho = max(rho, w)
        edges[eid] = parts
        cover[eid] = cuts
    return {"edges": edges}, {"edges": cover}, rho


def certify_inputs(seed: int, out: str, seconds: int) -> dict:
    """Graph/set/cover bundles on small graphs at lambda <= 100, and the CLI
    cases run on each.  Every bundle certifies; the refusal cases use an
    uncoverable set (one edge carries no mass) or a cover that breaks the
    sampling definition, and must exit 1."""
    rng = random.Random(f"certify-{seed}")

    def L(base=1.0):
        return round(base * rng.uniform(0.95, 1.05), 6)

    families = {
        "interval": (["a", "b"], [("e", "a", "b", L(2.0))]),
        "path2": (["a", "b", "c"], [("e1", "a", "b", L()), ("e2", "b", "c", L())]),
        "star3": (["c", "w1", "w2", "w3"],
                  [("e1", "c", "w1", L()), ("e2", "c", "w2", L()),
                   ("e3", "c", "w3", L())]),
        "lasso": (["v", "w"], [("loop", "v", "v", L(1.5)), ("tail", "v", "w", L())]),
        "triangle-tail": (["a", "b", "c", "d"],
                          [("e1", "a", "b", L()), ("e2", "b", "c", L()),
                           ("e3", "c", "a", L()), ("e4", "c", "d", L())]),
    }
    cases = []

    def case(name, argv, expect, check, **extra):
        cases.append({"name": name, "argv": argv, "expect": expect,
                      "check": check, **extra})

    for fam, (verts, edges) in families.items():
        gpath = os.path.join("graphs", f"certify-{fam}.json")
        _write(os.path.join(out, gpath), _graph(verts, edges))
        lengths = {e[0]: e[3] for e in edges}
        gamma = round(rng.uniform(0.3, 0.5), 6)
        sset, cover, rho = _certified_set(rng, lengths, gamma)
        spath = os.path.join("sets", f"certify-{fam}.json")
        cpath = os.path.join("covers", f"certify-{fam}.json")
        _write(os.path.join(out, spath), sset)
        _write(os.path.join(out, cpath), cover)
        # a cover whose first window is the first edge's empty left gap:
        # density 0 < gamma breaks the sampling definition
        bad = {"edges": {e: list(b) for e, b in cover["edges"].items()}}
        first = sorted(bad["edges"])[0]
        left_gap = sset["edges"][first][0][0]
        bad["edges"][first] = [0.0, left_gap, lengths[first]]
        bpath = os.path.join("covers", f"certify-{fam}-invalid.json")
        _write(os.path.join(out, bpath), bad)
        # an uncoverable set: the same set with one edge emptied
        empty = {"edges": dict(sset["edges"])}
        empty["edges"][first] = []
        epath = os.path.join("sets", f"certify-{fam}-gap.json")
        _write(os.path.join(out, epath), empty)

        g = ["--graph", gpath]
        s = ["--set", spath]
        run_seed = str(rng.randrange(1, 10 ** 6))
        r = f"{rho * (1 + 1e-9):.12g}"
        # set endpoints are rounded to 1e-9: stay clear of that in gamma
        gm = f"{gamma * (1 - 1e-6):.12g}"
        case(f"{fam}/verify-ratio", ["verify", "ratio", *g, *s, "--lambda-max", "100",
                                     "--modes", "4", "--seed", run_seed], 0, "ratio")
        case(f"{fam}/verify-derivative", ["verify", "derivative", *g, *s,
                                          "--lambda-max", "100", "--modes", "4",
                                          "--seed", run_seed], 0, "derivative")
        case(f"{fam}/verify-observability", ["verify", "observability", *g, *s,
                                             "--horizon", "0.5", "--modes", "4"],
             0, "observability")
        case(f"{fam}/sampling-gamma", ["sampling", "gamma", *g, *s, "--rho", r],
             0, "sampling-gamma", set=spath, rho=float(r))
        case(f"{fam}/sampling-gamma-gap", ["sampling", "gamma", *g, *s, "--rho",
                                           f"{0.5 * left_gap:.12g}"],
             0, "sampling-gamma", set=spath, rho=0.5 * left_gap, infeasible=[first])
        case(f"{fam}/sampling-rho", ["sampling", "rho", *g, *s, "--gamma", gm],
             0, "sampling-rho", set=spath, gamma=float(gm))
        case(f"{fam}/sampling-verify", ["sampling", "verify", *g, *s, "--cover", cpath,
                                        "--gamma", gm, "--rho", r],
             0, "sampling-verify", gamma=float(gm))
        case(f"{fam}/sampling-verify-invalid",
             ["sampling", "verify", *g, *s, "--cover", bpath, "--gamma", gm,
              "--rho", r], 1, "refused-json")
        case(f"{fam}/verify-ratio-gap", ["verify", "ratio", *g, "--set", epath,
                                         "--lambda-max", "100", "--modes", "4",
                                         "--seed", run_seed], 1, "refused")
        # the whole graph is (1, rho)-sampling for every rho; a small rho keeps
        # the trace tail summable below lambda = 100
        case(f"{fam}/bound-trace", ["bound", "trace", *g, "--gamma", "1", "--rho",
                                    "0.02", "--t", "1", "--lambda-max", "100"],
             0, "json")
        case(f"{fam}/bound-cor72", ["bound", "cor72", *g, "--k", "3", "--gamma", gm,
                                    "--rho", r], 0, "json")
    return {"cases": cases, "passes": _passes(seconds, CERTIFY_PASS_SECONDS, 1)}


def generate(seed: int, out: str, seconds: int, workloads=WORKLOADS) -> dict:
    """Write the inputs of the named workloads under `out` and return the
    manifest (also written to out/manifest.json).  Paths in the manifest are
    relative to `out`."""
    os.makedirs(out, exist_ok=True)
    manifest = {"seed": seed}
    if "audit" in workloads:
        manifest["audit"] = audit_inputs(seed, seconds)
    if "spectrum" in workloads:
        manifest["spectrum"] = spectrum_inputs(seed, out, seconds)
    if "certify" in workloads:
        manifest["certify"] = certify_inputs(seed, out, seconds)
    _write(os.path.join(out, "manifest.json"), manifest)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=int, default=20,
                    help="run length the amount of work is scaled to")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="generate only this workload's inputs (repeatable)")
    args = ap.parse_args(argv)
    generate(args.seed, args.out, args.seconds, tuple(args.workload or WORKLOADS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
