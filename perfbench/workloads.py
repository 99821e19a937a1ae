"""The three benchmark workloads: how each item runs and how its outputs are
checked.

Each workload object is built from its manifest section and the input
directory, and has

  run(on_item)            one closed-loop pass over its items; `on_item`
                          receives (name, seconds) for each timed item
  throughput_items()      the work the items_per_s metric counts
  check()                 (attempted, failed, problems), run after timing
  reports()               report name -> text, for the printed SHA-256s

Only public `qgs` functions are called, and always through their module
attribute, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time

# sigma_min acceptance of a root, on the secular matrix with rows scaled down
# to unit norm and the sine columns scaled by 1/k below k = 1 (README, "Notes
# on numerics")
TOL_ACCEPT = 1e-8
TOL_RESIDUAL = 1e-8     # boundary-condition residual of an eigenfunction
TOL_GRAM = 1e-8         # eigenfunction Gram matrix against the identity
TOL_LAMBDA_REL = 1e-9   # eigenvalues against closed forms and references


def _mod(name: str):
    return sys.modules[f"qgs.{name}"]


def _close(a: list[float], b: list[float]) -> bool:
    return len(a) == len(b) and all(
        abs(x - y) <= TOL_LAMBDA_REL * max(1.0, abs(y)) for x, y in zip(a, b))


class Audit:
    """verify.audit(seed, lam_max=200, classify=True): one campaign call.

    Per-trial latency is the interval between successive completions of
    verify.classify_edges, which the campaign calls once at the end of each
    trial when classify=True; the first trial (which follows the pool
    eigen-solve) has no interval and is left out."""

    def __init__(self, spec: dict, inputs: str, traced: bool):
        self.seed = spec["seed"]
        self.lam_max = spec["lam_max"]
        self.trials = spec["trace_trials"] if traced else spec["trials"]
        self.result = None
        self.error = None

    def run(self, on_item):
        verify = _mod("verify")
        inner = verify.classify_edges
        stamps: list[float] = []

        def stamped(*args, **kwargs):
            out = inner(*args, **kwargs)
            stamps.append(time.perf_counter())
            if len(stamps) > 1:
                on_item(f"trial-{len(stamps) - 1}", stamps[-1] - stamps[-2])
            return out

        verify.classify_edges = stamped
        try:
            self.result = verify.audit(trials=self.trials, seed=self.seed,
                                       lam_max=self.lam_max, classify=True)
        except Exception as exc:  # a raised trial fails the whole campaign
            self.error = f"audit raised {type(exc).__name__}: {exc}"
        finally:
            verify.classify_edges = inner

    def throughput_items(self) -> int:
        return self.trials

    def check(self):
        if self.error:
            return self.trials, self.trials, [self.error]
        res = self.result
        problems = []
        failed = self.trials - len(res.rows)
        if failed:
            problems.append(f"{failed} trials missing from the audit rows")
        for r in res.rows:
            ok = (r["mass_passed"] and (r["deriv_vacuous"] or r["deriv_passed"])
                  and r["classified_ok"] and r["mass_observed"] >= r["bound"])
            if not ok:
                failed += 1
                problems.append(f"trial {r['trial']} ({r['graph']}) failed its checks")
        if res.violations:
            problems.append(f"audit reports {res.violations} violations")
            failed = max(failed, res.violations)
        return self.trials, failed, problems

    def reports(self) -> dict:
        if self.result is None:
            return {}
        rep = _mod("report")
        return {"audit.csv": rep.csv_dumps(self.result.rows, rep.AUDIT_COLUMNS)}


class Spectrum:
    """spectral.eigenvalues_up_to over a catalogue of graph files; one item is
    load_graph plus the solve."""

    def __init__(self, spec: dict, inputs: str, traced: bool):
        self.members = spec["members"]
        self.reference = spec.get("reference")  # name -> eigenvalues, seed 1
        self.inputs = inputs
        self.first: dict[str, tuple] = {}      # name -> (g, y, pairs)
        self.repeats: dict[str, list] = {}     # name -> eigenvalue lists
        self.errors: dict[str, str] = {}
        self.solves = 0
        self.pairs = 0

    def run(self, on_item):
        graphs, spectral = _mod("graphs"), _mod("spectral")
        for m in self.members:
            name = m["name"]
            t0 = time.perf_counter()
            try:
                g, y = graphs.load_graph(os.path.join(self.inputs, m["graph"]))
                pairs = spectral.eigenvalues_up_to(g, y, m["lam_max"])
            except Exception as exc:
                self.errors.setdefault(name, f"{type(exc).__name__}: {exc}")
                pairs = None
            dt = time.perf_counter() - t0
            self.solves += 1
            on_item(name, dt)
            if pairs is None:
                continue
            self.pairs += len(pairs)
            if name not in self.first:
                self.first[name] = (g, y, pairs)
            else:
                self.repeats.setdefault(name, []).append([p.lam for p in pairs])

    def throughput_items(self) -> int:
        return self.pairs

    # -- checks -------------------------------------------------------------

    def _lams(self, name):
        return [p.lam for p in self.first[name][2]]

    def _closed_form(self, spec, lam_max):
        ell = spec["length"]
        kind = spec["closed_form"]
        out = []
        if kind in ("interval-dirichlet", "interval-neumann"):
            n = 1 if kind == "interval-dirichlet" else 0
            while (n * math.pi / ell) ** 2 <= lam_max:
                out.append((n * math.pi / ell) ** 2)
                n += 1
        else:  # cycle with flux phi: ((2 pi n + phi) / ell)^2, n in Z
            phi = spec["flux"]
            nmax = int(math.sqrt(lam_max) * ell / (2 * math.pi)) + 2
            out = [((2 * math.pi * n + phi) / ell) ** 2 for n in range(-nmax, nmax + 1)]
            out = [v for v in out if v <= lam_max]
        return sorted(out)

    def _expected(self, spec, lam_max):
        if "closed_form" in spec:
            return self._closed_form(spec, lam_max)
        if "same_as" in spec:
            return self._lams(spec["same_as"])
        return sorted(v for part in spec["union_of"]
                      for v in self._expected(part, lam_max))

    def _check_member(self, m) -> list[str]:
        import numpy as np
        graphs, polytrig, spectral = _mod("graphs"), _mod("polytrig"), _mod("spectral")
        name = m["name"]
        g, y, pairs = self.first[name]
        problems = []
        y_eff = (graphs.gauge_transform(y, g) if any(e.flux != 0.0 for e in g.edges)
                 else y)
        ne = len(g.edges)
        for p in pairs:
            res = spectral.boundary_residual(g, y_eff, p.function)
            if not res < TOL_RESIDUAL:
                problems.append(f"{name}: residual {res:.3g} at lambda={p.lam:.12g}")
            mat = np.array(spectral.secular_matrix(g, y_eff, p.k))
            if 0.0 < p.k < 1.0:
                mat[:, ne:] /= p.k
            mat /= np.maximum(np.linalg.norm(mat, axis=1), 1.0)[:, None]
            smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
            if not smin < TOL_ACCEPT:
                problems.append(f"{name}: sigma_min {smin:.3g} at lambda={p.lam:.12g}")
        n = len(pairs)
        gram = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(i, n):
                gram[i, j] = polytrig.inner_product(pairs[i].function, pairs[j].function)
                gram[j, i] = np.conj(gram[i, j])
        dev = float(np.max(np.abs(gram - np.eye(n)))) if n else 0.0
        if not dev <= TOL_GRAM:
            problems.append(f"{name}: eigenfunction Gram deviates from I by {dev:.3g}")
        if m["check"]:
            want = self._expected(m["check"], m["lam_max"])
            got = self._lams(name)
            if not _close(got, want):
                problems.append(f"{name}: {len(got)} eigenvalues, expected {len(want)} "
                                f"matching {m['check']}")
        for again in self.repeats.get(name, []):
            if again != self._lams(name):
                problems.append(f"{name}: a repeated solve returned other eigenvalues")
                break
        return problems

    def check(self):
        problems, bad = [], set(self.errors)
        for name, err in self.errors.items():
            problems.append(f"{name} raised {err}")
        for m in self.members:
            if m["name"] in self.first:
                found = self._check_member(m)
                if found:
                    bad.add(m["name"])
                    problems += found
        if self.reference is not None:
            for name, want in self.reference.items():
                if name in self.first and not _close(self._lams(name), want):
                    bad.add(name)
                    problems.append(f"{name}: differs from the recorded reference")
        return self.solves, self.solves // len(self.members) * len(bad), problems

    def reports(self) -> dict:
        lams = {name: self._lams(name) for name in sorted(self.first)}
        return {"eigenvalues": json.dumps(lams, indent=1, sort_keys=True) + "\n"}


class Certify:
    """cli.main(argv) in process over the generated files; one item is one
    CLI call with its output captured."""

    def __init__(self, spec: dict, inputs: str, traced: bool):
        self.cases = spec["cases"]
        self.inputs = inputs
        self.first: dict[str, tuple] = {}   # name -> (code, stdout, stderr)
        self.changed: set[str] = set()
        self.calls = 0

    def run(self, on_item):
        cli = _mod("cli")
        cwd = os.getcwd()
        os.chdir(self.inputs)  # case argv paths are relative to the inputs
        try:
            for c in self.cases:
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(c["argv"]))
                    except SystemExit as exc:
                        code = f"SystemExit({exc.code})"
                    except Exception as exc:
                        code = f"raised {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                self.calls += 1
                on_item(c["name"], dt)
                got = (code, out.getvalue(), err.getvalue())
                if c["name"] not in self.first:
                    self.first[c["name"]] = got
                elif got[:2] != self.first[c["name"]][:2]:
                    self.changed.add(c["name"])
        finally:
            os.chdir(cwd)

    def throughput_items(self) -> int:
        return self.calls

    def reports(self) -> dict:
        return {name: v[1] for name, v in self.first.items()}

    def _reverify(self, gpath, spath, edge, bps, gamma, rho) -> bool:
        graphs, sampling = _mod("graphs"), _mod("sampling")
        g, _ = graphs.load_graph(os.path.join(self.inputs, gpath))
        full = sampling.SamplingSet.load(g, os.path.join(self.inputs, spath))
        one = sampling.SamplingSet(finite={edge: full.finite[edge]})
        cover = sampling.Cover(breakpoints={edge: tuple(bps)})
        res = sampling.verify_cover(one, cover, gamma=gamma, rho=rho)
        return isinstance(res, sampling.SamplingParams)

    def _check_case(self, c) -> str | None:
        code, out, err = self.first[c["name"]]
        if code != c["expect"]:
            return f"exit {code}, expected {c['expect']}: {err.strip()[:200]}"
        kind = c["check"]
        if kind == "refused":
            return None if err.startswith("error:") and not out else "no clean refusal"
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not JSON"
        argv = c["argv"]
        gpath = argv[argv.index("--graph") + 1]
        if kind == "refused-json":
            return None if payload["ok"] is False and payload["issues"] else "not refused"
        if kind == "ratio":
            ok = payload["passed"] and payload["observed"] >= payload["bound"]["value"]
            return None if ok else "observed ratio below the bound"
        if kind == "derivative":
            return None if payload["passed"] or payload["vacuous"] else "derivative failed"
        if kind == "observability":
            ok = payload["observable"] and math.isfinite(payload["numeric_c_squared"])
            return None if ok else "not observable"
        if kind == "sampling-verify":
            return None if payload["ok"] and payload["gamma"] >= c["gamma"] else "cover refused"
        if kind in ("sampling-gamma", "sampling-rho"):
            # edges listed as infeasible have a gap wider than rho; the
            # others may go either way in the gap cases
            infeasible = c.get("infeasible")
            for edge, r in payload["edges"].items():
                if edge in (infeasible or ()) and r["feasible"]:
                    return f"edge {edge}: a gap wider than rho was covered"
                if infeasible is None and not r["feasible"]:
                    return f"edge {edge}: refused a certifiable set"
                if not r["feasible"]:
                    continue
                gamma, rho = ((r["gamma"], c["rho"]) if kind == "sampling-gamma"
                              else (c["gamma"], r["rho"]))
                if not self._reverify(gpath, c["set"], edge, r["breakpoints"], gamma, rho):
                    return f"edge {edge}: returned cover does not re-verify"
        return None

    def check(self):
        problems, bad = [], set(self.changed)
        for name in sorted(self.changed):
            problems.append(f"{name}: a repeated call gave another exit code or report")
        for c in self.cases:
            if c["name"] not in self.first:
                continue
            why = self._check_case(c)
            if why:
                bad.add(c["name"])
                problems.append(f"{c['name']}: {why}")
        return self.calls, self.calls // len(self.cases) * len(bad), problems


WORKLOADS = {"audit": Audit, "spectrum": Spectrum, "certify": Certify}
