"""One benchmark worker: a fresh process that runs one workload once.

    python3 perfbench/worker.py --mode import --result FILE
    python3 perfbench/worker.py --mode timed|traced --workload W \
        --inputs DIR --result FILE [--spans FILE] [--reference FILE]

Modes:
  import  time `import qgs` and nothing else (the set-up probe)
  timed   closed loop over the manifest's number of passes (sized by the
          generator to last about the run length); records every item's
          latency
  traced  one pass with every public qgs function wrapped

The run's checks follow the timed region and, in traced mode, the removal of
the wrappers.  The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def measure_import() -> dict:
    t0 = time.perf_counter()
    import qgs
    return {"import_s": time.perf_counter() - t0, "qgs_file": qgs.__file__}


def layer_metrics(agg: dict) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and the exact counts that must repeat
    between two traced runs of the same inputs."""
    fn, lay = agg["functions"], agg["layers"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def secs(name):
        return fn.get(name, {}).get("s", 0.0)

    pairs = fn.get("spectral.eigenvalues_up_to", {}).get("size", 0)
    secular = calls("spectral.secular_matrix")
    metrics = {
        "polytrig.quad_calls": calls("polytrig.integrate_powexp"),
        "polytrig.quad_elements": fn.get("polytrig.integrate_powexp", {}).get("size", 0),
        "polytrig.quad_s": secs("polytrig.integrate_powexp"),
        "polytrig.norm_sq_calls": calls("polytrig.norm_sq"),
        "polytrig.norm_sq_s": secs("polytrig.norm_sq"),
        "polytrig.inner_product_calls": calls("polytrig.inner_product"),
        "polytrig.inner_product_s": secs("polytrig.inner_product"),
        "spectral.solves": calls("spectral.eigenvalues_up_to"),
        "spectral.pairs": pairs,
        "spectral.secular_evals": secular,
        "spectral.secular_evals_per_pair": secular / pairs if pairs else 0.0,
        "spectral.solve_s": secs("spectral.eigenvalues_up_to"),
        "spectral.self_s": lay.get("spectral", {}).get("self_s", 0.0),
        "sampling.optimal_gamma_calls": calls("sampling.optimal_gamma"),
        "sampling.optimal_gamma_s": secs("sampling.optimal_gamma"),
        "sampling.optimal_rho_calls": calls("sampling.optimal_rho"),
        "sampling.optimal_rho_s": secs("sampling.optimal_rho"),
        "sampling.verify_cover_calls": calls("sampling.verify_cover"),
        "sampling.verify_cover_s": secs("sampling.verify_cover"),
        "graphs.load_s": secs("graphs.load_graph"),
        "graphs.diameter_calls": calls("graphs.diameter"),
        "graphs.diameter_s": secs("graphs.diameter"),
        "graphs.gauge_s": secs("graphs.gauge_transform"),
        "verify.compare_s": secs("verify.compare"),
        "verify.compare_derivative_s": secs("verify.compare_derivative"),
        "verify.classify_s": secs("verify.classify_edges"),
        "verify.observability_s": secs("verify.observability_numeric"),
        "verify.self_s": lay.get("verify", {}).get("self_s", 0.0),
        "bounds.calls": lay.get("bounds", {}).get("calls", 0),
        "bounds.s": lay.get("bounds", {}).get("s", 0.0),
        "cli.self_s": lay.get("cli", {}).get("self_s", 0.0),
        "report.s": lay.get("report", {}).get("s", 0.0),
    }
    counts = {name: [f["calls"], f["size"]] for name, f in sorted(fn.items())}
    return metrics, counts


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    with open(os.path.join(args.inputs, "manifest.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[args.workload]
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            spec["reference"] = json.load(fh)
    out = measure_import()
    from tracer import Tracer, aggregate, qgs_modules, wrapper_cost
    qgs_modules()  # every mode loads the same modules (cli, report too)
    wl = WORKLOADS[args.workload](spec, os.path.abspath(args.inputs),
                                  traced=args.mode == "traced")
    latencies: list[float] = []

    def on_item(name, seconds):
        latencies.append(seconds)

    if args.mode == "timed":
        passes = spec.get("passes", 1)
    else:
        passes = 1
        cost = wrapper_cost()
        tracer = Tracer()
        out["coverage"] = tracer.install()
    t0 = time.perf_counter()
    for _ in range(passes):
        wl.run(on_item)
    elapsed = time.perf_counter() - t0
    work = wl.throughput_items()
    out.update({"passes": passes, "elapsed_s": elapsed, "work": work,
                "items_per_s": work / elapsed})
    if args.mode == "timed":
        out["peak_rss_mb"] = _peak_rss_mb()
        out["latencies_ms"] = [1e3 * s for s in latencies]
    else:
        tracer.uninstall()
        out["layers"], out["counts"] = layer_metrics(aggregate(tracer.spans))
        out["spans"] = len(tracer.spans)
        # (traced - untraced) / untraced items_per_s, with the untraced time
        # estimated as the traced time less one wrapper's cost per span
        out["wrapper_cost_s"] = cost
        out["overhead_frac"] = -len(tracer.spans) * cost / elapsed
        if args.spans:
            tracer.write(args.spans)
    out.update({"workload": args.workload, "mode": args.mode})

    attempted, failed, problems = wl.check()
    out.update({"attempted": attempted, "failed": failed, "problems": problems[:20]})
    reports = wl.reports()
    out["report_sha256"] = {name: hashlib.sha256(text.encode()).hexdigest()
                            for name, text in sorted(reports.items())}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one qgs benchmark worker")
    ap.add_argument("--mode", choices=("import", "timed", "traced"),
                    required=True)
    ap.add_argument("--workload")
    ap.add_argument("--inputs")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="write the traced spans here (gzip JSON lines)")
    ap.add_argument("--reference", help="spectrum: reference eigenvalues to match")
    args = ap.parse_args(argv)
    out = measure_import() if args.mode == "import" else run_workload(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
