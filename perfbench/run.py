"""The qgs benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload audit|spectrum|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  Inputs are generated from the seed under .perfbench_work/ before
anything is timed; every measurement runs in a fresh worker process whose
BLAS/OpenMP thread pools are pinned to one thread, one worker at a time.

--trace 0 prints the end-to-end metrics: set-up time (median of several fresh
`import qgs`), throughput, median and tail item latency, and the worker's
peak RSS.  --trace 1 prints the per-layer metrics of a traced run, checks
that its counts repeat exactly in a second traced run of the same inputs,
and reports the tracing overhead (span count times a calibrated cost per
wrapped call) and the failed fraction of the checks.

Outputs are checked after timing; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for the metrics, the workloads and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("audit", "spectrum", "certify")
DEFAULT_SEED = 1
SETUP_PROBES = 10  # half before and half after the timed worker
WORKER_TIMEOUT_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "QGS_THREADS")

UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
         "item_tail_ms": "ms", "peak_rss_mb": "MB"}
COUNTS = ("polytrig.quad_calls", "polytrig.quad_elements", "polytrig.norm_sq_calls",
          "polytrig.inner_product_calls", "spectral.solves", "spectral.pairs",
          "spectral.secular_evals", "sampling.optimal_gamma_calls",
          "sampling.optimal_rho_calls", "sampling.verify_cover_calls",
          "graphs.diameter_calls", "bounds.calls")


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name in COUNTS:
        return "count"
    return "1" if name.endswith(("_frac", "_per_pair")) else "s"


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(tag: str, *args: str) -> dict:
    """Run one worker to completion and return its result."""
    result = os.path.join(WORK, f"result-{tag}.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--result", result, *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {tag} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"worker {tag} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-3000:]}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    expected = os.path.join(ROOT, "src", "qgs", "__init__.py")
    if os.path.realpath(out["qgs_file"]) != os.path.realpath(expected):
        raise BenchError(f"worker imported qgs from {out['qgs_file']}, not {expected}")
    return out


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten items beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    raise BenchError(f"{n} items are too few for a tail with ten beyond it")


def prepare(workload: str, seed: int, seconds: int) -> str:
    sys.path.insert(0, HERE)
    from inputs import generate
    inputs = os.path.join(WORK, f"inputs-{workload}-{seed}")
    shutil.rmtree(inputs, ignore_errors=True)
    generate(seed, inputs, seconds, (workload,))
    return inputs


def reference_args(workload: str, seed: int) -> list[str]:
    ref = os.path.join(HERE, "reference", f"spectrum-seed-{DEFAULT_SEED}.json")
    return ["--reference", ref] if workload == "spectrum" and seed == DEFAULT_SEED else []


def check_lines(res: dict) -> list[str]:
    return [f"  {p}" for p in res["problems"]]


def untraced(workload: str, seed: int, inputs: str) -> tuple[dict, dict, list[str]]:
    def probes(first: int) -> list[float]:
        return [run_worker(f"import-{i}", "--mode", "import")["import_s"]
                for i in range(first, first + SETUP_PROBES // 2)]

    setups = probes(0)
    res = run_worker("timed", "--mode", "timed", "--workload", workload,
                     "--inputs", inputs, *reference_args(workload, seed))
    setups += probes(SETUP_PROBES // 2)
    lat = res["latencies_ms"]
    tail = tail_percentile(len(lat))
    metrics = {"setup_s": statistics.median(setups),
               "items_per_s": res["items_per_s"],
               "item_p50_ms": percentile(lat, 50.0),
               "item_tail_ms": percentile(lat, tail),
               "peak_rss_mb": res["peak_rss_mb"]}
    q = statistics.quantiles(setups, n=4)
    lines = [f"workload {workload}, seed {seed}: {res['work']} work units in "
             f"{res['elapsed_s']:.3f} s over {res['passes']} pass(es), {len(lat)} timed items",
             f"setup_s is the median of {len(setups)} fresh imports, half before "
             f"and half after the timed worker (quartiles {q[0]:.4f} / {q[2]:.4f} s)",
             f"item_tail_ms is p{tail:g} of {len(lat)} items "
             f"({len(lat) - int(len(lat) * tail / 100.0)} beyond it); item quartiles "
             f"{percentile(lat, 25.0):.4f} / {percentile(lat, 75.0):.4f} ms",
             f"failed_frac = {res['failed'] / res['attempted']:.6g} 1 "
             f"({res['failed']} of {res['attempted']} checked items failed)"]
    lines += [f"report sha256 {k} {v}" for k, v in sorted(res["report_sha256"].items())]
    return metrics, res, lines + check_lines(res)


def traced(workload: str, seed: int, inputs: str) -> tuple[dict, dict, list[str]]:
    runs = [run_worker(f"traced-{i}", "--mode", "traced", "--workload", workload,
                       "--inputs", inputs, *reference_args(workload, seed), "--spans",
                       os.path.join(WORK, f"spans-{workload}-{seed}-{i}.jsonl.gz"))
            for i in (0, 1)]
    a, b = runs
    metrics = dict(a["layers"])
    metrics["trace.overhead_frac"] = statistics.median(r["overhead_frac"] for r in runs)
    lines = [f"traced workload {workload}, seed {seed}: {a['spans']} spans; "
             f"coverage {a['coverage']['functions']} public functions at "
             f"{a['coverage']['bindings']} bindings, all wrapped; "
             f"{1e9 * a['wrapper_cost_s']:.0f} ns per wrapped call"]
    problems = []
    if a["counts"] != b["counts"]:
        diff = sorted(k for k in set(a["counts"]) | set(b["counts"])
                      if a["counts"].get(k) != b["counts"].get(k))
        problems.append(f"traced counts differ between two runs: {diff[:10]}")
    else:
        lines.append(f"traced counts repeat exactly over two runs "
                     f"({len(a['counts'])} functions)")
    res = {"attempted": a["attempted"] + b["attempted"],
           "failed": a["failed"] + b["failed"],
           "problems": a["problems"] + b["problems"] + problems}
    metrics["failed_frac"] = res["failed"] / res["attempted"]
    return metrics, res, lines + check_lines(res)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qgs benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qgs", "__init__.py")):
        print(f"error: no qgs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        os.makedirs(WORK, exist_ok=True)
        inputs = prepare(args.workload, args.seed, args.seconds)
        measure = traced if args.trace else untraced
        metrics, res, lines = measure(args.workload, args.seed, inputs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = {name: {"value": value, "unit": unit_of(name)}
           for name, value in metrics.items()}
    for line in lines:
        print(line)
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not res["problems"] and res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
