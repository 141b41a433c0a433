"""widthlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {w1-colgen,width-curve,lab-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a widthlab checkout.  The workload runs in a fresh
process with the BLAS/OpenMP thread count fixed; set-up is timed in
several fresh processes.  The outputs are checked here, in this process,
so the checks cost neither wall_s nor the workload's peak RSS.  The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170

# Per-layer metrics: span times (.s), self times (.self_s) and counters.  All
# are lower-is-better except transport.lp.useful_ratio.
TIMES = ["transport.w1_exact", "transport.pairwise", "transport.lp",
         "widthprobe.rho_curve", "widthprobe.fit_constrained", "widthprobe.l2_error",
         "widthprobe.lbfgs", "widthprobe.path_norm", "kernels.exact_spectrum",
         "kernels.funk_hecke_eigenvalue", "kernels.nystrom_spectrum", "kernels.ntk_gram",
         "kernels.mu", "barron.rademacher_estimate", "cli.resolve_config",
         "cli.write_outputs"]
SELF_TIMES = ["transport.w1_exact", "widthprobe.fit_constrained"]
COUNTS = ["transport.w1_exact.calls", "transport.lp.calls", "transport.lp.infeasible",
          "transport.lp.arcs", "transport.lp.simplex_iters",
          "widthprobe.fit_constrained.calls", "widthprobe.lbfgs.calls",
          "widthprobe.lbfgs.iters", "widthprobe.lbfgs.fevals",
          "widthprobe.path_norm.calls", "kernels.funk_hecke_eigenvalue.calls",
          "kernels.mu.entries", "barron.rademacher_estimate.calls",
          "barron.ascent_steps", "cli.output_bytes"]
# Counters each workload must move.  One that reads zero means the boundary
# it wraps has moved: it is reported as missing, never as a gain.
EXPECTED = {
    "w1-colgen": ["transport.w1_exact.calls", "transport.lp.calls",
                  "transport.lp.arcs", "transport.lp.simplex_iters"],
    "width-curve": ["widthprobe.fit_constrained.calls", "widthprobe.lbfgs.calls",
                    "widthprobe.lbfgs.iters", "widthprobe.lbfgs.fevals",
                    "widthprobe.path_norm.calls"],
    "lab-mix": ["transport.w1_exact.calls", "transport.lp.calls", "transport.lp.arcs",
                "widthprobe.fit_constrained.calls", "widthprobe.path_norm.calls",
                "kernels.funk_hecke_eigenvalue.calls", "kernels.mu.entries",
                "barron.rademacher_estimate.calls", "barron.ascent_steps",
                "cli.output_bytes"],
}


def per_layer_metrics(workload, record):
    """Medians over the traced rounds; counts from the first traced round,
    which every traced round must repeat exactly."""
    traces = record["traces"]
    metrics = {}

    def add(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in TIMES:
        add(name + ".s", statistics.median(t[0].get(name, 0.0) for t in traces), "s")
    for name in SELF_TIMES:
        add(name + ".self_s", statistics.median(t[1].get(name, 0.0) for t in traces), "s")
    counts = traces[0][2]
    for name in COUNTS:
        if any(t[2].get(name, 0) != counts.get(name, 0) for t in traces):
            print(f"perfbench: {name} differs between traced rounds", file=sys.stderr)
        add(name, counts.get(name, 0), "bytes" if name == "cli.output_bytes" else "count")
    lp_calls = counts.get("transport.lp.calls", 0)
    add("transport.lp.useful_ratio",
        counts.get("transport.w1_exact.calls", 0) / lp_calls if lp_calls else 0.0, "ratio")
    for name in EXPECTED[workload]:
        if not metrics[name]["value"]:
            print(f"perfbench: {name} is missing (reads 0 on {workload})", file=sys.stderr)
            del metrics[name]
    setups = record["setup_samples"]
    add("setup.import_s", statistics.median(s["import_s"] for s in setups), "s")
    add("setup.inputs_s", statistics.median(s["inputs_s"] for s in setups), "s")
    walls = {traced: statistics.median(r["wall_s"] for r in record["rounds"]
                                       if r["traced"] == traced) for traced in (False, True)}
    add("trace.overhead_s", walls[True] - walls[False], "s")
    # page faults vary a little from round to round, so this is a median
    add("process.minor_faults",
        statistics.median(r["minor_faults"] for r in record["rounds"]), "count")
    return metrics


def end_to_end_metrics(record):
    rounds = record["rounds"]
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in record["setup_samples"]),
                    "unit": "s"},
        "peak_rss_mib": {"value": record["peak_rss_mib"], "unit": "MiB"},
    }


def source_info():
    files = sorted((spec.ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines}


def spawn(args, env, deadline, result):
    """Run one worker to completion; its stdout goes to our stderr."""
    result.unlink(missing_ok=True)
    env = dict(env, PERFBENCH_T0=repr(time.time()))
    subprocess.run([sys.executable, str(WORKER), *args, "--result", str(result)],
                   env=env, stdout=sys.stderr, check=True,
                   timeout=max(deadline - time.monotonic(), 1))
    return json.loads(result.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=spec.W1_INSTANCE_SEED,
                        help="seed of the w1-colgen instances (needs stored references)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (spec.ROOT / "src" / "widthlab" / "__init__.py").is_file():
        print(f"perfbench: no widthlab sources under {spec.ROOT / 'src'}; "
              "run from the root of a widthlab checkout", file=sys.stderr)
        return 2
    if args.workload == "w1-colgen":
        refs = json.loads(spec.REFERENCES.read_text()) if spec.REFERENCES.is_file() else {}
        if str(args.instance_seed) not in refs:
            print(f"perfbench: no w1-colgen references for instance seed "
                  f"{args.instance_seed}; compute them with: python3 perfbench/references.py "
                  f"--instance-seed {args.instance_seed}", file=sys.stderr)
            return 2

    spec.OUT.mkdir(exist_ok=True)
    threads = str(spec.BLAS_THREADS)
    # no bytecode written, so set-up costs the same in a fresh checkout
    env = dict(os.environ, PYTHONPATH=str(spec.ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--instance-seed", str(args.instance_seed)]
    setup_result = spec.OUT / f"{args.workload}-setup.json"
    setups = [spawn(base + ["--setup-only"], env, deadline, setup_result)["setup"]
              for _ in range(spec.SETUP_SAMPLES - 1)]
    record = spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                   env, deadline, spec.OUT / f"{args.workload}-worker.json")
    record["setup_samples"] = setups + [record["setup"]]

    import checks
    failures = checks.check(args.workload, checks.outputs_of(args.workload, record))
    for name, message in failures:
        print(f"perfbench: check {name} failed: {message}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(args.workload, record)
        trace_file = spec.OUT / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps({"metrics": metrics, "spans": record["spans"]}))
    else:
        metrics = end_to_end_metrics(record)
    info = dict(record["env"], **source_info(), workload=args.workload, seed=args.seed,
                rounds=len(record["rounds"]), checks_failed=len(failures))
    print("perfbench: " + json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
