"""One workload process: set up, run timed rounds, report.

Started by ``run.py`` with the BLAS thread count fixed in its environment
and ``PERFBENCH_T0`` set to the wall-clock time just before the process was
spawned.  Writes one JSON record to ``--result``; prints nothing on stdout.

A round runs the workload's operations once, the same operations every
round.  Rounds repeat until the next one would end after ``--seconds``.
With ``--trace 1`` rounds alternate untraced and traced, so the tracing
overhead is measured within the run.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def _seeded(seed, *key):
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


class W1Colgen:
    """Exact W1 from 4,096-atom grids to fixed empirical measures."""

    def __init__(self, seed, instance_seed):
        import numpy as np
        from widthlab import transport
        self.transport = transport
        self.instance_seed = instance_seed
        grids = {d: transport.DiscreteMeasure.uniform_grid(d, res)
                 for d, res in spec.W1_GRID.items()}
        jobs = []
        for d, n, trial in spec.W1_INSTANCES:
            points = _seeded(instance_seed, n, trial).random((n, d))
            jobs.append((f"{d}:{n}:{trial}", grids[d],
                         transport.DiscreteMeasure.empirical(points)))
        order = np.random.default_rng(seed).permutation(len(jobs))
        self.jobs = [jobs[i] for i in order]

    def round(self):
        t = self.transport
        values = {key: t.w1_exact(grid, emp, t.CUBE_LINF) for key, grid, emp in self.jobs}
        return len(values), 0, values

    def fingerprint(self, result):
        return result

    def outputs(self, result):
        return {"instance_seed": self.instance_seed, "values": result}


class WidthCurve:
    """Budget sweep of constrained fits to a seeded distance target in d=4."""

    def __init__(self, seed, instance_seed):
        from widthlab import widthprobe
        self.widthprobe = widthprobe
        self.seed = seed
        anchors = _seeded(seed, 99).random((spec.WIDTH_ANCHORS, spec.WIDTH_D))
        self.target = widthprobe.TargetFunction.distance_to_point_set(anchors)
        self.config = widthprobe.FitConfig(**spec.WIDTH_FIT)

    def _curve(self):
        return self.widthprobe.rho_curve(self.target, spec.WIDTH_T_GRID,
                                         width=spec.WIDTH_NEURONS, config=self.config,
                                         seed=self.seed)

    def round(self):
        curve = self._curve()
        return len(curve.samples), 0, [[p.error, p.error_se] for p in curve.samples]

    def fingerprint(self, result):
        return result

    def outputs(self, result):
        # rho_curve does not return its networks: one more, untimed sweep
        # collects them from fit_constrained, after the timed rounds.
        wp = self.widthprobe
        fit, nets = wp.fit_constrained, []

        def capture(*args, **kwargs):
            res = fit(*args, **kwargs)
            nets.append(res.net)
            return res

        wp.fit_constrained = capture
        try:
            again = self.round()[2]
        finally:
            wp.fit_constrained = fit
        return {"seed": self.seed, "t_grid": spec.WIDTH_T_GRID,
                "errors": [e for e, _ in result], "error_se": [s for _, s in result],
                "capture_agrees": again == result,
                "nets": [{"outer": n.outer.tolist(), "inner": n.inner.tolist(),
                          "bias": n.bias.tolist(), "averaged": n.averaged,
                          "activation": n.activation.kind} for n in nets]}


class LabMix:
    """Every subcommand once through ``cli.main``, plus the exit-code probes."""

    def __init__(self, seed, instance_seed):
        import shutil
        from widthlab import cli
        self.cli = cli
        self.seed = seed
        self.dir = spec.OUT / "lab-mix"
        shutil.rmtree(self.dir, ignore_errors=True)
        tail = ["--seed", str(seed)]
        self.ops = [(name, argv + tail + ["--out", str(self.dir / name)], 0)
                    for name, argv in spec.LAB_COMMANDS]
        self.ops += [(name, argv + tail + ["--out", str(self.dir / name)], 2)
                     for name, argv in spec.LAB_PROBES]

    def round(self):
        codes = {}
        for name, argv, _ in self.ops:
            try:
                codes[name] = self.cli.main(argv)
            except SystemExit as exc:
                codes[name] = exc.code
            except Exception as exc:  # a crash is this operation's outcome
                codes[name] = type(exc).__name__
        failed = sum(codes[name] != expect for name, _, expect in self.ops)
        return len(self.ops), failed, codes

    def fingerprint(self, result):
        digest = hashlib.sha256()
        for path in sorted(self.dir.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(self.dir)).encode())
                digest.update(path.read_bytes())
        return [result, digest.hexdigest()]

    def outputs(self, result):
        return {"seed": self.seed, "codes": result, "dir": str(self.dir)}


WORKLOADS = {"w1-colgen": W1Colgen, "width-curve": WidthCurve, "lab-mix": LabMix}


def _blas_vendor():
    import numpy as np
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instance-seed", type=int, default=spec.W1_INSTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    t0 = float(os.environ["PERFBENCH_T0"])

    c0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import widthlab.cli  # noqa: F401  (imports every widthlab module)
    c1 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.instance_seed)
    c2 = time.perf_counter()
    record = {"setup": {"setup_s": time.time() - t0, "import_s": c1 - c0,
                        "inputs_s": c2 - c1}}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.prepare(tracer)
    end = time.perf_counter() + args.seconds
    rounds, traces, first_spans = [], [], None
    first_fp, agree, peak_kib = None, True, None
    attempted = failed = 0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.enable()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        w0, p0 = time.perf_counter(), time.process_time()
        n_ops, n_failed, result = workload.round()
        wall, cpu = time.perf_counter() - w0, time.process_time() - p0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        if traced:
            tracer.disable()
            traces.append(tracer.summary())
            if first_spans is None:
                first_spans = tracer.spans
        rounds.append({"wall_s": wall, "cpu_s": cpu, "minor_faults": faults,
                       "traced": traced})
        if peak_kib is None:
            # after one round, so a faster program that fits more rounds
            # into --seconds does not read a different peak
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted += n_ops
        failed += n_failed
        fp = workload.fingerprint(result)
        if first_fp is None:
            first_fp = fp
        agree = agree and fp == first_fp
        median_wall = statistics.median(r["wall_s"] for r in rounds)
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and time.perf_counter() + median_wall > end:
            break
    record.update({
        "rounds": rounds, "attempted": attempted, "failed": failed,
        "peak_rss_mib": peak_kib / 1024.0, "rounds_agree": agree,
        "outputs": workload.outputs(result),
        "traces": traces, "spans": first_spans,
        "env": {"blas_vendor": _blas_vendor(), "nproc": os.cpu_count(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    })
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
