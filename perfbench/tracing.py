"""Spans and counters around widthlab's layer boundaries.

Used by the traced workload process only: :func:`prepare` builds wrappers
for module attributes that record a span (name, start, end, parent) per
call and add to named counters; the tracer installs them for traced rounds
and restores the originals for untraced ones.  Spans stay in memory until
the run ends.
"""

import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []       # (owner, attr, original, wrapper)

    def reset(self):
        self.spans, self.counts, self._stack = [], defaultdict(int), []

    def wrap(self, owner, attr, name, count=None):
        """Prepare a recording wrapper for ``owner.attr``; :meth:`enable`
        installs it and :meth:`disable` puts the original back.

        ``count(result, args, kwargs)`` returns extra counters for one call.
        """
        inner = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                tracer.counts[name + ".calls"] += 1
            if count is not None:
                for key, value in count(result, args, kwargs).items():
                    tracer.counts[key] += value
            return result

        self._patches.append((owner, attr, inner, traced))

    def replace(self, owner, attr, stand_in):
        """Install ``stand_in`` as ``owner.attr`` during traced rounds."""
        self._patches.append((owner, attr, getattr(owner, attr), stand_in))

    def enable(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def disable(self):
        for owner, attr, inner, _ in self._patches:
            setattr(owner, attr, inner)

    def summary(self):
        """Per-name total and self seconds, plus the counters."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        return dict(total), dict(self_s), dict(self.counts)


class _CountingNumpy:
    """numpy as one module sees it, with calls to one function counted.

    Both ascent loops in ``barron`` build their gradient step with one
    ``np.column_stack`` call per step and call it nowhere else, so counting
    those calls counts the ascent steps the program actually takes.
    """

    def __init__(self, numpy, attr, counter, tracer):
        fn = getattr(numpy, attr)

        def counted(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        self._numpy = numpy
        setattr(self, attr, counted)

    def __getattr__(self, name):
        return getattr(self._numpy, name)


def prepare(tracer):
    """Wrap every boundary the per-layer metrics name (not yet installed)."""
    from widthlab import barron, cli, kernels, transport, widthprobe

    def lp_count(res, args, kwargs):
        return {"transport.lp.infeasible": int(res.status != 0),
                "transport.lp.arcs": len(args[0]),
                "transport.lp.simplex_iters": int(getattr(res, "nit", 0) or 0)}

    def lbfgs_count(res, args, kwargs):
        return {"widthprobe.lbfgs.iters": int(res.nit),
                "widthprobe.lbfgs.fevals": int(res.nfev)}


    def output_count(outdir, args, kwargs):
        return {"cli.output_bytes": sum(p.stat().st_size
                                        for p in Path(outdir).iterdir() if p.is_file())}

    tracer.wrap(transport, "w1_exact", "transport.w1_exact")
    tracer.wrap(transport.TorusMetricConfig, "pairwise", "transport.pairwise")
    tracer.wrap(transport, "linprog", "transport.lp", lp_count)
    tracer.wrap(widthprobe, "rho_curve", "widthprobe.rho_curve")
    tracer.wrap(widthprobe, "fit_constrained", "widthprobe.fit_constrained")
    tracer.wrap(widthprobe, "l2_error", "widthprobe.l2_error")
    tracer.wrap(widthprobe, "minimize", "widthprobe.lbfgs", lbfgs_count)
    tracer.wrap(widthprobe, "path_norm", "widthprobe.path_norm")
    tracer.wrap(kernels, "exact_spectrum", "kernels.exact_spectrum")
    tracer.wrap(kernels, "funk_hecke_eigenvalue", "kernels.funk_hecke_eigenvalue")
    tracer.wrap(kernels, "nystrom_spectrum", "kernels.nystrom_spectrum")
    tracer.wrap(kernels, "ntk_gram", "kernels.ntk_gram")
    tracer.wrap(kernels.KernelSpectrum, "mu", "kernels.mu",
                lambda res, a, k: {"kernels.mu.entries": int(res.size)})
    tracer.wrap(barron, "rademacher_estimate", "barron.rademacher_estimate")
    tracer.replace(barron, "np", _CountingNumpy(barron.np, "column_stack",
                                                 "barron.ascent_steps", tracer))
    tracer.wrap(cli, "resolve_config", "cli.resolve_config")
    tracer.wrap(cli, "write_outputs", "cli.write_outputs", output_count)
