"""One executable exposing every module as a subcommand.

Every run resolves its configuration (defaults < config file < explicit
flags), writes ``manifest.json`` echoing the resolved configuration, then
``results.csv`` (floats printed with 17 significant digits, so files
round-trip bit-exactly) and ``results.json``, and optionally a
self-contained ``plot.svg``.  A manifest is itself a valid ``--config``
file: re-running from it reproduces the outputs byte for byte.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import __version__, barron, kernels, separation, transport, widthprobe
from .svg import loglog_plot_svg
from .util import OptimizationError, fit_loglog, fmt_float, spawn_rng

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    OptimizationError,  # kernels.QuadratureError too
    np.linalg.LinAlgError,
    ArithmeticError,  # overflow, underflow to a zero divisor, FloatingPointError
)
# OSError: unreadable input files; MemoryError: a size numpy cannot allocate
_VALIDATION_ERRORS = (ValueError, KeyError, OSError, MemoryError)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _parse_float_list(text):
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(v) for v in str(text).split(",") if v != ""]


def _parse_int_list(text):
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    return [int(v) for v in str(text).split(",") if v != ""]


def _parse_bool(text):
    if isinstance(text, bool):
        return text
    val = str(text).lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class ParamSpec:
    name: str
    parse: Callable
    default: object = None  # None: the flag is required
    help: str = ""
    minimum: Optional[int] = None  # lower bound on the value, or on each element


_SELECTORS = {"barron": "mode", "kernels": "kind", "width": "target"}
_WIDTH_FIT = [
    ParamSpec("t-grid", _parse_float_list),
    ParamSpec("width", int, 64, minimum=1),
    ParamSpec("restarts", int, 6, minimum=1),
    ParamSpec("steps", int, 600, minimum=1),
    ParamSpec("quad", int, 2048, minimum=1),
]
#: subcommand -> choice of its ``_SELECTORS`` flag (None if it has none) -> the
#: flags that choice reads.  The first choice listed is the default.
_SPECS: Dict[str, Dict[Optional[str], List[ParamSpec]]] = {
    "separation": {None: [
        ParamSpec("alpha", float, help="fast-class rate exponent"),
        ParamSpec("beta", float, help="slow-class rate exponent"),
        ParamSpec("c-fast", float, 1.0, help="fast-class constant"),
        ParamSpec("c-slow", float, 1.0, help="slow-class constant"),
        ParamSpec("c-ambient", float, 1.0, help="ambient constant"),
        ParamSpec("t", _parse_float_list, help="comma-separated budget values"),
    ]},
    "schedule": {None: [
        ParamSpec("alpha", float),
        ParamSpec("beta", float),
        ParamSpec("c-fast", float, 1.0),
        ParamSpec("c-slow", float, 1.0),
        ParamSpec("k-max", int, 6, help="number of scales (log-domain, <= 12)", minimum=1),
    ]},
    "transport": {None: [
        ParamSpec("d", int, minimum=1),
        ParamSpec("n-list", _parse_int_list,
                  help="comma-separated empirical sizes", minimum=1),
        ParamSpec("trials", int, 20, minimum=1),
        ParamSpec("grid", int, 64, help="per-axis resolution of the reference grid",
                  minimum=1),
        ParamSpec("norm", str, "ell_inf"),
        ParamSpec("periodic", _parse_bool, False,
                  help="wrap coordinates (flat torus) instead of the plain cube"),
    ]},
    "barron": {
        "rademacher": [
            ParamSpec("d", int, 2, minimum=1),
            ParamSpec("n-list", _parse_int_list, [16, 64, 256, 1024], minimum=1),
            ParamSpec("sign-draws", int, 32, minimum=1),
            ParamSpec("restarts", int, 16, minimum=1),
        ],
        "network": [ParamSpec("network", str, help="network JSON file")],
    },
    "kernels": {
        "random_feature_relu_sphere": [
            ParamSpec("d", int, help="sphere dimension (inputs in R^(d+1))",
                      minimum=1),
            ParamSpec("degrees", int, 12, minimum=0),
            ParamSpec("n", int, 0, help="Nystrom points (0 = skip)", minimum=0),
            ParamSpec("quadrature-points", int, 200, minimum=64),
        ],
        "random_feature_relu_gaussian": [
            ParamSpec("d", int, minimum=2),
            ParamSpec("samples", int, 8192, help="Monte-Carlo feature samples", minimum=1),
        ],
        "ntk_relu": [
            ParamSpec("d", int, minimum=1),
            ParamSpec("n", int, 32, help="Gram points", minimum=1),
            ParamSpec("a0", float, 1.0),
            ParamSpec("samples", int, 8192, minimum=1),
        ],
    },
    "width": {
        "distance": [ParamSpec("d", int, 2, minimum=1),
                     ParamSpec("anchor-points", int, 3, help="anchors of the distance target",
                               minimum=1), *_WIDTH_FIT],
        "absdist": [ParamSpec("d", int, 2, minimum=1), *_WIDTH_FIT],
        "barron": [ParamSpec("network", str, help="target network JSON"),
                   *_WIDTH_FIT],
    },
}


# Run settings: no parameters, so a manifest echoes them at its top level,
# under these keys.  Every run reads --seed; only a choice that can return a
# plot reads --plots, and only transport reads --threads.
_SEED = ParamSpec("seed", int, 0, minimum=0)
_PLOTS = ParamSpec("plots", _parse_bool, False)
_THREADS = ParamSpec("threads", int, 1, minimum=1)
_RUN_SETTINGS = {_SEED: "seed", _PLOTS: "emit_plots", _THREADS: "threads"}
_SETTINGS_READ = {("separation", None): [_PLOTS], ("transport", None): [_PLOTS, _THREADS],
                  ("barron", "rademacher"): [_PLOTS],
                  ("kernels", "random_feature_relu_sphere"): [_PLOTS],
                  **{("width", target): [_PLOTS] for target in _SPECS["width"]}}


def _flags(subcommand: str) -> Dict[str, ParamSpec]:
    """Every flag some choice of ``subcommand`` reads, its selector first."""
    choices, selector = _SPECS[subcommand], _SELECTORS.get(subcommand)
    flags = ({selector: ParamSpec(selector, str, next(iter(choices)), help=" | ".join(choices))}
             if selector else {})
    for specs in choices.values():
        flags.update((s.name, s) for s in specs if s.name not in flags)
    return flags


@dataclass
class RunConfig:
    subcommand: str
    parameters: dict
    seed: int
    output_dir: str
    emit_plots: Optional[bool]  # None: the run does not read it
    threads: Optional[int]

    def manifest(self) -> dict:
        settings = {"threads": self.threads, "emit_plots": self.emit_plots}
        return {
            "artifact": "widthlab",
            "version": __version__,
            "subcommand": self.subcommand,
            "seed": self.seed,
            **{key: value for key, value in settings.items() if value is not None},
            "parameters": self.parameters,
        }


@dataclass
class PlotSpec:
    x: list
    y: list
    title: str
    xlabel: str
    ylabel: str
    slope: Optional[float] = None
    intercept: Optional[float] = None


@dataclass
class RunOutput:
    header: List[str]
    rows: List[dict]
    summary: dict
    plot: Optional[PlotSpec] = None


def resolve_config(subcommand: str, cli_params: dict, config_path: Optional[str],
                   seed: Optional[int], out: Optional[str], plots: Optional[bool],
                   threads: Optional[int]) -> RunConfig:
    """defaults < config file < explicit CLI flags, with required checks.  A
    run reads only the flags and run settings of its selector's choice; any
    other exits 2."""
    flags = _flags(subcommand)
    given = {}
    file_out = None
    if config_path:
        payload = json.loads(Path(config_path).read_text())
        if not isinstance(payload, dict) or not isinstance(payload.get("parameters", {}), dict):
            raise ValueError("a config file must be a JSON object, and its parameters one too")
        if payload.get("subcommand", subcommand) != subcommand:
            raise ValueError(
                f"config file is for subcommand {payload['subcommand']!r}, "
                f"not {subcommand!r}")
        for key, val in payload.get("parameters", {}).items():
            if key not in flags:
                raise ValueError(f"unknown parameter {key!r} in config file")
            try:
                given[key] = _parse_json_value(flags[key], val)
            except (TypeError, ValueError, OverflowError) as exc:  # e.g. int(Infinity)
                raise ValueError(f"--{key} in the config file: {exc}") from None
        file_out = payload.get("output_dir")
        if file_out is not None and not isinstance(file_out, str):
            raise ValueError(f"output_dir in the config file must be a string, got {file_out!r}")
        if not isinstance(payload.get("emit_plots", False), bool):
            raise ValueError("emit_plots in the config file must be true or false, "
                             f"got {payload['emit_plots']!r}")
        for spec, key in _RUN_SETTINGS.items():
            try:
                if payload.get(key) is not None:
                    given[spec.name] = _parse_json_value(spec, payload[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"--{spec.name} in the config file: {exc}") from None
    cli_params = {**cli_params, "seed": seed, "plots": plots, "threads": threads}
    given.update((key, val) for key, val in cli_params.items() if val is not None)
    choices, selector = _SPECS[subcommand], _SELECTORS.get(subcommand)
    choice = given.pop(selector, next(iter(choices)))
    if choice not in choices:
        raise ValueError(f"--{selector} must be one of {tuple(choices)}, got {choice!r}")
    specs = choices[choice] + [_SEED, *_SETTINGS_READ.get((subcommand, choice), [])]
    resolved = {s.name: given.pop(s.name, s.default) for s in specs}
    if given:  # flags, run settings or config keys that the choice does not read
        run = f"{subcommand} --{selector} {choice}" if selector else subcommand
        raise ValueError(f"{run} does not read " + ", ".join(f"--{key}" for key in given))
    # a config-file null, and an empty list (`--t ,` or "t": []), count as missing
    missing = [s.name for s in specs if resolved[s.name] in (None, [])]
    if missing:
        raise ValueError("missing required flag(s): " + ", ".join(f"--{n}" for n in missing))
    for s in specs:
        value = resolved[s.name]
        values = value if isinstance(value, list) else [value]
        if s.minimum is not None and any(v < s.minimum for v in values):
            raise ValueError(f"--{s.name} must be >= {s.minimum}, got {value}")
        if s.parse in (float, _parse_float_list) and not all(map(math.isfinite, values)):
            raise ValueError(f"--{s.name} must be finite, got {value}")
    seed, plots, threads = (resolved.pop(s.name, None) for s in _RUN_SETTINGS)
    return RunConfig(
        subcommand=subcommand,
        parameters={selector: choice, **resolved} if selector else resolved,
        seed=seed,
        output_dir=out if out is not None else (file_out or "."),
        emit_plots=plots,
        # more workers than cores only adds contention; the outputs do not
        # depend on the count, so a rerun from the manifest matches anyway
        threads=None if threads is None else min(threads, os.cpu_count() or 1),
    )


def _parse_json_value(spec: ParamSpec, value):
    """A config-file value parsed as its flag's would be.  JSON numbers are
    checked first, because ``int`` truncates 2.7 and ``float`` takes true as
    1.0: a boolean is no number, and an int needs an integral one."""
    if value is None:
        return None
    kind = {int: int, _parse_int_list: int,
            float: float, _parse_float_list: float}.get(spec.parse)
    if kind is not None:
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, bool) or (kind is int and isinstance(v, float)
                                       and not v.is_integer()):
                raise ValueError(f"not {'an integer' if kind is int else 'a number'}: "
                                 f"{json.dumps(v)}")
    return spec.parse(value)


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def _run_separation(cfg: RunConfig) -> RunOutput:
    p = cfg.parameters
    params = separation.SeparationParams(
        alpha=p["alpha"], beta=p["beta"], c_fast=p["c-fast"], c_slow=p["c-slow"])
    wb = separation.width_bound(params, p["c-ambient"])
    rows = []
    for t in p["t"]:
        out = wb.evaluate(t)
        rows.append({"t": t, "bound": out.value, "exponent": wb.exponent,
                     "below_threshold": out.below_threshold})
    summary = {"exponent": wb.exponent, "prefactor": wb.prefactor,
               "threshold_t": wb.threshold_t,
               "constants": {"alpha": p["alpha"], "beta": p["beta"],
                             "c_fast": p["c-fast"], "c_slow": p["c-slow"],
                             "c_ambient": p["c-ambient"]}}
    positive = [(r["t"], r["bound"]) for r in rows if r["bound"] > 0]
    plot = None
    if len(positive) >= 2:
        plot = PlotSpec(x=[v[0] for v in positive], y=[v[1] for v in positive],
                        slope=-wb.exponent, intercept=math.log(wb.prefactor),
                        title="width lower bound", xlabel="budget t", ylabel="bound")
    return RunOutput(header=["t", "bound", "exponent", "below_threshold"],
                     rows=rows, summary=summary, plot=plot)


def _run_schedule(cfg: RunConfig) -> RunOutput:
    p = cfg.parameters
    params = separation.SeparationParams(
        alpha=p["alpha"], beta=p["beta"], c_fast=p["c-fast"], c_slow=p["c-slow"])
    rows = [{"k": e.k, "log2_n": e.log2_n, "log_m": e.log_m, "log_t": e.log_t,
             "effective_exponent": e.effective_exponent,
             "m_rounded": e.m_rounded if e.m_rounded is not None else ""}
            for e in separation.build_schedule(params, p["k-max"])]
    tail = {str(k): separation.tail_sum_bound_log2(k)
            for k in range(1, min(p["k-max"], separation.MAX_TAIL_K) + 1)}
    summary = {"limiting_exponent": separation.width_exponent(p["alpha"], p["beta"]),
               "entries": rows, "tail_bound_log2": tail,
               "tail_domination_log2": {str(k): separation.tail_domination_log2(k)
                                        for k in map(int, tail)}}
    return RunOutput(header=["k", "log2_n", "log_m", "log_t", "effective_exponent",
                             "m_rounded"], rows=rows, summary=summary)


def _check_rate_sizes(sizes: List[int]):
    """A rate fit needs two sizes or more, each solved once."""
    if len(sizes) < 2 or len(set(sizes)) < len(sizes):
        raise ValueError(f"--n-list needs at least two sizes, none repeated, got {sizes}")


def _run_transport(cfg: RunConfig) -> RunOutput:
    p = cfg.parameters
    _check_rate_sizes(p["n-list"])
    metric = transport.TorusMetricConfig(norm=p["norm"], periodic=p["periodic"])
    report = transport.empirical_w1_rate(
        d=p["d"], n_values=p["n-list"], trials=p["trials"],
        grid_resolution=p["grid"], seed=cfg.seed, metric=metric,
        threads=cfg.threads)
    rows = [{"d": report.d, "n": t.n, "trial": t.trial, "w1": t.w1,
             "lower_bound": t.lower_bound, "l2_surrogate": t.l2_surrogate,
             "seed": t.seed_key}
            for t in report.trials]
    means = {str(n): v for n, v in report.mean_w1.items()}
    summary = {"slope": report.slope, "slope_stderr": report.slope_stderr,
               "intercept": report.intercept, "mean_w1": means,
               "all_bounds_hold": report.all_bounds_hold,
               "grid_spacing": report.grid_spacing,
               "discretization_error": report.discretization_error,
               "metric": {"norm": metric.norm, "periodic": metric.periodic},
               "smoothing_gamma": report.smoothing_gamma,
               "smoothing_operator_constant": report.smoothing_operator_constant}
    plot = PlotSpec(x=list(report.mean_w1.keys()), y=list(report.mean_w1.values()),
                    slope=report.slope, intercept=report.intercept,
                    title="empirical transport rate", xlabel="n", ylabel="mean W1")
    return RunOutput(header=["d", "n", "trial", "w1", "lower_bound", "l2_surrogate", "seed"],
                     rows=rows, summary=summary, plot=plot)


def _run_barron(cfg: RunConfig) -> RunOutput:
    p = cfg.parameters
    if p["mode"] == "rademacher":
        _check_rate_sizes(p["n-list"])
        d = p["d"]
        rows = []
        means = {}
        violations = 0
        for n in p["n-list"]:
            rng = spawn_rng(cfg.seed, d, n)
            X = rng.uniform(-1.0, 1.0, (n, d))
            est = barron.rademacher_estimate(
                X, restarts=p["restarts"], seed=cfg.seed, sign_draws=p["sign-draws"])
            means[str(n)] = est.estimate
            violations += est.violations
            for i, v in enumerate(est.draws):
                rows.append({"d": d, "n": n, "draw": i, "sup": float(v),
                             "bound": est.bound})
        slope, intercept, stderr = fit_loglog(
            [int(k) for k in means], list(means.values()))
        summary = {"estimate_by_n": means, "slope": slope, "slope_stderr": stderr,
                   "intercept": intercept, "violations": violations,
                   "bound_constant": barron.rademacher_bound(1, d)}
        plot = PlotSpec(x=[int(k) for k in means], y=list(means.values()),
                        slope=slope, intercept=intercept,
                        title="signed-mean complexity", xlabel="n", ylabel="estimate")
        return RunOutput(header=["d", "n", "draw", "sup", "bound"], rows=rows,
                         summary=summary, plot=plot)
    net = barron.TwoLayerNetwork.from_dict(json.loads(Path(p["network"]).read_text()))
    row = {"width": net.width, "dim": net.dim,
           "path_norm_q1": barron.path_norm(net, 1),
           "path_norm_q2": barron.path_norm(net, 2),
           # every activation is 1-Lipschitz, so the path norm bounds the
           # Lipschitz constant under the sup norm
           "lipschitz_bound": barron.path_norm(net, 1)}
    summary = dict(row)
    if net.dim == 1 and net.activation.kind == "relu":
        pl = barron.PiecewiseLinear1D.from_network(net)
        canon = barron.canonical_network_1d(pl)
        summary["bv_norm"] = row["bv_norm"] = barron.bv_norm_1d(pl)
        summary["canonical_path_norm"] = barron.path_norm(canon)
        summary["integral"] = pl.integral()
    return RunOutput(header=list(row.keys()), rows=[row], summary=summary)


def _run_kernels(cfg: RunConfig) -> RunOutput:
    p = cfg.parameters
    kind, d = p["kind"], p["d"]
    if kind == "ntk_relu":
        pts = kernels.uniform_sphere_points(p["n"], d - 1, spawn_rng(cfg.seed, 0))
        rep = kernels.ntk_gram(pts, a0=p["a0"], param_samples=p["samples"],
                               seed=cfg.seed)
        rows = [{"index": i, "eig_ntk": float(a), "eig_rf": float(b)}
                for i, (a, b) in enumerate(zip(rep.k_ntk.eigenvalues,
                                               rep.k_rf.eigenvalues))]
        summary = {"a0": rep.a0, "lower_min": rep.lower_min,
                   "stated_upper_min": rep.stated_upper_min,
                   "reversed_upper_min": rep.reversed_upper_min,
                   "lower_ok": rep.lower_ok,
                   "stated_upper_ok": rep.stated_upper_ok,
                   "reversed_upper_ok": rep.reversed_upper_ok,
                   "trace": rep.k_ntk.trace}
        return RunOutput(header=["index", "eig_ntk", "eig_rf"], rows=rows,
                         summary=summary)
    if kind == "random_feature_relu_gaussian":
        phis = np.linspace(0.0, math.pi, 9)
        rows = []
        for i, phi in enumerate(phis):
            x = np.zeros(d)
            x[0] = 1.0
            y = np.zeros(d)
            y[0], y[1] = math.cos(phi), math.sin(phi)
            est, se = kernels.mc_kernel(x, y, samples=p["samples"], seed=cfg.seed + i)
            rows.append({"phi": float(phi), "closed_form": kernels.arccos_kernel(phi),
                         "mc_estimate": est, "mc_se": se})
        summary = {"max_abs_gap": max(abs(r["mc_estimate"] - r["closed_form"])
                                      for r in rows)}
        return RunOutput(header=["phi", "closed_form", "mc_estimate", "mc_se"],
                         rows=rows, summary=summary)
    # spectral table kinds
    spec_obj = kernels.exact_spectrum(d, p["degrees"], p["quadrature-points"])
    rows = [{"k": e.k, "lambda": e.value, "mult": e.mult,
             "flagged": e.k in spec_obj.flags} for e in spec_obj.degrees]
    summary = {"degrees": [{"k": e.k, "lambda": e.value, "mult": e.mult}
                           for e in spec_obj.degrees],
               "mu": [float(v) for v in spec_obj.mu(10_000)],
               "flags": {str(k): v for k, v in spec_obj.flags.items()},
               "trace_sum": spec_obj.trace_sum()}
    if p["n"]:
        ev = kernels.nystrom_spectrum(d, n=p["n"], seed=cfg.seed)
        summary["nystrom_top"] = [float(v) for v in ev[:30]]
    positive = [(e.k, e.value) for e in spec_obj.degrees if e.k >= 1 and e.value > 0]
    plot = None
    if len(positive) >= 2:
        slope, intercept, _ = fit_loglog([v[0] for v in positive],
                                         [v[1] for v in positive])
        plot = PlotSpec(x=[v[0] for v in positive], y=[v[1] for v in positive],
                        slope=slope, intercept=intercept,
                        title="spectrum by degree", xlabel="degree k",
                        ylabel="eigenvalue")
    return RunOutput(header=["k", "lambda", "mult", "flagged"], rows=rows,
                     summary=summary, plot=plot)


def _run_width(cfg: RunConfig) -> RunOutput:
    p = cfg.parameters
    if p["target"] == "distance":
        rng = spawn_rng(cfg.seed, 99)
        target = widthprobe.TargetFunction.distance_to_point_set(
            rng.random((p["anchor-points"], p["d"])))
    elif p["target"] == "absdist":
        target = widthprobe.TargetFunction.custom(
            lambda X: np.abs(X[:, 0] - 0.5), p["d"])
    else:
        net = barron.TwoLayerNetwork.from_dict(json.loads(Path(p["network"]).read_text()))
        target = widthprobe.TargetFunction.barron_explicit(net)
    config = widthprobe.FitConfig(steps=p["steps"], restarts=p["restarts"],
                                  quadrature=("mc", p["quad"]), polish_iters=300)
    curve = widthprobe.rho_curve(target, p["t-grid"], width=p["width"],
                                 config=config, seed=cfg.seed)
    rows = [{"t": pt.t, "error": pt.error, "error_se": pt.error_se}
            for pt in curve.samples]
    summary = {"fitted_exponent": curve.fitted_exponent,
               "exponent_stderr": curve.exponent_stderr, "meta": curve.meta}
    plot = PlotSpec(x=[r["t"] for r in rows],
                    y=[r["error"] for r in rows],
                    title="constrained approximation curve", xlabel="budget t",
                    ylabel="L2 error")
    return RunOutput(header=["t", "error", "error_se"], rows=rows, summary=summary,
                     plot=plot)


_RUNNERS = {
    "separation": _run_separation,
    "schedule": _run_schedule,
    "transport": _run_transport,
    "barron": _run_barron,
    "kernels": _run_kernels,
    "width": _run_width,
}


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value))
    return str(value)


def _sanitize_json(obj):
    """Replace non-finite floats with strings so emitted JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize_json(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return fmt_float(float(obj))
    return obj


def write_outputs(cfg: RunConfig, out: RunOutput) -> Path:
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").write_text(
        json.dumps(cfg.manifest(), indent=2, sort_keys=True) + "\n")
    lines = [",".join(out.header)]
    for row in out.rows:
        lines.append(",".join(_csv_cell(row[h]) for h in out.header))
    (outdir / "results.csv").write_text("\n".join(lines) + "\n")
    (outdir / "results.json").write_text(
        json.dumps(_sanitize_json(out.summary), indent=2, sort_keys=True) + "\n")
    if cfg.emit_plots and out.plot is not None:
        svg = loglog_plot_svg(out.plot.x, out.plot.y, out.plot.slope,
                              out.plot.intercept, out.plot.title,
                              out.plot.xlabel, out.plot.ylabel)
        (outdir / "plot.svg").write_text(svg + "\n")
    return outdir


def run(cfg: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    try:
        out = _RUNNERS[cfg.subcommand](cfg)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        write_outputs(cfg, out)
    except OSError as exc:  # e.g. --out under a regular file
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthlab",
        description="Width-separation laboratory: bounds, transport, "
                    "network complexity, kernel spectra, approximation probes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SPECS:
        sp = sub.add_parser(name, help=f"run the {name} module")
        for s in _flags(name).values():
            sp.add_argument(f"--{s.name}", dest=s.name, type=s.parse, default=None,
                            help=s.help + (" (required)" if s.default is None else ""))
        sp.add_argument("--seed", type=int, default=None, help="master seed")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--threads", type=int, default=None, help="worker cap")
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file (a previous manifest works)")
        sp.add_argument("--plots", action="store_const", const=True, default=None,
                        help="emit plot.svg")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    params = {name: getattr(args, name) for name in _flags(args.subcommand)}
    try:
        cfg = resolve_config(args.subcommand, params, args.config, args.seed,
                             args.out, args.plots, args.threads)
    except _VALIDATION_ERRORS as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
