"""CLI contract: exit codes, determinism, manifests, file formats."""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import MagicMock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import cli
from widthlab.transport import default_gamma, smoothing_l2_surrogate, smoothing_operator_constant
from widthlab.util import spawn_rng


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSeparationCommand:
    def test_bound_csv_with_exponent(self, tmp_path):
        # alpha=1/2, beta=1/8 is the dimension-8 pairing: exponent 2/(8-2)
        rc = cli.main(["separation", "--alpha", "0.5", "--beta", "0.125",
                       "--t", "1,10,100", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header == ["t", "bound", "exponent", "below_threshold"]
        assert len(rows) == 3
        assert float(rows[0]["exponent"]) == pytest.approx(1 / 3, rel=1e-15)
        summary = json.loads((tmp_path / "results.json").read_text())
        assert summary["exponent"] == pytest.approx(1 / 3, rel=1e-15)

    def test_missing_required_flag_names_it(self, tmp_path, capsys):
        rc = cli.main(["separation", "--alpha", "0.5", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--beta" in err and "--t" in err

    def test_invalid_rates_exit_2(self, tmp_path):
        rc = cli.main(["separation", "--alpha", "0.1", "--beta", "0.5",
                       "--t", "1", "--out", str(tmp_path)])
        assert rc == 2

    def test_float_cells_are_roundtrip_exact(self, tmp_path):
        cli.main(["separation", "--alpha", "0.5", "--beta", "0.125",
                  "--t", "3.7", "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "results.csv")
        from widthlab.separation import SeparationParams, width_bound
        expect = width_bound(SeparationParams(alpha=0.5, beta=0.125)).evaluate(3.7).value
        assert float(rows[0]["bound"]) == expect  # 17 digits: bit-exact roundtrip


class TestDeterminismAndManifest:
    def test_same_config_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["transport", "--d", "1", "--n-list", "4,8", "--trials", "2",
                "--grid", "32", "--seed", "7"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "results.json").read_bytes() == (b / "results.json").read_bytes()

    def test_manifest_roundtrip_reproduces_outputs(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        rc = cli.main(["schedule", "--alpha", "1.0", "--beta", "0.25",
                       "--k-max", "5", "--seed", "3", "--out", str(first)])
        assert rc == 0
        rc = cli.main(["schedule", "--config", str(first / "manifest.json"),
                       "--out", str(second)])
        assert rc == 0
        assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()
        assert (first / "results.json").read_bytes() == (second / "results.json").read_bytes()

    def test_manifest_echoes_resolved_config(self, tmp_path):
        cli.main(["schedule", "--alpha", "1.0", "--beta", "0.25", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifact"] == "widthlab"
        assert manifest["subcommand"] == "schedule"
        assert manifest["parameters"]["alpha"] == 1.0
        assert manifest["parameters"]["k-max"] == 6  # default recorded

    def test_removed_c_slow_upper_key_rejected(self, tmp_path, capsys):
        """``c-slow-upper`` fed no computation and is no longer a parameter: a
        config file naming it (as older schedule manifests do) exits 2."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "schedule",
                                   "parameters": {"alpha": 1.0, "beta": 0.25,
                                                  "c-slow-upper": 1.0}}))
        rc = cli.main(["schedule", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'c-slow-upper'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # list parameters may be JSON arrays or comma strings
        cfg.write_text(json.dumps({
            "subcommand": "separation",
            "parameters": {"alpha": 0.5, "beta": 0.25, "t": [1, 2]}}))
        out = tmp_path / "out"
        # CLI --beta overrides the file's value; alpha and t come from the file
        rc = cli.main(["separation", "--config", str(cfg), "--beta", "0.125",
                       "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "results.json").read_text())
        assert summary["constants"]["beta"] == 0.125
        assert summary["constants"]["alpha"] == 0.5

    def test_wrong_subcommand_in_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "schedule", "parameters": {}}))
        rc = cli.main(["separation", "--config", str(cfg), "--alpha", "1",
                       "--beta", "0.2", "--t", "1", "--out", str(tmp_path / "o")])
        assert rc == 2


class TestSubcommandSmoke:
    def test_transport_columns_and_bounds(self, tmp_path):
        rc = cli.main(["transport", "--d", "1", "--n-list", "4,8", "--trials", "2",
                       "--grid", "32", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header == ["d", "n", "trial", "w1", "lower_bound", "l2_surrogate", "seed"]
        assert len(rows) == 4
        summary = json.loads((tmp_path / "results.json").read_text())
        assert summary["all_bounds_hold"] is True

    def test_kernels_spectrum_and_plot(self, tmp_path):
        rc = cli.main(["kernels", "--kind", "random_feature_relu_sphere", "--d", "2",
                       "--degrees", "6", "--out", str(tmp_path), "--plots"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header == ["k", "lambda", "mult", "flagged"]
        assert [int(r["mult"]) for r in rows[:3]] == [1, 3, 5]
        summary = json.loads((tmp_path / "results.json").read_text())
        assert "mu" in summary and "3" in summary["flags"]
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg

    def test_kernels_gaussian_closed_form_gap(self, tmp_path):
        rc = cli.main(["kernels", "--kind", "random_feature_relu_gaussian", "--d", "3",
                       "--samples", "4000", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "results.json").read_text())
        assert summary["max_abs_gap"] < 0.05

    def test_kernels_ntk_report(self, tmp_path):
        rc = cli.main(["kernels", "--kind", "ntk_relu", "--d", "3", "--n", "12",
                       "--a0", "1.0", "--samples", "2048", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "results.json").read_text())
        assert summary["lower_ok"] is True
        assert summary["reversed_upper_ok"] is True

    def test_kernels_bad_kind(self, tmp_path):
        rc = cli.main(["kernels", "--kind", "nope", "--d", "2", "--out", str(tmp_path)])
        assert rc == 2

    def test_kernels_nystrom_summary(self, tmp_path):
        rc = cli.main(["kernels", "--kind", "random_feature_relu_sphere", "--d", "2",
                       "--degrees", "4", "--n", "300", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "results.json").read_text())
        assert len(summary["nystrom_top"]) == 30
        # top Nystrom value sits near the degree-0 table entry
        assert summary["nystrom_top"][0] == pytest.approx(
            summary["degrees"][0]["lambda"], rel=0.2)

    def test_transport_reports_l2_surrogate(self, tmp_path):
        """Each trial's l2_surrogate cell is the smoothing surrogate of its
        seeded points at eps = gamma n^(-1/d) on sup-norm torus balls, and
        stays within twice the dimension constant."""
        d, seed = 2, 5
        rc = cli.main(["transport", "--d", str(d), "--n-list", "16,64", "--trials", "2",
                       "--grid", "16", "--seed", str(seed), "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "results.csv")
        summary = json.loads((tmp_path / "results.json").read_text())
        gamma = default_gamma(d)
        constant = smoothing_operator_constant(d, gamma)
        assert summary["smoothing_gamma"] == gamma
        assert summary["smoothing_operator_constant"] == constant
        assert len(rows) == 4
        for row in rows:
            n, trial = int(row["n"]), int(row["trial"])
            points = spawn_rng(seed, n, trial).random((n, d))
            expect = smoothing_l2_surrogate(points, gamma * n ** (-1.0 / d))
            assert float(row["l2_surrogate"]) == expect
            assert float(row["l2_surrogate"]) <= 2.0 * constant

    def test_transport_l2_surrogate_under_euclidean_torus(self, tmp_path):
        """The surrogate ignores the W1 ground metric, so a Euclidean torus
        run writes it too."""
        rc = cli.main(["transport", "--d", "2", "--n-list", "4,8", "--trials", "1",
                       "--grid", "8", "--norm", "ell_2", "--periodic", "true",
                       "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert "l2_surrogate" in header
        assert all(float(r["l2_surrogate"]) > 0 for r in rows)

    def test_transport_periodic_flag(self, tmp_path):
        rc = cli.main(["transport", "--d", "1", "--n-list", "4,8", "--trials", "1",
                       "--grid", "16", "--periodic", "true", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "results.json").read_text())
        assert summary["metric"]["periodic"] is True

    def test_negative_seed_rejected(self, tmp_path):
        rc = cli.main(["schedule", "--alpha", "1.0", "--beta", "0.25",
                       "--seed", "-3", "--out", str(tmp_path)])
        assert rc == 2

    def test_barron_rademacher_sweep(self, tmp_path):
        rc = cli.main(["barron", "--mode", "rademacher", "--d", "2",
                       "--n-list", "16,64", "--sign-draws", "4", "--restarts", "2",
                       "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header == ["d", "n", "draw", "sup", "bound"]
        assert all(float(r["sup"]) <= float(r["bound"]) for r in rows)

    def test_barron_network_mode(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"activation": "relu", "averaged": False,
                                    "neurons": [[1.0, [1.0], -0.25], [-1.0, [1.0], -0.75]]}))
        rc = cli.main(["barron", "--mode", "network", "--network", str(path),
                       "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "results.json").read_text())
        assert summary["path_norm_q1"] == pytest.approx(3.0)
        assert summary["bv_norm"] == pytest.approx(2.0)

    def test_barron_network_mode_missing_file_flag(self, tmp_path, capsys):
        rc = cli.main(["barron", "--mode", "network", "--out", str(tmp_path)])
        assert rc == 2
        assert "--network" in capsys.readouterr().err

    def test_kernels_spectrum_at_degree_120(self, tmp_path):
        """The d=6 spectrum to degree 120 (the degree criterion 2 uses) has
        about 9.6e9 flattened entries; only the 10,000 reported are built."""
        rc = cli.main(["kernels", "--d", "6", "--degrees", "120", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "results.json").read_text())
        assert len(summary["mu"]) == 10_000
        assert summary["mu"] == sorted(summary["mu"], reverse=True)

    def test_width_curve(self, tmp_path):
        rc = cli.main(["width", "--target", "absdist", "--d", "1",
                       "--t-grid", "0.5,1.5", "--width", "8", "--restarts", "1",
                       "--steps", "60", "--quad", "256", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header == ["t", "error", "error_se"]
        errs = [float(r["error"]) for r in rows]
        assert errs[1] <= errs[0] + 1e-12

    def test_quadrature_failure_exits_3(self, tmp_path, capsys):
        """A 64-node rule is exact up to degree 127 and the 128-node rule up
        to 255; at d=6 the relu integrand has degree k+3, so the two levels
        part at degree 156 and the run is a numerical failure."""
        rc = cli.main(["kernels", "--d", "6", "--degrees", "200",
                       "--quadrature-points", "64", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "Traceback" not in err
        assert "(d=6, k=156)" in err
        assert not (tmp_path / "results.csv").exists()

    def test_numerical_failure_exit_code(self, monkeypatch, tmp_path):
        def boom(cfg):
            raise np.linalg.LinAlgError("eigensolver failed")
        monkeypatch.setitem(cli._RUNNERS, "schedule", boom)
        rc = cli.main(["schedule", "--alpha", "1.0", "--beta", "0.25",
                       "--out", str(tmp_path)])
        assert rc == 3

    def test_allocation_failure_exits_2(self, monkeypatch, tmp_path, capsys):
        """A size numpy cannot allocate (``width --quad`` 10^11, say) is an
        invalid configuration.  The runner raises the error itself: a real
        request of that size may be granted under overcommit and then fill
        the machine's memory."""
        def boom(cfg):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                              "(100000000000, 1) and data type float64")
        monkeypatch.setitem(cli._RUNNERS, "width", boom)
        rc = cli.main(["width", "--t-grid", "1", "--quad", "100000000000",
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert err.startswith("invalid configuration: Unable to allocate 745. GiB")
        assert not (tmp_path / "results.csv").exists()


# Valid values for the required flags of each (subcommand, choice), the
# choice first as its selector flag.  The network file is never read before
# a configuration is rejected, so it need not exist.
_VALID = {
    ("separation", None): {"alpha": "1", "beta": "0.25", "t": "1,2"},
    ("schedule", None): {"alpha": "1", "beta": "0.25"},
    ("transport", None): {"d": "1", "n-list": "4,8"},
    ("barron", "rademacher"): {"mode": "rademacher"},
    ("barron", "network"): {"mode": "network", "network": "net.json"},
    ("kernels", "random_feature_relu_sphere"): {"kind": "random_feature_relu_sphere",
                                                "d": "2"},
    ("kernels", "random_feature_relu_gaussian"): {"kind": "random_feature_relu_gaussian",
                                                  "d": "2"},
    ("kernels", "ntk_relu"): {"kind": "ntk_relu", "d": "2"},
    ("width", "distance"): {"target": "distance", "t-grid": "1"},
    ("width", "absdist"): {"target": "absdist", "t-grid": "1"},
    ("width", "barron"): {"target": "barron", "t-grid": "1", "network": "net.json"},
}


def _argv(sub, choice):
    return [sub, *(arg for name, value in _VALID[sub, choice].items()
                   for arg in (f"--{name}", value))]


def _resolve(argv, out):
    """``argv`` parsed and resolved as ``cli.main`` does, without running it."""
    args = cli.build_parser().parse_args(argv)
    params = {name: getattr(args, name) for name in cli._flags(args.subcommand)}
    return cli.resolve_config(args.subcommand, params, args.config, args.seed, str(out),
                              args.plots, args.threads)


def test_every_choice_has_valid_values():
    assert set(_VALID) == {(sub, choice) for sub, choices in cli._SPECS.items()
                           for choice in choices}


def _flags_of_type(*parsers):
    """(subcommand, flag) for every flag of these types that some choice reads."""
    return list(dict.fromkeys((sub, s.name) for sub, choices in cli._SPECS.items()
                              for specs in choices.values() for s in specs
                              if s.parse in parsers))


def _choices_reading(sub, name):
    """(choice, spec) for every choice of ``sub`` that reads flag ``name``;
    the spec, its bound with it, is that choice's own."""
    return [(choice, s) for choice, specs in cli._SPECS[sub].items()
            for s in specs if s.name == name]


_INT_FLAGS = _flags_of_type(int, cli._parse_int_list)


@pytest.mark.parametrize("sub,name", _INT_FLAGS,
                         ids=[f"{sub}--{name}" for sub, name in _INT_FLAGS])
def test_int_flag_below_minimum_exits_2(sub, name, tmp_path, capsys):
    """Every integer flag has a lower bound under each choice that reads it,
    and a value just below it is rejected before any computation: exit 2,
    no traceback, flag and bound named."""
    for choice, spec in _choices_reading(sub, name):
        assert spec.minimum is not None
        bad = str(spec.minimum - 1)
        if spec.parse is cli._parse_int_list:
            bad = f"{spec.minimum},{bad}"
        rc = cli.main([*_argv(sub, choice), f"--{name}", bad, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2, choice
        assert "Traceback" not in err
        assert f"--{name} must be >= {spec.minimum}" in err, choice
        assert not (tmp_path / "results.csv").exists()


_FLOAT_FLAGS = _flags_of_type(float, cli._parse_float_list)


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("sub,name", _FLOAT_FLAGS,
                         ids=[f"{sub}--{name}" for sub, name in _FLOAT_FLAGS])
def test_float_flag_not_finite_exits_2(sub, name, bad, tmp_path, capsys):
    """Every float flag, and every element of a float-list flag, must be
    finite under each choice that reads it: nan and inf are rejected before
    any computation, with exit 2, no traceback and the flag named."""
    for choice, spec in _choices_reading(sub, name):
        value = f"1,{bad}" if spec.parse is cli._parse_float_list else bad
        rc = cli.main([*_argv(sub, choice), f"--{name}", value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2, choice
        assert "Traceback" not in err
        assert f"--{name} must be finite" in err, choice
        assert not (tmp_path / "results.csv").exists()


def _never_called(*args, **kwargs):
    raise AssertionError("the configuration should be rejected before computing")


@pytest.mark.parametrize("flag,bad", [("threads", 0), ("threads", -3), ("seed", -3)])
def test_run_setting_below_minimum_exits_2(flag, bad, monkeypatch, tmp_path, capsys):
    """--threads below 1 and --seed below 0 are rejected from a flag and from
    a config file, before any trial runs, so no worker thread is ever started."""
    monkeypatch.setattr(cli.transport, "empirical_w1_rate", _never_called)
    argv = ["transport", "--d", "2", "--n-list", "4,8", "--trials", "1", "--grid", "4"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "transport", flag: bad}))
    for extra in ([f"--{flag}", str(bad)], ["--config", str(cfg)]):
        rc = cli.main([*argv, *extra, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert f"--{flag}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["transport", "--d", "2", "--n-list", "4"],
                                  ["transport", "--d", "2", "--n-list", "8,8"],
                                  ["barron", "--n-list", "16"],
                                  ["transport", "--d", "1", "--n-list", "4,4,8"],
                                  ["barron", "--n-list", "4,4,8"]])
def test_n_list_needs_two_distinct_sizes(argv, monkeypatch, tmp_path, capsys):
    """A rate fit needs two sizes, each once; fewer, or a repeated size,
    exits 2 naming --n-list before any exact solve or ascent runs."""
    monkeypatch.setattr(cli.transport, "empirical_w1_rate", _never_called)
    monkeypatch.setattr(cli.barron, "rademacher_estimate", _never_called)
    rc = cli.main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "--n-list" in err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("key,bad", [("emit_plots", "false"), ("emit_plots", 0),
                                     ("output_dir", 7), ("output_dir", ["a"])])
def test_config_file_run_settings_type_checked(key, bad, tmp_path, capsys):
    """emit_plots must be a JSON boolean and output_dir a string: the string
    "false" would otherwise turn plots on.  Anything else exits 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "schedule", key: bad}))
    rc = cli.main(["schedule", "--alpha", "1.0", "--beta", "0.25", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload", ["[1]", '"x"', '{"parameters": [1]}'])
def test_config_file_not_an_object_exits_2(payload, tmp_path, capsys):
    """A config file holding JSON other than an object (or parameters other
    than an object) used to raise AttributeError with a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    rc = cli.main(["schedule", "--alpha", "1.0", "--beta", "0.25", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_transport_lp_failure_exits_3(monkeypatch, tmp_path, capsys):
    """A failed HiGHS solve is a numerical failure (exit 3), not an invalid
    configuration."""
    from types import SimpleNamespace

    failed = SimpleNamespace(status=4, message="numerical difficulties", fun=None,
                             eqlin=None)
    monkeypatch.setattr(cli.transport, "linprog", lambda *a, **k: failed)
    rc = cli.main(["transport", "--d", "1", "--n-list", "4,8", "--trials", "1",
                   "--grid", "8", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "transport LP failed" in err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("requested,cores,expect", [(8, 2, 2), (2, 4, 2), (3, None, 1)])
def test_threads_clamped_to_cpu_count(requested, cores, expect, monkeypatch, tmp_path):
    """--threads is cut to the machine's core count when the configuration is
    resolved, from a flag or a config file, and the manifest records the cut
    count.  No trial runs, so no worker thread is ever started."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(cli.transport, "empirical_w1_rate", _never_called)
    params = {"d": 2, "n-list": [4, 8]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "transport", "threads": requested}))
    for resolved in (cli.resolve_config("transport", params, None, None, None, None, requested),
                     cli.resolve_config("transport", params, str(cfg), None, None, None, None)):
        assert resolved.threads == expect
        assert resolved.manifest()["threads"] == expect


@pytest.mark.parametrize("argv", [["barron", "--mode", "network"],
                                  ["width", "--t-grid", "1", "--target", "barron"]])
def test_network_path_that_is_a_directory_exits_2(argv, tmp_path, capsys):
    """An unreadable --network file is an invalid configuration, whatever
    the OS error: a directory used to raise IsADirectoryError (exit 1)."""
    rc = cli.main([*argv, "--network", str(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload", ['{"neurons": 5}', '[1, 2]', '{"neurons": null}',
                                     '{"neurons": [[1.0, [0.5], null]]}',
                                     '{"neurons": [[1.0, [0.5, 1.0], 0.0], [1.0, [0.5], 0.0]]}',
                                     '{"neurons": [[1.0, {"w": 0.5}, 0.0]]}',
                                     '{"activation": ["relu"], "neurons": []}'])
@pytest.mark.parametrize("argv", [["barron", "--mode", "network"],
                                  ["width", "--t-grid", "1", "--target", "barron"]])
def test_malformed_network_file_exits_2(argv, payload, tmp_path, capsys):
    """A --network file that is not an object, or whose neurons are not a
    list of [a, [w...], b] triples of numbers, is an invalid configuration:
    `{"neurons": 5}` raised TypeError and `[1, 2]` AttributeError (exit 1),
    and `{"neurons": null}` ran as an empty network."""
    path = tmp_path / "net.json"
    path.write_text(payload)
    rc = cli.main([*argv, "--network", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "network payload" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("averaged", ['"false"', "null", "0"])
def test_network_averaged_must_be_a_boolean(averaged, tmp_path, capsys):
    """``averaged`` is a JSON boolean: the string "false" used to read as
    true (path_norm_q1 2 instead of 4 on this network) and null as false."""
    path = tmp_path / "net.json"
    path.write_text('{"averaged": %s, "neurons": [[2, [1], -0.5], [1, [1], 0]]}' % averaged)
    rc = cli.main(["barron", "--mode", "network", "--network", str(path),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "'averaged'" in err
    assert not (tmp_path / "out").exists()


class _Accepted(Exception):
    """Raised by the stubbed solvers: the configuration passed every check."""


def _accepted(*args, **kwargs):
    raise _Accepted


_SOLVERS = [(cli.transport, "empirical_w1_rate"), (cli.barron, "rademacher_estimate"),
            (cli.kernels, "exact_spectrum"), (cli.kernels, "nystrom_spectrum"),
            (cli.kernels, "ntk_gram"), (cli.kernels, "mc_kernel"),
            (cli.kernels, "uniform_sphere_points"), (cli.widthprobe, "rho_curve")]


# values that select other code paths: the string flags' choices, and a
# directory where a network file is expected
_WORDS = ["ell_2", "network", "ntk_relu", "random_feature_relu_gaussian", "absdist",
          "barron", ".", ""]


def _drawn_value(spec):
    """Ints from below the flag's minimum, bounded floats with nan and the
    infinities, short strings, and lists of them for list flags.  Magnitudes
    stay small because the unstubbed code sizes arrays by some flags."""
    low = (spec.minimum or 0) - 3
    scalar = st.one_of(st.integers(low, low + 43), st.floats(-1e3, 1e3),
                       st.sampled_from([math.nan, math.inf, -math.inf, *_WORDS]),
                       st.text(max_size=8))
    if spec.parse in (cli._parse_int_list, cli._parse_float_list):
        return scalar | st.lists(scalar, min_size=1, max_size=4)
    return scalar


@st.composite
def _configurations(draw):
    sub, choice = draw(st.sampled_from(list(_VALID)))
    flags = cli._flags(sub)  # the selector, and flags other choices read, too
    names = draw(st.lists(st.sampled_from(list(flags)), max_size=3, unique=True))
    params = dict(_VALID[sub, choice])
    params.update({name: draw(_drawn_value(flags[name])) for name in names})
    return sub, params, draw(st.booleans())


def _flag_text(value):
    if isinstance(value, list):
        return ",".join(map(_flag_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def test_exit_code_contract_fuzzed(tmp_path):
    """Whatever ints, floats or strings the flags receive, as flags or from a
    config file, the CLI exits 0, 2 or 3 and prints no traceback.  The
    solvers are stubbed; reaching one counts as an accepted configuration."""
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_configurations())
    def check(case):
        sub, params, from_file = case
        if from_file:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"subcommand": sub, "parameters": params}))
            argv = [sub, "--config", str(cfg)]
        else:
            argv = [sub, *(f"--{name}={_flag_text(v)}" for name, v in params.items())]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main([*argv, "--out", str(tmp_path / "out")])
            except SystemExit as exc:  # argparse rejected a flag value
                rc = exc.code
            except _Accepted:
                rc = 0
        assert rc in (0, 2, 3), (argv, params, err.getvalue())
        assert "Traceback" not in err.getvalue()

    with pytest.MonkeyPatch.context() as patch:
        for owner, attr in _SOLVERS:
            patch.setattr(owner, attr, _accepted)
        check()


@pytest.mark.parametrize("sub,name", _INT_FLAGS + _FLOAT_FLAGS,
                         ids=[f"{sub}--{name}" for sub, name in _INT_FLAGS + _FLOAT_FLAGS])
def test_config_file_numbers_not_coerced(sub, name, monkeypatch, tmp_path, capsys):
    """A config-file number for an int flag, or for an element of an
    int-list flag, must be integral (3.0 parses as 3; 2.7 used to run as 2),
    and a JSON boolean is no number for any numeric flag (true used to run
    as 1 or 1.0).  Either exits 2 naming the flag, before anything runs,
    under each choice that reads the flag."""
    for owner, attr in _SOLVERS:
        monkeypatch.setattr(owner, attr, _never_called)
    cfg = tmp_path / "cfg.json"
    for choice, spec in _choices_reading(sub, name):
        is_int = spec.parse in (int, cli._parse_int_list)
        is_list = spec.parse in (cli._parse_int_list, cli._parse_float_list)

        def config(value):
            params = {**_VALID[sub, choice], name: [8, value] if is_list else value}
            cfg.write_text(json.dumps({"subcommand": sub, "parameters": params}))
            return str(cfg)

        whole = float(spec.minimum + 1) if is_int else 1.5
        got = cli.resolve_config(sub, {}, config(whole), None, None, None, None).parameters
        value = got[name][-1] if is_list else got[name]
        assert value == whole and type(value) is (int if is_int else float)
        for bad in [True, False] + ([whole + 0.5] if is_int else []):
            rc = cli.main([sub, "--config", config(bad), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert rc == 2, (choice, bad)
            assert "Traceback" not in err
            assert f"--{name} in the config file" in err
        assert not (tmp_path / "out").exists()


def test_import_leaves_scipy_integrate_unloaded():
    """No subcommand integrates with scipy, so ``import widthlab.cli`` must
    not load ``scipy.integrate``: it would add to every run's start-up."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, widthlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class _Reads(dict):
    """Resolved parameters that record which of them a runner reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("sub,choice", list(_VALID), ids=[f"{s}-{c}" for s, c in _VALID])
def test_runner_reads_exactly_the_flags_of_its_choice(sub, choice, monkeypatch, tmp_path):
    """Each run reads every flag that its choice accepts, and no other, so
    the manifest echoes nothing that no computation read.  The solvers are
    stubbed; what a runner hands them is read all the same."""
    for owner, attr in _SOLVERS:
        monkeypatch.setattr(owner, attr, lambda *a, **k: MagicMock())
    monkeypatch.setattr(cli.kernels, "mc_kernel", lambda *a, **k: (0.0, 0.0))
    monkeypatch.setattr(cli.barron, "rademacher_estimate", lambda *a, **k: SimpleNamespace(
        estimate=1.0, violations=0, draws=[], bound=1.0))
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"neurons": [[1.0, [1.0], -0.25]]}))
    argv = [net if arg == "net.json" else arg for arg in _argv(sub, choice)]
    cfg = _resolve([str(arg) for arg in argv], tmp_path)
    selector = cli._SELECTORS.get(sub)
    accepted = {s.name for s in cli._SPECS[sub][choice]} | ({selector} if selector else set())
    assert set(cfg.manifest()["parameters"]) == accepted
    cfg.parameters = _Reads(cfg.parameters)
    cli._RUNNERS[sub](cfg)
    assert cfg.parameters.read == accepted


@pytest.mark.parametrize("argv,unread", [
    (["kernels", "--d", "3", "--degrees", "8", "--a0", "-5", "--samples", "100"],
     ["--a0", "--samples"]),
    (["kernels", "--kind", "ntk_relu", "--d", "3", "--degrees", "500",
      "--quadrature-points", "9999"], ["--degrees", "--quadrature-points"]),
    (["width", "--target", "barron", "--d", "5", "--network", "net.json", "--t-grid", "1,2"],
     ["--d"]),
    (["width", "--target", "absdist", "--anchor-points", "0", "--t-grid", "1,2"],
     ["--anchor-points"]),
    (["barron", "--network", "net.json"], ["--network"]),
    (["barron", "--mode", "network", "--network", "net.json", "--d", "2"], ["--d"]),
    (["kernels", "--kind", "random_feature_relu_gaussian", "--d", "3", "--n", "12"], ["--n"]),
])
def test_flag_the_choice_does_not_read_exits_2(argv, unread, monkeypatch, tmp_path, capsys):
    """A flag that the selected --kind, --mode or --target does not read used
    to be accepted, validated and echoed with no effect; it now exits 2
    naming the flag and the choice, before anything runs."""
    for owner, attr in _SOLVERS:
        monkeypatch.setattr(owner, attr, _never_called)
    rc = cli.main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert all(flag in err for flag in unread), err
    assert "does not read" in err and argv[0] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub,choice", [("kernels", "random_feature_relu_sphere"),
                                        ("barron", "rademacher"), ("width", "distance")])
def test_old_manifest_with_unread_keys_exits_2(sub, choice, tmp_path, capsys):
    """Manifests written before each choice had its own flags carry keys
    that their choice does not read (the union's defaults): they exit 2."""
    unread = {"kernels": {"a0": 1.0, "samples": 8192}, "barron": {"network": None},
              "width": {"network": None}}[sub]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": sub,
                               "parameters": {**_VALID[sub, choice], **unread}}))
    rc = cli.main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert all(f"--{key}" in err for key in unread)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [[1], {"k": 1}, None, 3])
def test_config_file_selector_not_a_choice_exits_2(value, tmp_path, capsys):
    """The selector is parsed like any other flag before its table is looked
    up: a config-file list there exits 2, with no TypeError."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "kernels",
                               "parameters": {"kind": value, "d": 3}}))
    rc = cli.main(["kernels", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "--kind must be one of" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub,name,argv", [
    ("separation", "t", ["--alpha", "1", "--beta", "0.5"]),
    ("width", "t-grid", ["--target", "absdist", "--d", "1", "--steps", "10"]),
    ("barron", "n-list", ["--d", "1"]),
])
def test_empty_list_counts_as_missing(sub, name, argv, monkeypatch, tmp_path, capsys):
    """An empty list, `--t ,` or a config-file `"t": []`, used to count as
    given: separation wrote a header-only results.csv and width a fitted
    exponent of -inf, both with exit 0.  It exits 2 naming the flag."""
    for owner, attr in _SOLVERS:
        monkeypatch.setattr(owner, attr, _never_called)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": sub, "parameters": {name: []}}))
    for extra in ([f"--{name}", ","], ["--config", str(cfg)]):
        rc = cli.main([sub, *argv, *extra, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, extra
        assert "Traceback" not in err
        assert f"missing required flag(s): --{name}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub,params", [
    ("schedule", {"alpha": 1.0, "beta": 0.25, "k-max": None}),
    ("transport", {"d": 1, "n-list": [4, 8], "trials": None}),
    ("kernels", {"kind": "ntk_relu", "d": 3, "a0": None}),
])
def test_config_file_null_counts_as_missing(sub, params, monkeypatch, tmp_path, capsys):
    """A config-file null for a flag with a default used to replace the
    default and crash the run with a TypeError (exit 1)."""
    for owner, attr in _SOLVERS:
        monkeypatch.setattr(owner, attr, _never_called)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": sub, "parameters": params}))
    rc = cli.main([sub, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    null = next(key for key, value in params.items() if value is None)
    assert f"--{null}" in err
    assert not (tmp_path / "out").exists()


def test_ntk_manifest_records_the_points_it_uses(tmp_path):
    """ntk_relu's Gram matrix has 32 points by default, and its manifest
    says so (it used to record "n": 0 and compute on 32)."""
    rc = cli.main(["kernels", "--kind", "ntk_relu", "--d", "3", "--samples", "64",
                   "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"] == {"kind": "ntk_relu", "d": 3, "n": 32, "a0": 1.0,
                                      "samples": 64}
    assert len(read_csv(tmp_path / "results.csv")[1]) == 32


def _readme_commands():
    """The ``widthlab ...`` lines of the README's "Command line" block, with
    backslash-continued lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("widthlab ")]


def test_readme_command_line_examples_resolve(tmp_path):
    """Every README example parses and resolves (nothing runs): it shows no
    flag that its subcommand's choice does not read."""
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(cli._SPECS)
    for argv in commands:
        _resolve(argv, tmp_path)


_PLOTTED = {("separation", None), ("transport", None), ("barron", "rademacher"),
            ("kernels", "random_feature_relu_sphere"), ("width", "distance"),
            ("width", "absdist"), ("width", "barron")}


@pytest.mark.parametrize("sub,choice", list(_VALID), ids=[f"{s}-{c}" for s, c in _VALID])
def test_run_settings_read_only_where_used(sub, choice, monkeypatch, tmp_path, capsys):
    """Only transport reads --threads, and only a choice that can return a
    plot reads --plots.  Any other run given one, as a flag or as a config
    file key, exits 2 naming the flag and the choice (both used to be
    accepted and echoed in the manifest with no effect), and its manifest
    echoes neither."""
    for owner, attr in _SOLVERS:
        monkeypatch.setattr(owner, attr, _never_called)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    reads = {"plots": (sub, choice) in _PLOTTED, "threads": sub == "transport"}
    manifest = _resolve(_argv(sub, choice), tmp_path).manifest()
    assert ("emit_plots" in manifest) == reads["plots"]
    assert ("threads" in manifest) == reads["threads"]
    cfg = tmp_path / "cfg.json"
    for flag, key, value, flag_argv in [("plots", "emit_plots", True, ["--plots"]),
                                        ("threads", "threads", 2, ["--threads", "2"])]:
        cfg.write_text(json.dumps({"subcommand": sub, key: value}))
        for extra in (flag_argv, ["--config", str(cfg)]):
            argv = [*_argv(sub, choice), *extra]
            if reads[flag]:
                assert _resolve(argv, tmp_path).manifest()[key] == value
                continue
            rc = cli.main([*argv, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert rc == 2, extra
            assert "Traceback" not in err
            run = sub if choice is None else f"{sub} --{cli._SELECTORS[sub]} {choice}"
            assert f"{run} does not read --{flag}" in err, err
            assert not (tmp_path / "out").exists()


def test_old_manifest_with_unread_run_settings_exits_2(tmp_path, capsys):
    """Older manifests echo threads and emit_plots on every run: fed back as
    a config file to a run that reads neither, they exit 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "schedule", "threads": 1, "emit_plots": False,
                               "parameters": {"alpha": 1.0, "beta": 0.25}}))
    rc = cli.main(["schedule", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "schedule does not read --plots, --threads" in err
    assert not (tmp_path / "out").exists()
