"""Test of the output checks: real outputs pass, perturbed ones are rejected.

    python3 perfbench/selftest.py

Uses the outputs of the last run of each workload, making a one-round run
first where there is none.  Each perturbation breaks one property and must
be rejected by the check that guards it.  Exits 1 on any miss.
"""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spec  # noqa: E402


def _add(key, delta):
    def perturb(out):
        out["values"][key] += delta
    return perturb


def _set(*path_and_value):
    *path, value = path_and_value

    def perturb(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return perturb


def _over_budget(out):
    net, t = out["nets"][-1], out["t_grid"][-1]
    net["outer"] = [a * 2 * t / checks.network_path_norm(net) for a in net["outer"]]


def _rising(out):
    out["errors"][1] = out["errors"][0] * (1 + 1e-12)


def _csv(name, column, change, where=lambda row: True):
    def perturb(out):
        row = next(r for r in out["results"][name]["csv"] if where(r))
        row[column] = change(row)
    return perturb


def _rademacher_over(row):
    d, n = int(row["d"]), int(row["n"])
    return repr(1.001 * 2 * math.sqrt(2 * math.log(2 * d) / n))


PERTURBATIONS = {
    "w1-colgen": [
        ("w1.reference", _add("2:16:0", 1e-8)),
        ("w1.reference", _add("2:256:0", -1e-8)),
        ("w1.cdf", _add("1:16:0", 1e-11)),
        ("w1.covering", _set("values", "2:16:0", 0.0)),
        ("w1.covering", _set("values", "1:16:0", 0.0)),
        ("w1.present", lambda out: out["values"].pop("2:16:0")),
        ("w1.repeat", _set("rounds_agree", False)),
    ],
    "width-curve": [
        ("width.path_norm", _over_budget),
        ("width.monotone", _rising),
        ("width.heldout", lambda out: out["errors"].__setitem__(0, out["errors"][0] * 1.5)),
        ("width.present", lambda out: out["nets"].pop()),
        ("width.repeat", _set("capture_agrees", False)),
    ],
    "lab-mix": [
        ("lab.exit", _set("codes", "spectrum", 1)),
        ("lab.separation", lambda out: out["results"]["separation"]["json"].__setitem__(
            "exponent", out["results"]["separation"]["json"]["exponent"] + 1e-9)),
        ("lab.transport", _csv("transport", "w1", lambda r: repr(float(r["w1"]) + 1e-10))),
        ("lab.transport", lambda out: out["results"]["transport"]["csv"].pop()),
        ("lab.rademacher", _csv("barron", "sup", _rademacher_over)),
        ("lab.multiplicity", _csv("spectrum", "mult", lambda r: str(int(r["mult"]) + 1),
                                  lambda r: r["k"] == "5")),
        ("lab.spectrum", _csv("spectrum", "lambda",
                              lambda r: repr(float(r["lambda"]) * (1 + 1e-8)),
                              lambda r: r["k"] == "10")),
        ("lab.ntk", _set("results", "ntk", "json", "lower_ok", False)),
        ("lab.ntk", _set("results", "ntk", "json", "reversed_upper_ok", False)),
        ("lab.repeat", _set("rounds_agree", False)),
    ],
}


def load(workload):
    path = spec.OUT / f"{workload}-worker.json"
    if not path.is_file():
        subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                        "--workload", workload, "--seed", "1", "--seconds", "1"],
                       check=True, stdout=subprocess.DEVNULL)
    return checks.outputs_of(workload, json.loads(path.read_text()))


def main():
    misses = 0
    for workload, perturbations in PERTURBATIONS.items():
        out = load(workload)
        fails = checks.check(workload, out)
        print(f"{workload}: unperturbed {'passes' if not fails else fails}")
        misses += bool(fails)
        for name, perturb in perturbations:
            bad = copy.deepcopy(out)
            perturb(bad)
            caught = [f for f in checks.check(workload, bad) if f[0] == name]
            print(f"  {name:18s} {'rejected' if caught else 'MISSED'}")
            misses += not caught
    print("selftest " + ("passed" if not misses else f"failed: {misses} misses"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
