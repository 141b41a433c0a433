"""Compute the d=2 w1-colgen references for an instance seed.

    python3 perfbench/references.py [--instance-seed N]

Each reference is the exact W1 from the 64x64 midpoint grid to one
empirical measure, found without widthlab: the grid and the empirical
weights are expanded to a 4096 x 4096 assignment problem on sup-norm costs
and solved with scipy's linear_sum_assignment (5-10 s and 128 MiB per
instance).  The values are merged into references.json next to this file.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spec  # noqa: E402


def compute(instance_seed):
    refs = {}
    for d, n, trial in spec.W1_INSTANCES:
        if d != 2:
            continue
        grid = checks.midpoint_grid(d, spec.W1_GRID[d])
        points = checks.w1_instance_points(instance_seed, d, n, trial)
        t0 = time.perf_counter()
        refs[f"{d}:{n}:{trial}"] = checks.assignment_w1(grid, points, len(grid))
        print(f"{d}:{n}:{trial} {refs[f'{d}:{n}:{trial}']!r} "
              f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    return refs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instance-seed", type=int, default=spec.W1_INSTANCE_SEED)
    args = parser.parse_args(argv)
    stored = json.loads(spec.REFERENCES.read_text()) if spec.REFERENCES.is_file() else {}
    stored[str(args.instance_seed)] = compute(args.instance_seed)
    spec.REFERENCES.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
