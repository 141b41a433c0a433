"""Fixed inputs of the three workloads, shared by the workload process and
the output checks.  Imports nothing but the standard library, so the
checking side never loads widthlab.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# BLAS/OpenMP threads in every workload process; see README "Threads".
BLAS_THREADS = 1
# Set-up is timed in this many processes per run (one of them is the
# workload process); setup_s is their median.
SETUP_SAMPLES = 11

# -- w1-colgen --------------------------------------------------------------
# Instances are drawn from this seed, not from --seed: one solve takes 0.5 to
# 8 s depending on the draw, so drawing them per run would make wall_s
# measure the draw.  --seed only orders the solves within a round.
W1_INSTANCE_SEED = 20240801
W1_GRID = {2: 64, 1: 4096}          # per-axis resolution: 4,096 atoms each
# (d, n, trial); the points are rng.random((n, d)) from
# SeedSequence(entropy=W1_INSTANCE_SEED, spawn_key=(n, trial)).
# (2, 256, 0) starts from an infeasible restricted LP and gets densified.
W1_INSTANCES = [(2, 16, 0), (2, 256, 0), (1, 16, 0)]

# -- width-curve ------------------------------------------------------------
WIDTH_D = 4
WIDTH_ANCHORS = 4                    # anchors of the sup-norm distance target
WIDTH_T_GRID = [0.5, 1.0, 2.0]
WIDTH_NEURONS = 32
WIDTH_FIT = {"steps": 300, "restarts": 3, "quadrature": ("mc", 2000),
             "polish_iters": 100}
WIDTH_HELDOUT_POINTS = 200_000
# |reported - held-out| <= REL * held-out + 4 standard errors of the held-out
# estimate.  The reported error is measured on the 2,000 fitting points; it
# differs from the held-out one by quadrature noise and the fit's
# generalisation gap, about 1% as measured.
WIDTH_HELDOUT_REL = 0.10

# -- lab-mix ----------------------------------------------------------------
LAB_SEPARATION = {"alpha": 1.0, "beta": 0.25}
LAB_TRANSPORT = {"d": 2, "grid": 16, "n_list": [16, 64, 128], "trials": 2}
LAB_KERNEL_D = 6
LAB_KERNEL_DEGREES = 40

# (name, argv); every one must exit 0.
LAB_COMMANDS = [
    ("separation", ["separation", "--alpha", str(LAB_SEPARATION["alpha"]),
                    "--beta", str(LAB_SEPARATION["beta"]), "--t", "1,2,4,8,16"]),
    ("schedule", ["schedule", "--alpha", str(LAB_SEPARATION["alpha"]),
                  "--beta", str(LAB_SEPARATION["beta"]), "--k-max", "6"]),
    ("transport", ["transport", "--d", str(LAB_TRANSPORT["d"]),
                   "--grid", str(LAB_TRANSPORT["grid"]),
                   "--n-list", ",".join(map(str, LAB_TRANSPORT["n_list"])),
                   "--trials", str(LAB_TRANSPORT["trials"])]),
    ("barron", ["barron", "--mode", "rademacher", "--d", "3",
                "--n-list", "16,64,256", "--sign-draws", "16", "--restarts", "8"]),
    ("spectrum", ["kernels", "--d", str(LAB_KERNEL_D),
                  "--degrees", str(LAB_KERNEL_DEGREES)]),
    ("nystrom", ["kernels", "--d", "3", "--degrees", "8", "--n", "1000"]),
    ("ntk", ["kernels", "--kind", "ntk_relu", "--d", "3", "--n", "32",
             "--samples", "8192"]),
    ("gaussian", ["kernels", "--kind", "random_feature_relu_gaussian", "--d", "3",
                  "--samples", "8192"]),
    ("width", ["width", "--target", "distance", "--d", "2", "--t-grid", "0.5,1,2",
               "--width", "16", "--restarts", "2", "--steps", "150", "--quad", "512"]),
]
# Invalid configurations that must exit 2.  Each fails today, the same way
# on every seed, and counts as a failed operation.
LAB_PROBES = [
    ("probe-n-list-0", ["transport", "--d", "2", "--n-list", "0"]),
    ("probe-steps-0", ["width", "--t-grid", "1", "--steps", "0"]),
    ("probe-restarts-0", ["width", "--t-grid", "1", "--restarts", "0"]),
    ("probe-absdist-d0", ["width", "--t-grid", "1", "--target", "absdist", "--d", "0"]),
]
