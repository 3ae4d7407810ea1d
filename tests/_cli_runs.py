"""The CLI runs of acceptance criterion 10, shared with ``tools/cli_outputs.py``.

Each run is an argv list whose files are named relative to the directory it
runs in. ``IFS_FILES`` holds the function-system files the runs read.
"""

HALVES_IFS = "dim 2\nmode strict\naffine 0.5 0 0 0.5 0 0\naffine 0.5 0 0 0.5 0.5 0\n"
CONST_IFS = "dim 2\naffine 0 0 0 0 0 0\n"
IFS_FILES = {"halves.ifs": HALVES_IFS, "const.ifs": CONST_IFS}

CRITERION_10_RUNS = [
    ["build", "needle", "--out", "needle.model"],
    ["build", "zigzag", "--n", "1", "--out", "l1.model"],
    ["build", "P", "--n-max", "2", "--out", "P.model"],
    ["chain", "l1.model", "p0", "p1", "--eps0", "1e-3", "--kmax", "2", "--out", "profile.csv"],
    ["attractor", "halves.ifs", "--tol", "1e-3", "--out", "att.model", "--report", "att.csv"],
    ["certify", "fixed-set", "--ifs", "halves.ifs", "--model", "needle.model", "--out", "fixed.cert"],
    ["certify", "p-coverage", "--ifs", "const.ifs", "--model", "P.model", "--out", "cover.cert"],
    ["certify", "needle-dichotomy", "--ifs", "const.ifs", "--model", "needle.model",
     "--classify-pairs", "0", "--out", "dich.cert"],
    ["plot", "needle.model", "--out", "needle.svg"],
    ["plot", "profile.csv", "--title", "profile", "--out", "profile.svg"],
]
