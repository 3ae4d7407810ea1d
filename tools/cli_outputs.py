#!/usr/bin/env python3
"""Write the output of every documented CLI run to a directory.

The runs are ``build zigzag --n 7`` and ``build P --n-max 7``, the largest
lines perfbench's ``zigzag_simple`` builds; the README's commands; the ten
runs of acceptance criterion 10 (read from ``tests/_cli_runs.py``); the
certificates of perfbench's ``certify_suite`` (read from the
``CERTIFICATES`` table of ``perfbench/workloads.py``, the seeded ones at
seeds 0, 1 and 2); the ``attractor`` and ``plot`` runs of perfbench's
``attractor_io`` on its triangle system and seed-0 seed cloud (read from
the same file), whose 826,688-point model spans more than 100 writer
blocks, and two set-map steps on a seed cloud near 1e4 at pitch 1e-6, whose
grid keys pass the int32 range and take the set map's float64 path; and
the refusals, each of which must exit 2, of
numbers past the float range that the README names (a set-map image
among them), of needle pitches too fine, of files that break a function
system's or a polyline's rules, of a zigzag union whose ``meta n_max`` is
not a number, of points outside a squeeze's box, of flags a command
does not read (a prefix of another flag, ``--seed`` off
``needle-dichotomy``, ``--map-index`` and ``--pitch-ratio``), of point
files whose ``meta pitch`` is 0 or not a number, of ``--box`` and point
arguments that do not parse, of a chain schedule whose finest pitch
underflows to 0 and of a needle dichotomy on a system of two maps, after
the builds they read, with one squeeze composition on the needle that stays
inside its box (exit 1, inconclusive). Each is ``python -m ifscert.cli``
in a fresh process. This script writes the function-system and model
files the runs read.

Each group of runs works in its own subdirectory of OUTDIR, on relative
paths, so no output names the directory. The group's ``log.txt`` holds
each run's command line, exit code, stdout and stderr. The files that the
runs wrote sit beside it.

The runs import the ``ifscert`` that ``PYTHONPATH`` names. So two checkouts
give two trees, and ``diff -r`` of the trees is the byte-identity check of
a change. From the root of a checkout:

    PYTHONPATH=src python3 tools/cli_outputs.py OUT_NEW
    PYTHONPATH=OTHER_CHECKOUT/src python3 tools/cli_outputs.py OUT_OLD
    diff -r OUT_OLD OUT_NEW
"""

from __future__ import annotations

import importlib.util
import os
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXED_TIP = "dim 2\nclosed_form needle_param_scale 0.5 lip=0.9\n"

# the README's runs: halves.ifs and const.ifs as in criterion 10, and reparam.ifs,
# which the README names without its text, the fixed-tip reparametrisation
README_RUNS = [(shlex.split(command), stdin) for command, stdin in [
    ("build needle --delta 1e-3 --out needle.model", None),
    ("build P --n-max 5 --out P.model", None),
    ("build zigzag --n 1 --out l1.model", None),
    ("chain needle.model far h(p) --eps0 0.1 --kmax 8 --out profile.csv", None),
    ("chain l1.model p0 p1 --eps0 1e-3 --kmax 3", None),
    ("attractor halves.ifs --tol 1e-3 --out attractor.model --report steps.csv", None),
    ("certify fixed-set --ifs halves.ifs --model needle.model", None),
    ("certify p-coverage --ifs const.ifs --model P.model", None),
    ("certify needle-dichotomy --ifs reparam.ifs --model needle.model --kmax 6", None),
    ("plot needle.model --out needle.svg", None),
    ("plot profile.csv --title 'far to attachment' --out profile.svg", None),
    ("plot /dev/stdin --out l1.svg", "l1.model"),
]]

# the zigzag builds at the sizes perfbench's zigzag_simple runs, past any README run
BUILDER_RUNS = [(shlex.split(command), None) for command in [
    "build zigzag --n 7 --out l7.model",
    "build P --n-max 7 --out P7.model",
]]

# a seed cloud whose set-map images stay near 1e4, fine enough that the
# half-pitch grid keys pass the int32 range; the second point's images share
# cells with the first's
WIDE_SEED_MODEL = ("dim 2\nmeta pitch 1e-6\npoints cloud 5\n10000 10000\n10000.0000001 10000.0000001\n"
                   "10000.000001 9999.9999995\n-9999.25 10000.5\n12345.678901 -8765.4321\n")

# numbers past the float range, each refused with exit 2 and one error line
REFUSAL_FILES = {
    # a drawing whose padded box overflows
    "huge.model": "dim 2\npolyline a 2\n-1e308 -1e308\n1e308 1e308\n",
    # the unit segment against images 1e200 apart, whose gap's square overflows
    "unit.model": "dim 2\npolyline a 2\n0 0\n1 0\n",
    "apart.ifs": "dim 2\naffine 0.5 0 0 0.5 0 0\naffine 0.5 0 0 0.5 1e200 0\n",
    # every image point about 1e200 from every tip of P
    "far.ifs": "dim 2\nmode weak\naffine 1 0 0 1 1e200 0 attested\n",
    # two pieces about 1e155 apart, whose gap's square overflows
    "far.model": "dim 2\npolyline a 2\n0 0\n1e150 0\npolyline b 2\n1e155 0\n1.0000000001e155 0\n"
                 "marked s 0 0\nmarked t 1e155 0\n",
    # a map that sends the tip (10, 0) of the segment to 1e309, past the float range
    "inf_image.ifs": "dim 2\nmode weak\naffine 0.5 0 0 0.5 0 0\naffine 1e308 0 0 0.5 0 0 attested\n",
    "ten.model": "dim 2\npolyline a 2\n0 0\n10 0\n",
    # maps that break the system's rules, each named by its line
    "strict.ifs": "dim 2\naffine 1 0 0 1 0 0\n",
    "weak.ifs": "dim 2\nmode weak\naffine 2 0 0 2 0 0\n",
    "redim.ifs": "affine 0.5 0 0 0.5 0 0\ndim 1\n",
    # a polyline whose two vertices are one point
    "repeat.model": "dim 2\npolyline a 2\n0 0\n0 0\n",
    # a zigzag union whose recorded scale count is not a number
    "n_max.model": "dim 2\nmeta kind P\nmeta n_max abc\npolyline a 2\n0 0\n1 0\nmarked p1 1 0\n",
    # a squeeze acts on [0, 1] x [-1, 1]; the segment to (2, 0) leaves it
    "squeeze.ifs": "dim 2\nmode weak\nneedle_h1 100 attested\n",
    "long.model": "dim 2\npolyline a 2\n0 0\n2 0\n",
    "needle_h.ifs": "dim 2\nmode weak\nbegin\nneedle_h1 100\nneedle_h2\nend attested\n",
    # point files whose pitch record is there but not a positive number
    "pitch0.model": "dim 2\nmeta pitch 0\npoints c 1\n0 0\n",
    "pitch_word.model": "dim 2\nmeta pitch abc\npoints c 1\n0 0\n",
}
REFUSAL_RUNS = [(shlex.split(command), None) for command in [
    "build zigzag --n 1 --out l1.model",
    "build P --n-max 3 --out P.model",
    "chain l1.model p0 1e200,0 --eps0 1e-3 --kmax 0",
    "attractor halves.ifs --box=0,0,1e308,1e308 --max-iter 2 --out att.model",
    "plot huge.model --out huge.svg",
    "certify fixed-set --ifs apart.ifs --model unit.model --delta 1e200 --out apart.cert",
    "certify p-coverage --ifs far.ifs --model P.model --out far.cert",
    "certify fixed-set --ifs inf_image.ifs --model ten.model --out inf_image.cert",
    "chain far.model s t --eps0 1e160 --kmax 2",
    # needle pitches too fine, refused before they sample; the chain refines at eps0 / 10
    "build needle --out needle.model",
    "build needle --delta 1e-300 --out tiny.model",
    "build needle --delta 1e-14 --out fine.model",
    "chain needle.model far h(p) --eps0 1e-13 --kmax 0",
    "attractor strict.ifs --out strict.model",
    "attractor weak.ifs --out weak.model",
    "attractor redim.ifs --out redim.model",
    "plot repeat.model --out repeat.svg",
    "certify p-coverage --ifs const.ifs --model n_max.model --out n_max.cert",
    "certify fixed-set --ifs squeeze.ifs --model long.model --out squeeze.cert",
    "certify needle-dichotomy --ifs needle_h.ifs --model needle.model --classify-pairs 0 --out needle_h.cert",
    # flags the command does not read, none of them taken as a prefix of another
    "attractor halves.ifs --seed 7 --out seed.model",
    "chain l1.model p0 p1 --eps 1e-3 --kmax 0",
    "certify fixed-set --ifs halves.ifs --model needle.model --seed 7 --out seed.cert",
    "certify p-coverage --ifs const.ifs --model P.model --seed 7 --out seed.cert",
    "certify needle-dichotomy --ifs needle_h.ifs --model needle.model --map-index 0 --out map.cert",
    "chain l1.model p0 p1 --eps0 1e-3 --kmax 0 --pitch-ratio 10",
    "plot pitch0.model --out pitch0.svg",
    "plot pitch_word.model --out pitch_word.svg",
    "attractor halves.ifs --box 0,0,a,1 --out box.model",
    "chain l1.model 0,x p1",
    # the finest pitch, 1e-300 * 2**-100 / 10, is 0: refused before any refinement
    "chain l1.model p0 p1 --eps0 1e-300 --kmax 100",
    "certify needle-dichotomy --ifs halves.ifs --model needle.model --out halves.cert",
]]


def groups():
    """group -> (files to write, runs); a run is (argv, file piped to stdin or None)."""
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    from _cli_runs import CRITERION_10_RUNS, IFS_FILES
    from workloads import ATTRACTOR_TOL, CERTIFICATES, TRIANGLE_IFS, AttractorIO

    # certify_suite: CertifySuite.setup's three runs, then each certificate of
    # CERTIFICATES, the seeded ones at seeds 0, 1 and 2
    suite_runs = [(shlex.split(command), None) for command in [
        "build needle --out needle.model",
        "build P --n-max 4 --out P.model",
        "certify fixed-set --ifs fixed-set.ifs --model needle.model --delta 1e-2",
    ]]
    for label, _, kind, model, extra, *_ in CERTIFICATES:
        seeds = range(3) if any("{seed}" in x for x in extra) else [None]
        for seed in seeds:
            out = label if seed is None else f"{label}-seed{seed}"
            suite_runs.append((["certify", kind, "--ifs", f"{label}.ifs", "--model", model,
                                *[x.format(seed=seed) for x in extra], "--out", f"{out}.cert"], None))
    # attractor_io: the seed cloud as AttractorIO.setup writes it, at pitch 1
    seed_rows = AttractorIO(0, "").seed_cloud()
    seed_model = f"dim 2\nmeta pitch 1\npoints cloud {len(seed_rows)}\n" + "".join(
        "%.17g %.17g\n" % tuple(row) for row in seed_rows)
    large_runs = [(shlex.split(command), None) for command in [
        f"attractor tri.ifs --tol {ATTRACTOR_TOL} --seed-cloud seed.model --out tri.model --report tri.csv",
        "plot tri.model --out tri.svg",
        # keys near 1e4 / 5e-7 = 2e10 cells: past int32 (exit 1, not converged)
        "attractor halves.ifs --seed-cloud wide.model --max-iter 2 --out wide_out.model --report wide.csv",
    ]]
    return {
        "builders": ({}, BUILDER_RUNS),
        "readme": ({**IFS_FILES, "reparam.ifs": FIXED_TIP}, README_RUNS),
        "criterion10": (IFS_FILES, [(argv, None) for argv in CRITERION_10_RUNS]),
        "certify_suite": ({f"{label}.ifs": text for label, text, *_ in CERTIFICATES}, suite_runs),
        "large": ({"tri.ifs": TRIANGLE_IFS, "seed.model": seed_model, "halves.ifs": IFS_FILES["halves.ifs"],
                   "wide.model": WIDE_SEED_MODEL}, large_runs),
        "refusals": ({**IFS_FILES, **REFUSAL_FILES}, REFUSAL_RUNS),
    }


def run_group(workdir: str, files: dict[str, str], runs, env: dict[str, str]) -> None:
    os.makedirs(workdir)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(workdir, "log.txt"), "wb") as log:
        for argv, stdin_name in runs:
            stdin = open(os.path.join(workdir, stdin_name), "rb") if stdin_name else subprocess.DEVNULL
            try:
                done = subprocess.run([sys.executable, "-m", "ifscert.cli", *argv], cwd=workdir,
                                      stdin=stdin, env=env, capture_output=True, check=False)
            finally:
                if stdin_name:
                    stdin.close()
            piped = f" < {stdin_name}" if stdin_name else ""
            log.write(f"$ ifscert {shlex.join(argv)}{piped}\nexit {done.returncode}\n".encode())
            log.write(b"--- stdout\n" + done.stdout + b"--- stderr\n" + done.stderr)
            print(f"{os.path.basename(workdir)}: exit {done.returncode}: ifscert {shlex.join(argv)}",
                  flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = argv[0]
    if os.path.exists(outdir) and os.listdir(outdir):
        print(f"error: {outdir} is not empty", file=sys.stderr)
        return 2
    spec = importlib.util.find_spec("ifscert")
    if spec is None:
        print("error: no ifscert on the path; set PYTHONPATH to a checkout's src", file=sys.stderr)
        return 2
    # the runs work in OUTDIR, so a relative PYTHONPATH would not find the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(spec.origin)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    print(f"ifscert from {src}", flush=True)
    for group, (files, runs) in groups().items():
        run_group(os.path.join(outdir, group), files, runs, env)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
