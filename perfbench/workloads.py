"""The four benchmark workloads: inputs from a seed, a timed operation list, oracles.

Each workload drives the program's public entry points: ``ifscert.cli.main``
in-process for the README commands, and the library for ``self_intersects``.
Names are looked up on their modules at call time so that a traced run sees
the wrapped functions.

The oracles are independent of the code under test where one exists
(quadrature arc lengths, a chaos-game sample, plain numpy parsing and
nearest-neighbour distances); certificate verdicts, witness labels and exit
codes are checked against the values the certificate contract fixes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.spatial import cKDTree

import ifscert.cli
import ifscert.continua
import ifscert.formats
import ifscert.geometry
from _oracles import chaos_game, wave_arc_length


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` maps its output to failures."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ifscert.cli.main(argv)
    return rc, buf.getvalue()


def read_certificate(path: str) -> tuple[str, set[str]]:
    """Verdict and witness labels of a certificate file (``key=value`` lines)."""
    verdict, labels = "", set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            if key == "verdict":
                verdict = value
            elif key.startswith("witness."):
                labels.add(key[len("witness."):])
    return verdict, labels


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """Inputs for one seed in one work directory; subclasses define the operations."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Generate the inputs, write the input files and warm up; safe to repeat."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check_run(self) -> list[str]:
        """Oracles too costly for every pass, checked once after the timed passes."""
        return []


# ---------------------------------------------------------------------------
# needle_profile

# hop bound eps erases the folds of the needle on [0, a(eps)] with
# a(eps) = WINDOW_COEFF * sqrt(eps) (calibrated by tools/calibrate_needle.py)
WINDOW_COEFF = 0.630150
WINDOW_REL_TOL = 0.10
DIVERGENCE_SLOPE = -0.15


class NeedleProfile(Workload):
    """The paper's headline computation: the diverging chain profile of the needle."""

    name = "needle_profile"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        # seed 0 is the README's `far` end; others start at abscissa x in
        # [0.85, 1], where the window oracle stays inside its 10% tolerance
        self.x = 1.0 if seed == 0 else float(rng.uniform(0.85, 1.0))
        y = math.sqrt(self.x) * math.sin(1.0 / self.x)
        self.src = "far" if seed == 0 else f"{self.x!r},{y!r}"
        self._windows: dict[float, float] = {}

    def setup(self):
        model = self.path("needle.model")
        cli(["build", "needle", "--out", model, "--quiet"])
        cli(["chain", model, self.src, "h(p)", "--eps0", "0.1", "--kmax", "0", "--quiet"])

    def ops(self):
        argv = ["chain", self.path("needle.model"), self.src, "h(p)", "--eps0", "0.1", "--kmax", "8",
                "--out", self.path("profile.csv")]
        return [Op("chain", lambda: cli(argv), self._check)]

    def _window(self, eps: float) -> float:
        if eps not in self._windows:
            self._windows[eps] = wave_arc_length(WINDOW_COEFF * math.sqrt(eps), self.x)
        return self._windows[eps]

    def _check(self, out):
        rc, stdout = out
        fails = []
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        fields = dict(kv.split("=", 1) for kv in last.split() if "=" in kv)
        if rc != 0 or fields.get("verdict") != "diverges":
            fails.append(f"chain: exit {rc}, last line {last!r}, want exit 0 and verdict=diverges")
        elif not float(fields["slope"]) <= DIVERGENCE_SLOPE:
            fails.append(f"chain: slope {fields['slope']} above {DIVERGENCE_SLOPE}")
        with open(self.path("profile.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != 9:
            fails.append(f"chain: {len(rows)} profile rows, want 9")
        for eps, _, value in rows:
            ref = self._window(float(eps))
            if value == "" or abs(float(value) / ref - 1.0) > WINDOW_REL_TOL:
                fails.append(f"chain: eps={eps} value {value or 'inf'} vs window arc {ref:.6g}")
        return fails


# ---------------------------------------------------------------------------
# zigzag_simple

ZIGZAG_LINES = range(1, 8)
PLANTED_LINES = (5, 7)
# a planted vertex moves this many legs sideways, so the moved legs cross
# their neighbours at a clear angle instead of grazing them
PLANT_LEGS = 8


def plant_crossing(line, rng):
    """Copy of a zigzag line whose seeded tooth leg is bent across its neighbours.

    Vertices ``1 + 2j`` and ``2 + 2j`` are the ends of tooth leg ``j``. The
    end of an outward leg ``j`` (even) moves to 56% of the way towards the
    end of leg ``j + PLANT_LEGS``: between two legs, at the same ring, so the
    bent leg properly crosses the legs in between. Legs are drawn from
    30-40% of the line, away from the trimmed middle tooth and at a nearly
    fixed place in the all-pairs order, so the early exit costs about the
    same for every seed.
    """
    v = np.array(line.vertices)
    legs = (len(v) - 2) // 2
    j = 2 * int(rng.integers(int(0.15 * legs), int(0.2 * legs)))
    end = 2 + 2 * j
    v[end] += (PLANT_LEGS / 2 + 0.5) / PLANT_LEGS * (v[end + 2 * PLANT_LEGS] - v[end])
    return ifscert.geometry.Polyline(v, name=f"{line.name}-planted")


class ZigzagSimple(Workload):
    """Simplicity of the zigzag lines l1..l7, on both sides of the all-pairs/sweep switch."""

    name = "zigzag_simple"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.lines: dict[int, Any] = {}
        self.planted: dict[int, Any] = {}

    def setup(self):
        rng = np.random.default_rng(self.seed)
        build = ifscert.continua.build_zigzag_ln
        self.planted = {n: plant_crossing(build(n), rng) for n in PLANTED_LINES}
        for n in (1, 2, 3):
            ifscert.geometry.self_intersects(build(n))

    def ops(self):
        ops = []
        for n in ZIGZAG_LINES:
            ops.append(Op(f"build l{n}", lambda n=n: self._build(n),
                          lambda line, n=n: self._check_length(n, line)))
            for tol in (None, 0.0):
                ops.append(Op(f"l{n} tol={tol}", lambda n=n, tol=tol: self._simple(self.lines[n], tol),
                              lambda out, n=n, tol=tol: self._expect(out, False, f"l{n} tol={tol}")))
        for n in PLANTED_LINES:
            ops.append(Op(f"l{n} planted tol=0", lambda n=n: self._simple(self.planted[n], 0.0),
                          lambda out, n=n: self._expect(out, True, f"l{n} planted")))
        return ops

    def _build(self, n):
        self.lines[n] = ifscert.continua.build_zigzag_ln(n)
        return self.lines[n]

    @staticmethod
    def _simple(line, tol):
        if tol is None:
            return ifscert.geometry.self_intersects(line)
        return ifscert.geometry.self_intersects(line, tol=tol)

    @staticmethod
    def _check_length(n, line):
        length = float(np.linalg.norm(np.diff(line.vertices, axis=0), axis=1).sum())
        if abs(length / 2.0 ** n - 1.0) > 1e-9:
            return [f"l{n}: length {length!r}, want 2^{n}"]
        return []

    @staticmethod
    def _expect(out, want, label):
        flag, witness = out
        if bool(flag) != want:
            return [f"{label}: self_intersects gave {flag} ({witness}), want {want}"]
        return []


# ---------------------------------------------------------------------------
# certify_suite

TRIANGLE_IFS = (
    "dim 2\nmode strict\n"
    "affine 0.5 0 0 0.5 0 0\naffine 0.5 0 0 0.5 0.5 0\naffine 0.5 0 0 0.5 0.25 0.5\n"
)

# (label, ifs file text, certificate kind, model, extra flags, exit, verdict, witness labels)
CERTIFICATES = [
    ("fixed-set", TRIANGLE_IFS, "fixed-set", "needle.model", [],
     0, "certified", {"image-point-off-model"}),
    ("p-coverage", "dim 2\naffine 0 0 0 0 0 0\n", "p-coverage", "P.model", [],
     0, "certified", {"p1"}),
    ("dichotomy-fixed-tip", "dim 2\nclosed_form needle_param_scale 0.5 lip=0.9\n",
     "needle-dichotomy", "needle.model", ["--classify-pairs", "0"],
     0, "certified", {"probe", "probe-image", "attachment"}),
    ("dichotomy-moved-tip", "dim 2\nclosed_form needle_param_affine 0.35 -0.7 lip=0.9\n",
     "needle-dichotomy", "needle.model", ["--classify-pairs", "0"],
     0, "certified", {"source", "source-far", "image-of-far", "attachment"}),
    ("dichotomy-screened", "dim 2\nmode weak\nclosed_form needle_param_tent 0.8 0.3 attested\n",
     "needle-dichotomy", "needle.model", ["--seed", "{seed}"],
     2, "refuted", {"stretched-from", "stretched-to"}),
]


class CertifySuite(Workload):
    """The certificate commands over one needle and one zigzag union file."""

    name = "certify_suite"

    def setup(self):
        cli(["build", "needle", "--out", self.path("needle.model"), "--quiet"])
        cli(["build", "P", "--n-max", "4", "--out", self.path("P.model"), "--quiet"])
        for label, text, *_ in CERTIFICATES:
            with open(self.path(f"{label}.ifs"), "w", encoding="utf-8") as fh:
                fh.write(text)
        cli(["certify", "fixed-set", "--ifs", self.path("fixed-set.ifs"),
             "--model", self.path("needle.model"), "--delta", "1e-2", "--quiet"])

    def ops(self):
        ops = []
        for label, _, kind, model, extra, want_rc, want_verdict, want_labels in CERTIFICATES:
            cert = self.path(f"{label}.cert")
            argv = ["certify", kind, "--ifs", self.path(f"{label}.ifs"), "--model", self.path(model),
                    *[x.format(seed=self.seed) for x in extra], "--out", cert, "--quiet"]
            ops.append(Op(label, lambda argv=argv: cli(argv),
                          lambda out, label=label, cert=cert, want=(want_rc, want_verdict, want_labels):
                          self._check(out, label, cert, *want)))
        return ops

    @staticmethod
    def _check(out, label, cert, want_rc, want_verdict, want_labels):
        rc, _ = out
        verdict, labels = read_certificate(cert)
        if (rc, verdict, labels) != (want_rc, want_verdict, want_labels):
            return [f"{label}: exit {rc} verdict {verdict} witnesses {sorted(labels)}, "
                    f"want exit {want_rc} verdict {want_verdict} witnesses {sorted(want_labels)}"]
        return []


# ---------------------------------------------------------------------------
# attractor_io

TRIANGLE_CORNERS = np.array([(0.0, 0.0), (0.5, 0.0), (0.25, 0.5)])
ATTRACTOR_TOL = "5e-4"
CHAOS_POINTS = 400_000
CHAOS_HAUSDORFF = 2e-3
# each seeded point is drawn uniformly inside one of these boxes
# (x lo, x hi, y lo, y hi); see AttractorIO.seed_cloud
SEED_BOXES = np.array([
    (0.20, 0.30, 0.20, 0.30), (0.70, 0.80, 0.20, 0.30), (0.38, 0.48, 0.60, 0.70),
    (0.52, 0.62, 0.60, 0.70), (0.30, 0.40, 0.05, 0.15), (0.60, 0.70, 0.05, 0.15),
])


class AttractorIO(Workload):
    """Set-map iteration to the triangle attractor, then heavy file I/O and SVG."""

    name = "attractor_io"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.digests: dict[str, str] = {}

    def seed_cloud(self) -> np.ndarray:
        """The triangle's three vertices plus six seeded points, at pitch 1.

        The set-map step keeps the lexicographically first point of each grid
        cell of half the current pitch. For these three maps, which cells
        the images of a point share with other images depends only on which
        open interval between multiples of 1/2 holds its first coordinate
        and which interval between odd multiples of 1/2 holds its second.
        Each box lies inside one such pair of intervals, so the final point
        count and which images survive are the same for every seed, and the
        file sizes agree to within 1%. The boxes also hold the k-th step near
        1.7 * 2**-k, well inside (1.024, 2.048) * 2**-k, so the iteration
        stops after 12 steps for every seed.
        """
        rng = np.random.default_rng(self.seed)
        lo, hi = SEED_BOXES[:, [0, 2]], SEED_BOXES[:, [1, 3]]
        pts = lo + rng.uniform(size=lo.shape) * (hi - lo)
        return np.vstack([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], pts])

    def setup(self):
        with open(self.path("tri.ifs"), "w", encoding="utf-8") as fh:
            fh.write(TRIANGLE_IFS)
        seed_cloud = ifscert.geometry.PointCloud(self.seed_cloud(), 1.0)
        ifscert.formats.save_model(seed_cloud, self.path("seed.model"))
        warm = self.path("warm.model")
        cli(["attractor", self.path("tri.ifs"), "--tol", "5e-2", "--seed-cloud", self.path("seed.model"),
             "--out", warm, "--quiet"])
        cli(["plot", warm, "--out", self.path("warm.svg"), "--quiet"])

    def ops(self):
        attractor = ["attractor", self.path("tri.ifs"), "--tol", ATTRACTOR_TOL,
                     "--seed-cloud", self.path("seed.model"),
                     "--out", self.path("tri.model"), "--report", self.path("tri.csv")]
        plot = ["plot", self.path("tri.model"), "--out", self.path("tri.svg"), "--quiet"]
        return [Op("attractor", lambda: cli(attractor), self._check_attractor),
                Op("plot", lambda: cli(plot), self._check_plot)]

    def _same_bytes(self, name: str) -> list[str]:
        digest = file_digest(self.path(name))
        if self.digests.setdefault(name, digest) != digest:
            return [f"{name}: bytes differ from the first pass"]
        return []

    def _check_attractor(self, out):
        rc, stdout = out
        fails = []
        if rc != 0 or "converged=True" not in stdout:
            fails.append(f"attractor: exit {rc}, want 0 and converged=True")
        with open(self.path("tri.csv"), encoding="utf-8") as fh:
            steps = [float(row["step"]) for row in csv.DictReader(fh)]
        if not steps or not steps[-1] < float(ATTRACTOR_TOL):
            fails.append(f"attractor: report ends at step {steps[-1:]}, want below {ATTRACTOR_TOL}")
        return fails + self._same_bytes("tri.model")

    def _check_plot(self, out):
        rc, _ = out
        fails = [] if rc == 0 else [f"plot: exit {rc}, want 0"]
        with open(self.path("tri.svg"), "rb") as fh:
            text = fh.read()
        if not (text.startswith(b"<svg") and text.endswith(b"</svg>\n")):
            fails.append("plot: output is not a complete SVG document")
        return fails + self._same_bytes("tri.svg")

    def check_run(self):
        path = self.path("tri.model")
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split()
        # header: dim 2 / meta pitch <p> / points <name> <count>
        head = tokens.index("points")
        count = int(tokens[head + 2])
        parsed = np.array(tokens[head + 3:], dtype=float).reshape(count, 2)
        fails = []
        loaded = ifscert.formats.load_model(path)
        if not np.array_equal(loaded.points, parsed):
            fails.append("attractor: load_model does not return the saved cloud bit for bit")
        maps = [(0.5 * np.eye(2), c) for c in TRIANGLE_CORNERS]
        oracle = chaos_game(maps, CHAOS_POINTS, seed=self.seed)
        gap = max(cKDTree(oracle).query(parsed)[0].max(), cKDTree(parsed).query(oracle)[0].max())
        if not gap <= CHAOS_HAUSDORFF:
            fails.append(f"attractor: Hausdorff distance {gap:.3g} to the chaos game, "
                         f"want <= {CHAOS_HAUSDORFF}")
        return fails


WORKLOADS = {cls.name: cls for cls in (NeedleProfile, ZigzagSimple, CertifySuite, AttractorIO)}
