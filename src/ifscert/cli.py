"""Command-line front end: build models, run metrics and certificates, plot.

Exit codes are a scripting contract: 0 for success (including certified and
consistent verdicts), 1 for inconclusive outcomes, 2 for usage errors, bad
input files, and refuted preconditions.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import sys

import numpy as np

# ``certify``, ``ifs`` and ``metric`` load scipy on first use (see ``ifscert``)
from . import certify, continua, formats, ifs, metric, svg
from .geometry import ContinuumModel, PointCloud

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_ERROR = 2

_VERDICT_EXIT = {
    "certified": EXIT_OK,
    "consistent": EXIT_OK,
    "inconclusive": EXIT_INCONCLUSIVE,
    "refuted": EXIT_ERROR,
}


# flags (by argparse dest) that must be finite and positive, or (integer
# flags) at least 0, wherever they occur
_POSITIVE_FLAGS = ("delta", "tol", "eps0")
_NONNEGATIVE_FLAGS = ("kmax", "classify_pairs")


def _check_numeric_flags(args) -> None:
    for dest in _POSITIVE_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{dest} must be finite and positive (--{dest.replace('_', '-')} {value})")
    for dest in _NONNEGATIVE_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise ValueError(f"{dest} must be at least 0 (--{dest.replace('_', '-')} {value})")


def _parse_point(text: str, name: str) -> str | np.ndarray:
    """A label stays a label; comma-separated numbers become a point."""
    return text if "," not in text else _numbers(text, name)


def _numbers(text: str, name: str) -> np.ndarray:
    """The comma-separated numbers of ``text``, or an error that names the argument."""
    try:
        return np.array([float(p) for p in text.split(",")])
    except ValueError:
        raise ValueError(f"{name} needs comma-separated numbers, not {text}") from None


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _emit_certificate(args, cert: certify.Certificate) -> int:
    text = formats.certificate_text(cert)
    if args.out:
        formats.atomic_write(args.out, text)
        _say(args, f"wrote {args.out}")
    _say(args, text.rstrip("\n"))
    return _VERDICT_EXIT[cert.verdict]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    if args.kind == "needle":
        model = continua.build_needle(args.delta)
        default_out = "needle.model"
    elif args.kind == "P":
        model = continua.build_P(args.n_max)
        default_out = "P.model"
    else:
        line = continua.build_zigzag_ln(args.n)
        marked = {"p0": np.zeros(2), f"p{args.n}": np.array(line.vertices[-1])}
        model = ContinuumModel(
            (line,), marked, 2, meta={"kind": "zigzag", "n": str(args.n)}
        )
        default_out = f"l{args.n}.model"
    out = args.out or default_out
    formats.save_model(model, out)
    _say(args, f"wrote {out}")
    return EXIT_OK


def _cmd_chain(args) -> int:
    model = formats.load_model(args.model)
    if isinstance(model, PointCloud):
        raise ValueError("chain profiles need a polyline model, not a point cloud")
    profile = metric.chain_profile(
        model,
        _parse_point(args.src, "src"),
        _parse_point(args.dst, "dst"),
        args.eps0,
        args.kmax,
    )
    if args.out:
        formats.save_profile(profile, args.out)
        _say(args, f"wrote {args.out}")
    if profile.verdict == "diverges":
        print(f"verdict=diverges slope={format(profile.slope, '.6g')}")
    elif profile.verdict == "converges":
        print(f"verdict=converges limit={format(profile.limit, '.17g')}")
    else:
        print(f"verdict=inconclusive note={profile.note}")
    return EXIT_OK if profile.verdict != "inconclusive" else EXIT_INCONCLUSIVE


def _seed_cloud_from_box(box_text: str, dim: int, pitch: float) -> PointCloud:
    vals = _numbers(box_text, "--box")
    if len(vals) != 2 * dim:
        raise ValueError(f"--box needs {2 * dim} comma-separated numbers for dimension {dim}")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"--box needs finite numbers, not {box_text}")
    lo = np.array(vals[:dim])
    hi = np.array(vals[dim:])
    if np.any(hi < lo):
        raise ValueError("--box upper corner must dominate the lower corner")
    axes = [np.linspace(lo[d], hi[d], 3) for d in range(dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    return PointCloud(grid, pitch)


def _cmd_attractor(args) -> int:
    system = formats.load_ifs(args.ifs)
    if args.seed_cloud:
        seed = formats.load_model(args.seed_cloud)
        if not isinstance(seed, PointCloud):
            seed = seed.refine(args.tol)
    else:
        seed = _seed_cloud_from_box(args.box, system.dimension, args.tol)
    result = ifs.attractor(system, seed, tol=args.tol, max_iter=args.max_iter)
    out = args.out or "attractor.model"
    formats.save_model(result.cloud, out)
    _say(args, f"wrote {out}")
    if args.report:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["iteration", "step"])
        for k, s in enumerate(result.steps, start=1):
            writer.writerow([k, format(s, ".17g")])
        formats.atomic_write(args.report, buf.getvalue())
        _say(args, f"wrote {args.report}")
    _say(
        args,
        f"converged={result.converged} iterations={len(result.steps)} "
        f"points={len(result.cloud.points)} tail_bound={format(result.tail_bound, '.6g')}",
    )
    return EXIT_OK if result.converged else EXIT_INCONCLUSIVE


def _cmd_certify(args) -> int:
    if args.seed is not None and args.kind != "needle-dichotomy":
        raise ValueError(f"--seed applies to needle-dichotomy only, not {args.kind}")
    system = formats.load_ifs(args.ifs)
    model = formats.load_model(args.model)
    if isinstance(model, PointCloud):
        raise ValueError("certificates need a polyline model, not a point cloud")
    if args.kind == "fixed-set":
        cert = certify.fixed_set_check(system, model, args.delta)
    elif args.kind == "p-coverage":
        cert = certify.p_point_coverage(system, model, args.delta)
    elif len(system.maps) != 1:
        raise ValueError(f"{args.ifs}: needle-dichotomy certifies one map, and this system has {len(system.maps)}")
    else:
        cert = certify.needle_dichotomy_check(
            system.maps[0],
            model,
            eps0=args.eps0,
            k_max=args.kmax,
            delta=args.delta,
            classify_pairs=args.classify_pairs,
            seed=args.seed or 0,
        )
    return _emit_certificate(args, cert)


def _cmd_plot(args) -> int:
    # one open, so that a pipe works: the first line tells a profile CSV from a model
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{args.input}: {exc}") from None
        lines = itertools.chain([first], fh)
        if first.strip() == ",".join(formats.PROFILE_HEADER):
            eps, _, vals = formats.load_profile_csv(args.input, lines)
            pieces = (svg.profile_svg(eps, vals, title=args.title),)
        else:
            pieces = svg.model_pieces(formats.load_model(args.input, lines))
    out = args.out or args.input + ".svg"
    formats._write_pieces(out, pieces)  # a cloud's document is streamed, a block at a time
    _say(args, f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--quiet", action="store_true", help="suppress informational output")

    # no prefix matching: --seed is not --seed-cloud, nor --eps --eps0
    parser = argparse.ArgumentParser(
        prog="ifscert", allow_abbrev=False,
        description="Build continuum models, chain-metric profiles, attractors and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], allow_abbrev=False, help=help_text)

    p_build = command("build", "construct a model file")
    p_build.add_argument("kind", choices=["needle", "P", "zigzag"])
    p_build.add_argument("--delta", type=float, default=1e-3, help="sampling pitch (needle)")
    p_build.add_argument("--n-max", type=int, default=6, help="largest scale index (P)")
    p_build.add_argument("--n", type=int, default=3, help="scale index (zigzag)")
    p_build.set_defaults(func=_cmd_build)

    p_chain = command("chain", "chain-length profile between two points")
    p_chain.add_argument("model", help="model file")
    p_chain.add_argument("src", help="marked label or x,y coordinates")
    p_chain.add_argument("dst", help="marked label or x,y coordinates")
    p_chain.add_argument("--eps0", type=float, default=0.1, help="coarsest scale")
    p_chain.add_argument("--kmax", type=int, default=8, help="number of halvings")
    p_chain.set_defaults(func=_cmd_chain)

    p_attr = command("attractor", "iterate a function system to its fixed cloud")
    p_attr.add_argument("ifs", help="function-system file")
    p_attr.add_argument("--tol", type=float, default=1e-3, help="step tolerance")
    p_attr.add_argument("--max-iter", type=int, default=60)
    p_attr.add_argument("--seed-cloud", default=None, help="model file for the starting cloud")
    p_attr.add_argument("--box", default="0,0,1,1",
                        help="starting box corners lo...,hi... without a seed cloud; negative: --box=-1,-1,1,1")
    p_attr.add_argument("--report", default=None, help="write per-iteration steps as CSV")
    p_attr.set_defaults(func=_cmd_attractor)

    p_cert = command("certify", "run a certificate and report its verdict")
    p_cert.add_argument("kind", choices=["fixed-set", "p-coverage", "needle-dichotomy"])
    p_cert.add_argument("--ifs", required=True, help="function-system file")
    p_cert.add_argument("--model", required=True, help="model file")
    p_cert.add_argument("--delta", type=float, default=1e-3, help="sampling pitch")
    p_cert.add_argument("--eps0", type=float, default=0.1, help="coarsest scale (dichotomy)")
    p_cert.add_argument("--kmax", type=int, default=6, help="number of halvings (dichotomy)")
    p_cert.add_argument("--classify-pairs", type=int, default=20000,
                        help="sample pairs for the contraction check; 0 trusts declared bounds")
    p_cert.add_argument("--seed", type=int, default=None,
                        help="seed for the sampled pairs (needle-dichotomy only; default 0)")
    p_cert.set_defaults(func=_cmd_certify)

    p_plot = command("plot", "render a model file or profile CSV as SVG")
    p_plot.add_argument("input", help="model file or profile CSV")
    p_plot.add_argument("--title", default="", help="chart title (CSV input)")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        _check_numeric_flags(args)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a failed allocation means an input too large for this machine
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
