#!/usr/bin/env python3
"""Calibrate the shortcut window coefficient for the needle chain profile.

For each hop bound epsilon the chained value over the refined needle cloud
should match the arc length of the wave over [a(eps), 1] with
a(eps) = COEFF * sqrt(eps). This script computes the profile, inverts the
quadrature to find the per-entry coefficient, picks the minimax constant,
and prints the worst relative window error, so the constant frozen into the
acceptance test is reproducible.

Run from the repository root:  python3 tools/calibrate_needle.py
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from scipy.optimize import brentq

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from _oracles import wave_arc_length  # noqa: E402

from ifscert.continua import build_needle  # noqa: E402
from ifscert.metric import chain_profile  # noqa: E402


def main() -> None:
    eps0, k_max = 0.1, 8
    needle = build_needle()
    t0 = time.time()
    prof = chain_profile(needle, "far", "h(p)", eps0=eps0, k_max=k_max)
    print(f"profile computed in {time.time() - t0:.1f}s verdict={prof.verdict} slope={prof.slope:.4f}")

    # interpolation table for L(a) = arc length over [a, 1], log-log smooth
    table_a = np.geomspace(1e-4, 0.9, 240)
    table_l = np.array([wave_arc_length(a, 1.0) for a in table_a])

    def arc(a: float) -> float:
        return float(np.exp(np.interp(np.log(a), np.log(table_a), np.log(table_l))))

    coeffs = []
    for eps, val in zip(prof.epsilons, prof.values):
        a = brentq(lambda x: arc(x) - val, 1.2e-4, 0.8)
        coeffs.append(a / np.sqrt(eps))
        print(f"eps={eps:.8f} value={val:.6f} window_a={a:.8f} coeff={coeffs[-1]:.6f}", flush=True)

    grid = np.linspace(min(coeffs), max(coeffs), 4001)
    best, best_err = None, np.inf
    for c in grid:
        errs = [
            abs(val / arc(c * np.sqrt(eps)) - 1.0)
            for eps, val in zip(prof.epsilons, prof.values)
        ]
        if max(errs) < best_err:
            best, best_err = c, max(errs)
    print(f"\nminimax coeff = {best:.6f}  worst window error = {best_err:.4%}", flush=True)

    print("\nwindow cross-check at pitch 1e-5 (cloud arc vs quadrature):")
    for a in (0.1, 0.05, 0.02):
        pts = needle.refine(1e-5).points
        sel = pts[:, 0] >= a
        sel_pts = pts[sel]
        order = np.argsort(sel_pts[:, 0])
        chord = np.hypot(*np.diff(sel_pts[order], axis=0).T).sum()
        ref = wave_arc_length(a, 1.0)
        print(f"a={a}: chained-cloud arc={chord:.8f} quadrature={ref:.8f} rel={abs(chord/ref-1):.2e}")


if __name__ == "__main__":
    main()
