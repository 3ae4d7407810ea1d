"""Property test: the set-map step's dedupe against a plain per-point oracle.

``hutchinson`` keys every image on a half-pitch grid, sorts the images with
their keys and keeps the first of each cell. ``_oracles.hutchinson_reference``
takes each key with Python's ``round``, keeps the lexicographically smallest
point of each cell in a dict, and sorts the cells. The clouds are 1-D to
3-D, with coordinates on half-cell boundaries (where rounding goes to the
even key), repeated points, maps repeated or sharing images, and ``-0.0``
beside ``0.0``: the squeeze keeps ``x1`` as it is and scales the rest by
``x1``, so a point with ``x1 = -0.0`` has an image of signed zeros that ties
with the image of its ``0.0`` twin. Both must give the same points, in the
same order, bit for bit.

The set map holds its keys as int32 while ``extent / cell`` stays below
``2**31 - 1``, and as float64 past it. The cell ``2**-31`` puts a cloud
that reaches 1 just past that line and one that stops short of it just
below, with keys near the int32 limit; at the cell ``1e-10`` every key of a
point beyond 0.215 is past it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifscert.geometry import PointCloud
from ifscert.ifs import IfsSpec, affine_map, eval_map, hutchinson, squeeze_map

from _oracles import hutchinson_reference

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

CELLS = [0.25, 0.125, 0.1, 0.3, 2.0 ** -31, 1e-10]


def _affine(scale, shift):
    return lambda dim: affine_map(scale * np.eye(dim), np.r_[shift, np.zeros(dim - 1)], weak_attested=True)


# by name, so that a failing example reads; each takes the dimension
MAPS = {
    "identity": _affine(1.0, 0.0),
    "half": _affine(0.5, 0.0),
    "half-shifted": _affine(0.5, 0.25),
    "negation": _affine(-1.0, 0.0),
    "squeeze": lambda dim: squeeze_map(100.0, dim, weak_attested=True),
    "squeeze-2": lambda dim: squeeze_map(2.0, dim, weak_attested=True),
}


def _coordinate(cell: float, lo: float):
    """A coordinate in ``[lo, 1]``: a signed zero, a half-cell multiple or any float."""
    multiples = st.integers(int(np.ceil(lo * 2 / cell)), int(1 * 2 / cell)).map(lambda k: k * cell / 2)
    return st.one_of(st.sampled_from([0.0, -0.0]), multiples,
                     st.floats(lo, 1.0, allow_nan=False, allow_infinity=False))


@st.composite
def steps(draw):
    """(dim, cell, points, map names): points inside the squeeze's box ``[0, 1] x [-1, 1]^(dim - 1)``."""
    dim = draw(st.integers(1, 3))
    cell = draw(st.sampled_from(CELLS))
    point = st.tuples(_coordinate(cell, 0.0), *[_coordinate(cell, -1.0)] * (dim - 1))
    points = draw(st.lists(point, min_size=1, max_size=12))
    # repeat some points, so that one map gives equal images
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    names = draw(st.lists(st.sampled_from(sorted(MAPS)), min_size=1, max_size=4))
    return dim, cell, points, names


@PROPERTY
@given(step=steps())
# -0.0 first: its images are signed zeros that tie with the 0.0 twins' and must stay
@example(step=(2, 0.25, [(-0.0, 0.5), (0.0, 0.5), (0.0, -0.5)], ["squeeze", "squeeze"]))
# x = 0.125 and 0.375 sit on half-cell boundaries and round to the even keys 0 and 2
@example(step=(2, 0.25, [(0.375, 0.125), (0.125, -0.375), (0.0, 0.0)], ["identity", "half-shifted"]))
# (0.5, 0) under "half" and (0, 0) under "half-shifted" are one image from two maps
@example(step=(2, 0.1, [(0.5, 0.0), (0.0, 0.0)], ["half", "half-shifted"]))
# extent / cell = 2**31 - 1.5: int32 keys, which reach 2**31 - 2 and, after negation, -(2**31 - 2)
@example(step=(1, 2.0 ** -31, [(1 - 3 * 2.0 ** -32,), (0.5,)], ["identity", "negation"]))
# extent / cell = 2**31: float64 keys, beside a point whose key rounds to 2**31 - 2
@example(step=(1, 2.0 ** -31, [(1.0,), (1 - 3 * 2.0 ** -32,)], ["identity", "negation"]))
def test_hutchinson_matches_the_plain_dedupe(step):
    dim, cell, points, names = step
    points = np.array(points, dtype=float).reshape(-1, dim)
    maps = [MAPS[name](dim) for name in names]
    got = hutchinson(IfsSpec(tuple(maps), mode="weak"), PointCloud(points, 2 * cell))
    want = hutchinson_reference([eval_map(m, points) for m in maps], 2 * cell)
    assert got.points.shape == want.shape
    assert got.points.tobytes() == want.tobytes()
