"""Property tests: the block-wise draw reader against single streams."""

import numpy as np
import pytest

from dsgd_lab.dynamics import _Draws
from dsgd_lab.noise import AdditiveGaussian, Minibatch, NoiseStream
from dsgd_lab.objectives import generate_logistic_problem

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# widths m*d = 6 (Gaussian normals) and m*n = 10 (minibatch words)
OBJ = generate_logistic_problem(m=2, n=5, d=3, seed=1)
NOISES = {"gaussian": AdditiveGaussian.isotropic(2, 3, 1.0), "minibatch": Minibatch(2)}

# steps on both sides of the first block boundaries (blocks of 512), so a
# sequence crosses blocks forwards and jumps back to earlier ones
STEPS = st.lists(st.sampled_from([0, 1, 510, 511, 512, 513, 1023, 1024, 1600]),
                 min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 6),
       independent=st.booleans(), lane=st.sampled_from(sorted(NOISES)), steps=STEPS)
def test_draw_grid_matches_single_streams(seed, R, independent, lane, steps):
    ids = [range(0, 2 * R, 2), range(1, 2 * R, 2)] if independent else [range(R)]
    draws = _Draws(NOISES[lane], OBJ, seed, ids)
    for t in steps:
        grid = draws.at(t)
        assert grid.shape[:2] == (len(ids), R)
        for c, row in enumerate(ids):
            for r, rep in enumerate(row):
                stream = NoiseStream(seed, rep)
                if lane == "gaussian":
                    expected = stream.normals_at(t, OBJ.m * OBJ.d)
                else:
                    expected = stream.raw_at(t, OBJ.m * OBJ.n)
                assert np.array_equal(grid[c, r], expected)
