"""The nonuniform-FFT path of the phase sums against mpmath and the direct matrix.

Long evenly spaced grids (the Simpson grids) take the type-1 transform, other
long grids (the geometric sweeps) the interpolated one, and rows whose
amplitudes do not decay or short grids the direct phase matrix; see
`zetacore._phase_sum`.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from zetaline import zetacore as zc
from zetaline.barnes import barnes_truncated_line, barnes_truncated_line_batch
from zetaline.meanvalue import simpson_nodes
from zetaline.verify import _t_nodes

mpmath = pytest.importorskip("mpmath")


def _oracle_nodes(values: np.ndarray) -> np.ndarray:
    """The 8 lowest nodes, the 8 of smallest |value| and 12 spread ones."""
    count = values.size
    return np.unique(np.concatenate([
        np.arange(8),
        np.argsort(np.abs(values), kind="stable")[:8],
        np.linspace(0, count - 1, 12).astype(int),
    ]))


@pytest.mark.parametrize("grid, a, sigma", [
    ("simpson", 0.3, 0.5),
    ("simpson", 1.0, 0.5),
    ("geometric", 1.0, -1.0),
    ("geometric", 1.0, 0.0),
    ("geometric", 1.0, 0.5),
    ("geometric", 1.0, 1.5),
])
def test_line_matches_mpmath(grid, a, sigma):
    ts = simpson_nodes(1000.0, a)[0] if grid == "simpson" else _t_nodes(2000.0)
    got = zc.hurwitz_line(sigma, a, ts)
    n = zc._shift_count(zc.DEFAULT_PRECISION, float(np.max(np.abs(ts))))
    tol = 64.0 * zc.DEFAULT_PRECISION.rel_tol
    with mpmath.workdps(30):
        for k in _oracle_nodes(got):
            ref = complex(mpmath.zeta(mpmath.mpc(sigma, float(ts[k])), a))
            # the line kernel states its error against this scale
            scale = max(abs(ref), (n + a) ** -sigma)
            assert abs(got[k] - ref) <= tol * scale, (float(ts[k]), abs(got[k] - ref) / scale)


@pytest.mark.parametrize("grid", ["simpson", "geometric"])
def test_batch_rows_equal_single_rows(grid):
    ts = simpson_nodes(400.0, 0.5)[0] if grid == "simpson" else _t_nodes(500.0)
    sigmas = [-0.5, 0.5, 1.5]
    rows = zc.hurwitz_line_batch(sigmas, 0.5, ts)
    for sigma, row in zip(sigmas, rows):
        assert zc.hurwitz_line(sigma, 0.5, ts).tobytes() == row.tobytes()
    w = (1.0, math.sqrt(2.0))
    rows, _ = barnes_truncated_line_batch([1.25, 1.75], 1.0, w, ts)
    for sigma, row in zip([1.25, 1.75], rows):
        assert barnes_truncated_line(sigma, 1.0, w, ts)[0].tobytes() == row.tobytes()


def test_rule_sends_non_decaying_rows_and_short_grids_to_the_direct_path():
    ts = _t_nodes(2000.0)
    base = np.arange(2412, dtype=float) + 1.0
    logv = np.log(base)
    growing, flat, decaying = base ** 1.0, base ** 0.0, base ** -0.5
    rows = zc._phase_sum(logv, [growing, flat, decaying], ts)
    direct = zc._direct_sum(logv, [growing, flat], ts)
    assert rows[:2].tobytes() == direct.tobytes()
    # the decaying row takes the transform, whatever rows share its call
    alone = zc._phase_sum(logv, [decaying], ts)[0]
    assert rows[2].tobytes() == alone.tobytes()
    direct = zc._direct_sum(logv, [decaying], ts)[0]
    assert alone.tobytes() != direct.tobytes()
    assert np.max(np.abs(alone - direct)) <= 1e-13 * np.sum(decaying)
    for short in (ts[:1], ts[:4]):
        got = zc._phase_sum(logv, [decaying], short)
        assert got.tobytes() == zc._direct_sum(logv, [decaying], short).tobytes()


_GEOMETRIC_LINE_SCRIPT = (
    "import math, sys\n"
    "from zetaline.barnes import barnes_truncated_line\n"
    "from zetaline.verify import _t_nodes\n"
    "from zetaline.zetacore import hurwitz_line\n"
    "ts = _t_nodes(2000.0)\n"
    "sys.stdout.buffer.write(hurwitz_line(0.5, 1.0, ts).tobytes())\n"
    "ts = _t_nodes(300.0)\n"
    "row, _ = barnes_truncated_line(1.5, 1.0, (1.0, math.sqrt(2.0)), ts)\n"
    "sys.stdout.buffer.write(row.tobytes())\n"
)


def test_geometric_line_reruns_are_bit_identical():
    # the geometric grids take the interpolated transform: bincounts, FFTs
    # and pairwise sums, no BLAS, so the bits do not depend on thread counts
    src = os.path.dirname(os.path.dirname(os.path.abspath(zc.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _GEOMETRIC_LINE_SCRIPT],
                              env=env, capture_output=True, check=True)
        outputs.append(proc.stdout)
    ts = _t_nodes(2000.0)
    here = zc.hurwitz_line(0.5, 1.0, ts).tobytes()
    here += barnes_truncated_line(1.5, 1.0, (1.0, math.sqrt(2.0)), _t_nodes(300.0))[0].tobytes()
    assert outputs == [here, here]
