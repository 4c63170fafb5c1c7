"""The nonuniform-FFT path of the phase sums against mpmath and the direct matrix.

Long evenly spaced grids (the Simpson grids) take the type-1 transform, other
long grids (the geometric sweeps) the interpolated one, and single points and
short grids the direct phase matrix, whatever the rows' amplitudes; see
`zetacore._phase_sum`.  Hurwitz rows with sigma <= 0 reach the transform in
octaves of |t|, each with its own shift count; see `zetacore._hurwitz_rows`.  The transform spreads sources that are dense on its
grid (Barnes lattice values) by cell moments, other sources by taps; see
`zetacore._grid_sums`.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from zetaline import barnes as bz
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
    n = zc._shift_count(float(np.max(np.abs(ts))))
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


def test_rule_sends_long_calls_to_the_transform_and_short_grids_to_the_direct_path():
    ts = _t_nodes(2000.0)
    base = np.arange(2412, dtype=float) + 1.0
    logv = np.log(base)
    amps = [base ** 1.0, base ** 0.0, base ** -0.5]
    rows = zc._phase_sum(logv, amps, ts)
    # every row of a long call takes the transform, whatever its amplitudes
    # and whatever rows share its call
    for row, amp in zip(rows, amps):
        alone = zc._phase_sum(logv, [amp], ts)[0]
        assert row.tobytes() == alone.tobytes()
        direct = zc._direct_sum(logv, [amp], ts)[0]
        assert alone.tobytes() != direct.tobytes()
        assert np.max(np.abs(alone - direct)) <= 1e-13 * np.sum(amp)
    for short in (ts[:1], ts[:4]):
        got = zc._phase_sum(logv, amps[2:], short)
        assert got.tobytes() == zc._direct_sum(logv, amps[2:], short).tobytes()


def test_dense_barnes_batch_matches_exact_phase_sums():
    # 246,016 lattice values fall into ~830 FFT cells: the moment path
    w, sigmas = (1.0, math.sqrt(2.0)), [1.25, 1.5, 1.75]
    ts = _t_nodes(500.0)
    rows, _ = barnes_truncated_line_batch(sigmas, 1.0, w, ts)
    x = bz.TruncationPolicy().x_for(float(np.max(ts)))
    profile = bz.build_lattice_profile(1.0, w, x)
    logv, counts = np.log(profile.values), profile.counts.astype(float)
    nodes = np.unique(np.concatenate([np.arange(4), np.linspace(0, ts.size - 1, 12).astype(int)]))
    for row, sigma in zip(rows, sigmas):
        amps = counts * np.exp(-sigma * logv)
        total = math.fsum(amps)
        for k in nodes:
            terms = amps * zc._exact_phase(float(ts[k]), logv)
            ref = complex(math.fsum(terms.real), math.fsum(terms.imag))
            ref += bz._boundary_corrections(np.array([sigma + 1j * ts[k]]), 1.0, w, x)[0]
            assert abs(row[k] - ref) <= 2e-15 * total, (sigma, float(ts[k]), abs(row[k] - ref) / total)


def test_rule_sends_dense_boxes_to_moments_and_lines_to_taps(monkeypatch):
    taken = []
    for name in ("_spread_taps", "_spread_moments"):
        spread = getattr(zc, name)
        monkeypatch.setattr(zc, name, lambda *args, _spread=spread, _name=name:
                            taken.append(_name) or _spread(*args))
    w = (1.0, math.sqrt(2.0))
    box, _ = barnes_truncated_line(1.5, 1.0, w, _t_nodes(300.0))
    line = zc.hurwitz_line(0.5, 1.0, simpson_nodes(1000.0, 1.0)[0])
    assert taken == ["_spread_moments", "_spread_taps"]
    # priced at 2 _SPREAD moments the moments never win, so every call
    # spreads by taps: the line keeps its bits, the box moves by rounding
    monkeypatch.setattr(zc, "_MOMENTS", 2 * zc._SPREAD)
    assert zc.hurwitz_line(0.5, 1.0, simpson_nodes(1000.0, 1.0)[0]).tobytes() == line.tobytes()
    by_taps, _ = barnes_truncated_line(1.5, 1.0, w, _t_nodes(300.0))
    assert taken[2:] == ["_spread_taps", "_spread_taps"]
    assert by_taps.tobytes() != box.tobytes()
    assert np.max(np.abs(by_taps - box)) <= 1e-12 * np.max(np.abs(box))


def test_moment_path_does_not_need_sorted_sources(monkeypatch):
    # descending sources form the same runs of cells, in the other order
    ts = _t_nodes(300.0)
    x = bz.TruncationPolicy().x_for(float(np.max(ts)))
    profile = bz.build_lattice_profile(1.0, (1.0, math.sqrt(2.0)), x)
    logv = np.log(profile.values)
    amps = profile.counts * np.exp(-1.5 * logv)
    plan = zc._transform_plan(logv, ts)[:4]
    monkeypatch.setattr(zc, "_spread_taps", None)  # both orders take the moments
    up = zc._grid_sums(logv, [amps], *plan)
    down = zc._grid_sums(logv[::-1].copy(), [amps[::-1].copy()], *plan)
    assert np.max(np.abs(up - down)) <= 1e-15 * np.sum(amps)


def test_moment_count_is_the_least_that_meets_the_spreading_target():
    # Cramer's bound on the Hermite remainder, at c <= pi / _SPREAD
    def remainder(m):
        q = math.sqrt(math.pi / (2 * zc._SPREAD))
        return 1.09 * math.fsum(q ** p / math.sqrt(math.factorial(p)) for p in range(m, m + 40))
    target = math.exp(-0.75 * math.pi * zc._SPREAD)
    assert remainder(zc._MOMENTS) <= target < remainder(zc._MOMENTS - 1)


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
