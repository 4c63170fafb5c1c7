"""Fast tests of the benchmark itself: every workload at a tiny size, and
every check failing when one output is perturbed.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from zetaline import barnes, cli, meanvalue, zetacore  # noqa: E402
from zetaline.errors import AccuracyError  # noqa: E402


class TinyMeansquare(workloads.MeansquareLine):
    T_TOP = 100
    SAMPLE_NODES = 2


class TinyBarnes(workloads.BarnesSweep):
    T_MAX = 20.0
    COMPARABILITY_T = 40.0
    SAMPLE_T = 2


def one_round(wl):
    latencies = []
    outputs = wl.collect(wl.run_round(latencies))
    return outputs, latencies


@pytest.fixture
def meansquare(tmp_path):
    wl = TinyMeansquare(7, str(tmp_path))
    outputs, latencies = one_round(wl)
    return wl, outputs, latencies


@pytest.fixture
def barnes_sweep(tmp_path):
    wl = TinyBarnes(7, str(tmp_path))
    outputs, latencies = one_round(wl)
    return wl, outputs, latencies


@pytest.fixture
def points(tmp_path):
    wl = workloads.PointEval(7, str(tmp_path))
    band = [op for op in wl.ops if op[2]][:2]
    wl.ops = [op for op in wl.ops if not op[2]][:40] + band
    outputs, latencies = one_round(wl)
    return wl, outputs, latencies


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    fake = {"run_s": 1.0, "op_p50_ms": 1.0, "op_p99_ms": 1.0, "peak_rss_mb": 1.0,
            "per_layer": {name: 1.0 for name in worker.PER_LAYER}}
    e2e = run.end_to_end([1.0], fake)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    layers = run.per_layer(fake)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layers.items()]


def test_meansquare_round_is_correct(meansquare):
    wl, outputs, latencies = meansquare
    outcome = wl.check([outputs])
    assert outcome.problems == []
    assert (outcome.attempted, outcome.failed) == (3, 0)
    assert len(latencies) == 3
    assert wl.bytes_written(outputs) > 0


def _scale_value(text, row, factor):
    """Scale the value column of one data row of a mean-square CSV."""
    header, *rows = text.splitlines()
    cells = rows[row].split(",")
    cells[5] = repr(float(cells[5]) * factor)
    rows[row] = ",".join(cells)
    return "\n".join([header, *rows]) + "\n"


def _scale_leading_term(text, factor):
    doc = json.loads(text)
    doc["prediction"]["terms"][0][0] *= factor
    return json.dumps(doc)


@pytest.mark.parametrize("label, key, perturb, message", [
    ("hurwitz", "csv", lambda text: _scale_value(text, -1, 1.5), "Ingham"),
    ("multi", "csv", lambda text: _scale_value(text, 0, 100.0), "positive and increasing"),
    ("lerch", "csv", lambda text: _scale_value(text, 0, -1.0), "positive and increasing"),
    ("hurwitz", "predict", lambda text: _scale_leading_term(text, 1.01), "predicted main term"),
    ("lerch", "manifest", None, "missing"),
])
def test_meansquare_checks_catch_a_perturbed_output(meansquare, label, key, perturb, message):
    wl, outputs, _ = meansquare
    out = outputs[[r["label"] for r in wl.runs].index(label)]
    if perturb is None:
        del out[key]
    else:
        out[key] = perturb(out[key])
    problems = wl.check([outputs]).problems
    assert problems and all(message in p for p in problems)


def test_meansquare_counts_a_failed_run(meansquare):
    wl, outputs, _ = meansquare
    outputs[1]["code"] = 3
    outcome = wl.check([outputs])
    assert (outcome.attempted, outcome.failed, outcome.correct) == (3, 1, True)


def test_meansquare_integrand_check_catches_a_perturbed_kernel(meansquare, monkeypatch):
    wl, outputs, _ = meansquare
    real = zetacore.hurwitz_line
    monkeypatch.setattr(zetacore, "hurwitz_line", lambda *a, **k: real(*a, **k) * (1 + 1e-8))
    problems = wl.check([outputs]).problems
    assert any(p.startswith("hurwitz: integrand") for p in problems)
    assert any(p.startswith("lerch: integrand") for p in problems)


def test_barnes_round_is_correct(barnes_sweep):
    wl, outputs, latencies = barnes_sweep
    outcome = wl.check([outputs])
    assert outcome.problems == []
    assert (outcome.attempted, outcome.failed) == (2, 0)
    assert len(latencies) == 2


def test_barnes_check_catches_a_failed_verdict(barnes_sweep):
    wl, outputs, _ = barnes_sweep
    outputs[1] = dataclasses.replace(outputs[1], passed=False)
    assert any("comparability verdict failed" in p for p in wl.check([outputs]).problems)


def test_barnes_check_catches_a_perturbed_truncated_value(barnes_sweep, monkeypatch):
    wl, outputs, _ = barnes_sweep
    real = barnes.barnes_truncated_line

    def shifted(sigma, a, w, ts, x=None, **kw):
        vals, err = real(sigma, a, w, ts, x=x, **kw)
        return vals + 2.0 * x ** (1.0 - sigma), err

    monkeypatch.setattr(barnes, "barnes_truncated_line", shifted)
    problems = wl.check([outputs]).problems
    assert len(problems) == sum(len(ts) for _, _, ts in wl.samples)


def test_point_round_counts_only_the_band_as_failed(points):
    wl, outputs, latencies = points
    outcome = wl.check([outputs, outputs])
    assert outcome.problems == []
    assert (outcome.attempted, outcome.failed) == (84, 4)
    assert len(latencies) == 42


def test_point_check_catches_a_perturbed_value(points):
    wl, outputs, _ = points
    i = next(i for i, op in enumerate(wl.ops) if not op[2])
    outputs[i] += 2 * oracle.TOLERANCE * wl.ops[i][1]["scale"]
    outcome = wl.check([outputs])
    assert len(outcome.problems) == 1 and outcome.failed == 2


def test_point_check_counts_a_raised_call_as_failed(points):
    wl, outputs, _ = points
    outputs[0] = AccuracyError("remainder above tolerance", achieved=1.0)
    outcome = wl.check([outputs])
    assert outcome.problems == [] and outcome.failed == 3


def test_point_references_agree_with_closed_forms():
    """The stored pool matches the oracle, and the rank-2 reduction its closed form."""
    doc = json.loads(workloads.POINT_REFS.read_text())
    st = next(st for st in doc["strata"] if st["kind"] == "multi" and st["candidates"][0]["args"][3] == 2)
    point = st["candidates"][0]
    sigma, t, a, _ = point["args"]
    s = complex(sigma, t)
    closed = oracle.hurwitz(s - 1, a)[0] + (1 - a) * oracle.hurwitz(s, a)[0]
    assert abs(closed - complex(*point["ref"])) <= 1e-14 * point["scale"]


def test_tracer_counts_layers_and_restores_functions(tmp_path):
    originals = (zetacore.hurwitz_line, cli.mean_square_grid, barnes.multi_hurwitz_line)
    wl = TinyMeansquare(3, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        outputs = wl.collect(wl.run_round([]))
        tracer.recording = False
        stats = worker._round_values(tracer.take_stats())
    finally:
        tracer.uninstall()
    assert (zetacore.hurwitz_line, cli.mean_square_grid, barnes.multi_hurwitz_line) == originals
    assert wl.check([outputs]).correct
    # hurwitz, one multi batch, three Lerch shifts; hurwitz_line -> hurwitz_line_batch is one span
    assert stats[("zetacore.line", "calls")] == 5
    assert stats[("cli.meansquare", "calls")] == 3
    grids = [meanvalue.simpson_nodes(max(r["T_values"]), r["a"])[0] for r in wl.runs]
    assert stats[("meanvalue.grid", "nodes")] == sum(g.size for g in grids)
    elems = [g.size * workloads.shift_count(float(g[-1])) for g in grids]
    assert stats[("zetacore.line", "phase_elems")] == elems[0] + elems[1] + 3 * elems[2]
    # self times partition the time of the outermost spans
    self_total = sum(v for (_, k), v in stats.items() if k == "self_s")
    top_total = sum(t1 - t0 for _, t0, t1, parent in tracer.spans if parent == -1) / 1e9
    assert self_total == pytest.approx(top_total, rel=1e-9)


def test_timing_comes_from_the_faster_half_of_rounds():
    assert worker.faster_half([3.0, 1.0, 2.0, 4.0]) == [1, 2]
    assert worker.faster_half([3.0, 1.0, 2.0]) == [1, 2]
    assert worker.faster_half([5.0]) == [0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert worker.percentile(values, 0.99) == 198
    assert worker.percentile([5.0], 0.99) == 5.0


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "point_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_lerch_line_matches_the_scalar_reduction():
    ts = np.array([3.0, 40.0])
    got = workloads._lerch_line(0.5, 1.0, 1, 3, ts, workloads.shift_count(40.0))
    ref = [oracle.lerch(complex(0.5, t), 1.0, 1, 3) for t in ts]
    for v, (r, scale) in zip(got, ref):
        assert oracle.within(complex(v), r, scale)
