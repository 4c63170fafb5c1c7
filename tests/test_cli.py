"""Command line interface: output format, exit codes, artifacts."""

import argparse
import filecmp
import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import zetaline.cli
import zetaline.meanvalue
import zetaline.verify
from zetaline.barnes import barnes_truncated, barnes_zeta_bounded, multi_hurwitz_bounded
from zetaline.cli import build_parser, main
from zetaline.verify import oscillatory_suite
from zetaline.zetacore import lerch_zeta_bounded, riemann_zeta

PI2_6 = 1.6449340668482264


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_hurwitz_basel(capsys):
    code, out, _ = run_cli(capsys, "eval", "--kind", "hurwitz",
                           "--sigma", "2", "--t", "0", "--a", "1")
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["re"]) == pytest.approx(PI2_6, rel=1e-14)
    assert fields["im"] == "0"
    assert float(fields["err"]) < 1e-10


def test_eval_rank_one_collapse(capsys):
    args = ["--sigma", "2", "--t", "0", "--a", "1"]
    _, out_h, _ = run_cli(capsys, "eval", "--kind", "hurwitz", *args)
    _, out_m, _ = run_cli(capsys, "eval", "--kind", "multi", "--r", "1", *args)
    assert out_m == out_h


def test_eval_lerch_matches_library(capsys):
    code, out, _ = run_cli(capsys, "eval", "--kind", "lerch", "--sigma", "1.5",
                           "--t", "2", "--a", "0.5", "--lambda", "1/3")
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    val, err = lerch_zeta_bounded(complex(1.5, 2.0), 0.5, __import__("fractions").Fraction(1, 3))
    assert float(fields["re"]) == pytest.approx(val.real, rel=1e-15)
    assert float(fields["im"]) == pytest.approx(val.imag, rel=1e-15)
    assert float(fields["err"]) == pytest.approx(err, rel=1e-15)


def test_eval_multi_prints_library_bound(capsys):
    for sigma, t, r in (("2.5", "3", 2), ("-3", "25", 3), ("0.5", "-40", 3)):
        code, out, _ = run_cli(capsys, "eval", "--kind", "multi", "--r", str(r),
                               "--sigma", sigma, "--t", t, "--a", "0.7")
        assert code == 0
        val, err = multi_hurwitz_bounded(complex(float(sigma), float(t)), 0.7, r)
        assert out == f"re={val.real:.17g} im={val.imag:.17g} err={err:.17g}\n"


def test_eval_barnes_outside_strip_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "eval", "--kind", "barnes", "--w", "1,1",
                             "--sigma", "1.0", "--t", "0", "--a", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_eval_barnes_takes_the_strip_formula_up_to_r_plus_one_tenth(capsys):
    # the direct sum needs sigma > r + 0.1; r < sigma <= r + 0.1 is strip territory
    w = (1.0, 1.4142135623730951)
    code, out, _ = run_cli(capsys, "eval", "--kind", "barnes", "--w", "1,1.4142135623730951",
                           "--sigma", "2.05", "--t", "10", "--a", "1")
    assert code == 0
    val, err = barnes_truncated(complex(2.05, 10.0), 1.0, w, 10.0)
    assert out == f"re={val.real:.17g} im={val.imag:.17g} err={err:.17g}\n"


def test_eval_barnes_at_rank_three_prints_the_library_value_and_err(capsys):
    # (1, 2, 3) is commensurate: barnes_direct takes the Hurwitz combination
    code, out, _ = run_cli(capsys, "eval", "--kind", "barnes", "--w", "1,2,3",
                           "--sigma", "3.5", "--t", "10", "--a", "1")
    assert code == 0
    val, err = barnes_zeta_bounded(complex(3.5, 10.0), 1.0, (1.0, 2.0, 3.0))
    assert out == f"re={val.real:.17g} im={val.imag:.17g} err={err:.17g}\n"


@pytest.mark.parametrize("w, sigma", [("1,2", "2.5"), ("1,1.4142135623730951", "1.5")])
def test_barnes_rejects_rel_tol(capsys, tmp_path, w, sigma):
    # the Barnes evaluators take no tolerance, so the flag would be accepted and ignored
    common = ("--kind", "barnes", "--w", w, "--sigma", sigma, "--a", "1", "--rel-tol", "1e-3")
    code, out, err = run_cli(capsys, "eval", *common, "--t", "3")
    assert (code, out) == (2, "")
    assert err == "error: --rel-tol does not apply to --kind barnes\n"
    code, out, _ = run_cli(capsys, "meansquare", *common, "--T", "50",
                           "--out", str(tmp_path / "ms.csv"))
    assert (code, out) == (2, "")
    assert os.listdir(tmp_path) == []


def test_eval_missing_kind_specific_flags(capsys):
    code, _, _ = run_cli(capsys, "eval", "--kind", "multi",
                         "--sigma", "2", "--t", "0", "--a", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "eval", "--kind", "barnes",
                         "--sigma", "2.5", "--t", "0", "--a", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "eval", "--kind", "lerch", "--lambda", "x/y",
                         "--sigma", "2", "--t", "0", "--a", "1")
    assert code == 2


@pytest.mark.parametrize("command, args", [
    ("eval", ["--sigma", "1.5", "--t", "3", "--a", "0.7"]),
    ("meansquare", ["--sigma", "1.5", "--a", "0.7", "--T", "20"]),
], ids=["eval", "meansquare"])
def test_kind_specific_flags(capsys, tmp_path, command, args):
    out = str(tmp_path / "ms.csv")
    base = [command, *args] + (["--out", out] if command == "meansquare" else [])
    for kind, message in (("multi", "--kind multi needs --r"),
                          ("barnes", "--kind barnes needs --w")):
        assert run_cli(capsys, *base, "--kind", kind) == (2, "", f"error: {message}\n")
        assert not os.path.exists(out)

    def result(kind):
        code, stdout, _ = run_cli(capsys, *base, "--kind", kind)
        assert code == 0
        if command == "eval":
            return stdout
        header, *rows = open(out).read().splitlines()
        return [dict(zip(header.split(","), row.split(",")))["value"] for row in rows]

    # --lambda defaults to 1, the untwisted series
    assert result("hurwitz") == result("lerch")
    if command == "meansquare":
        assert json.load(open(out + ".manifest.json"))["inputs"]["lambda"] is None


def test_rank_flag_needs_kind_multi(capsys, tmp_path):
    # a rank-3 prediction must not be compared against a rank-1 measurement
    out = str(tmp_path / "ms.csv")
    code, stdout, err = run_cli(capsys, "meansquare", "--kind", "hurwitz", "--r", "3",
                                "--sigma", "2.5", "--a", "1", "--T-grid", "50,100,200,400",
                                "--predict", "multi", "--out", out)
    assert (code, stdout) == (2, "")
    assert err == "error: --r applies only to --kind multi, not --kind hurwitz\n"
    assert os.listdir(tmp_path) == []
    code, stdout, err = run_cli(capsys, "eval", "--kind", "hurwitz", "--r", "3",
                                "--sigma", "2", "--t", "0", "--a", "1")
    assert (code, stdout) == (2, "")
    assert err == "error: --r applies only to --kind multi, not --kind hurwitz\n"


def test_twist_and_weight_flags_need_their_kind(capsys, tmp_path):
    # neither flag changes a Hurwitz value, so accepting them would misreport the run
    code, stdout, err = run_cli(capsys, "eval", "--kind", "hurwitz", "--lambda", "1/3",
                                "--w", "1,2", "--sigma", "2", "--t", "0", "--a", "1")
    assert (code, stdout) == (2, "")
    assert err == "error: --lambda applies only to --kind lerch, not --kind hurwitz\n"
    code, stdout, err = run_cli(capsys, "meansquare", "--kind", "hurwitz", "--lambda", "2/7",
                                "--w", "3", "--sigma", "2", "--a", "1", "--T", "50",
                                "--out", str(tmp_path / "ms.csv"))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: --lambda applies only to --kind lerch")
    code, _, err = run_cli(capsys, "eval", "--kind", "multi", "--r", "2", "--w", "1,2",
                           "--sigma", "3", "--t", "0", "--a", "1")
    assert code == 2
    assert err == "error: --w applies only to --kind barnes, not --kind multi\n"
    assert os.listdir(tmp_path) == []


def test_meansquare_predict_needs_four_T_before_integrating(capsys, tmp_path):
    out = str(tmp_path / "ms.csv")
    code, stdout, err = run_cli(capsys, "meansquare", "--kind", "hurwitz",
                                "--sigma", "0.5", "--a", "1", "--T", "300",
                                "--predict", "multi", "--out", out)
    assert (code, stdout) == (2, "")
    assert err == "error: --predict needs at least 4 distinct T values, got 1\n"
    assert os.listdir(tmp_path) == []


def test_meansquare_absolute_region(capsys, tmp_path):
    out = str(tmp_path / "ms.csv")
    code, _, _ = run_cli(capsys, "meansquare", "--kind", "hurwitz",
                         "--sigma", "3", "--a", "1", "--T", "200", "--out", out)
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "T,sigma,a,kind,params,value,step,richardson_err"
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    z6 = riemann_zeta(6).real
    expected = z6 * (float(row["T"]) - 1.0)
    assert abs(float(row["value"]) - expected) <= 0.01 * expected
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["inputs"]["kind"] == "hurwitz"
    assert manifest["outputs"] == [out]
    assert "timing_wall_seconds" in manifest
    for path in manifest["outputs"]:
        assert os.path.exists(path)


def test_meansquare_predict_pipeline(capsys, tmp_path):
    out = str(tmp_path / "crit.csv")
    code, _, _ = run_cli(capsys, "meansquare", "--kind", "hurwitz",
                         "--sigma", "0.5", "--a", "1",
                         "--T-grid", "250,500,1000,2000",
                         "--predict", "thm11", "--out", out)
    assert code == 0
    blob = json.load(open(str(tmp_path / "crit.predict.json")))
    assert blob["report"]["passed"] is True
    assert len(blob["report"]["ratios"]) == 4
    assert blob["prediction"]["branch"] == "critical"
    # the prediction flag token and its synonym give the same analysis
    out2 = str(tmp_path / "crit2.csv")
    run_cli(capsys, "meansquare", "--kind", "hurwitz", "--sigma", "0.5",
            "--a", "1", "--T-grid", "250,500,1000,2000",
            "--predict", "multi", "--out", out2)
    assert (tmp_path / "crit2.predict.json").read_bytes() == \
        (tmp_path / "crit.predict.json").read_bytes()


@pytest.mark.parametrize("grid", ["-50,1,100,200", "100,nan,200"])
def test_meansquare_rejects_every_T_below_two(capsys, tmp_path, grid):
    out = str(tmp_path / "ms.csv")
    code, stdout, err = run_cli(capsys, "meansquare", "--kind", "hurwitz", "--sigma", "0.5",
                                "--a", "1", f"--T-grid={grid}", "--out", out)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


NON_FINITE = [
    ("meansquare", "hurwitz", "--sigma nan --a 1"),
    ("meansquare", "hurwitz", "--sigma 0.5 --a nan"),
    ("meansquare", "barnes --w 1,2", "--sigma 1.5 --a nan"),
    ("meansquare", "multi --r 2", "--sigma 1.5 --a nan"),
    ("meansquare", "lerch --lambda 1/3", "--sigma 0.5 --a nan"),
    ("meansquare", "barnes --w inf,2", "--sigma 1.5 --a 1"),
    *[("eval", kind, "--sigma 3.5 --a 1 --t nan")
      for kind in ("hurwitz", "lerch", "multi --r 2", "barnes --w 1,2")],
    ("eval", "barnes --w nan,1", "--sigma 3.5 --a 1 --t 5"),
    ("eval", "barnes --w inf,1", "--sigma 3.5 --a 1 --t 5"),
    ("eval", "barnes --w 1,2", "--sigma 1.5 --a nan --t 5"),
    ("eval", "barnes --w 1,2", "--sigma inf --a 1 --t 5"),
    ("eval", "barnes --w 1,2", "--sigma 3.5 --a 1 --t inf"),
    ("eval", "barnes --w 1,2", "--sigma 1.5 --a 1 --t inf"),
]


@pytest.mark.parametrize("command, kind, args", NON_FINITE)
def test_non_finite_arguments_are_domain_errors(capsys, tmp_path, command, kind, args):
    extra = ["--T", "100", "--out", str(tmp_path / "ms.csv")] if command == "meansquare" else []
    code, stdout, err = run_cli(capsys, command, "--kind", *kind.split(), *args.split(), *extra)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_meansquare_missing_out_is_io_error(capsys):
    code, _, err = run_cli(capsys, "meansquare", "--kind", "hurwitz",
                           "--sigma", "3", "--a", "1", "--T", "100")
    assert code == 5
    assert "--out" in err


def test_meansquare_rerun_byte_identical(capsys, tmp_path):
    args = ["meansquare", "--kind", "hurwitz", "--sigma", "0.5", "--a", "1",
            "--T-grid", "100,200"]
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    run_cli(capsys, *args, "--out", out1)
    run_cli(capsys, *args, "--out", out2)
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_meansquare_reports_accuracy_warnings(capsys, tmp_path, monkeypatch):
    args = ["meansquare", "--kind", "hurwitz", "--sigma", "0.5", "--a", "1",
            "--T-grid", "50,100"]
    out = str(tmp_path / "plain.csv")
    _, _, err = run_cli(capsys, *args, "--out", out)
    assert json.load(open(out + ".manifest.json"))["accuracy_warnings"] == []
    assert err == ""
    # a bump narrower than the Simpson step makes Richardson warn at every T
    monkeypatch.setattr(zetaline.meanvalue, "_line_values",
                        lambda req, ts, prec: np.exp(-((ts - 37.3) / 0.03) ** 2))
    out = str(tmp_path / "rough.csv")
    code, _, err = run_cli(capsys, *args, "--out", out)
    assert code == 0
    warned = json.load(open(out + ".manifest.json"))["accuracy_warnings"]
    csv_T = [float(line.split(",")[0]) for line in open(out).read().splitlines()[1:]]
    assert warned == csv_T and len(warned) == 2
    lines = err.splitlines()
    assert len(lines) == len(warned)
    assert all(line.startswith(f"warning: T={T!r}: ") for line, T in zip(lines, warned))


def test_verify_coefficients_suite(capsys, tmp_path):
    out = str(tmp_path / "v")
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "coefficients",
                              "--out", out)
    assert code == 0
    assert stdout.startswith("PASS coefficients")
    manifest = json.load(open(os.path.join(out, "verify_coefficients.manifest.json")))
    assert manifest["inputs"]["suite"] == "coefficients"
    assert len(manifest["outputs"]) == 2
    for name in manifest["outputs"]:
        assert os.path.exists(os.path.join(out, name))


def test_verify_funceq_suite(capsys, tmp_path):
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "funceq",
                              "--out", str(tmp_path))
    assert code == 0
    assert stdout.startswith("PASS funceq")


def test_verify_mv_seed_deterministic(capsys, tmp_path):
    d1, d2 = str(tmp_path / "1"), str(tmp_path / "2")
    code, _, _ = run_cli(capsys, "verify", "--suite", "mv", "--seed", "7",
                         "--out", d1)
    assert code == 0
    run_cli(capsys, "verify", "--suite", "mv", "--seed", "7", "--out", d2)
    names = sorted(n for n in os.listdir(d1) if not n.endswith("manifest.json"))
    assert names
    for name in names:
        b1 = open(os.path.join(d1, name), "rb").read()
        b2 = open(os.path.join(d2, name), "rb").read()
        assert b1 == b2


def test_verify_envelopes_writes_only_listed_files(capsys, tmp_path, monkeypatch):
    # the file list does not depend on the sweep length; shorten the sweeps
    t_nodes = zetaline.verify._t_nodes
    monkeypatch.setattr(zetaline.verify, "_t_nodes",
                        lambda t_max: t_nodes(min(t_max, 40.0)))
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "envelopes",
                              "--out", str(tmp_path))
    assert code == 0
    assert len(stdout.splitlines()) == 5
    manifest = "verify_envelopes.manifest.json"
    listed = json.load(open(tmp_path / manifest))["outputs"]
    assert len(listed) == 10
    assert sorted(os.listdir(tmp_path)) == sorted(listed + [manifest])


def test_verify_failing_suite_exits_one(capsys, tmp_path, monkeypatch):
    # at a=1 the oscillatory integral grows like T^(sigma/2), so the
    # boundedness check genuinely fails; the CLI must say so
    monkeypatch.setattr(zetaline.verify, "oscillatory_suite",
                        functools.partial(oscillatory_suite, a=1.0))
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "oscillatory",
                              "--out", str(tmp_path))
    assert code == 1
    assert stdout.startswith("FAIL oscillatory_integral")


def test_verify_seed_reaches_mv_under_all(capsys, tmp_path, monkeypatch):
    t_nodes = zetaline.verify._t_nodes
    monkeypatch.setattr(zetaline.verify, "_t_nodes",
                        lambda t_max: t_nodes(min(t_max, 40.0)))
    d_all, d_mv = tmp_path / "all", tmp_path / "mv"
    assert run_cli(capsys, "verify", "--suite", "all", "--seed", "3", "--out", str(d_all))[0] == 0
    assert run_cli(capsys, "verify", "--suite", "mv", "--seed", "3", "--out", str(d_mv))[0] == 0
    mv_names = sorted(n for n in os.listdir(d_mv) if n.startswith("mv_inequality_"))
    assert len(mv_names) == 2
    match, mismatch, errors = filecmp.cmpfiles(d_all, d_mv, mv_names, shallow=False)
    assert (match, mismatch, errors) == (mv_names, [], [])


def test_verify_seed_on_a_seedless_suite_is_domain_error(capsys, tmp_path):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "verify", "--suite", "envelopes", "--seed", "3",
                                "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: --seed applies only to --suite mv or all, not --suite envelopes\n"
    assert not out.exists()


def test_verify_rejects_rel_tol(capsys, tmp_path):
    # no suite takes a tolerance, so the flag would be recorded and ignored
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "funceq", "--rel-tol", "1e-3",
                              "--out", str(tmp_path))
    assert (code, stdout) == (2, "")
    assert os.listdir(tmp_path) == []


def test_verify_suite_choices_are_the_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == (*zetaline.verify.SUITES, "all")


def test_verify_missing_out_is_io_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "coefficients")
    assert code == 5
    assert "--out" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zetaline", "eval", "--kind", "hurwitz",
         "--sigma", "2", "--t", "0", "--a", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("re=1.6449340668482264 im=0 err=")
