"""Command line front end.

Three subcommands cover the library surface:

* ``eval``       one value of the selected zeta function, printed as
                 ``re=<v> im=<v> err=<absolute err>`` with 17 significant digits;
* ``meansquare`` mean-square runs along a vertical line, written as CSV,
                 optionally compared against the asymptotic prediction;
* ``verify``     the named check suites, written as CSV + JSON verdicts.

Exit codes are part of the interface: 0 success, 1 a verification suite
failed, 2 domain error, 3 accuracy not certified, 4 resource budget
exceeded, 5 I/O failure.  Every file-producing run also writes a manifest
(command line, parameters, outputs, library version, wall time); outputs
other than the manifest's timing field are byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .barnes import (
    barnes_direct,  # unused here; benchmarks/tracing.py patches it at this name
    barnes_zeta_bounded,
    multi_hurwitz_bounded,
)
from .errors import AccuracyError, DomainError, ResourceBudgetError, ZetalineError
from .meanvalue import (
    _MIN_REPORT_SAMPLES,
    MeanSquareRequest,
    mean_square_grid,
    measurement_row,
    predict_lerch_mean_square,
    predict_multi_mean_square,
    render_manifest,
    residual_report,
    write_measurements_csv,
)
from .verify import SUITES, run_suites
from .zetacore import (
    DEFAULT_PRECISION,
    Precision,
    hurwitz_zeta_bounded,
    lerch_zeta_bounded,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_ACCURACY = 3
EXIT_RESOURCE = 4
EXIT_IO = 5


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"--lambda expects a rational like 2/3, got {text!r}") from exc


def _parse_floats(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated floats, got {text!r}") from exc


def _precision(ns) -> Precision:
    if ns.rel_tol is None:
        return DEFAULT_PRECISION
    if ns.kind == "barnes":
        raise DomainError("--rel-tol does not apply to --kind barnes")
    return Precision(rel_tol=ns.rel_tol)


def _kind_args(ns) -> dict:
    """The keyword --kind adds, checked: lam (default 1), r, w, or none for
    hurwitz; --lambda, --r or --w with any other kind is a domain error."""
    for flag, value, kind in (("--lambda", ns.lam, "lerch"), ("--r", ns.r, "multi"),
                              ("--w", ns.w, "barnes")):
        if value is not None and ns.kind != kind:
            raise DomainError(f"{flag} applies only to --kind {kind}, not --kind {ns.kind}")
    if ns.kind == "lerch":
        return {"lam": ns.lam if ns.lam is not None else Fraction(1)}
    if ns.kind == "multi":
        if ns.r is None:
            raise DomainError("--kind multi needs --r")
        return {"r": ns.r}
    if ns.kind == "barnes":
        if ns.w is None:
            raise DomainError("--kind barnes needs --w")
        return {"w": ns.w}
    return {}


# ---------------------------------------------------------------------------
# eval


def cmd_eval(ns, argv: Sequence[str]) -> int:
    prec = _precision(ns)
    s = complex(ns.sigma, ns.t)
    args = _kind_args(ns)
    if ns.kind == "hurwitz":
        val, err = hurwitz_zeta_bounded(s, ns.a, prec)
    elif ns.kind == "lerch":
        val, err = lerch_zeta_bounded(s, ns.a, args["lam"], prec)
    elif ns.kind == "multi":
        val, err = multi_hurwitz_bounded(s, ns.a, args["r"], prec)
    else:
        val, err = barnes_zeta_bounded(s, ns.a, args["w"])
    print(f"re={val.real:.17g} im={val.imag:.17g} err={err:.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# meansquare


def _build_request(ns, T: float) -> MeanSquareRequest:
    kind = {"multi": "multi_hurwitz"}.get(ns.kind, ns.kind)
    return MeanSquareRequest(kind=kind, sigma=ns.sigma, a=ns.a, T=T, **_kind_args(ns))


def _prediction_for(ns):
    if ns.predict in ("multi", "thm11"):
        if ns.kind not in ("hurwitz", "multi"):
            raise DomainError("--predict multi applies to --kind hurwitz or multi")
        return predict_multi_mean_square(_kind_args(ns).get("r", 1), ns.sigma, ns.a)
    if ns.predict == "lerch":
        if ns.kind != "lerch":
            raise DomainError("--predict lerch applies to --kind lerch")
        return predict_lerch_mean_square(ns.sigma, ns.a, _kind_args(ns)["lam"])
    return None


def cmd_meansquare(ns, argv: Sequence[str]) -> int:
    if ns.out is None:
        print("error: --out PATH is required", file=sys.stderr)
        return EXIT_IO
    t0 = time.perf_counter()
    T_values = list(ns.T_grid) if ns.T_grid else []
    if ns.T is not None:
        T_values.append(ns.T)
    if not T_values:
        raise DomainError("need --T or --T-grid")
    T_values = sorted(set(T_values))
    req = _build_request(ns, T_values[-1])
    prec = _precision(ns)
    pred = _prediction_for(ns)
    if pred is not None and len(T_values) < _MIN_REPORT_SAMPLES:
        # residual_report would reject the run only after the integration
        raise DomainError(f"--predict needs at least {_MIN_REPORT_SAMPLES} distinct "
                          f"T values, got {len(T_values)}")

    measured = mean_square_grid(req, T_values, prec)
    rows = [measurement_row(req, res) for _, res in measured]
    write_measurements_csv(ns.out, rows)
    outputs = [ns.out]
    warned = []
    for T_eff, res in measured:
        if res.accuracy_warning:
            warned.append(T_eff)
            print(f"warning: T={T_eff!r}: Richardson estimate {res.richardson_err:.3g} "
                  f"exceeds 1% of the mean square {res.value:.6g}", file=sys.stderr)

    if pred is not None:
        report = residual_report(measured, pred)
        report_path = os.path.splitext(ns.out)[0] + ".predict.json"
        payload = {
            "prediction": {
                "branch": pred.branch,
                "terms": [list(term) for term in pred.terms],
                "error_exponent": pred.error_exponent,
                "error_log": pred.error_log,
            },
            "report": report.to_json_dict(),
        }
        with open(report_path, "w", newline="") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        outputs.append(report_path)

    manifest_path = ns.out + ".manifest.json"
    inputs = {
        "kind": ns.kind,
        "sigma": ns.sigma,
        "a": ns.a,
        "T_values": T_values,
        "lambda": str(ns.lam) if ns.lam is not None else None,
        "r": ns.r,
        "w": list(ns.w) if ns.w is not None else None,
        "predict": ns.predict,
    }
    extra = {
        "accuracy_warnings": warned,
        "command_line": " ".join(argv),
        "outputs": outputs,
        "timing_wall_seconds": time.perf_counter() - t0,
    }
    with open(manifest_path, "w", newline="") as fh:
        fh.write(render_manifest(inputs, extra))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(ns, argv: Sequence[str]) -> int:
    if ns.out is None:
        print("error: --out DIR is required", file=sys.stderr)
        return EXIT_IO
    if ns.seed is not None and ns.suite not in ("mv", "all"):
        raise DomainError(f"--seed applies only to --suite mv or all, not --suite {ns.suite}")
    t0 = time.perf_counter()
    os.makedirs(ns.out, exist_ok=True)
    records = run_suites(ns.suite, ns.out, None if ns.seed is None else (ns.seed,))
    outputs: List[str] = []
    for rec in records:
        outputs.extend(rec.artifacts)
        status = "PASS" if rec.passed else "FAIL"
        print(
            f"{status} {rec.suite}: observed={rec.observed_constant:.6g} "
            f"threshold={rec.threshold:.6g}"
        )
    manifest_path = os.path.join(ns.out, f"verify_{ns.suite}.manifest.json")
    inputs = {"suite": ns.suite, "seed": ns.seed}
    extra = {
        "command_line": " ".join(argv),
        "outputs": sorted(outputs),
        "timing_wall_seconds": time.perf_counter() - t0,
    }
    with open(manifest_path, "w", newline="") as fh:
        fh.write(render_manifest(inputs, extra))
    return EXIT_OK if all(rec.passed for rec in records) else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaline",
        description="Zeta functions on vertical lines: values, mean squares, checks.",
    )
    parser.add_argument("--version", action="version", version=f"zetaline {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # the function, its line and its evaluation tolerance: eval and meansquare
        p.add_argument("--kind", required=True, choices=("hurwitz", "lerch", "multi", "barnes"))
        p.add_argument("--sigma", type=float, required=True)
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None,
                       metavar="P/Q", help="twist parameter for --kind lerch")
        p.add_argument("--r", type=int, default=None, help="rank for --kind multi")
        p.add_argument("--w", type=_parse_floats, default=None,
                       metavar="F,F,...", help="weights for --kind barnes")
        p.add_argument("--rel-tol", type=float, default=None,
                       help="target relative tolerance for evaluations")

    p_eval = sub.add_parser("eval", help="evaluate one zeta value")
    common(p_eval)
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_ms = sub.add_parser("meansquare", help="mean square along a vertical line")
    common(p_ms)
    p_ms.add_argument("--T", type=float, default=None)
    p_ms.add_argument("--T-grid", dest="T_grid", type=_parse_floats, default=None,
                      metavar="F,F,...")
    p_ms.add_argument("--out", default=None, help="CSV output path")
    p_ms.add_argument("--predict", choices=("multi", "thm11", "lerch", "none"),
                      default="none",
                      help="compare against the mean-square prediction "
                           "(multi and thm11 are synonyms)")
    p_ms.set_defaults(func=cmd_meansquare)

    p_v = sub.add_parser("verify", help="run check suites")
    p_v.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p_v.add_argument("--seed", type=int, default=None,
                     help="single RNG seed for --suite mv or all (default: seeds 0..19)")
    p_v.add_argument("--out", default=None, help="directory for verdict artifacts")
    p_v.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return int(exc.code or 0)
    try:
        return ns.func(ns, argv)
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except ZetalineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> int:
    return main()
