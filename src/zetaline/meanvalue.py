"""Mean-square integrals on vertical lines and their predicted main terms.

``mean_square`` integrates ``|f(sigma+it)|^2`` over ``t in [1, T]`` with
composite Simpson quadrature on a fixed global grid ``t = 1 + k*h``.  The
step is snapped to a dyadic rational (``floor(h_target*2^20)/2^20``) so that
every node time, and the length ``n*h`` itself, is an exact float: partial
runs compose deterministically and the constant-integrand identity
``integral == T_eff - 1`` holds bit-for-bit.  The interval count is kept
divisible by four so the same grid supports the half-resolution Simpson rule
behind the Richardson error estimate ``|I(h) - I(2h)|/15``.

Predictions implement the desk-scale main terms of the mean-square
asymptotics: the rank-r equal-weight expansion in shifted Hurwitz values,
its critical-line ``T log T`` form with the generalized-Euler linear
coefficient, and the twisted (Lerch) two-term strip forms.  A
``residual_report`` fits ``|measured - predicted| ~ K * T^e (log T)^q``
and applies the trend gates used by the acceptance checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .barnes import (
    barnes_truncated_line,
    build_lattice_profile,  # unused here; benchmarks/tracing.py patches it at this name
    multi_hurwitz_line,
)
from .combinatorics import MAX_RANK, reduction_coefficients
from .errors import DomainError
from .zetacore import (
    DEFAULT_PRECISION,
    Precision,
    _hurwitz_combination,
    gen_euler_constant,
    hurwitz_line,
    hurwitz_line_batch,
    lerch_line,
)

__all__ = [
    "MeanSquareRequest",
    "MeanSquareResult",
    "Prediction",
    "ResidualReport",
    "grid_step",
    "simpson_nodes",
    "mean_square",
    "mean_square_grid",
    "mixed_mean",
    "predict_multi_mean_square",
    "predict_lerch_mean_square",
    "residual_report",
    "measurement_row",
    "write_measurements_csv",
    "render_manifest",
]

_T_MAX_DEFAULT = {"hurwitz": 5000.0, "lerch": 5000.0, "multi_hurwitz": 5000.0, "barnes": 500.0}

_STEP_SNAP = 2 ** 20

_MIN_REPORT_SAMPLES = 4  # fewest T values a residual trend is fitted from

LambdaLike = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# quadrature grid


def grid_step(T: float, a: float) -> float:
    """Dyadic-snapped Simpson step: floor(min(0.05, pi/(8 log(T+a+2)))*2^20)/2^20."""
    target = min(0.05, math.pi / (8.0 * math.log(T + a + 2.0)))
    h = math.floor(target * _STEP_SNAP) / _STEP_SNAP
    if h <= 0:
        raise DomainError(f"step underflow for T={T}")
    return h


def _simpson_grid(T_values: Sequence[float], a: float) -> Tuple[np.ndarray, float, List[int]]:
    """(nodes, h, ks): the global grid t = 1 + k h up to the largest T, and each
    T's interval count k, the nearest multiple of four (at least 20, since T >= 2
    and h <= 0.05), so the largest T's k is the last node.  Every T is checked
    before anything is built."""
    for T in T_values:
        if not T >= 2.0:  # NaN fails too
            raise DomainError(f"mean-square integrals need T >= 2, got T={T}")
    h = grid_step(max(T_values), a)
    ks = [int(round((T - 1.0) / (4.0 * h))) * 4 for T in T_values]
    return 1.0 + h * np.arange(max(ks) + 1, dtype=float), h, ks


def simpson_nodes(T: float, a: float) -> Tuple[np.ndarray, float, float]:
    """Global grid t = 1 + k h covering [1, T]; returns (nodes, h, T_eff)."""
    ts, h, (k,) = _simpson_grid([T], a)
    return ts, h, 1.0 + h * k


def _simpson_prefix(values: np.ndarray, h: float, k: int) -> float:
    """Composite Simpson over the first k intervals (k divisible by 2)."""
    f = values[: k + 1]
    s = f[0] + f[k] + 4.0 * float(np.sum(f[1:k:2])) + 2.0 * float(np.sum(f[2:k:2]))
    return h * (s / 3.0)


def _prefix_integrals(
    values: np.ndarray, h: float, ks: Sequence[int]
) -> List[Tuple[float, float, float]]:
    """(T_eff, Simpson integral over [1, T_eff], Richardson estimate) per
    interval count k of `_simpson_grid`, T_eff = 1 + k h."""
    out: List[Tuple[float, float, float]] = []
    for k in ks:
        full = _simpson_prefix(values, h, k)
        half = _simpson_prefix(values[::2], 2.0 * h, k // 2)
        out.append((1.0 + h * k, full, abs(full - half) / 15.0))
    return out


# ---------------------------------------------------------------------------
# request/result records


@dataclass(frozen=True)
class MeanSquareRequest:
    """Parameters of one mean-square run.

    kind: one of hurwitz, lerch, multi_hurwitz, barnes.
    lam applies to lerch, r to multi_hurwitz, w to barnes, each to no other kind.
    """

    kind: str
    sigma: float
    a: float
    T: float
    lam: Optional[LambdaLike] = None
    r: Optional[int] = None
    w: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in _T_MAX_DEFAULT:
            raise DomainError(
                f"kind must be one of {sorted(_T_MAX_DEFAULT)}, got {self.kind!r}"
            )
        if not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be finite, got {self.sigma}")
        if not 0.0 < self.a < math.inf:
            raise DomainError(f"a must be positive and finite, got {self.a}")
        for field, kind in (("lam", "lerch"), ("r", "multi_hurwitz"), ("w", "barnes")):
            if getattr(self, field) is not None and self.kind != kind:
                raise DomainError(f"{field} applies only to kind={kind}, not kind={self.kind}")
        if self.kind == "lerch" and self.lam is None:
            raise DomainError("kind=lerch requires lam")
        if self.kind == "multi_hurwitz" and not self.r:
            raise DomainError("kind=multi_hurwitz requires r")
        if self.kind == "barnes" and not self.w:
            raise DomainError("kind=barnes requires w")
        cap = _T_MAX_DEFAULT[self.kind]
        if not (2.0 <= self.T <= cap):
            raise DomainError(
                f"T must lie in [2, {cap}] for kind={self.kind}, got {self.T}"
            )

    def params_text(self) -> str:
        """Compact deterministic parameter rendering for CSV rows."""
        bits: List[str] = []
        if self.lam is not None:
            bits.append(f"lam={self.lam}")
        if self.r is not None:
            bits.append(f"r={self.r}")
        if self.w is not None:
            bits.append("w=" + ",".join(repr(float(x)) for x in self.w))
        return ";".join(bits)


@dataclass(frozen=True)
class MeanSquareResult:
    value: float
    step: float
    richardson_err: float
    samples: int
    T_effective: float
    accuracy_warning: bool = False


# ---------------------------------------------------------------------------
# line evaluation per kind


def _line_values(req: MeanSquareRequest, ts: np.ndarray, prec: Precision) -> np.ndarray:
    if req.kind == "hurwitz":
        return hurwitz_line(req.sigma, req.a, ts, prec)
    if req.kind == "lerch":
        return lerch_line(req.sigma, req.a, req.lam, ts, prec)
    if req.kind == "multi_hurwitz":
        return multi_hurwitz_line(req.sigma, req.a, req.r, ts, prec)
    if req.kind == "barnes":
        vals, _ = barnes_truncated_line(req.sigma, req.a, req.w, ts)
        return vals
    raise DomainError(f"unknown kind {req.kind!r}")


def mean_square(req: MeanSquareRequest, prec: Precision = DEFAULT_PRECISION) -> MeanSquareResult:
    """integral_1^T |f(sigma+it)|^2 dt: the single-T case of `mean_square_grid`."""
    return mean_square_grid(req, [req.T], prec)[0][1]


def mean_square_grid(
    req: MeanSquareRequest,
    T_values: Sequence[float],
    prec: Precision = DEFAULT_PRECISION,
) -> List[Tuple[float, MeanSquareResult]]:
    """Mean squares at several T sharing one evaluation up to max(T_values).

    `_simpson_grid` checks and snaps every T first; `_prefix_integrals` integrates.
    """
    if not T_values:
        raise DomainError("T_values must be nonempty")
    t_sorted = sorted(float(T) for T in T_values)
    top = replace(req, T=t_sorted[-1])
    ts, h, ks = _simpson_grid(t_sorted, top.a)
    fvals = np.abs(_line_values(top, ts, prec)) ** 2
    out: List[Tuple[float, MeanSquareResult]] = []
    for t_eff, value, rich in _prefix_integrals(fvals, h, ks):
        warn = rich > 0.01 * abs(value) if value != 0.0 else rich > 0.0
        out.append((t_eff, MeanSquareResult(
            value=value, step=h, richardson_err=rich,
            samples=round((t_eff - 1.0) / h) + 1,  # exact: h is dyadic
            T_effective=t_eff, accuracy_warning=bool(warn),
        )))
    return out


def mixed_mean(
    k: int,
    l: int,
    sigma: float,
    a: float,
    T: float,
    prec: Precision = DEFAULT_PRECISION,
) -> complex:
    """integral_1^T zeta_H(s-k, a) conj(zeta_H(s-l, a)) dt, s = sigma + it.

    The rank is inferred as r = floor(sigma) + 1; requires r-1 < sigma < r,
    0 < a <= 1, 0 <= k, l <= r-1 and (k, l) != (r-1, r-1).
    """
    if not (0.0 < a <= 1.0):
        raise DomainError("mixed_mean needs 0 < a <= 1")
    if sigma == math.floor(sigma):
        raise DomainError("mixed_mean needs non-integer sigma (strict branch interior)")
    r = int(math.floor(sigma)) + 1
    if not (0 <= k <= r - 1 and 0 <= l <= r - 1):
        raise DomainError(f"mixed_mean needs 0 <= k, l <= r-1 = {r - 1}")
    if k == r - 1 and l == r - 1:
        raise DomainError(
            "mixed_mean excludes the top diagonal pair (k, l) = (r-1, r-1)"
        )
    ts, h, ks = _simpson_grid([T], a)
    if k == l:
        prod = np.abs(hurwitz_line(sigma - k, a, ts, prec)) ** 2
        return complex(_prefix_integrals(prod, h, ks)[0][1], 0.0)
    rows = hurwitz_line_batch([sigma - k, sigma - l], a, ts, prec)
    prod = rows[0] * np.conj(rows[1])
    re, im = (_prefix_integrals(part.copy(), h, ks)[0][1] for part in (prod.real, prod.imag))
    return complex(re, im)


# ---------------------------------------------------------------------------
# predictions


@dataclass(frozen=True)
class Prediction:
    """Main-term model sum_i coef_i T^power_i (log T)^logpow_i with an error envelope."""

    terms: Tuple[Tuple[float, float, int], ...]
    error_exponent: float
    error_log: int
    branch: str

    def value_at(self, T: float) -> float:
        lt = math.log(T)
        return sum(c * T ** p * lt ** q for (c, p, q) in self.terms)


def _hz_real(arg: float, a: float) -> float:
    return _hurwitz_combination("hurwitz_zeta", complex(arg, 0.0), 1, [(a, [(0, 1.0)])],
                                DEFAULT_PRECISION)[0].real


def _branch_model(
    r: int, sigma: float, lead: float, lin: float, c_pow: Callable[[float], float]
) -> Prediction:
    """The three branches about the critical line sigma = r - 1/2.

    On it the model is lead T log T + lin T; off it, lin T and
    c_pow(power) T^power with power = 2r - 2 sigma, the larger term first.
    """
    if sigma == r - 0.5:
        return Prediction(
            terms=((lead, 1.0, 1), (lin, 1.0, 0)),
            error_exponent=0.5,
            error_log=1,
            branch="critical",
        )
    power = 2.0 * r - 2.0 * sigma
    linear, pow_term = (lin, 1.0, 0), (c_pow(power), power, 0)
    above = sigma > r - 0.5
    return Prediction(
        terms=(linear, pow_term) if above else (pow_term, linear),
        error_exponent=r - sigma,
        error_log=1,
        branch="linear_dominant" if above else "power_dominant",
    )


def predict_multi_mean_square(r: int, sigma: float, a: float) -> Prediction:
    """Two-term mean-square main model for the rank-r equal-weight function.

    Branches by sigma within (r-1, r): above the critical line the linear
    term dominates; at sigma = r - 1/2 the model is T log T plus a linear
    term with the generalized-Euler constant; below, the T^(2r-2 sigma)
    term dominates.  Every branch keeps both displayed terms.
    """
    if not (1 <= r <= MAX_RANK):
        raise DomainError(f"rank must lie in 1..{MAX_RANK}, got {r}")
    if not a > 0:
        raise DomainError("a must be positive")
    if not (r - 1 < sigma < r):
        raise DomainError(
            f"prediction needs sigma strictly inside ({r - 1}, {r}), got {sigma}"
        )
    p = [float(c) for c in reduction_coefficients(r, a).coeffs]
    fact2 = float(math.factorial(r - 1)) ** 2
    critical = sigma == r - 0.5
    lin = 0.0
    for k in range(r):
        for l in range(r):
            if critical and k == l == r - 1:
                continue  # zeta_H(1, a): its pole is the T log T term
            if p[k] == 0.0 or p[l] == 0.0:
                continue
            lin += p[k] * p[l] * _hz_real(2 * sigma - k - l, a)
    if critical:
        lin += (
            gen_euler_constant(a)
            + gen_euler_constant(1.0)
            - 1.0
            - math.log(2.0 * math.pi)
        ) / fact2

    def c_pow(power: float) -> float:
        scale = (2.0 * math.pi) ** (2 * sigma - 2 * r + 1)
        return scale * _hz_real(power, 1.0) / (power * fact2)

    return _branch_model(r, sigma, 1.0 / fact2, lin, c_pow)


def predict_lerch_mean_square(sigma: float, a: float, lam: LambdaLike) -> Prediction:
    """Two-term strip model for the twisted series, 0 < sigma < 1.

    The linear coefficient is always zeta_H(2 sigma, a); the companion
    T^(2-2 sigma) coefficient sees lam above the half line and 1 - lam
    below (with the untwisted case collapsing to a = 1).  At sigma = 1/2
    the T log T critical form with gamma(a) + gamma(lam) applies.
    """
    if not a > 0:
        raise DomainError("a must be positive")
    lam_f = float(lam)
    if not (0.0 < lam_f <= 1.0):
        raise DomainError(f"lam must lie in (0, 1], got {lam}")
    if not (0.0 < sigma < 1.0):
        raise DomainError(f"prediction needs 0 < sigma < 1, got {sigma}")
    if sigma == 0.5:
        lin = (
            gen_euler_constant(a)
            + gen_euler_constant(lam_f)
            - 1.0
            - math.log(2.0 * math.pi)
        )
    else:
        lin = _hz_real(2.0 * sigma, a)
    comp = lam_f if sigma > 0.5 or lam_f == 1.0 else 1.0 - lam_f

    def c_pow(power: float) -> float:
        return (2.0 * math.pi) ** (2 * sigma - 1) * _hz_real(power, comp) / power

    return _branch_model(1, sigma, 1.0, lin, c_pow)


# ---------------------------------------------------------------------------
# residual analysis


@dataclass(frozen=True)
class ResidualReport:
    T_values: Tuple[float, ...]
    ratios: Tuple[float, ...]
    residuals: Tuple[float, ...]
    fitted_exponent: Optional[float]
    fitted_constant: Optional[float]
    error_exponent: float
    error_log: int
    monotone_ok: bool
    exponent_ok: bool
    passed: bool

    def to_json_dict(self) -> Dict:
        return {
            "T_values": list(self.T_values),
            "ratios": list(self.ratios),
            "residuals": list(self.residuals),
            "fitted_exponent": self.fitted_exponent,
            "fitted_constant": self.fitted_constant,
            "monotone_ok": self.monotone_ok,
            "exponent_ok": self.exponent_ok,
            "passed": self.passed,
        }


def residual_report(
    measured: Sequence[Tuple[float, MeanSquareResult]],
    pred: Prediction,
) -> ResidualReport:
    """Ratio trend and log-log residual fit against the error envelope.

    Pass requires ratios to approach 1 monotonically within noise
    (each |ratio - 1| at most 1.25x the previous plus 0.01 absolute) and the
    fitted exponent of |measured - predicted| / (log T)^error_log to stay
    at or below error_exponent + 0.15.
    """
    if len(measured) < _MIN_REPORT_SAMPLES:
        raise DomainError(f"residual_report needs at least {_MIN_REPORT_SAMPLES} T samples")
    ts = [float(T) for T, _ in measured]
    if sorted(set(ts)) != ts:
        raise DomainError("residual_report needs strictly increasing distinct T")
    vals = [res.value for _, res in measured]
    preds = [pred.value_at(T) for T in ts]
    ratios = tuple(v / p for v, p in zip(vals, preds))
    residuals = tuple(v - p for v, p in zip(vals, preds))

    gaps = [abs(rr - 1.0) for rr in ratios]
    monotone_ok = all(
        gaps[i + 1] <= 1.25 * gaps[i] + 0.01 for i in range(len(gaps) - 1)
    )

    # least squares on log |residual| with the log factor divided out
    xs: List[float] = []
    ys: List[float] = []
    for T, resid in zip(ts, residuals):
        mag = abs(resid) / math.log(T) ** pred.error_log
        if mag > 0.0:
            xs.append(math.log(T))
            ys.append(math.log(mag))
    if len(xs) >= 2:
        n = len(xs)
        mx = sum(xs) / n
        my = sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = sxy / sxx if sxx > 0 else 0.0
        fitted_exponent: Optional[float] = slope
        fitted_constant: Optional[float] = math.exp(my - slope * mx)
        exponent_ok = slope <= pred.error_exponent + 0.15
    else:
        fitted_exponent = None
        fitted_constant = None
        exponent_ok = True  # residuals identically ~0: model is exact
    return ResidualReport(
        T_values=tuple(ts),
        ratios=ratios,
        residuals=residuals,
        fitted_exponent=fitted_exponent,
        fitted_constant=fitted_constant,
        error_exponent=pred.error_exponent,
        error_log=pred.error_log,
        monotone_ok=monotone_ok,
        exponent_ok=exponent_ok,
        passed=monotone_ok and exponent_ok,
    )


# ---------------------------------------------------------------------------
# emission


_CSV_COLUMNS = ("T", "sigma", "a", "kind", "params", "value", "step", "richardson_err")


def measurement_row(req: MeanSquareRequest, res: MeanSquareResult) -> Dict[str, str]:
    return {
        "T": repr(float(res.T_effective)),
        "sigma": repr(float(req.sigma)),
        "a": repr(float(req.a)),
        "kind": req.kind,
        "params": req.params_text(),
        "value": repr(float(res.value)),
        "step": repr(float(res.step)),
        "richardson_err": repr(float(res.richardson_err)),
    }


def write_measurements_csv(path, rows: Sequence[Dict[str, str]]) -> None:
    lines = [",".join(_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(row[c] for c in _CSV_COLUMNS))
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


def render_manifest(inputs: Dict, extra: Optional[Dict] = None) -> str:
    payload = {
        "inputs": inputs,
        "library_version": __version__,
        "determinism": (
            "fixed dyadic quadrature grid, chunked pairwise reductions, "
            "no random state; reruns are byte-identical"
        ),
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
