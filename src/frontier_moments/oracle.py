"""Theory-side ground truth for the conditional frontier moments.

Every moment here is reported relative to g(x)^p: absolute high-order
moments overflow long before the powers of interest, and all statements
the estimator relies on only involve ratios in which g^p cancels.

Two independent routes compute the conditional moment m_p(x) / g(x)^p:

  * ``moment_decomposition`` - closed form through the Beta function,
        p * [ C(x) B(p, alpha+1) + D0(x) B(p, alpha+beta+1) ],
    split into its leading (C) and correction (D0) parts, with log B from
    ``math.lgamma`` and a Stirling expansion for large arguments;
  * ``moment_brute`` - direct quadrature of p * int y^(p-1) S(y|x) dy
    after the endpoint substitution t = p (1 - y), which maps the
    O(1/p)-wide region carrying the mass onto an O(1) range.

The smoothed moment mu_p(x) = E[Y^p K_h(x - X)] is integrated over the
kernel ball by tensor Gauss-Legendre quadrature, with the closed-form
conditional moment inside the integrand.  Its first-order description,

    mu_p(x) ~ f(x) C(x) Gamma(alpha(x)+1) g(x)^p p^-alpha(x),

and the expansion of the consecutive-moment ratio,

    mu_p(x) / mu_(p+1)(x) ~ (1 / g(x)) (1 + alpha(x) / (p+1)),

are exposed so tests and diagnostics can measure how fast the exact
quantities approach them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernels import KernelSpec
from .model import SUPPORT, FrontierModel, _points, _positive, _tail_fields, _tail_survival, _tensor, evaluation_grid, field_range

# Stirling tail S(z) in log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2 + S(z);
# coefficients of z^-1, z^-3, ..., z^-9, ample for z >= 32
_STIRLING_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)

_ASYMPTOTIC_MIN = 32.0


def _stirling_tail(z):
    zi2 = 1.0 / (z * z)
    s = _STIRLING_COEF[-1]
    for c in _STIRLING_COEF[-2::-1]:
        s = s * zi2 + c
    return s / z


_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def _lgamma(z):
    """log Gamma(z) by ``math.lgamma``, called once per distinct value; keeps the shape of z.

    A scalar or 0-d z gives a float.
    """
    if np.ndim(z) == 0:
        return math.lgamma(z)
    z = np.asarray(z, dtype=float)
    distinct, inverse = np.unique(z, return_inverse=True)
    return _LGAMMA(distinct).astype(float)[inverse].reshape(z.shape)


def log_beta(p, q):
    """log B(p, q), accurate to a few ulp even for p in the 1e6 range.

    Plain log-Gamma differencing loses ~p*eps absolute accuracy in the
    large logs, so entries with max(p, q) >= _ASYMPTOTIC_MIN use a Stirling
    expansion in which the O(p log p) terms cancel analytically; only the
    entries below it take the plain difference.
    """
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(q_arr <= 0.0):
        raise ValueError("Beta arguments must be positive")
    hi = np.maximum(p_arr, q_arr)
    lo = np.minimum(p_arr, q_arr)
    lg_lo = _lgamma(lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = (hi + lo - 0.5) * np.log1p(lo / hi) - lo
        out = np.array(lg_lo - lo * np.log(hi) - correction + _stirling_tail(hi) - _stirling_tail(hi + lo))
    naive = hi < _ASYMPTOTIC_MIN
    if np.any(naive):
        lo_n, hi_n = lo[naive], hi[naive]
        out[naive] = np.asarray(lg_lo)[naive] + _lgamma(hi_n) - _lgamma(lo_n + hi_n)
    return float(out) if np.isscalar(p) and np.isscalar(q) else out


@dataclass(frozen=True)
class MomentDecomposition:
    """m_p(x) / g(x)^p split into its leading and correction parts."""

    main: float
    error: float

    @property
    def total(self) -> float:
        return self.main + self.error


def _moment_parts(fields, p: float):
    """(main, error) parts of m_p / g^p through the Beta closed form, from scalar or batched tail fields."""
    al, be, cc, dd = fields
    return cc * p * np.exp(log_beta(p, al + 1.0)), dd * p * np.exp(log_beta(p, al + be + 1.0))


def moment_decomposition(model: FrontierModel, x, p: float) -> MomentDecomposition:
    """Closed-form m_p(x) / g(x)^p with its leading/correction split."""
    _positive(p=p)
    xs = _points(x, model.dimension, one=True)
    main, error = _moment_parts(tuple(float(v[0]) for v in _tail_fields(model, xs)), p)
    return MomentDecomposition(main=float(main), error=float(error))


def moment_ratio_exact(model: FrontierModel, x, p: float) -> float:
    """m_(p+1)(x) / m_p(x); approaches g(x) as p grows."""
    rel_p = moment_decomposition(model, x, p).total
    rel_next = moment_decomposition(model, x, p + 1.0).total
    return model.g(x) * rel_next / rel_p


_BRUTE_NODES = leggauss(48)
_BALL_NODES, _BALL_WEIGHTS = leggauss(64)
# tensor Gauss-Legendre rules on [-1, 1]^d for the smoothed moment, keyed by d
_BALL_RULES = {d: (_tensor(_BALL_NODES, d), _tensor(_BALL_WEIGHTS, d).prod(axis=1)) for d in (1, 2)}
_GRADING_LEVELS = 30


def _ball_rule(d: int):
    """(nodes, weights) of the tensor rule on [-1, 1]^d, or NotImplementedError beyond d = 2."""
    if d not in _BALL_RULES:
        raise NotImplementedError("smoothed-moment quadrature supports d <= 2")
    return _BALL_RULES[d]


def _graded_panels(upper: float) -> list[tuple[float, float]]:
    """Dyadically graded partition of [0, upper], refined toward both ends."""
    mid = 0.5 * upper
    bounds = [0.0] + [mid * 2.0**-k for k in range(_GRADING_LEVELS - 1, -1, -1)]
    bounds += [upper - mid * 2.0**-k for k in range(1, _GRADING_LEVELS)] + [upper]
    return list(zip(bounds[:-1], bounds[1:]))


def moment_brute(model: FrontierModel, x, p: float) -> float:
    """m_p(x) / g(x)^p by direct quadrature, independent of the Beta route.

    Integrates (1 - t/p)^(p-1) [C (t/p)^alpha + D0 (t/p)^(alpha+beta)] over
    t in [0, min(p, 60)] on dyadically graded Gauss-Legendre panels; the
    grading resolves the t^alpha endpoint for fractional alpha and the
    truncation tail is exponentially negligible.
    """
    _positive(p=p)
    xs = _points(x, model.dimension, one=True)
    fields = tuple(float(v[0]) for v in _tail_fields(model, xs))
    nodes, weights = _BRUTE_NODES
    upper = min(p, 60.0)
    a, b = np.array(_graded_panels(upper)).T
    half = 0.5 * (b - a)
    # one (panels, nodes) array: row k holds panel k's nodes mapped onto [a_k, b_k]
    u = (half[:, None] * nodes + (0.5 * (b + a))[:, None]) / p
    vals = np.exp((p - 1.0) * np.log1p(-u)) * _tail_survival(fields, u)
    total = 0.0
    for panel in half * (vals @ weights):
        total += float(panel)
    return total


def smoothed_moment(model: FrontierModel, x, p: float, h: float, kernel: KernelSpec) -> float:
    """mu_p(x) / g(x)^p by Gauss-Legendre quadrature over the kernel ball.

    The integrand couples the kernel, the covariate density, the frontier
    oscillation exp(p log(g(x - h u)/g(x))) and the closed-form conditional
    moment.  Requires the ball of radius h around x to stay inside the
    support.  In one dimension the integrand is smooth and the result is
    accurate to near machine precision; in two dimensions the kernel's
    support boundary cuts through the tensor grid and caps the relative
    accuracy around 1e-4.
    """
    _positive(p=p, h=h)
    x = _points(x, model.dimension, one=True)
    if np.any(x - h < SUPPORT[0] - 1e-12) or np.any(x + h > SUPPORT[1] + 1e-12):
        raise ValueError("kernel ball exits the covariate support")
    u, weights = _ball_rule(model.dimension)
    pts = x - h * u
    kv = kernel.density(u)
    fv = model.f.pdf(pts)
    log_g_ratio = np.log(model.g.values(pts)) - math.log(model.g(x))
    main, error = _moment_parts(_tail_fields(model, pts), p)
    return float(np.sum(weights * kv * fv * np.exp(p * log_g_ratio) * (main + error)))


def smoothed_ratio(model: FrontierModel, x, p: float, h: float, kernel: KernelSpec) -> float:
    """mu_p(x) / mu_(p+1)(x) through the quadrature route."""
    rel_p = smoothed_moment(model, x, p, h, kernel)
    rel_next = smoothed_moment(model, x, p + 1.0, h, kernel)
    return rel_p / (model.g(x) * rel_next)


def moment_equivalent(model: FrontierModel, x, p: float) -> float:
    """First-order description of mu_p(x) / g(x)^p:  f C Gamma(alpha+1) p^-alpha."""
    _positive(p=p)
    al = model.alpha(x)
    return model.f.pdf_point(x) * model.C(x) * math.gamma(al + 1.0) * p**-al


def ratio_expansion(model: FrontierModel, x, p: float) -> float:
    """Expansion of mu_p / mu_(p+1):  (1 + alpha(x)/(p+1)) / g(x)."""
    _positive(p=p)
    return (1.0 + model.alpha(x) / (p + 1.0)) / model.g(x)


def log_gamma_ratio(z: float, z_prime: float) -> float:
    """Two-sided Stirling expansion of log(Gamma(z) / Gamma(z')).

    Returns (z - 1/2) log z - (z' - 1/2) log z' - (z - z'); the neglected
    remainder is bounded by |1/z - 1/z'| / 12.
    """
    if not z > 0 or not z_prime > 0:
        raise ValueError("Gamma arguments must be positive")
    return (z - 0.5) * math.log(z) - (z_prime - 0.5) * math.log(z_prime) - (z - z_prime)


LOG_GAMMA_RATIO_BOUND = 1.0 / 12.0


# ---------------------------------------------------------------------------
# self-check suite (surfaced by the oracle-check CLI command)
# ---------------------------------------------------------------------------


def oracle_report(model: FrontierModel) -> dict:
    """Run the oracle invariants with the Epanechnikov kernel; failures are content, not errors."""
    _ball_rule(model.dimension)  # the smoothed-moment checks need it: fail before any quadrature
    kernel = KernelSpec(dimension=model.dimension)
    xs = evaluation_grid(model.omega, model.dimension, 5 if model.dimension == 1 else 3)
    report: dict = {"checks": {}}

    # closed form vs direct quadrature
    p_grid = [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0]
    worst = 0.0
    for p in p_grid:
        for i in range(xs.shape[0]):
            closed = moment_decomposition(model, xs[i], p).total
            brute = moment_brute(model, xs[i], p)
            worst = max(worst, abs(closed - brute) / abs(brute))
    report["checks"]["moment_decomposition"] = {
        "p_grid": p_grid,
        "max_relative_gap": worst,
        "tolerance": 1e-8,
        "passed": worst <= 1e-8,
    }

    # first-order moment description and consecutive-ratio expansion, h tied to 1/p; the ratio
    # gap is scaled by p^(beta_min + 1), and both read each smoothed moment once
    p_conv = [25.0, 100.0, 400.0]
    beta_min = field_range(model.beta)[0]
    gaps = []
    raw_gaps = []
    scaled_gaps = []
    for p in p_conv:
        h = 1.0 / p
        mu = [(smoothed_moment(model, x, p, h, kernel), smoothed_moment(model, x, p + 1.0, h, kernel)) for x in xs]
        gaps.append(max(abs(mu_p / moment_equivalent(model, x, p) - 1.0) for x, (mu_p, _) in zip(xs, mu)))
        gap = max(abs(mu_p / (model.g(x) * mu_next) - ratio_expansion(model, x, p)) for x, (mu_p, mu_next) in zip(xs, mu))
        raw_gaps.append(gap)
        scaled_gaps.append(gap * p ** (beta_min + 1.0))
    report["checks"]["moment_equivalent"] = {
        "p_grid": p_conv,
        "max_gap_by_p": gaps,
        "monotone_decreasing": all(b < a for a, b in zip(gaps, gaps[1:])),
        "final_gap": gaps[-1],
        "passed": all(b < a for a, b in zip(gaps, gaps[1:])),
    }

    exact = max(raw_gaps) <= 1e-12
    if exact:
        spread = None
        passed = True
    else:
        spread = max(scaled_gaps) / min(scaled_gaps)
        passed = spread <= 3.0
    report["checks"]["ratio_expansion"] = {
        "p_grid": p_conv,
        "beta_min": beta_min,
        "raw_gaps": raw_gaps,
        "scaled_gaps": scaled_gaps,
        "exact": exact,
        "spread": spread,
        "passed": passed,
    }

    # two-sided Stirling expansion against direct log-Gamma evaluation
    z_grid = [5.0, 10.0, 50.0, 100.0, 500.0]
    worst_ratio = 0.0
    for z in z_grid:
        for zp in z_grid:
            if z == zp:
                continue
            true = math.lgamma(z) - math.lgamma(zp)
            gap = abs(log_gamma_ratio(z, zp) - true)
            worst_ratio = max(worst_ratio, gap / abs(1.0 / z - 1.0 / zp))
    report["checks"]["log_gamma_ratio"] = {
        "z_grid": z_grid,
        "max_error_over_curvature": worst_ratio,
        "bound": LOG_GAMMA_RATIO_BOUND,
        "passed": worst_ratio <= LOG_GAMMA_RATIO_BOUND + 1e-15,
    }

    report["passed"] = all(c["passed"] for c in report["checks"].values())
    return report
