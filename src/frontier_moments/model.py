"""Hall-class conditional frontier models: evaluation, validation, sampling.

The support of the pair (X, Y) is {(x, y): x in [0, 1]^d, 0 <= y <= g(x)}.
Given X = x, the normalised response Y / g(x) has survival function

    S(y | x) = C(x) (1 - y)^alpha(x) + D0(x) (1 - y)^(alpha(x) + beta(x))

on [0, 1], a Weibull-max-domain tail whose slowly varying part is a
constant-plus-power correction.  The covariate density f is a product of
one-dimensional marginals on [0, 1].  All building blocks come from small
parametric families so models round-trip through JSON config files.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np
# imported here, not reached lazily through np.random, so forked study workers inherit it
from numpy.random import default_rng

SUPPORT = (0.0, 1.0)
DEFAULT_OMEGA = (0.1, 0.9)

_MASS_SLACK = 1e-9
# Newton on log S(e^z) converges in four steps on the shipped models; a row
# still moving after _NEWTON_STEPS is finished by bisection.
_NEWTON_STEPS = 8
# a step below _NEWTON_TOL * (1 + |z|) leaves an error near its square
_NEWTON_TOL = 1e-9
# rows per block of ``_blocks``: one block of ``sample``'s solve holds about 14 arrays of this length, not of n
_SAMPLE_ROWS = 4096

_FIELD_KINDS = ("constant", "affine", "sinusoid")


class ModelError(ValueError):
    """A frontier model violates its structural assumptions."""


def _float(value, what: str) -> float:
    """float(value), or a ModelError naming ``what``; a bool or a text is not a number, even "1.0"."""
    if not isinstance(value, (bool, str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ModelError(f"{what} must be a number, got {value!r}")


def _floats(value, what: str) -> tuple[float, ...]:
    """A number or a list of numbers as a tuple of floats."""
    items = value if isinstance(value, (list, tuple, np.ndarray)) else (value,)
    return tuple(_float(v, what) for v in items)


def _dimension(value) -> int:
    """A model's dimension: a whole number from 1 to 16, or a ModelError."""
    dimension = _float(value, "field 'dimension'")
    if not dimension.is_integer():
        raise ModelError(f"field 'dimension' must be a whole number, got {dimension!r}")
    d = int(dimension)
    if not 1 <= d <= 16:  # from 17 axes on, even 2 points per axis make a support grid of over 65536 points
        raise ModelError(f"field 'dimension' must be between 1 and 16, got {d}")
    return d


def _points(x, d: int, *, one: bool = False) -> np.ndarray:
    """x as an (m, d) float array: a flat sequence is one point, or m points in d = 1; ``one`` wants m = 1."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim < 2:
        xs = xs.reshape((-1, 1) if d == 1 else (1, -1))
    if xs.ndim != 2 or xs.shape[1] != d or (one and xs.shape[0] != 1):
        want = f"one point of {d} coordinate(s), shape ({d},)" if one else f"points of {d} coordinate(s), shape (m, {d})"
        raise ValueError(f"expected {want}; got shape {np.shape(x)}")
    return xs


def _blocks(n: int):
    """Consecutive slices of range(n) of ``_SAMPLE_ROWS`` rows, the last of up to one row more.

    No block holds one row unless n is 1: numpy computes a one-row ``xs @ b``
    as a dot, which rounds unlike gemv.
    """
    lo = 0
    while lo < n:
        rows = slice(lo, n if n - lo <= _SAMPLE_ROWS + 1 else lo + _SAMPLE_ROWS)
        yield rows
        lo = rows.stop


def _positive(p: float = 1.0, h: float = 1.0, a: float = 1.0) -> None:
    """ValueError unless p, h and a are > 0 (NaN is not) and finite; an argument left out passes."""
    if not p > 0:
        raise ValueError("moment power p must be positive")
    if not h > 0:
        raise ValueError("bandwidth h must be positive")
    if not a > 0:
        raise ValueError("order multiplier a must be positive")
    for name, value in (("moment power p", p), ("bandwidth h", h), ("order multiplier a", a)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {float(value)!r}")


# ---------------------------------------------------------------------------
# scalar fields and covariate densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Scalar field on [0, 1]^d.

    constant : value ``a`` everywhere.
    affine   : ``a + <b, x>``.
    sinusoid : ``a + b * sin(2 pi <c, x>)`` with |b| < a, so the field keeps
               the sign of ``a``.

    The affine and sinusoid forms are Lipschitz.
    """

    kind: str
    a: float
    b: tuple[float, ...] = ()
    c: tuple[float, ...] = ()
    dimension: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _FIELD_KINDS:
            raise ModelError(f"unknown field kind {self.kind!r}; choose from {_FIELD_KINDS}")
        if self.dimension < 1:
            raise ModelError("field dimension must be a positive integer")
        object.__setattr__(self, "a", _float(self.a, "a"))
        object.__setattr__(self, "b", _floats(self.b, "b"))
        object.__setattr__(self, "c", _floats(self.c, "c"))
        if self.kind == "affine" and len(self.b) != self.dimension:
            raise ModelError("affine field needs one slope per coordinate")
        if self.kind == "sinusoid":
            if len(self.b) != 1:
                raise ModelError("sinusoid amplitude b must be a scalar")
            if len(self.c) != self.dimension:
                raise ModelError("sinusoid frequency c needs one entry per coordinate")
            if not abs(self.b[0]) < self.a:
                raise ModelError("sinusoid requires |b| < a so the field cannot change sign")

    def values(self, xs) -> np.ndarray:
        """Evaluate on a batch of points of shape (n, d).

        The inner product runs per block of ``_blocks``: on a whole large
        array at d >= 8, BLAS's bits depend on its thread count, and on a
        block they do not.  Different CPU kernels on other hosts may still
        round differently.
        """
        xs = _points(xs, self.dimension)
        if self.kind == "constant":
            return np.full(xs.shape[0], self.a)
        weights = np.asarray(self.b if self.kind == "affine" else self.c)
        dot = np.empty(xs.shape[0])
        for rows in _blocks(xs.shape[0]):
            dot[rows] = xs[rows] @ weights
        if self.kind == "affine":
            return self.a + dot
        return self.a + self.b[0] * np.sin(2.0 * math.pi * dot)

    def __call__(self, x) -> float:
        return float(self.values(_points(x, self.dimension, one=True))[0])

    @classmethod
    def constant(cls, a: float, dimension: int = 1) -> "ScalarField":
        return cls(kind="constant", a=a, dimension=dimension)

    @classmethod
    def affine(cls, a: float, slope, dimension: int = 1) -> "ScalarField":
        return cls(kind="affine", a=a, b=slope, dimension=dimension)

    @classmethod
    def sinusoid(cls, a: float, amplitude: float, frequency, dimension: int = 1) -> "ScalarField":
        return cls(kind="sinusoid", a=a, b=amplitude, c=frequency, dimension=dimension)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "a": self.a}
        if self.kind == "affine":
            out["b"] = list(self.b)
        elif self.kind == "sinusoid":
            out["b"] = self.b[0]
            out["c"] = list(self.c)
        return out

    @classmethod
    def from_dict(cls, spec: dict, dimension: int) -> "ScalarField":
        return cls(kind=spec["kind"], a=spec["a"], b=spec.get("b", ()), c=spec.get("c", ()), dimension=dimension)


@dataclass(frozen=True)
class MarginalDensity:
    """Density on [0, 1]: uniform, or linear 1 + slope * (t - 1/2) with |slope| < 2."""

    kind: str = "uniform"
    slope: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "linear"):
            raise ModelError(f"unknown marginal density kind {self.kind!r}")
        object.__setattr__(self, "slope", _float(self.slope, "slope"))
        if self.kind == "uniform" and self.slope != 0.0:
            raise ModelError("uniform marginal takes no slope")
        if not abs(self.slope) < 2.0:
            raise ModelError("linear marginal requires |slope| < 2 for positivity")

    def pdf(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return 1.0 + self.slope * (t - 0.5)

    # kept with no caller in src/: tests/test_model.py checks ppf against it
    def cdf(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return t * (1.0 + 0.5 * self.slope * (t - 1.0))

    def ppf(self, u: np.ndarray) -> np.ndarray:
        # invert (s/2) t^2 + (1 - s/2) t = u; the quotient form is stable for all |s| < 2
        u = np.asarray(u, dtype=float)
        half = 0.5 * self.slope
        b = 1.0 - half
        return 2.0 * u / (b + np.sqrt(b * b + 4.0 * half * u))

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "linear":
            out["slope"] = self.slope
        return out

    @classmethod
    def from_dict(cls, spec: dict) -> "MarginalDensity":
        return cls(kind=spec.get("kind", "uniform"), slope=spec.get("slope", 0.0))


@dataclass(frozen=True)
class CovariateDensity:
    """Product density on [0, 1]^d with one marginal per coordinate."""

    marginals: tuple[MarginalDensity, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if not self.marginals:
            raise ModelError("covariate density needs at least one marginal")

    @property
    def dimension(self) -> int:
        return len(self.marginals)

    @classmethod
    def uniform(cls, dimension: int) -> "CovariateDensity":
        return cls(marginals=tuple(MarginalDensity() for _ in range(dimension)))

    def pdf(self, xs) -> np.ndarray:
        xs = _points(xs, self.dimension)
        out = np.ones(xs.shape[0])
        for k, marg in enumerate(self.marginals):
            out *= marg.pdf(xs[:, k])
        return out

    def pdf_point(self, x) -> float:
        return float(self.pdf(_points(x, self.dimension, one=True))[0])

    def ppf(self, us: np.ndarray) -> np.ndarray:
        us = np.asarray(us, dtype=float)
        cols = [marg.ppf(us[:, k]) for k, marg in enumerate(self.marginals)]
        return np.stack(cols, axis=1)

    def to_dict(self) -> list:
        return [m.to_dict() for m in self.marginals]


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierModel:
    """Full specification of the conditional law of (X, Y).

    ``C + D0`` must equal 1 so the survival of the normalised response
    starts at 1; ``validate`` checks that and the positivity of the fields
    on a grid, and at each grid point the exact condition for the survival
    to be nonincreasing.  ``dimension`` is a whole number from 1 to 16.
    ``omega``, two numbers, is the compact evaluation window, kept away from
    the support boundary so kernel balls of the bandwidths in use stay
    inside [0, 1]^d.  The Holder exponents ``eta_g`` and ``eta_alpha`` must
    be finite and positive.
    """

    g: ScalarField
    alpha: ScalarField
    beta: ScalarField
    C: ScalarField
    D0: ScalarField
    f: CovariateDensity
    dimension: int = 1
    eta_g: float = 1.0
    eta_alpha: float = 1.0
    omega: tuple[float, float] = DEFAULT_OMEGA

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", _dimension(self.dimension))
        for name in ("g", "alpha", "beta", "C", "D0"):
            fld = getattr(self, name)
            if fld.dimension != self.dimension:
                raise ModelError(f"field {name} has dimension {fld.dimension}, model has {self.dimension}")
        if self.f.dimension != self.dimension:
            raise ModelError("covariate density dimension does not match the model")
        omega = self.omega
        if not isinstance(omega, (list, tuple)) or len(omega) != 2 or not all(isinstance(v, numbers.Real) for v in omega):
            raise ModelError(f"field 'omega' must be two numbers, got {omega!r}")
        for name in ("eta_g", "eta_alpha"):
            value = _float(getattr(self, name), f"field {name!r}")
            if not (math.isfinite(value) and value > 0.0):
                raise ModelError(f"field {name!r} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, value)
        lo, hi = (_float(v, "field 'omega'") for v in self.omega)
        object.__setattr__(self, "omega", (lo, hi))
        if not (SUPPORT[0] <= lo < hi <= SUPPORT[1]):
            raise ModelError("omega must be a nonempty interval inside [0, 1]")


@dataclass(frozen=True)
class Sample:
    """n observed pairs: covariates xs of shape (n, d), positive responses ys."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 2:
            raise ValueError("xs must have shape (n, d)")
        if ys.ndim != 1 or ys.shape[0] != xs.shape[0]:
            raise ValueError("ys must be one value per row of xs")
        if xs.shape[0] < 1:
            raise ValueError("a sample holds at least one pair")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("covariates and responses must be finite")
        if not np.all(ys > 0.0):
            raise ValueError("responses must be strictly positive")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]


def _tensor(axis, d: int) -> np.ndarray:
    """Every d-tuple of ``axis``, last coordinate fastest: C-contiguous, shape (len(axis)**d, d), axis's dtype."""
    axis = np.asarray(axis)
    out = np.empty(axis.shape * d + (d,), dtype=axis.dtype)
    for j in range(d):
        out[..., j] = axis.reshape(axis.shape + (1,) * (d - 1 - j))
    return out.reshape(axis.size**d, d)


def evaluation_grid(omega: tuple[float, float], dimension: int, per_axis: int) -> np.ndarray:
    """Equispaced grid over omega^dimension, row-major, shape (per_axis^d, d)."""
    if per_axis < 1:
        raise ValueError("grid needs at least one point per axis")
    if not (omega[0] < omega[1] and math.isfinite(omega[0]) and math.isfinite(omega[1])):
        raise ValueError(f"grid window needs finite lo < hi, got ({omega[0]}, {omega[1]})")
    return _tensor(np.linspace(omega[0], omega[1], per_axis), dimension)


# ---------------------------------------------------------------------------
# survival / quantile / sampling
# ---------------------------------------------------------------------------


def _tail_fields(model: FrontierModel, xs: np.ndarray) -> tuple:
    """(alpha, beta, C, D0) at each row of xs: the fields the tail law needs."""
    return model.alpha.values(xs), model.beta.values(xs), model.C.values(xs), model.D0.values(xs)


def _tail_survival(fields, om):
    """C om^alpha + D0 om^(alpha + beta): the survival at level y = 1 - om."""
    al, be, cc, dd = fields
    return cc * om**al + dd * om ** (al + be)


def survival_values(model: FrontierModel, xs, ys) -> np.ndarray:
    """Survival of the normalised response, elementwise over paired (xs, ys)."""
    xs = _points(xs, model.dimension)
    return _tail_survival(_tail_fields(model, xs), 1.0 - np.asarray(ys, dtype=float))


def survival(model: FrontierModel, x, y: float) -> float:
    """P(Y / g(x) > y | X = x) for y in [0, 1]."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("normalised level y must lie in [0, 1]")
    return float(survival_values(model, _points(x, model.dimension, one=True), np.asarray([y]))[0])


def _quantile_batch(model: FrontierModel, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Solve survival(x, y) = u for y, vectorised over rows of xs.

    Works in z = log(1 - y), where log S is smooth and increasing.  A row
    whose survival has one term (D0 = 0, or C = 0) is solved in closed
    form; on the other rows Newton starts from the leading-term root.
    The result -expm1(z) stays positive for every u below C + D0.
    """
    al, be, cc, dd = _tail_fields(model, xs)
    _check_monotone(al, be, cc, dd)
    mass = cc + dd
    if np.any(us > mass + _MASS_SLACK):
        raise ModelError("requested level exceeds survival at y = 0; does C + D0 equal 1?")
    log_u = np.log(np.minimum(us, mass))
    z = log_u - np.log(mass)
    z /= np.where(cc == 0.0, al + be, al)
    two_term = (dd != 0.0) & (cc != 0.0)
    if two_term.all():
        _newton(al, be, cc, dd, log_u, z)
    elif two_term.any():
        part = z[two_term]
        _newton(al[two_term], be[two_term], cc[two_term], dd[two_term], log_u[two_term], part)
        z[two_term] = part
    np.expm1(z, out=z)
    return np.subtract(0.0, z, out=z)  # -expm1(z), with +0.0 at u = C + D0


def _monotone_margin(al, be, cc, dd) -> np.ndarray:
    """min(C alpha, C alpha + D0 (alpha + beta)) per row.

    With alpha > 0, and beta > 0 where D0 != 0, S(y | x) is nonincreasing
    in y exactly where this is >= 0: dS/d(1-y) = (1-y)^(alpha-1) (C alpha +
    D0 (alpha+beta) (1-y)^beta) is linear in (1-y)^beta in (0, 1], so its
    sign is fixed by the two ends.
    """
    c_al = cc * al
    return np.minimum(c_al, c_al + dd * (al + be))


def _check_monotone(al, be, cc, dd) -> None:
    """ModelError unless S(y | x) is nonincreasing in y on every row."""
    if not (
        np.all(al > 0.0)
        and np.all(be > 0.0, where=dd != 0.0)
        and np.all(_monotone_margin(al, be, cc, dd) >= 0.0)
    ):
        raise ModelError(
            "non-monotone survival: need alpha > 0, C alpha >= 0, C alpha + D0 (alpha + beta) >= 0, "
            "and beta > 0 where D0 != 0"
        )


def _newton(al, be, cc, dd, log_u, z) -> None:
    """Move z in place to the root of F on rows with C != 0 and D0 != 0.

    F(z) = log S(e^z) - log u = alpha z + log(C + D0 e^(beta z)) - log u
    increases in z, with F(lo) <= 0 <= F(0) for lo the leading-term root
    under the larger of C and C + D0.  A step that leaves the bracket is
    replaced by its midpoint.
    """
    lo = (log_u - np.log(np.maximum(dd, 0.0) + cc)) / al
    hi = np.zeros_like(z)
    moving = np.ones(z.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        tail = np.exp(be * z) * dd  # D0 e^(beta z)
        total = cc + tail
        slope = tail / total * be + al  # F'(z), zero only at z = 0 when C alpha + D0 (alpha + beta) = 0
        f = np.log(total) - log_u + al * z  # F(z)
        np.copyto(lo, z, where=f < 0.0)
        np.copyto(hi, z, where=f > 0.0)
        np.divide(f, slope, out=f, where=slope > 0.0)  # the Newton step is z - f
        step = z - f
        np.copyto(step, (lo + hi) * 0.5, where=(step < lo) | (step > hi))
        tol = (1.0 - z) * _NEWTON_TOL
        np.copyto(z, step, where=moving)
        moving &= np.abs(f) > tol
        if not moving.any():
            return
    rows = np.flatnonzero(moving)
    z[rows] = _bisect(al[rows], be[rows], cc[rows], dd[rows], log_u[rows], lo[rows], hi[rows])


def _bisect(al, be, cc, dd, log_u, lo, hi) -> np.ndarray:
    """Root of F on [lo, hi], halved until the ends are adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return mid
        below = al * mid + np.log(cc + dd * np.exp(be * mid)) < log_u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)


def quantile(model: FrontierModel, x, u: float) -> float:
    """Normalised level y with survival(x, y) = u, for u in (0, 1]."""
    if not 0.0 < u <= 1.0:
        raise ValueError("survival level u must lie in (0, 1]")
    return float(_quantile_batch(model, _points(x, model.dimension, one=True), np.asarray([u]))[0])


def sample(model: FrontierModel, n: int, seed: int) -> Sample:
    """Draw n pairs: X by per-coordinate inverse CDF, Y = g(X) * inverse survival.

    Both uniform draws are taken in full, so the random stream does not
    depend on the block size; the inverse survival is then solved in blocks
    of ``_SAMPLE_ROWS`` rows.  Every row's solve is independent of the
    others, so the result is that of one whole-sample solve.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = default_rng(seed)
    xs = model.f.ppf(rng.random((n, model.dimension)))
    u = rng.random(n)
    np.subtract(1.0, u, out=u)
    # keep u strictly below 1 so every sampled response is positive
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    ys = np.empty(n)
    for rows in _blocks(n):
        try:
            ynorm = _quantile_batch(model, xs[rows], u[rows])
        except ModelError:
            # as in one whole-sample check, a non-monotone row anywhere is named before a level above C + D0
            _check_monotone(*_tail_fields(model, xs[rows.stop :]))
            raise
        np.multiply(model.g.values(xs[rows]), ynorm, out=ys[rows])
    return Sample(xs=xs, ys=ys)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_value: float
    worst_point: tuple[float, ...]


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _support_grid(d: int, per_axis: int) -> np.ndarray:
    """Equispaced grid over SUPPORT^d: per_axis points per axis, at most max(2, round(65536 ** (1/d)))."""
    return evaluation_grid(SUPPORT, d, min(per_axis, max(2, round(65536 ** (1.0 / d)))))


def validate(model: FrontierModel) -> ValidationReport:
    """Check the model invariants on a support grid of 256 points per axis, capped; returns failures, never raises."""
    grid = _support_grid(model.dimension, 256)
    al, be, cc, dd = _tail_fields(model, grid)

    mass = cc + dd
    i = int(np.argmax(np.abs(mass - 1.0)))
    # (name, values on the grid, index of the worst value, whether it passes)
    found = [("C_plus_D0_equals_one", mass, i, abs(mass[i] - 1.0) <= _MASS_SLACK)]
    for name, vals in (
        ("g_positive", model.g.values(grid)),
        ("f_positive", model.f.pdf(grid)),
        ("C_positive", cc),
        ("alpha_positive", al),
        ("beta_positive", be),
    ):
        j = int(np.argmin(vals))
        found.append((name, vals, j, vals[j] > 0.0))
    margin = _monotone_margin(al, be, cc, dd)
    j = int(np.argmin(margin))
    found.append(("survival_nonincreasing", margin, j, margin[j] >= 0.0))
    return ValidationReport(
        checks=tuple(
            CheckResult(name=name, passed=bool(ok), worst_value=float(vals[j]), worst_point=tuple(grid[j].tolist()))
            for name, vals, j, ok in found
        )
    )


def field_range(field: ScalarField) -> tuple[float, float]:
    """(min, max) of a scalar field over a support grid of 129 points per axis, capped as in ``validate``."""
    grid = _support_grid(field.dimension, 129)
    vals = field.values(grid)
    return float(vals.min()), float(vals.max())


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


def model_to_dict(model: FrontierModel) -> dict:
    return {
        "dimension": model.dimension,
        "g": model.g.to_dict(),
        "alpha": model.alpha.to_dict(),
        "beta": model.beta.to_dict(),
        "C": model.C.to_dict(),
        "D0": model.D0.to_dict(),
        "f": model.f.to_dict(),
        "omega": [model.omega[0], model.omega[1]],
        "eta_g": model.eta_g,
        "eta_alpha": model.eta_alpha,
    }


@contextmanager
def _naming(field: str):
    """Prefix a ModelError raised inside the block with the name of the model field."""
    try:
        yield
    except ModelError as err:
        raise ModelError(f"field {field!r}: {err}") from None


def model_from_dict(spec: dict) -> FrontierModel:
    if not isinstance(spec, dict):
        raise ModelError(f"model specification must be a JSON object, got {type(spec).__name__}")
    d = _dimension(spec.get("dimension", 1))
    f_spec = spec.get("f")
    if f_spec is None:
        f = CovariateDensity.uniform(d)
    else:
        if not isinstance(f_spec, (list, tuple)) or not all(isinstance(m, dict) for m in f_spec):
            raise ModelError(f"field 'f' must be a list of marginal objects, got {f_spec!r}")
        with _naming("f"):
            marginals = [MarginalDensity.from_dict(m) for m in f_spec]
        if len(marginals) == 1 and d > 1:
            marginals = marginals * d
        f = CovariateDensity(marginals=tuple(marginals))
    defaults = {
        "beta": {"kind": "constant", "a": 1.0},
        "C": {"kind": "constant", "a": 1.0},
        "D0": {"kind": "constant", "a": 0.0},
    }
    fields = {}
    for name in ("g", "alpha", "beta", "C", "D0"):
        sub = spec.get(name, defaults.get(name))
        if sub is None:
            raise ModelError(f"model specification is missing required field {name!r}")
        if not isinstance(sub, dict) or "kind" not in sub or "a" not in sub:
            raise ModelError(f"field {name!r} must be an object with 'kind' and 'a', got {sub!r}")
        with _naming(name):
            fields[name] = ScalarField.from_dict(sub, d)
    return FrontierModel(
        g=fields["g"],
        alpha=fields["alpha"],
        beta=fields["beta"],
        C=fields["C"],
        D0=fields["D0"],
        f=f,
        dimension=d,
        eta_g=spec.get("eta_g", 1.0),
        eta_alpha=spec.get("eta_alpha", 1.0),
        omega=spec.get("omega", DEFAULT_OMEGA),
    )


def load_model(path) -> FrontierModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


@contextmanager
def _output_file(path):
    """``path`` opened to write UTF-8 text, line ends as given: every file the package writes.

    If the block raises after the file is opened (a full disk, Ctrl-C), a
    regular file is removed before the error goes on, so a cut-short file
    never passes for a whole one; anything else (``/dev/null``, a pipe, a
    symbolic link) is left as it is.
    """
    # opened outside the try: a file that could not be opened is not ours to remove
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        with suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        raise


def dump_json(payload: dict, path) -> None:
    """Write ``payload`` as JSON: sorted keys, indent 2, a trailing newline."""
    with _output_file(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def save_model(model: FrontierModel, path) -> None:
    dump_json(model_to_dict(model), path)
