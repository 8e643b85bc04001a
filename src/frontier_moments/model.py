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
from dataclasses import dataclass

import numpy as np

SUPPORT = (0.0, 1.0)
DEFAULT_OMEGA = (0.1, 0.9)

BISECTION_MAX_ITER = 100
_MONOTONE_SLACK = 1e-9

_FIELD_KINDS = ("constant", "affine", "sinusoid")


class ModelError(ValueError):
    """A frontier model violates its structural assumptions."""


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
        object.__setattr__(self, "a", float(self.a))
        b = self.b
        if isinstance(b, (int, float)):
            b = (float(b),)
        object.__setattr__(self, "b", tuple(float(v) for v in b))
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
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
        """Evaluate on a batch of points of shape (n, d)."""
        xs = np.asarray(xs, dtype=float)
        if self.kind == "constant":
            return np.full(xs.shape[0], self.a)
        if self.kind == "affine":
            return self.a + xs @ np.asarray(self.b)
        return self.a + self.b[0] * np.sin(2.0 * math.pi * (xs @ np.asarray(self.c)))

    def __call__(self, x) -> float:
        return float(self.values(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    @classmethod
    def constant(cls, a: float, dimension: int = 1) -> "ScalarField":
        return cls(kind="constant", a=a, dimension=dimension)

    @classmethod
    def affine(cls, a: float, slope, dimension: int = 1) -> "ScalarField":
        slope = (slope,) if isinstance(slope, (int, float)) else tuple(slope)
        return cls(kind="affine", a=a, b=slope, dimension=dimension)

    @classmethod
    def sinusoid(cls, a: float, amplitude: float, frequency, dimension: int = 1) -> "ScalarField":
        frequency = (frequency,) if isinstance(frequency, (int, float)) else tuple(frequency)
        return cls(kind="sinusoid", a=a, b=(amplitude,), c=frequency, dimension=dimension)

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
        return cls(
            kind=spec["kind"],
            a=spec["a"],
            b=spec.get("b", ()),
            c=tuple(spec.get("c", ())),
            dimension=dimension,
        )


@dataclass(frozen=True)
class MarginalDensity:
    """Density on [0, 1]: uniform, or linear 1 + slope * (t - 1/2) with |slope| < 2."""

    kind: str = "uniform"
    slope: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "linear"):
            raise ModelError(f"unknown marginal density kind {self.kind!r}")
        object.__setattr__(self, "slope", float(self.slope))
        if self.kind == "uniform" and self.slope != 0.0:
            raise ModelError("uniform marginal takes no slope")
        if not abs(self.slope) < 2.0:
            raise ModelError("linear marginal requires |slope| < 2 for positivity")

    def pdf(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return 1.0 + self.slope * (t - 0.5)

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
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        out = np.ones(xs.shape[0])
        for k, marg in enumerate(self.marginals):
            out *= marg.pdf(xs[:, k])
        return out

    def pdf_point(self, x) -> float:
        return float(self.pdf(np.atleast_2d(np.asarray(x, dtype=float)))[0])

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
    starts at 1; ``validate`` checks that along with positivity and
    monotonicity on a grid.  ``omega`` is the compact evaluation window,
    kept away from the support boundary so kernel balls of the bandwidths
    in use stay inside [0, 1]^d.
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
        for name in ("g", "alpha", "beta", "C", "D0"):
            fld = getattr(self, name)
            if fld.dimension != self.dimension:
                raise ModelError(f"field {name} has dimension {fld.dimension}, model has {self.dimension}")
        if self.f.dimension != self.dimension:
            raise ModelError("covariate density dimension does not match the model")
        object.__setattr__(self, "omega", (float(self.omega[0]), float(self.omega[1])))
        lo, hi = self.omega
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


def evaluation_grid(omega: tuple[float, float], dimension: int, per_axis: int) -> np.ndarray:
    """Equispaced grid over omega^dimension, row-major, shape (per_axis^d, d)."""
    if per_axis < 1:
        raise ValueError("grid needs at least one point per axis")
    if not omega[0] < omega[1]:
        raise ValueError(f"grid window needs lo < hi, got ({omega[0]}, {omega[1]})")
    axes = np.linspace(omega[0], omega[1], per_axis)
    if dimension == 1:
        return axes.reshape(-1, 1)
    mesh = np.meshgrid(*([axes] * dimension), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


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
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float)
    return _tail_survival(_tail_fields(model, xs), 1.0 - ys)


def survival(model: FrontierModel, x, y: float) -> float:
    """P(Y / g(x) > y | X = x) for y in [0, 1]."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("normalised level y must lie in [0, 1]")
    return float(survival_values(model, x, np.asarray([y]))[0])


def _quantile_batch(model: FrontierModel, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Solve survival(x, y) = u by bisection, vectorised over rows of xs."""
    fields = _tail_fields(model, xs)
    _, _, cc, dd = fields
    lo = np.zeros_like(us)
    hi = np.ones_like(us)
    s_lo = cc + dd
    s_hi = np.zeros_like(us)
    if np.any(us > s_lo + _MONOTONE_SLACK):
        raise ModelError("requested level exceeds survival at y = 0; does C + D0 equal 1?")
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        s_mid = _tail_survival(fields, 1.0 - mid)
        if np.any(s_mid > s_lo + _MONOTONE_SLACK) or np.any(s_mid < s_hi - _MONOTONE_SLACK):
            raise ModelError("non-monotone survival detected during quantile bisection")
        right = s_mid >= us
        lo = np.where(right, mid, lo)
        s_lo = np.where(right, s_mid, s_lo)
        hi = np.where(right, hi, mid)
        s_hi = np.where(right, s_hi, s_mid)
    return 0.5 * (lo + hi)


def quantile(model: FrontierModel, x, u: float) -> float:
    """Normalised level y with survival(x, y) = u, for u in (0, 1]."""
    if not 0.0 < u <= 1.0:
        raise ValueError("survival level u must lie in (0, 1]")
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    return float(_quantile_batch(model, xs, np.asarray([u]))[0])


def sample(model: FrontierModel, n: int, seed: int) -> Sample:
    """Draw n pairs: X by per-coordinate inverse CDF, Y = g(X) * inverse survival."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    xs = model.f.ppf(rng.random((n, model.dimension)))
    u = 1.0 - rng.random(n)
    # keep u strictly below 1 so every sampled response is positive
    u = np.minimum(u, 1.0 - 2.0**-53)
    ynorm = _quantile_batch(model, xs, u)
    ys = model.g.values(xs) * ynorm
    return Sample(xs=xs, ys=ys)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_value: float
    worst_point: tuple[float, ...] | None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _default_validation_resolution(d: int) -> int:
    # 256 points per axis up to d = 2; beyond that cap the total grid size
    return 256 if d <= 2 else max(2, int(round(65536 ** (1.0 / d))))


def validate(model: FrontierModel) -> ValidationReport:
    """Check the model invariants on a grid; returns failures, never raises."""
    d = model.dimension
    grid = evaluation_grid(SUPPORT, d, _default_validation_resolution(d))
    fields = _tail_fields(model, grid)
    al, be, cc, dd = fields
    checks: list[CheckResult] = []

    mass = cc + dd
    i = int(np.argmax(np.abs(mass - 1.0)))
    checks.append(
        CheckResult(
            name="C_plus_D0_equals_one",
            passed=bool(abs(mass[i] - 1.0) <= 1e-9),
            worst_value=float(mass[i]),
            worst_point=tuple(grid[i]),
            detail="survival of the normalised response must start at 1",
        )
    )

    for name, vals in (
        ("g_positive", model.g.values(grid)),
        ("f_positive", model.f.pdf(grid)),
        ("C_positive", cc),
        ("alpha_positive", al),
        ("beta_positive", be),
    ):
        j = int(np.argmin(vals))
        checks.append(
            CheckResult(
                name=name,
                passed=bool(vals[j] > 0.0),
                worst_value=float(vals[j]),
                worst_point=tuple(grid[j]),
            )
        )

    ys = np.linspace(0.0, 1.0, 64)
    prev = mass
    worst_inc = -math.inf
    worst_pt: tuple[float, ...] | None = None
    for y in ys[1:]:
        cur = _tail_survival(fields, 1.0 - y)
        j = int(np.argmax(cur - prev))
        if cur[j] - prev[j] > worst_inc:
            worst_inc = float(cur[j] - prev[j])
            worst_pt = tuple(grid[j]) + (float(y),)
        prev = cur
    checks.append(
        CheckResult(
            name="survival_nonincreasing",
            passed=bool(worst_inc <= 1e-12),
            worst_value=worst_inc,
            worst_point=worst_pt,
            detail="largest upward step of survival along the y grid",
        )
    )

    return ValidationReport(checks=tuple(checks))


def field_range(field: ScalarField) -> tuple[float, float]:
    """(min, max) of a scalar field over a 129-point-per-axis grid on the full support."""
    grid = evaluation_grid(SUPPORT, field.dimension, 129)
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


def model_from_dict(spec: dict) -> FrontierModel:
    if not isinstance(spec, dict):
        raise ModelError(f"model specification must be a JSON object, got {type(spec).__name__}")
    d = int(spec.get("dimension", 1))
    f_spec = spec.get("f")
    if f_spec is None:
        f = CovariateDensity.uniform(d)
    else:
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
        fields[name] = ScalarField.from_dict(sub, d)
    omega = spec.get("omega", DEFAULT_OMEGA)
    if not isinstance(omega, (list, tuple)) or len(omega) != 2 or not all(isinstance(v, (int, float)) for v in omega):
        raise ModelError(f"field 'omega' must be two numbers, got {omega!r}")
    return FrontierModel(
        g=fields["g"],
        alpha=fields["alpha"],
        beta=fields["beta"],
        C=fields["C"],
        D0=fields["D0"],
        f=f,
        dimension=d,
        eta_g=float(spec.get("eta_g", 1.0)),
        eta_alpha=float(spec.get("eta_alpha", 1.0)),
        omega=omega,
    )


def load_model(path) -> FrontierModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: FrontierModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
