"""Autologistic models over binary release series, and the forecast study.

A series w is modelled by logistic regression of each value on its own
previous values: the order-l model regresses w_i on w_{i-1} ... w_{i-l}
plus a constant.  A design is a numpy lag matrix whose row i is
[1, w_{i-1}, ..., w_{i-l}]; one matrix at the largest candidate order
serves every smaller order as its leading columns.  Fitting maximizes
the exact likelihood by iteratively reweighted least squares with step
halving, so the objective never decreases between iterations, and
stops on the Newton decrement.  One pass over the design's tables runs
first.  It finds perfect separation, where no MLE exists, when the
responses are constant, when a lag's 2×2 table with the response has an
empty cell, or when lags 1 and 2 split the responses in their joint
table (Albert & Anderson, 1984); later separation is found when a
Newton step or the coefficients meet the same sign conditions.  Its lag-1
table also fits the order-1 model, the first-order Markov chain: when
all four transition counts are positive the MLE is their shares, in
closed form without iterating.  Separation is either reported as an
error or, when the ridge fallback is enabled, handled by a small
quadratic penalty (the stored log-likelihood stays unpenalized; AIC is
then approximate and the fit is flagged).

Model order is chosen per package as the AIC minimizer over orders
1 ... floor(MAX_ORDER_FRACTION * r), which share one table pass.  Each
order's iterations start at the fit one order below, padded with a
zero coefficient.  The forecast experiment fits on a training prefix
and scores one-step-ahead probabilities for the last t releases against
a majority-vote baseline.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AttritionRecord,
    ForecastError,
    InsufficientDataError,
    NotEligibleError,
    OrderSelectionError,
    SeparationError,
    SingularModelError,
)
from .vectorize import BinarySeries

LOGLIK_TOL = 1e-8
MAX_ITERATIONS = 100
SEPARATION_ETA = 10.0
RIDGE_LAMBDA = 1e-4
PARSIMONY_MARGIN = 4.0
# The forecast study's defaults; the CLI flags take theirs from here.
HORIZONS = (5, 10)
MIN_RELEASES = 25
MIN_STD = 0.25
MAX_ORDER_FRACTION = 0.1
TIE_VALUE = 1
_CONSTANT = "responses are constant; likelihood is unbounded"
_EMPTY_CELL = "perfect separation: lag {} leaves an empty cell in its table with the response"
_SPLIT = "perfect separation: lags 1 and 2 split the responses in their joint table"
_WITNESS = "perfect separation: a Newton step or the coefficients separate the responses"


@dataclass(frozen=True, eq=False)
class LagDesign:
    """Responses ``y`` aligned with their lag matrix ``X``.

    Row i of ``X`` (shape ``n x (order + 1)``) is the constant 1, then
    the previous values of the series, most recent first, for response
    ``y[i]``.  An order-0 design (the constant column alone) is allowed
    for diagnostics even though the builder requires at least one lag.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if len(self.y) < 1:
            raise ValueError("design needs at least one response")
        if self.X.ndim != 2 or len(self.X) != len(self.y):
            raise ValueError("design rows must match responses")

    @property
    def order(self) -> int:
        return self.X.shape[1] - 1

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class ModelFit:
    """Fitted coefficients (beta[0] is the constant) and fit metadata."""

    beta: tuple[float, ...]
    loglik: float
    aic: float
    order: int
    converged: bool
    separation_detected: bool = False
    ridge: bool = False
    iterations: int = 0


@dataclass(frozen=True)
class OrderSelection:
    """Selected order plus the per-order comparison AICs.

    ``aics`` holds the AICs of the candidate fits, all conditioned on
    the same initial window so their likelihoods are comparable;
    ``skipped`` maps every other candidate order to the reason: the
    error message of a failed fit, or, for an order above the first
    separated order l, which is not fitted, ``order <l> is separated:``
    followed by that fit's message.
    """

    order: int
    aics: Mapping[int, float]
    skipped: Mapping[int, str]


@dataclass(frozen=True)
class ForecastReport:
    """Per-package forecast scores for one horizon."""

    package: str
    t: int
    order: int
    abs_errors: tuple[float, ...]
    mean_abs_error: float
    median_abs_error: float
    max_abs_error: float
    accuracy: float
    naive_accuracy: float
    converged: bool
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class HorizonSummary:
    """Between-package averages for one horizon."""

    t: int
    packages: int
    mean_abs_error: float
    median_abs_error: float
    max_abs_error: float
    accuracy: float
    naive_accuracy: float


@dataclass(frozen=True)
class ExperimentResult:
    """Everything the forecast experiment produced."""

    reports: tuple[ForecastReport, ...]
    exclusions: tuple[AttritionRecord, ...]
    summaries: Mapping[int, HorizonSummary]
    orders: Mapping[str, OrderSelection]


def build_lag_design(w: BinarySeries, order: int) -> LagDesign:
    """Align each value with its previous ``order`` values."""
    if order < 1:
        raise ValueError("order must be at least 1")
    r = len(w.values)
    if r <= order:
        raise InsufficientDataError(
            f"{w.package!r}: series length {r} leaves no responses for order {order}"
        )
    values = np.asarray(w.values, dtype=float)
    X = np.ones((r - order, order + 1))
    for lag in range(1, order + 1):
        X[:, lag] = values[order - lag : r - lag]
    return LagDesign(X, values[order:])


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-eta) for eta >= 0 and e^eta / (1 + e^eta) below, so no
    # exponential overflows; e = exp(-|eta|) is the exponential of both.
    e = np.exp(-np.abs(eta))
    d = 1.0 + e
    p = np.divide(e, d)
    return np.divide(1.0, d, out=p, where=eta >= 0)


def _loglik(y: np.ndarray, eta: np.ndarray) -> float:
    """Bernoulli log-likelihood of the responses at the linear form ``eta``."""
    return float(y @ eta - np.add.reduce(np.logaddexp(0.0, eta)))


def _gradient(X: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Log-likelihood gradient given the fitted probabilities ``p``."""
    return X.T @ (y - p)


def _irls(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    start: Sequence[float] | None = None,
) -> tuple[np.ndarray, float, bool, int]:
    """Maximize loglik − lam·‖beta‖² by damped Newton steps from ``start``.

    Returns (beta, objective, converged, iterations); no accepted step
    lowers the objective.  The iterations start at zero unless ``start``
    is given.  They stop after the step whose predicted gain, half the
    Newton decrement gᵀH⁻¹g, is under ``LOGLIK_TOL``, which does not
    change when a column is rescaled (Boyd & Vandenberghe, 2004,
    §9.5.1), or where no halving keeps a step from lowering the objective.

    With lam = 0, once some |eta| exceeds ``SEPARATION_ETA``, an accepted
    step or new beta that is a witness raises :class:`SeparationError`:
    d with sᵢxᵢ·d ≥ −τ on every row and > τ on some, where sᵢ = 2yᵢ − 1
    and τ = 1e-6·maxᵢ|sᵢxᵢ·d| (Albert & Anderson, 1984).  The gate only
    delays the test; τ makes it inexact, so its agreement with the LP
    rests on ``tests/separation_sweep.py`` and the test suite.  A
    singular weighted system raises :class:`SingularModelError`.
    """
    beta = np.zeros(X.shape[1]) if start is None else np.array(start, dtype=float)
    eta = X @ beta
    current = _loglik(y, eta) - lam * float(beta @ beta) if lam else _loglik(y, eta)
    p = _sigmoid(eta)
    gradient = _gradient(X, y, p) - 2.0 * lam * beta if lam else _gradient(X, y, p)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        weights = p * (1.0 - p)
        hessian = (X * weights[:, None]).T @ X
        if lam:
            hessian += 2.0 * lam * np.eye(X.shape[1])
        try:
            step = np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            raise SingularModelError("weighted least-squares system is singular") from None
        converged = float(gradient @ step) < 2.0 * LOGLIK_TOL
        # Halve the step up to 30 times until the objective does not fall.
        for _ in range(31):
            candidate = beta + step
            eta = X @ candidate
            value = _loglik(y, eta) - lam * float(candidate @ candidate) if lam else _loglik(y, eta)
            if not value < current:
                break
            step /= 2.0
        if value < current:
            break
        if lam == 0.0 and np.maximum.reduce(np.abs(eta)) > SEPARATION_ETA:
            # sᵢxᵢ·d for d the step, then d the new beta.
            for margins in (2.0 * y - 1.0) * np.array([X @ step, eta]):
                tau = 1e-6 * np.maximum.reduce(np.abs(margins))
                if np.minimum.reduce(margins) >= -tau and np.maximum.reduce(margins) > tau:
                    raise SeparationError(_WITNESS)
        beta, current = candidate, value
        if converged:
            break
        p = _sigmoid(eta)
        gradient = _gradient(X, y, p) - 2.0 * lam * beta if lam else _gradient(X, y, p)
    return beta, current, converged, iterations


def _binary(values: np.ndarray) -> bool:
    return bool(((values == 0) | (values == 1)).all())


def _separation(X: np.ndarray, y: np.ndarray) -> tuple[int, str, tuple[int, ...] | None]:
    """The first order whose leading columns separate, why, and lag 1's table.

    Order 0 is constant responses.  A 0/1 lag j that takes both values
    separates when its 2×2 table with 0/1 responses has an empty cell:
    ±e_j or ±(e_0 − e_j) is then a direction of unbounded likelihood
    (Albert & Anderson, 1984).  0/1 lags 1 and 2 separate when some g,
    affine on the corners of their square (g00 − g01 − g10 + g11 = 0), is
    ≥ 0 where only successes, ≤ 0 where only failures, 0 where both occur,
    and not 0 everywhere: with three corners seen, when one is unmixed;
    with four, when two unmixed ones have differing signs times (+1, −1,
    −1, +1).  Fewer corners leave the design rank-deficient.  A direction
    that separates order l, padded with zeros, separates every larger
    order, so a slice of leading columns agrees on its own orders.
    Without a verdict it returns the number of columns and "".  The
    table is (n00, n01, n10, n11), where nab counts lag 1 = a followed by
    response b, when the responses vary and they and lag 1 are 0/1, else
    None.
    """
    if (y == y[0]).all():
        return 0, _CONSTANT, None
    k = X.shape[1]
    if not _binary(y):
        return k, "", None
    lags = X[:, 1:]
    n = len(y)
    ones = lags.sum(axis=0)
    n11 = y @ lags
    n01 = y.sum() - n11
    # n10 = ones - n11 and n00 = (n - ones) - n01 complete each table.
    empty = (n11 == 0) | (n11 == ones) | (n01 == 0) | (n01 == n - ones)
    empty &= (0 < ones) & (ones < n)
    # Only the columns a verdict reads are checked for 0/1 values.
    first = next((int(j) + 1 for j in np.flatnonzero(empty) if _binary(lags[:, j])), k)
    cells = None
    if k > 1 and _binary(X[:, 1]):
        cells = tuple(map(int, (n - ones[0] - n01[0], n01[0], ones[0] - n11[0], n11[0])))
    if first > 2 and cells and _binary(X[:, 2]):
        # (failures, successes) at each corner 2 * lag 1 + lag 2.
        joint = np.bincount((4 * X[:, 1] + 2 * X[:, 2] + y).astype(np.intp), minlength=8).tolist()
        corners = list(zip(joint[0::2], joint[1::2]))
        # +1 with only successes, −1 with only failures, 0 else; times the sign in g.
        signed = [((f == 0) - (s == 0)) * sign for (f, s), sign in zip(corners, (1, -1, -1, 1))]
        seen = sum(map(any, corners))
        if seen == 3 and any(signed) or seen == 4 and max(signed) > 0 > min(signed):
            return 2, _SPLIT, cells
    return first, _EMPTY_CELL.format(first) if first < k else "", cells


def fit(
    design: LagDesign,
    *,
    ridge_fallback: bool = False,
    _start: Sequence[float] | None = None,
    _separated: tuple[int, str, tuple[int, ...] | None] | None = None,
) -> ModelFit:
    """Maximum-likelihood fit of the order-l autologistic coefficients.

    One table pass (``_separation``) runs before any iteration.  It
    raises :class:`SeparationError` for constant responses, for a 0/1 lag
    column that takes both values and leaves an empty cell in its 2×2
    table with the response, and, from order 2 on, for 0/1 lags 1 and 2
    that split the responses in their joint table.  Its lag-1 table fits
    an order-1 0/1 design in closed form when the four transition counts
    are all positive (``iterations=0``); every other design is fit by
    damped Newton iterations, which stop on the Newton decrement and
    raise :class:`SeparationError` when a step or the coefficients meet
    Albert & Anderson's sign conditions up to a relative tolerance (see
    ``_irls``).  A singular weighted system raises
    :class:`SingularModelError`.  With ``ridge_fallback`` set, either
    error instead retries the fit from zero with a small quadratic
    penalty, flagged as ``ridge`` (and as ``separation_detected`` after
    a separation).  Private to this module, ``_start`` is where the
    unpenalized iterations begin, and ``_separated`` the ``_separation``
    of a design whose leading columns and responses are this one's;
    ``select_order`` passes the order below's fit and its cap design's,
    naming as separated a smaller order whose fit found separation.
    """
    parameters = design.order + 1
    if design.n < parameters:
        raise InsufficientDataError(
            f"{design.n} responses cannot identify {parameters} coefficients"
        )
    X, y = design.X, design.y
    separation = ridge = False
    try:
        first, message, cells = _separated or _separation(X, y)
        if first <= design.order:
            raise SeparationError(message)
        if design.order == 1 and cells and min(cells) and (X[:, 0] == 1).all():
            n00, n01, n10, n11 = cells
            b0 = math.log(n01 / n00)
            beta = np.array([b0, math.log(n11 / n10) - b0])
            value, converged, iterations = _loglik(y, X @ beta), True, 0
        else:
            beta, value, converged, iterations = _irls(X, y, 0.0, _start)
    except (SeparationError, SingularModelError) as exc:
        if not ridge_fallback:
            raise
        separation, ridge = isinstance(exc, SeparationError), True
        beta, _, converged, iterations = _irls(X, y, RIDGE_LAMBDA)
        value = _loglik(y, X @ beta)
    return ModelFit(
        beta=tuple(beta.tolist()),
        loglik=value,
        aic=2.0 * parameters - 2.0 * value,
        order=design.order,
        converged=converged,
        separation_detected=separation,
        ridge=ridge,
        iterations=iterations,
    )


def max_order(r: int, fraction: float = MAX_ORDER_FRACTION) -> int:
    """Largest candidate order for a series of length r."""
    return int(math.floor(fraction * r))


def select_order(
    w: BinarySeries,
    *,
    max_order_fraction: float = MAX_ORDER_FRACTION,
    ridge_fallback: bool = False,
    parsimony_margin: float = PARSIMONY_MARGIN,
) -> OrderSelection:
    """Pick the autoregressive order among 1 ... floor(fraction * r).

    Candidates are fit on a common conditioning window (responses start
    after the largest candidate's lags) so their AICs are comparable.
    The winner is the smallest order whose AIC sits within
    ``parsimony_margin`` of the minimum: gaps of a few AIC units are
    weak evidence, so orders that close count as tied and ties resolve
    toward parsimony.  A margin of 0 reduces to the plain AIC minimum.

    Orders whose fit fails are skipped with a reason.  The first order
    whose fit finds separation ends the search: every larger order is
    separated too, and is skipped without a fit, with the reason
    ``order <l> is separated: <message>``; under ``ridge_fallback`` it
    takes the ridge fit directly instead.  A singular or too-short fit
    skips only its own order.  No candidate fitting at all, or a cap
    that leaves no response to fit, is a selection error.

    Order l + 1's Newton iterations start at (beta_l, 0), order l's
    coefficients and a zero for the new lag, as pathwise solvers do
    (Friedman, Hastie & Tibshirani, 2010).  An order after a skipped
    order starts at zero, and so does every order above the first ridge
    fit.  With full rank and no separation the likelihood has one
    maximizer, so the start changes the iterations, not the result.
    """
    if not parsimony_margin >= 0:
        raise ValueError("parsimony_margin must be non-negative")
    r = len(w.values)
    cap = max_order(r, max_order_fraction)
    if cap < 1:
        raise OrderSelectionError(f"{w.package!r}: {r} releases allow no autoregressive order")
    if cap >= r:
        raise OrderSelectionError(
            f"{w.package!r}: order cap {cap} leaves no response in {r} releases"
        )
    aics: dict[int, float] = {}
    skipped: dict[int, str] = {}
    # Conditioning every order on the same initial window, the first cap
    # values, keeps their likelihoods over the same responses, so AICs
    # compare like with like.  Per-order windows would hand longer lags
    # fewer responses and shift their log-likelihoods mechanically,
    # swamping the AIC penalty.  Order l is the first l + 1 columns, and
    # the cap design's table checks answer for every order.
    shared = build_lag_design(w, cap)
    separated = _separation(shared.X, shared.y)
    start, warm = None, True
    for order in range(1, cap + 1):
        design = LagDesign(np.ascontiguousarray(shared.X[:, : order + 1]), shared.y)
        try:
            model = fit(design, ridge_fallback=ridge_fallback, _start=start, _separated=separated)
        except SeparationError as exc:
            # A direction b separating order l gives (b, 0) separating
            # every larger order on the same responses: none has an MLE.
            skipped[order] = str(exc)
            for larger in range(order + 1, cap + 1):
                skipped[larger] = f"order {order} is separated: {exc}"
            break
        except (SingularModelError, InsufficientDataError) as exc:
            skipped[order] = str(exc)
            start = None
            continue
        aics[order] = model.aic
        # Above a ridge fit every order is separated or singular too.
        warm = warm and not model.ridge
        if model.separation_detected:
            separated = (order, *separated[1:])
        start = (*model.beta, 0.0) if warm else None
    if not aics:
        raise OrderSelectionError(
            f"{w.package!r}: no order in 1..{cap} produced a usable fit"
        )
    floor = min(aics.values())
    selected = min(
        order for order, aic in aics.items() if aic <= floor + parsimony_margin
    )
    return OrderSelection(order=selected, aics=aics, skipped=skipped)


def eligibility(
    w: BinarySeries,
    t: int,
    order: int,
    *,
    min_releases: int = MIN_RELEASES,
    min_std: float = MIN_STD,
) -> AttritionRecord | None:
    """Apply the length and training-variance filters for one horizon.

    Returns ``None`` when the horizon is eligible, else its exclusion record.
    """
    r = len(w.values)
    window = r - (t + order)
    if r < min_releases:
        return AttritionRecord(w.package, "too-few-releases", "", t=t)
    if window < 1:
        return AttritionRecord(w.package, "no-training-data", "", t=t)
    training = w.values[:window]
    mean = sum(training) / window
    std = math.sqrt(sum((v - mean) ** 2 for v in training) / window)
    if std < min_std:
        return AttritionRecord(w.package, "low-training-variance", f"std={std:.4f}", t=t)
    return None


def threshold_accuracy(probs: Sequence[float], actuals: Sequence[int]) -> float:
    """Share of positions where the probability is at least 1/2 exactly when the value is 1."""
    if len(probs) != len(actuals):
        raise ValueError("probabilities and actuals differ in length")
    if not len(probs):
        raise ValueError("nothing to score")
    hits = np.count_nonzero((np.asarray(probs) >= 0.5) == (np.asarray(actuals) != 0))
    return int(hits) / len(probs)


def naive_baseline(w: BinarySeries, t: int, tie_value: int = TIE_VALUE) -> float:
    """Accuracy of predicting the training prefix's majority state.

    An exactly tied prefix predicts ``tie_value``; the default
    ``TIE_VALUE`` assumes vulnerable when in doubt.
    """
    r = len(w.values)
    if t < 1 or r <= t:
        raise InsufficientDataError(f"horizon {t} leaves no training data for r={r}")
    training = w.values[: r - t]
    ones = sum(training)
    if 2 * ones > len(training):
        majority = 1
    elif 2 * ones < len(training):
        majority = 0
    else:
        majority = tie_value
    test = w.values[r - t :]
    return sum(1 for v in test if v == majority) / t


def forecast(
    w: BinarySeries,
    t: int,
    order: int,
    *,
    min_releases: int = MIN_RELEASES,
    min_std: float = MIN_STD,
    ridge_fallback: bool = False,
    full_sample: bool = False,
    tie_value: int = TIE_VALUE,
) -> ForecastReport:
    """One-step-ahead forecasts for the last t releases.

    Coefficients are estimated on the prefix before the test window
    (``full_sample=True`` instead fits on the whole series, for
    sensitivity checks); test-window predictions always condition on the
    actual observed lag values.
    """
    record = eligibility(w, t, order, min_releases=min_releases, min_std=min_std)
    if record is not None:
        raise NotEligibleError(record)
    full = build_lag_design(w, order)
    training = full if full_sample else LagDesign(full.X[:-t], full.y[:-t])
    try:
        model = fit(training, ridge_fallback=ridge_fallback)
    except (SeparationError, SingularModelError, InsufficientDataError) as exc:
        raise ForecastError(f"{w.package!r}: training fit failed: {exc}") from exc
    test_y = full.y[-t:]
    p = _sigmoid(full.X[-t:] @ np.asarray(model.beta))
    abs_errors = tuple(np.abs(test_y - p).tolist())
    flags = []
    if model.ridge:
        flags.append("ridge")
    if model.separation_detected:
        flags.append("separation")
    if full_sample:
        flags.append("full-sample")
    return ForecastReport(
        package=w.package,
        t=t,
        order=order,
        abs_errors=abs_errors,
        mean_abs_error=statistics.fmean(abs_errors),
        median_abs_error=statistics.median(abs_errors),
        max_abs_error=max(abs_errors),
        accuracy=threshold_accuracy(p, test_y),
        naive_accuracy=naive_baseline(w, t, tie_value),
        converged=model.converged,
        flags=tuple(flags),
    )


def experiment_summary(
    reports: Sequence[ForecastReport],
) -> dict[int, HorizonSummary]:
    """Between-package averages per horizon, Table-style."""
    if not reports:
        raise InsufficientDataError("no forecast reports to summarize")
    by_horizon: dict[int, list[ForecastReport]] = {}
    for report in reports:
        by_horizon.setdefault(report.t, []).append(report)
    summaries = {}
    for t in sorted(by_horizon):
        group = by_horizon[t]
        summaries[t] = HorizonSummary(
            t=t,
            packages=len(group),
            mean_abs_error=statistics.fmean(r.mean_abs_error for r in group),
            median_abs_error=statistics.fmean(r.median_abs_error for r in group),
            max_abs_error=statistics.fmean(r.max_abs_error for r in group),
            accuracy=statistics.fmean(r.accuracy for r in group),
            naive_accuracy=statistics.fmean(r.naive_accuracy for r in group),
        )
    return summaries


def run_experiment(
    series: Sequence[BinarySeries],
    horizons: Sequence[int] = HORIZONS,
    *,
    min_releases: int = MIN_RELEASES,
    min_std: float = MIN_STD,
    max_order_fraction: float = MAX_ORDER_FRACTION,
    parsimony_margin: float = PARSIMONY_MARGIN,
    ridge_fallback: bool = False,
    full_sample: bool = False,
    tie_value: int = TIE_VALUE,
) -> ExperimentResult:
    """Select orders, filter, forecast, and summarize a whole corpus."""
    reports: list[ForecastReport] = []
    exclusions: list[AttritionRecord] = []
    orders: dict[str, OrderSelection] = {}
    for w in sorted(series, key=lambda s: s.package):
        if len(w.values) < min_releases:
            exclusions.append(
                AttritionRecord(w.package, "too-few-releases", f"r={len(w.values)}")
            )
            continue
        try:
            selection = select_order(
                w,
                max_order_fraction=max_order_fraction,
                ridge_fallback=ridge_fallback,
                parsimony_margin=parsimony_margin,
            )
        except OrderSelectionError as exc:
            exclusions.append(
                AttritionRecord(w.package, "order-selection-failed", str(exc))
            )
            continue
        orders[w.package] = selection
        for t in horizons:
            try:
                reports.append(
                    forecast(
                        w,
                        t,
                        selection.order,
                        min_releases=min_releases,
                        min_std=min_std,
                        ridge_fallback=ridge_fallback,
                        full_sample=full_sample,
                        tie_value=tie_value,
                    )
                )
            except NotEligibleError as exc:
                exclusions.append(exc.record)
            except ForecastError as exc:
                exclusions.append(
                    AttritionRecord(w.package, "forecast-failed", str(exc), t=t)
                )
    summaries = experiment_summary(reports) if reports else {}
    return ExperimentResult(
        reports=tuple(reports),
        exclusions=tuple(exclusions),
        summaries=summaries,
        orders=orders,
    )
