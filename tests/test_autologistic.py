"""Lag designs, logistic MLE, order selection, and forecast scoring."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import oracles
from vulnseries import autologistic
from vulnseries.autologistic import (
    LagDesign,
    ModelFit,
    PARSIMONY_MARGIN,
    _sigmoid,
    build_lag_design,
    eligibility,
    experiment_summary,
    fit,
    forecast,
    log_likelihood,
    max_order,
    naive_baseline,
    run_experiment,
    score,
    select_order,
    simulate,
    threshold_accuracy,
)
from vulnseries.errors import (
    AttritionRecord,
    ForecastError,
    InsufficientDataError,
    NotEligibleError,
    OrderSelectionError,
    SeparationError,
    SingularModelError,
)
from vulnseries.markov import transition_counts
from vulnseries.vectorize import BinarySeries


def series(values, package="pkg"):
    return BinarySeries(package, tuple(values))


# --- lag designs -------------------------------------------------------


def test_first_order_design_alignment():
    design = build_lag_design(series([0, 1, 1, 0]), 1)
    assert design.y.tolist() == [1, 1, 0]
    assert design.X.tolist() == [[1, 0], [1, 1], [1, 1]]


def test_second_order_design_alignment():
    design = build_lag_design(series([0, 1, 1, 0]), 2)
    assert design.y.tolist() == [1, 0]
    # constant, then most recent lag first: row for w[2] is (1, w[1], w[0])
    assert design.X.tolist() == [[1, 1, 0], [1, 1, 1]]


def test_order_must_leave_responses():
    with pytest.raises(InsufficientDataError):
        build_lag_design(series([0, 1, 1, 0]), 4)
    with pytest.raises(ValueError):
        build_lag_design(series([0, 1, 1, 0]), 0)


def test_design_validation_rejects_ragged_rows():
    with pytest.raises(ValueError):
        LagDesign(X=[[1, 1], [1, 0, 1]], y=[1, 0])
    with pytest.raises(ValueError):
        LagDesign(X=np.ones((3, 2)), y=[1, 0])


# --- prediction and likelihood ------------------------------------------


def test_log_likelihood_matches_direct_formula():
    design = build_lag_design(series([0, 1, 1, 0, 1, 0, 1, 1]), 1)
    beta = (0.3, -0.7)
    manual = 0.0
    for y, row in zip(design.y, design.X):
        eta = beta[0] + beta[1] * row[1]
        p = 1.0 / (1.0 + math.exp(-eta))
        manual += y * math.log(p) + (1 - y) * math.log(1.0 - p)
    assert log_likelihood(design, beta) == pytest.approx(manual, abs=1e-12)


# --- fitting -------------------------------------------------------------


def test_intercept_only_fit_recovers_the_logit_of_the_mean():
    responses = (1, 1, 1, 0, 1, 0, 1, 1, 0, 1)
    design = LagDesign(X=np.ones((10, 1)), y=responses)
    model = fit(design)
    mean = sum(responses) / len(responses)
    assert model.beta[0] == pytest.approx(math.log(mean / (1 - mean)), abs=1e-8)


def test_gradient_vanishes_at_the_optimum():
    rng = random.Random(3)
    values = simulate((-0.5, 1.5), 120, rng)
    design = build_lag_design(series(values), 1)
    model = fit(design)
    assert model.converged
    gradient = score(design, model.beta)
    assert max(abs(g) for g in gradient) < 1e-6


def test_fit_agrees_with_independent_optimizer():
    rng = random.Random(17)
    for order in (1, 2):
        values = simulate((-0.8, 1.2, 0.4)[: order + 1], 150, rng)
        design = build_lag_design(series(values), order)
        model = fit(design)
        lags = tuple(tuple(row[1:]) for row in design.X.tolist())
        ref_beta, ref_loglik = oracles.reference_mle(tuple(design.y), lags)
        assert model.loglik == pytest.approx(ref_loglik, abs=1e-7)
        assert np.allclose(model.beta, ref_beta, atol=1e-5)


def test_analytic_gradient_matches_finite_differences():
    rng = random.Random(23)
    values = simulate((-0.5, 1.0), 80, rng)
    design = build_lag_design(series(values), 1)
    point = (0.25, -0.5)
    analytic = np.asarray(score(design, point))
    numeric = oracles.fd_gradient(lambda b: log_likelihood(design, tuple(b)), point)
    scale = max(1.0, float(np.max(np.abs(numeric))))
    assert np.max(np.abs(analytic - numeric)) / scale < 1e-4


def test_aic_identity_holds_on_every_fit():
    rng = random.Random(29)
    for order in (1, 2, 3):
        values = simulate((-0.5, 1.5), 90, rng)
        model = fit(build_lag_design(series(values), order))
        assert model.aic == pytest.approx(2.0 * (order + 1) - 2.0 * model.loglik)


def test_objective_trace_is_monotone(monkeypatch):
    rng = random.Random(31)
    values = simulate((-0.5, 1.5), 100, rng)
    # Order 2: an order-1 fit is exact, without iterations.  Capping the
    # iterations at 0, 1, ..., k replays the objective path step by step.
    design = build_lag_design(series(values), 2)
    model = fit(design)
    assert model.converged and model.iterations >= 2
    trace = []
    for cap in range(model.iterations + 1):
        monkeypatch.setattr(autologistic, "MAX_ITERATIONS", cap)
        trace.append(fit(design).loglik)
    assert trace[0] == pytest.approx(design.n * math.log(0.5))
    assert trace[-1] == model.loglik
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def _outcome(design):
    try:
        return fit(design)
    except (SeparationError, SingularModelError) as exc:
        return type(exc), str(exc)


def _without_table(monkeypatch):
    """Make ``_separation`` drop lag 1's table, which forces the iterations."""
    separation = autologistic._separation
    monkeypatch.setattr(autologistic, "_separation", lambda X, y: (*separation(X, y)[:2], None))


def test_order_one_fits_are_the_markov_chain_mle(monkeypatch):
    # Every binary series of length 3 to 12.  With every transition cell
    # positive the closed form must agree with the Newton iterations;
    # otherwise the fit takes the iterative path, errors included.
    designs = [
        build_lag_design(series([(code >> i) & 1 for i in range(length)]), 1)
        for length in range(3, 13)
        for code in range(2**length)
    ]
    assert len(designs) == 8184
    exact = [_outcome(design) for design in designs]
    _without_table(monkeypatch)
    iterative = [_outcome(design) for design in designs]
    closed_forms = 0
    for design, model, reference in zip(designs, exact, iterative):
        cells = np.bincount((2 * design.X[:, 1] + design.y).astype(int), minlength=4)
        if cells.min() == 0:
            assert model == reference
            continue
        closed_forms += 1
        assert (model.converged, model.iterations) == (True, 0)
        assert isinstance(reference, ModelFit) and reference.converged
        assert model.aic == pytest.approx(reference.aic, abs=1e-6)
        n00, n01, n10, n11 = cells
        shares = np.where(design.X[:, 1] == 1, n11 / (n10 + n11), n01 / (n00 + n01))
        fitted = _sigmoid(design.X @ np.asarray(model.beta))
        iterated = _sigmoid(design.X @ np.asarray(reference.beta))
        assert np.allclose(fitted, shares, rtol=0.0, atol=1e-12)
        assert np.allclose(fitted, iterated, rtol=0.0, atol=1e-6)
    assert closed_forms > 1000


def test_one_table_decides_and_fits_every_order_one_design(monkeypatch):
    # fit reads an order-1 0/1 design's verdict and closed form from the
    # one 2x2 table that _separation counts.  Counting the table again,
    # independently, for the closed form must give the same ModelFit bit
    # for bit, or the same exception and message, on every series of
    # length 3-12.
    designs = [
        build_lag_design(series(values), 1)
        for length in range(3, 13)
        for values in itertools.product((0, 1), repeat=length)
    ]
    outcomes = [_outcome(design) for design in designs]
    separation = autologistic._separation

    def counted_again(X, y):
        first, message, cells = separation(X, y)
        if cells is not None:
            (n00, n01), (n10, n11) = transition_counts(X[:, 1], y)
            cells = n00, n01, n10, n11
        return first, message, cells

    monkeypatch.setattr(autologistic, "_separation", counted_again)
    assert [repr(_outcome(design)) for design in designs] == list(map(repr, outcomes))
    fits = sum(isinstance(outcome, ModelFit) for outcome in outcomes)
    assert fits > 1000 and len(outcomes) - fits > 1000


def test_sigmoid_is_bit_identical_to_the_masked_pair():
    def masked_pair(eta):
        out = np.empty_like(eta)
        positive = eta >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-eta[positive]))
        expeta = np.exp(eta[~positive])
        out[~positive] = expeta / (1.0 + expeta)
        return out

    edges = [0.0, 1e-300, 1.0, 36.0, 709.8, 745.2, math.inf]
    draws = np.random.default_rng(43).normal(0.0, 50.0, 10_000)
    eta = np.concatenate([edges, [-x for x in edges], [math.nan], draws])
    assert np.array_equal(_sigmoid(eta), masked_pair(eta), equal_nan=True)


def test_sigmoid_is_bit_identical_to_the_two_branch_formula():
    # _sigmoid divides only where each branch is used; its bits must be
    # those of evaluating both quotients and choosing with np.where.
    edges = [0.0, 1e-300, 1.0, 36.0, 709.0, 709.8, 745.0, 745.2, math.inf]
    draws = np.random.default_rng(47).normal(0.0, 50.0, 10_000)
    eta = np.concatenate([edges, [-x for x in edges], [math.nan], draws])
    e = np.exp(-np.abs(eta))
    d = 1.0 + e
    assert _sigmoid(eta).tobytes() == np.where(eta >= 0, 1.0 / d, e / d).tobytes()
    # accuracy's ties at p = 1/2 rest on the value at eta = ±0.
    assert _sigmoid(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]


def test_complement_symmetry_of_the_mle():
    rng = random.Random(37)
    values = simulate((-0.5, 1.5), 140, rng)
    flipped = [1 - v for v in values]
    a = fit(build_lag_design(series(values), 1))
    b = fit(build_lag_design(series(flipped), 1))
    assert a.loglik == pytest.approx(b.loglik, abs=1e-7)
    # p(1|lag) on the original equals p(0|1-lag) on the complement:
    # intercept maps to -(b0 + b1), the slope is preserved.
    assert b.beta[0] == pytest.approx(-(a.beta[0] + a.beta[1]), abs=1e-5)
    assert b.beta[1] == pytest.approx(a.beta[1], abs=1e-5)


def test_alternating_series_separates_perfectly():
    # The lag anti-predicts the response exactly, so the slope diverges.
    with pytest.raises(SeparationError):
        fit(build_lag_design(series([0, 1] * 6), 1))


def test_blockwise_series_is_quasi_separated():
    # The lag predicts the response everywhere except the single switch,
    # so the likelihood is monotone in the slope and the MLE diverges
    # even though the mixed lag-0 cell keeps the likelihood bounded.
    with pytest.raises(SeparationError):
        fit(build_lag_design(series([0, 0, 0, 0, 1, 1, 1, 1]), 1))


def test_constant_responses_separate():
    with pytest.raises(SeparationError):
        fit(build_lag_design(series([1, 1, 1, 1, 1, 1]), 1))


def test_an_empty_cell_separates_before_either_fitting_path(monkeypatch):
    # 0110 at order 1: lag 0 is never followed by 0, so e_0 - e_1
    # separates.  Without this check the fit returned (19.2, -19.2).  The
    # order-1 table decides it before the closed form evaluates a
    # likelihood, and with the table dropped, before the iterations.
    def unreachable(*args):
        raise AssertionError("the design reached a fitting path")

    monkeypatch.setattr(autologistic, "_loglik", unreachable)
    monkeypatch.setattr(autologistic, "_irls", unreachable)
    design = build_lag_design(series([0, 1, 1, 0]), 1)
    for drop_table in (False, True):
        if drop_table:
            _without_table(monkeypatch)
        with pytest.raises(SeparationError) as caught:
            fit(design)
        assert str(caught.value) == (
            "perfect separation: lag 1 leaves an empty cell in its table with the response"
        )


def test_a_constant_lag_column_is_still_singular():
    # The lag column is all zeros: it has no 2x2 table, the closed form
    # declines the empty cells, and the Newton system is singular.
    design = build_lag_design(series([0, 0, 0, 0, 1]), 1)
    with pytest.raises(SingularModelError) as caught:
        fit(design)
    assert str(caught.value) == "weighted least-squares system is singular"


def test_the_flattest_direction_finds_separation_off_the_axes():
    # Every 2x2 table is full, lags 1 and 2 split nothing, and the
    # recession direction is e_2 - e_3: without the probe the fit
    # returned (0.9, -0.6, 18.9, -19.5).
    design = build_lag_design(series([0, 0, 0, 0, 1, 1, 1, 0, 1]), 3)
    assert oracles.lp_separated(design.X, design.y)
    assert autologistic._separation(design.X, design.y) == (4, "", (1, 2, 1, 2))
    with pytest.raises(SeparationError, match="flattest direction"):
        fit(design)


@pytest.mark.parametrize(
    "values, separated",
    [
        # Three corners seen: 10 holds only successes, 00 and 11 both
        # responses; g = e_1 - e_2 is 1 at 10 and 0 at 00 and 11.  The
        # probe used to find it after 17-20 Newton steps.
        ("0001110", True),
        # Four corners: 01 only failures, 10 only successes; their signs
        # times (+1, -1, -1, +1) are +1 and -1, so g = e_1 - e_2 again.
        ("00011100", True),
        # Four corners: 01 only successes, 11 only failures; both signs
        # are -1, so no affine g separates.
        ("00010110", False),
    ],
)
def test_lags_one_and_two_decide_order_two_before_iterating(monkeypatch, values, separated):
    # Every 2x2 table of a single lag is full in all three designs.
    design = build_lag_design(series(int(v) for v in values), 2)
    assert oracles.lp_separated(design.X, design.y) == separated
    message = "perfect separation: lags 1 and 2 split the responses in their joint table"
    verdict = (2, message) if separated else (3, "")
    cells = tuple(np.bincount((2 * design.X[:, 1] + design.y).astype(int), minlength=4).tolist())
    assert autologistic._separation(design.X, design.y) == (*verdict, cells)
    if not separated:
        assert fit(design).converged
        return

    def unreachable(*args):
        raise AssertionError("the design reached a fitting path")

    monkeypatch.setattr(autologistic, "_irls", unreachable)
    with pytest.raises(SeparationError) as caught:
        fit(design)
    assert str(caught.value) == message


def test_the_flattest_direction_probe_does_not_depend_on_the_start():
    # Started at zero, this separated order-4 design converges with every
    # |beta_j| under SEPARATION_PROBE_BOUND; started at the order-3 fit,
    # with a coefficient past it.  The probe's gate reads the linear
    # predictor, so both starts find the separation.
    shared = build_lag_design(series([1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0]), 4)
    assert oracles.lp_separated(shared.X, shared.y)
    lower = fit(LagDesign(shared.X[:, :4], shared.y))
    for start in (None, (*lower.beta, 0.0)):
        with pytest.raises(SeparationError, match="flattest direction"):
            fit(shared, _start=start)


@pytest.mark.parametrize("values", [[0, 1] * 6, [0, 0, 0, 0, 1, 1, 1, 1]])
def test_ridge_fallback_tames_separation(values):
    model = fit(build_lag_design(series(values), 1), ridge_fallback=True)
    assert model.ridge
    assert model.converged
    assert all(math.isfinite(b) for b in model.beta)
    assert model.loglik <= 0.0


def test_singular_design_raises_or_falls_back_to_ridge():
    values = simulate((-0.5, 1.5), 60, random.Random(5))
    # Two identical lag columns make the weighted system singular.
    design = LagDesign(X=[[1, a, a] for a in values[:-1]], y=values[1:])
    with pytest.raises(SingularModelError):
        fit(design)
    model = fit(design, ridge_fallback=True)
    assert model.ridge
    assert not model.separation_detected
    assert model.converged


def test_short_design_is_insufficient():
    design = LagDesign(X=[[1, 0]], y=[1])
    with pytest.raises(InsufficientDataError):
        fit(design)


# --- order selection -----------------------------------------------------


def test_max_order_is_a_tenth_of_the_history():
    assert max_order(27) == 2
    assert max_order(9) == 0
    assert max_order(200) == 20
    assert max_order(30, fraction=0.2) == 6


def test_select_order_prefers_the_generating_order():
    rng = random.Random(2)
    values = simulate((-0.5, 1.5), 200, rng)
    selection = select_order(series(values))
    assert selection.order == 1
    assert 1 in selection.aics


def test_selection_margin_zero_is_plain_argmin():
    rng = random.Random(8)
    values = simulate((-0.5, 1.5), 150, rng)
    selection = select_order(series(values), parsimony_margin=0.0)
    best = min(selection.aics, key=lambda k: (selection.aics[k], k))
    assert selection.order == best


def test_selection_band_prefers_the_smallest_tied_order():
    rng = random.Random(13)
    values = simulate((-0.5, 1.5), 200, rng)
    selection = select_order(series(values))
    floor = min(selection.aics.values())
    in_band = [k for k, v in selection.aics.items() if v <= floor + PARSIMONY_MARGIN]
    assert selection.order == min(in_band)


def test_candidates_share_a_conditioning_window():
    rng = random.Random(21)
    values = simulate((-0.4, 1.0), 60, rng)
    selection = select_order(series(values))
    cap = max_order(60)
    assert set(selection.aics) | set(selection.skipped) == set(range(1, cap + 1))


def test_too_short_history_cannot_select():
    with pytest.raises(OrderSelectionError):
        select_order(series([0, 1, 0, 1, 0, 1, 0, 1, 0]))


def test_all_candidates_failing_is_a_selection_error():
    alternating = series([0, 1] * 13 + [0])
    with pytest.raises(OrderSelectionError):
        select_order(alternating)
    selection = select_order(alternating, ridge_fallback=True)
    assert selection.order >= 1
    assert not selection.skipped


def _lp_separated_rows(design, memo):
    # Separation depends only on the set of distinct (row, response)
    # pairs, so the LP runs once per set.
    rows = np.unique(np.column_stack([design.X, design.y]), axis=0)
    key = rows.tobytes()
    if key not in memo:
        memo[key] = oracles.lp_separated(rows[:, :-1], rows[:, -1])
    return memo[key]


def test_order_one_separation_verdicts_are_exactly_the_lps():
    # At order 1 the zero-cell check is Albert & Anderson's rule itself:
    # on every 0/1 series of length 3-12 that is not singular, fit
    # raises SeparationError exactly when the LP finds separation.
    memo = {}
    outcomes = Counter()
    for length in range(3, 13):
        for values in itertools.product((0, 1), repeat=length):
            design = build_lag_design(series(values), 1)
            try:
                fit(design)
                separated = False
            except SeparationError:
                separated = True
            except SingularModelError:
                continue
            assert separated == _lp_separated_rows(design, memo), values
            outcomes[separated] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 1000


_VERDICT_KINDS = {
    "responses are constant": "constant",
    "leaves an empty cell": "zero-cell",
    "flattest direction": "flattest",
    "lags 1 and 2 split": "pair",
    "while the likelihood still improves": "bound",
}


def test_every_separation_verdict_is_lp_separated():
    # Pruning the orders above a separated one is exact only if
    # SeparationError is never a false positive; check every 0/1 series
    # of length up to 10 at orders 1-3 against the LP, and count the
    # separated designs that are fitted all the same.
    memo = {}
    verdicts = Counter()
    misses = Counter()
    for length in range(3, 11):
        for values in itertools.product((0, 1), repeat=length):
            for order in range(1, 4):
                if length - order < order + 1:
                    continue
                design = build_lag_design(series(values), order)
                try:
                    fit(design)
                except SeparationError as exc:
                    [kind] = [k for text, k in _VERDICT_KINDS.items() if text in str(exc)]
                    verdicts[order, kind] += 1
                    assert _lp_separated_rows(design, memo), (values, order)
                except SingularModelError:
                    pass
                else:
                    misses[order] += _lp_separated_rows(design, memo)
    for order in (2, 3):
        assert verdicts[order, "zero-cell"] > 100 and verdicts[order, "pair"] > 100
    # Lags 1 and 2 decide every order-2 design the probe used to; the
    # probe still decides some at order 3.  The pair rule also decides the
    # order-3 designs whose recession cone is two-dimensional, where XᵀWX
    # has two near-zero eigenvalues and its flattest eigenvector alone is
    # no direction of increase.
    assert verdicts[2, "flattest"] == 0 and verdicts[3, "flattest"] > 0
    assert dict(misses) == {1: 0, 2: 0, 3: 0}


def test_select_order_returns_no_aic_above_the_first_separated_order():
    cap = 3
    for values in itertools.product((0, 1), repeat=10):
        w = series(values)
        shared = build_lag_design(w, cap)
        expected_aics = {}
        first_separated = None
        for order in range(1, cap + 1):
            try:
                expected_aics[order] = fit(LagDesign(shared.X[:, : order + 1], shared.y)).aic
            except SeparationError:
                first_separated = order
                break
            except SingularModelError:
                pass
        if not expected_aics:
            with pytest.raises(OrderSelectionError):
                select_order(w, max_order_fraction=0.3)
            continue
        selection = select_order(w, max_order_fraction=0.3)
        assert selection.aics == pytest.approx(expected_aics, rel=1e-12), values
        assert set(selection.aics) | set(selection.skipped) == {1, 2, 3}
        if first_separated is not None:
            for order in range(first_separated + 1, cap + 1):
                assert selection.skipped[order].startswith(
                    f"order {first_separated} is separated: "
                ), values


def test_orders_above_a_separated_order_are_not_accepted():
    # Order 1 separates, and so does order 2's design, although a fit of
    # order 2 alone returns beta = (-21.2, 0.0, 21.2) with converged=True.
    w = BinarySeries("x", (0, 1, 0, 1, 0, 0, 0, 0))
    shared = build_lag_design(w, 2)
    assert oracles.lp_separated(shared.X, shared.y)
    with pytest.raises(OrderSelectionError, match="no order in 1..2"):
        select_order(w, max_order_fraction=0.3)


def test_no_order_above_the_first_separated_order_is_fitted(monkeypatch):
    fitted = []

    def counting_fit(design, **kwargs):
        fitted.append(design.order)
        return fit(design, **kwargs)

    monkeypatch.setattr(autologistic, "fit", counting_fit)
    values = (1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0)
    selection = select_order(series(values), max_order_fraction=0.3)
    assert fitted == [1, 2]
    assert set(selection.aics) == {1}
    assert set(selection.aics) | set(selection.skipped) == {1, 2, 3, 4}
    assert not selection.skipped[2].startswith("order ")
    assert selection.skipped[3] == selection.skipped[4] == (
        f"order 2 is separated: {selection.skipped[2]}"
    )


def _selection_outcome(w, **options):
    try:
        selection = select_order(w, **options)
    except OrderSelectionError as exc:
        return str(exc)
    return selection.order, dict(selection.aics), dict(selection.skipped)


def _rounded(outcome):
    if isinstance(outcome, str):
        return outcome
    order, aics, skipped = outcome
    return order, {o: round(aic, 6) for o, aic in aics.items()}, skipped


@pytest.fixture(scope="module", params=[False, True])
def selections(request):
    """Every 0/1 series of length 8-14 at cap 0.3, and simulated order-1
    to order-3 series of length 200, selected with ``ridge_fallback`` as
    the parameter.

    Returns the cases, their outcomes, the indices of the cases in which
    some ``_irls`` call received a start, and ``replay``, a stand-in for
    ``_irls`` that answers a ridge fit it has seen, by its exact design,
    with the recorded result.  ``_irls`` is deterministic, so replaying
    it changes no outcome; it spares the later passes the ridge fits,
    which start at zero and are the same work in every pass.
    """
    cases = [
        (series(values), {"max_order_fraction": 0.3})
        for length in range(8, 15)
        for values in itertools.product((0, 1), repeat=length)
    ]
    rng = random.Random(20261019)
    for beta in ((-0.5, 1.5), (-0.8, 1.2, 0.4), (-0.5, 0.8, -0.6, 1.0)):
        cases += [(series(simulate(beta, 200, rng)), {}) for _ in range(10)]
    for _, options in cases:
        options["ridge_fallback"] = request.param
    irls = autologistic._irls
    ridge_fits = {}
    started = set()

    def replay(X, y, lam, start=None):
        started.add(start is not None)
        if not lam:
            return irls(X, y, lam, start)
        # Ridge fits always start at zero.
        key = (X.shape, X.tobytes(), y.tobytes(), lam)
        if key not in ridge_fits:
            ridge_fits[key] = irls(X, y, lam)
        return ridge_fits[key]

    outcomes, warm = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(autologistic, "_irls", replay)
        for i, (w, options) in enumerate(cases):
            started.clear()
            outcomes.append(_selection_outcome(w, **options))
            if True in started:
                warm.append(i)
    return cases, outcomes, warm, replay


def test_warm_starts_select_what_cold_starts_select(monkeypatch, selections):
    # The order, the AICs to six decimals and the skip reasons must not
    # depend on where the Newton iterations start.  A case in which no
    # fit received a start makes the same calls cold, so only the others
    # are run again.
    cases, outcomes, warm, replay = selections
    monkeypatch.setattr(
        autologistic, "_irls", lambda X, y, lam, start=None: replay(X, y, lam)
    )
    # Exact at both ridge settings.  An order-2 design that lags 1 and 2
    # separate raises before iterating, so its case starts no fit warm.
    assert (len(cases), len(warm)) == (32542, 14662)
    for i in warm:
        w, options = cases[i]
        assert _rounded(_selection_outcome(w, **options)) == _rounded(outcomes[i]), (
            w.values,
            options,
        )


def test_the_per_package_zero_cell_check_changes_no_selection(monkeypatch, selections):
    # select_order runs the constant-response, zero-cell and lags-1-and-2
    # checks once, on its cap design; with fit running its own checks on
    # every order, every case must select exactly the same: order, AICs
    # as exact floats, and skip reasons.  A value other than 0 and 1 at
    # the start of a series reaches the cap design's last lag column only.
    # Under the ridge, every order above one whose fit found separation
    # is told so, as select_order tells it, and takes the ridge directly.
    cases, outcomes, _, replay = selections
    odd = [series((2, *values)) for values in itertools.product((0, 1), repeat=11)]
    odd_options = cases[0][1]
    odd_outcomes = [_selection_outcome(w, **odd_options) for w in odd]
    own_checks = autologistic.fit
    separated_below = []

    def reference_fit(design, *, _separated=None, **kwargs):
        if design.order == 1:
            separated_below.clear()
        if separated_below:
            return own_checks(design, _separated=(separated_below[0], "", None), **kwargs)
        model = own_checks(design, **kwargs)
        if model.separation_detected:
            separated_below.append(design.order)
        return model

    monkeypatch.setattr(autologistic, "_irls", replay)
    monkeypatch.setattr(autologistic, "fit", reference_fit)
    for (w, options), outcome in zip(cases, outcomes):
        assert _selection_outcome(w, **options) == outcome, (w.values, options)
    for w, outcome in zip(odd, odd_outcomes):
        assert _selection_outcome(w, **odd_options) == outcome, w.values


def test_orders_start_at_the_fit_below_until_the_first_ridge_fit(monkeypatch):
    calls = []

    def recording_fit(design, **kwargs):
        calls.append((design.order, kwargs.get("_start")))
        return fit(design, **kwargs)

    monkeypatch.setattr(autologistic, "fit", recording_fit)
    # Order 1 fits; order 2 is separated, so it and every larger order
    # are ridge fits, which must start at zero.
    w = series((1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0))
    select_order(w, max_order_fraction=0.3, ridge_fallback=True)
    shared = build_lag_design(w, 4)
    first = fit(LagDesign(shared.X[:, :2], shared.y))
    assert calls == [(1, None), (2, (*first.beta, 0.0)), (3, None), (4, None)]
    second = fit(LagDesign(shared.X[:, :3], shared.y), ridge_fallback=True)
    assert second.ridge and second.separation_detected


def test_an_order_above_a_probe_separated_order_takes_the_ridge_directly(monkeypatch):
    # No table check separates this series' cap design; the flattest-
    # direction probe finds order 3 separated, so order 3 is a ridge fit.
    # Order 4's own unpenalized fit converges, in 19 iterations, although
    # its design is separated too: (b, 0) carries order 3's direction b
    # up.  Under the ridge, order 4 must take the ridge fit directly, as
    # an order above a table-separated order does.
    w = series(int(v) for v in "00000000111101")
    shared = build_lag_design(w, 4)
    assert autologistic._separation(shared.X, shared.y)[:2] == (5, "")
    assert oracles.lp_separated(shared.X, shared.y)
    unpenalized = fit(shared, ridge_fallback=True)
    assert unpenalized.converged and not unpenalized.ridge
    irls = autologistic._irls
    calls = []

    def recording(X, y, lam, start=None):
        calls.append((X.shape[1] - 1, lam))
        return irls(X, y, lam, start)

    monkeypatch.setattr(autologistic, "_irls", recording)
    selection = select_order(w, max_order_fraction=0.3, ridge_fallback=True)
    ridge = autologistic.RIDGE_LAMBDA
    assert calls == [(2, 0.0), (3, 0.0), (3, ridge), (4, ridge)]
    penalized = irls(shared.X, shared.y, ridge)[0]
    assert selection.aics[4] == 10.0 - 2.0 * log_likelihood(shared, penalized)
    assert selection.aics[4] != unpenalized.aic


def test_a_singular_fit_skips_only_its_own_order(monkeypatch):
    fitted = []

    def singular_at_order_one(design, **kwargs):
        fitted.append((design.order, kwargs.get("_start")))
        if design.order == 1:
            raise SingularModelError("weighted least-squares system is singular")
        return fit(design, **kwargs)

    monkeypatch.setattr(autologistic, "fit", singular_at_order_one)
    values = simulate((-0.4, 1.0), 60, random.Random(21))
    selection = select_order(series(values))
    assert [order for order, _ in fitted] == list(range(1, max_order(60) + 1))
    assert selection.skipped[1] == "weighted least-squares system is singular"
    assert 1 not in selection.aics
    # The order after a skipped one starts at zero, the next at its fit.
    assert fitted[1] == (2, None)
    assert all(len(start) == order + 1 for order, start in fitted[2:])


def test_negative_margin_is_rejected():
    with pytest.raises(ValueError):
        select_order(series([0, 1] * 20), parsimony_margin=-0.5)
    with pytest.raises(ValueError):
        select_order(series([0, 1] * 20), parsimony_margin=math.nan)


def test_order_cap_leaving_no_response_is_a_selection_error():
    with pytest.raises(OrderSelectionError, match="'whole'.*no response"):
        select_order(series([0, 1, 1] * 10, package="whole"), max_order_fraction=1.0)


# --- eligibility ----------------------------------------------------------


def test_eligibility_requires_enough_releases():
    record = eligibility(series([0, 1] * 12), t=5, order=1)
    assert record == AttritionRecord("pkg", "too-few-releases", "", t=5)


def test_eligibility_requires_training_variance():
    w = series([0] * 23 + [1, 0, 1, 1, 0, 1, 0])
    record = eligibility(w, t=5, order=1)
    assert record.reason == "low-training-variance"
    assert record.detail == "std=0.1998"  # sqrt(23) / 24
    assert record.t == 5


def test_eligibility_requires_a_training_window():
    w = series([0, 1] * 15)
    record = eligibility(w, t=29, order=1)
    assert record == AttritionRecord("pkg", "no-training-data", "", t=29)


def test_eligible_series_has_no_exclusion_record():
    assert eligibility(series([0, 1] * 15), t=5, order=1) is None


# --- scoring ---------------------------------------------------------------


def test_threshold_accuracy_is_inclusive_at_one_half():
    assert threshold_accuracy([0.5], [1]) == 1.0
    assert threshold_accuracy([0.49], [1]) == 0.0
    assert threshold_accuracy([0.5], [0]) == 0.0
    assert threshold_accuracy([0.2, 0.8], [0, 1]) == 1.0
    with pytest.raises(ValueError):
        threshold_accuracy([0.5], [1, 0])


def test_naive_baseline_majority_and_tie():
    assert naive_baseline(series([1, 1, 1, 0, 1]), t=1) == 1.0
    assert naive_baseline(series([0, 0, 0, 1, 1]), t=2) == 0.0
    assert naive_baseline(series([1, 0, 1]), t=1) == 1.0  # tie predicts 1
    assert naive_baseline(series([1, 0, 1]), t=1, tie_value=0) == 0.0
    with pytest.raises(InsufficientDataError):
        naive_baseline(series([1, 0]), t=2)


# --- forecasting -----------------------------------------------------------


def eligible_series(seed=101, n=40):
    rng = random.Random(seed)
    while True:
        values = simulate((-0.3, 0.8), n, rng)
        w = series(values)
        if eligibility(w, t=10, order=1) is not None:
            continue
        try:
            forecast(w, t=10, order=1)
        except ForecastError:
            continue
        return w


def test_forecast_scores_exactly_the_last_t():
    w = eligible_series()
    report = forecast(w, t=10, order=1)
    assert report.t == 10
    assert len(report.abs_errors) == 10
    assert report.mean_abs_error == pytest.approx(
        sum(report.abs_errors) / len(report.abs_errors)
    )
    assert report.max_abs_error == max(report.abs_errors)
    assert all(0.0 <= e <= 1.0 for e in report.abs_errors)
    assert 0.0 <= report.accuracy <= 1.0


def test_forecast_predictions_condition_on_actual_lags():
    w = eligible_series()
    r = len(w.values)
    training = series(w.values[: r - 10], w.package)
    model = fit(build_lag_design(training, 1))
    report = forecast(w, t=10, order=1)
    for offset, err in enumerate(report.abs_errors):
        i = r - 10 + offset
        eta = model.beta[0] + model.beta[1] * w.values[i - 1]
        prob = 1.0 / (1.0 + math.exp(-eta))
        assert err == pytest.approx(abs(w.values[i] - prob))


def test_forecast_rejects_ineligible_series():
    with pytest.raises(NotEligibleError):
        forecast(series([0, 1] * 10), t=5, order=1)


def test_full_sample_mode_is_flagged():
    w = eligible_series()
    report = forecast(w, t=10, order=1, full_sample=True)
    assert "full-sample" in report.flags


def test_forecast_wraps_training_fit_failures():
    # The training prefix [0]*20 + [1]*10 is quasi-separated at order 1.
    w = series([0] * 20 + [1] * 10 + [1, 0] * 5)
    assert eligibility(w, t=10, order=1) is None
    with pytest.raises(ForecastError):
        forecast(w, t=10, order=1)


def separate_window_scores(w, t, order, *, ridge_fallback, full_sample):
    """Fit on a matrix of the training prefix alone, score on a fresh test matrix."""
    r = len(w.values)
    source = w if full_sample else series(w.values[: r - t], w.package)
    model = fit(build_lag_design(source, order), ridge_fallback=ridge_fallback)
    X = np.array([[1.0, *w.values[i - order : i][::-1]] for i in range(r - t, r)])
    y = np.array(w.values[r - t :], dtype=float)
    p = _sigmoid(X @ np.asarray(model.beta))
    return tuple(np.abs(y - p).tolist()), threshold_accuracy(p, y), model.converged


@pytest.mark.parametrize("full_sample", [False, True])
@pytest.mark.parametrize("ridge_fallback", [False, True])
def test_forecast_windows_match_separately_built_matrices(ridge_fallback, full_sample):
    rng = random.Random(20261019)
    compared = failed = 0
    for _ in range(120):
        beta = (rng.uniform(-1.5, 1.5), *(rng.uniform(-2.5, 2.5) for _ in range(3)))
        w = series(simulate(beta, rng.randint(25, 90), rng))
        t, order = rng.randint(1, 12), rng.randint(1, 4)
        options = {"ridge_fallback": ridge_fallback, "full_sample": full_sample}
        try:
            expected = separate_window_scores(w, t, order, **options)
        except (SeparationError, SingularModelError):
            with pytest.raises(ForecastError, match="training fit failed"):
                forecast(w, t, order, min_std=0.0, **options)
            failed += 1
            continue
        report = forecast(w, t, order, min_std=0.0, **options)
        assert (report.abs_errors, report.accuracy, report.converged) == expected
        compared += 1
    assert compared >= 60
    assert failed or ridge_fallback


# --- experiment orchestration ----------------------------------------------


def test_experiment_summary_averages_between_packages():
    w = eligible_series()
    report = forecast(w, t=10, order=1)
    summary = experiment_summary([report])
    assert summary[10].packages == 1
    assert summary[10].mean_abs_error == pytest.approx(report.mean_abs_error)

    other = eligible_series(seed=202)
    second = forecast(other, t=10, order=1)
    combined = experiment_summary([report, second])
    assert combined[10].packages == 2
    assert combined[10].mean_abs_error == pytest.approx(
        (report.mean_abs_error + second.mean_abs_error) / 2
    )


def test_run_experiment_collects_reports_and_exclusions():
    short = series([0, 1] * 10, "tiny")
    flat = series([0] * 23 + [1, 0, 1, 1, 0, 1, 0], "flatline")
    good = BinarySeries("healthy", eligible_series().values)
    result = run_experiment([good, short, flat], horizons=(5,))
    assert {e.package for e in result.exclusions} >= {"tiny", "flatline"}
    tiny = next(e for e in result.exclusions if e.package == "tiny")
    assert tiny.reason == "too-few-releases" and tiny.t is None
    flat_record = next(e for e in result.exclusions if e.package == "flatline")
    assert flat_record.reason == "low-training-variance"
    assert flat_record.t == 5
    assert flat_record.detail.startswith("std=")
    assert "healthy" in result.orders
    if result.reports:
        assert 5 in result.summaries


def test_run_experiment_records_a_failed_training_fit_for_that_horizon_only():
    edge = series([0] * 20 + [1] * 10 + [1, 0] * 5, "edge")
    result = run_experiment([edge])
    assert result.orders["edge"].order == 2
    assert [report.t for report in result.reports] == [5]
    [record] = result.exclusions
    assert (record.package, record.reason, record.t) == ("edge", "forecast-failed", 10)
    assert record.detail.startswith("'edge': training fit failed: perfect separation: ")


def test_horizon_exclusions_are_the_eligibility_records():
    rng = random.Random(20261019)
    corpus = []
    for i in range(40):
        beta = (rng.uniform(-3.5, 0.5), rng.uniform(-1, 2))
        corpus.append(series(simulate(beta, rng.randint(20, 60), rng), f"p{i}"))
    horizons, min_std = (5, 10, 40), 0.45
    result = run_experiment(corpus, horizons, min_std=min_std)
    excluded = {
        (record.package, record.t): record
        for record in result.exclusions
        if record.t is not None and record.reason != "forecast-failed"
    }
    reasons = set()
    for w in corpus:
        if w.package not in result.orders:
            continue
        order = result.orders[w.package].order
        for t in horizons:
            record = eligibility(w, t, order, min_std=min_std)
            assert excluded.pop((w.package, t), None) == record
            if record is None:
                continue
            reasons.add(record.reason)
            with pytest.raises(NotEligibleError) as caught:
                forecast(w, t, order, min_std=min_std)
            assert caught.value.record == record
            assert str(caught.value) == f"{w.package!r}: {record.reason}"
    assert not excluded
    assert reasons == {"no-training-data", "low-training-variance"}


# --- simulation --------------------------------------------------------------


def test_simulate_is_deterministic_per_seed():
    a = simulate((-0.5, 1.5), 50, random.Random(5))
    b = simulate((-0.5, 1.5), 50, random.Random(5))
    assert a == b
    assert set(a) <= {0, 1}


def test_simulate_honors_initial_history():
    rng_state = random.Random(9)
    forced = simulate((10.0, 0.0), 5, rng_state)
    assert forced == [1, 1, 1, 1, 1]  # huge intercept saturates
    with pytest.raises(ValueError):
        simulate((-0.5, 1.5), 10, random.Random(1), initial=[1, 0])


def test_simulate_lag_weights_induce_persistence():
    sticky = simulate((-2.0, 4.0), 4000, random.Random(77))
    table_changes = sum(1 for a, b in zip(sticky, sticky[1:]) if a != b)
    p_flip = table_changes / (len(sticky) - 1)
    assert p_flip < 0.35  # strong positive lag keeps runs long
