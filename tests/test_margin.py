import numpy as np
import pytest

from edgecert.margin import (
    DegenerateFitError,
    WeibullFit,
    fit_reverse_weibull,
    positive_prob,
)


# ------------------------------------------------------------- weibull fit


def test_weibull_mle_recovers_parameters():
    rng = np.random.default_rng(42)
    samples = 0.3 * rng.weibull(2.0, size=5000)
    fit = fit_reverse_weibull(samples, lam=5000)
    assert fit.a == pytest.approx(0.3, rel=0.05)
    assert fit.sigma == pytest.approx(2.0, rel=0.05)
    assert fit.lambda_used == 5000


def test_weibull_fit_uses_smallest_lambda():
    rng = np.random.default_rng(1)
    small = 0.1 * rng.weibull(1.5, size=400)
    outliers = np.full(100, 5.0)
    fit = fit_reverse_weibull(np.concatenate([small, outliers]), lam=400)
    # outliers excluded: scale stays near the small-sample regime
    assert fit.a < 0.5


def test_weibull_error_improves_with_sample_size():
    errs = []
    for n in (500, 4000):
        rng = np.random.default_rng(7)
        samples = 0.3 * rng.weibull(2.0, size=n)
        fit = fit_reverse_weibull(samples, lam=n)
        errs.append(abs(fit.sigma - 2.0) / 2.0)
    assert errs[1] < errs[0]


def test_weibull_lambda_exceeding_samples_rejected():
    with pytest.raises(ValueError):
        fit_reverse_weibull(np.array([0.1, 0.2]), lam=3)


def test_weibull_identical_samples_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_reverse_weibull(np.full(10, 0.5), lam=10)


def test_weibull_single_positive_value_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_reverse_weibull(np.array([0.0, 0.0, 0.3]), lam=3)


@pytest.mark.parametrize("gap", [1e-9, 1e-12])
def test_weibull_nearly_tied_margins_fit(gap):
    # the shape root is near 1e9 and 1e12, where neighbouring floats are more
    # than 1e-8 apart; two points give sigma * log(x2/x1) = t with
    # t * (sigmoid(t) - 1/2) = 1, t ~ 2.3994
    fit = fit_reverse_weibull(np.array([0.5, 0.5 + gap]), lam=2)
    assert fit.sigma * np.log1p(gap / 0.5) == pytest.approx(2.3994, rel=1e-3)
    assert fit.a == pytest.approx(0.5, rel=1e-6)


def test_weibull_fit_validates_parameters():
    with pytest.raises(ValueError):
        WeibullFit(a=-1.0, sigma=2.0, lambda_used=5)
    with pytest.raises(ValueError):
        WeibullFit(a=1.0, sigma=0.0, lambda_used=5)


# ----------------------------------------------------------- positive prob


def test_positive_prob_at_similarity_one():
    fit = WeibullFit(a=0.3, sigma=2.0, lambda_used=10)
    assert positive_prob(1.0, fit) == 1.0


def test_positive_prob_scale_point():
    # 1 - s = a gives exp(-1)
    fit = WeibullFit(a=0.3, sigma=2.0, lambda_used=10)
    assert positive_prob(0.7, fit) == pytest.approx(np.exp(-1.0))


def test_positive_prob_monotone_on_grid():
    fit = WeibullFit(a=0.5, sigma=1.7, lambda_used=10)
    grid = np.linspace(-1.0, 1.0, 100)
    values = [positive_prob(float(s), fit) for s in grid]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)
    assert max(values) == 1.0 and values[-1] == 1.0


def test_positive_prob_rejects_out_of_range():
    fit = WeibullFit(a=0.3, sigma=2.0, lambda_used=10)
    with pytest.raises(ValueError):
        positive_prob(1.5, fit)
