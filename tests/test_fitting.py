"""The closed-form line fit against numpy's least squares."""
import numpy as np
import pytest

from nalab.fitting import fit_linear, fit_log_slope


@pytest.mark.parametrize("seed", range(5))
def test_line_fit_matches_lstsq(seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-5.0, 40.0, size=int(rng.integers(2, 60))))
    y = rng.normal(3.0, 2.0) * x + rng.normal(0.0, 5.0) + rng.normal(0.0, 1.0, x.size)
    (slope, intercept), *_ = np.linalg.lstsq(np.column_stack([x, np.ones_like(x)]), y)
    fit = fit_linear(x, y)
    assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=1e-12)


def test_line_fit_recovers_an_exact_line():
    x = np.arange(15.0, 31.0)
    fit = fit_linear(x, -0.75 * x + 2.5)
    assert fit.slope == pytest.approx(-0.75, abs=1e-14)
    assert fit.intercept == pytest.approx(2.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-14)
    log_fit = fit_log_slope(x, np.exp(0.5 * x))
    assert log_fit.slope == pytest.approx(0.5, abs=1e-14)


def test_line_fit_refuses_a_constant_x():
    with pytest.raises(ValueError, match="distinct"):
        fit_linear([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
