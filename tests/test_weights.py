import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab import weights
from nalab.errors import ConfigError, DomainError
from nalab.fitting import fit_log_slope
from nalab.geometry import DEFAULT_SPACE, AnnularGrid, SpaceParams
from nalab.weights import WeightSpec, materialize, weight_mass

GRID = AnnularGrid(DEFAULT_SPACE, 80)
MIDS = GRID.midpoints
TWO_RHO = 2.0 * DEFAULT_SPACE.rho


def test_constant_is_one():
    w = materialize(WeightSpec.constant(), GRID)
    assert np.all(w.values == 1.0)


@given(gamma=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_exp_radial_closed_form(gamma):
    w = materialize(WeightSpec.exp_radial(gamma), GRID)
    exact = np.exp(TWO_RHO * gamma * MIDS)
    assert np.max(np.abs(w.values / exact - 1.0)) < 1e-14
    # profile and tabulated values agree where both are defined
    assert w.profile(MIDS[7]) == pytest.approx(w.values[7], rel=1e-13)


def test_exp_strong_is_exp_radial_at_p_minus_one():
    a = materialize(WeightSpec.exp_strong(2.0), GRID)
    b = materialize(WeightSpec.exp_radial(1.0), GRID)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "p, space, j_max", [(40.5, DEFAULT_SPACE, 80), (4.0, SpaceParams(3.5, 1.0), 120)]
)
def test_spherical_weight_whose_phi_overflows_is_refused(p, space, j_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="phi_lam .* overflows the float range at t="):
            materialize(WeightSpec.spherical_u(p), AnnularGrid(space, j_max))


def test_spherical_u_growth():
    w_u = materialize(WeightSpec.spherical_u(2.0), GRID)
    fit = fit_log_slope(MIDS[39:], w_u.values[39:])
    assert fit.slope == pytest.approx(TWO_RHO, rel=1e-3)
    w_str = materialize(WeightSpec.exp_strong(2.0), GRID)
    band = w_u.values / w_str.values
    assert band.min() == pytest.approx(0.375000, abs=1e-5)
    assert band.max() == pytest.approx(0.517721, abs=1e-5)


def test_jacobi_v_decay_slopes():
    for g, target in ((-0.3, -0.6), (-0.45, -0.9)):
        w_v = materialize(WeightSpec.jacobi_v(g), GRID)
        fit = fit_log_slope(MIDS[39:], w_v.values[39:])
        assert fit.slope == pytest.approx(target, rel=3e-3)
        assert np.all(w_v.values > 0)


def test_jacobi_v_domain_gates(monkeypatch):
    for bad in (-0.6, 0.0, 0.2):
        with pytest.raises(DomainError):
            materialize(WeightSpec.jacobi_v(bad), GRID)
    # gamma = -1/2 puts the spectral point on the pole at theta = -1; the gate
    # refuses it before any trace of the second solution is evaluated
    def no_trace(jp, ts):
        raise AssertionError("trace evaluated past the domain gate")

    monkeypatch.setattr(weights, "jacobi_phi_second_trace", no_trace)
    with pytest.raises(DomainError, match="gamma=-0.5"):
        materialize(WeightSpec.jacobi_v(-0.5), GRID)


def test_jacobi_v_just_inside_the_pole():
    w = materialize(WeightSpec.jacobi_v(-0.4999), GRID)
    assert np.all(np.isfinite(w.values)) and np.all(w.values > 0)


def test_decaying_annulus_masses():
    # w = e^(-1.5 d): annulus masses grow like e^(j/2) with a pinned band
    w = materialize(WeightSpec.exp_radial(-0.75), GRID)
    ratios = np.array(
        [weight_mass(w, [j]) / math.exp(0.5 * j) for j in range(1, 81)]
    )
    assert ratios.min() == pytest.approx(0.169001, abs=1e-5)
    assert ratios.max() == pytest.approx(0.915248, abs=1e-5)


def test_eta_product_bump():
    base = materialize(WeightSpec.constant(), GRID)
    w = materialize(WeightSpec.eta_product(WeightSpec.constant()), GRID)
    factor = w.values / base.values
    assert factor.min() > 1.0 and factor.max() < math.e
    assert np.max(np.abs(factor - np.exp(1.0 / (1.0 + MIDS)))) < 1e-15


def test_profile_matches_values_at_midpoints():
    specs = [
        WeightSpec.exp_radial(-0.75),
        WeightSpec.spherical_u(2.0),
        WeightSpec.jacobi_v(-0.3),
        WeightSpec.eta_product(WeightSpec.spherical_u(2.0)),
    ]
    for spec in specs:
        w = materialize(spec, GRID)
        for idx in list(range(0, 80, 7)) + [79]:
            rel = abs(w.profile(MIDS[idx]) - w.values[idx]) / abs(w.values[idx])
            assert rel < 1e-12, spec.variant

    # the array call is the path that produced the values: exact agreement
    weights = [
        materialize(spec, GRID)
        for spec in (
            WeightSpec.constant(),
            WeightSpec.exp_radial(-0.75),
            WeightSpec.exp_strong(2.0),
            WeightSpec.spherical_u(2.0),
            WeightSpec.jacobi_v(-0.3),
            WeightSpec.eta_product(WeightSpec.jacobi_v(-0.45)),
            WeightSpec.custom(lambda t: 1.0 + math.sin(t) ** 2),
        )
    ]
    for w in weights:
        assert np.array_equal(w.profile(MIDS), w.values)


def test_json_round_trip():
    spec = WeightSpec.eta_product(WeightSpec.jacobi_v(-0.45))
    assert WeightSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ConfigError):
        WeightSpec.from_json({"variant": "constant", "extra": 1})
    with pytest.raises(ConfigError):
        WeightSpec.custom(lambda t: 1.0).to_json()


# each variant with the one field it takes, and a field it does not take
VARIANT_FIELDS = {
    "constant": (None, ("gamma", -0.3)),
    "exp_radial": (("gamma", -0.3), ("p", 2.0)),
    "exp_strong": (("p", 2.0), ("gamma", -0.3)),
    "spherical_u": (("p", 2.0), ("gamma", -0.3)),
    "jacobi_v": (("gamma", -0.3), ("p", 2.0)),
    "eta_product": (("base", WeightSpec.constant()), ("p", 2.0)),
    "custom": (("profile", lambda t: 1.0), ("gamma", -0.3)),
}


@pytest.mark.parametrize("variant", list(VARIANT_FIELDS))
def test_variant_field_missing_or_foreign(variant):
    own, foreign = VARIANT_FIELDS[variant]
    fields = dict([own] if own else [])
    WeightSpec(variant, **fields)  # the variant's own field alone is accepted
    with pytest.raises(ConfigError, match=repr(foreign[0])):
        WeightSpec(variant, **dict([foreign]), **fields)
    if own:
        with pytest.raises(ConfigError, match=repr(own[0])):
            WeightSpec(variant)
    if variant == "custom":
        return  # a profile has no JSON form
    obj = {"variant": variant, **fields}
    if "base" in obj:
        obj["base"] = obj["base"].to_json()
    with pytest.raises(ConfigError, match=repr(foreign[0])):
        WeightSpec.from_json({**obj, foreign[0]: foreign[1]})
    if own:
        with pytest.raises(ConfigError, match=repr(own[0])):
            WeightSpec.from_json({"variant": variant})


@pytest.mark.parametrize(
    "spec",
    [
        WeightSpec.constant(),
        WeightSpec.exp_radial(-0.3),
        WeightSpec.exp_strong(2.0),
        WeightSpec.spherical_u(2.0),
        WeightSpec.jacobi_v(-0.3),
        WeightSpec.eta_product(WeightSpec.exp_strong(2.0)),
    ],
)
def test_serializable_variants_round_trip(spec):
    obj = spec.to_json()
    assert WeightSpec.from_json(obj) == spec
    assert WeightSpec.from_json(json.dumps(obj)).to_json() == obj


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "2", None])
def test_spec_numbers_must_be_finite(bad):
    with pytest.raises(ConfigError):
        WeightSpec.from_json({"variant": "exp_strong", "p": bad})
