"""Generators, dependence models, shift placement, and seed derivation."""

import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from robustnn import (
    AR1,
    ConfigurationError,
    DegenerateScenarioError,
    Exponential,
    ExponentiatedMA,
    Independent,
    MovingAverage,
    Normal,
    ParameterError,
    Pareto,
    Scenario,
    ShapeError,
    StudentT,
    apply_dependence,
    derive_seed,
    gen_mixed_light_heavy,
    generate,
    place_shifts,
    shift_amount,
    shift_count,
)
import robustnn.datagen as datagen
from robustnn.datagen import _calibration_sample, _component_params, _exp_ma_transform
from robustnn.config import scenario_fields
from robustnn.datagen import DEPENDENCE, innovations_needed
from robustnn.seeds import mix64


def test_mix64_reference_vector():
    # first output of the reference SplitMix64 stream seeded with 0
    assert mix64(0) == 0xE220A8397B1DCDAF


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 3, 7) == derive_seed(42, 3, 7)
    seen = {derive_seed(11, cell, j) for cell in range(20) for j in range(50)}
    assert len(seen) == 1000
    assert derive_seed(5) != derive_seed(5, 0)
    assert all(0 <= s < 2**64 for s in (derive_seed(-1), derive_seed(2**70, 3)))


def test_shift_count_examples():
    assert shift_count(10000, 0.7) == 16
    assert shift_count(20000, 0.5) == 141
    assert shift_count(100, 1.0) == 1


def test_shift_count_degenerate():
    with pytest.raises(DegenerateScenarioError):
        shift_count(10, 0.02)  # round(10^0.98) = 10 leaves no unshifted component


def test_place_shifts_first_indices():
    rng = np.random.default_rng(0)
    idx = place_shifts(10000, 0.7, "first_indices", rng)
    assert idx.tolist() == list(range(16))


def test_place_shifts_uniform_random():
    rng = np.random.default_rng(1)
    idx = place_shifts(500, 0.5, "uniform_random", rng)
    assert idx.size == shift_count(500, 0.5)
    assert np.all(np.diff(idx) > 0)
    assert 0 <= idx[0] and idx[-1] < 500


def test_place_shifts_blocks():
    rng = np.random.default_rng(2)
    count = shift_count(400, 0.5)
    light = place_shifts(400, 0.5, "light_block", rng, light_size=count)
    assert light.tolist() == list(range(count))
    wide = place_shifts(400, 0.5, "light_block", rng, light_size=3 * count)
    assert wide.size == count and wide[-1] < 3 * count
    heavy = place_shifts(400, 0.5, "heavy_block", rng, light_size=count)
    assert heavy.size == count and heavy[0] >= count and heavy[-1] < 400
    with pytest.raises(ConfigurationError):
        place_shifts(400, 0.5, "light_block", rng, light_size=count - 1)
    with pytest.raises(ConfigurationError):
        place_shifts(400, 0.5, "heavy_block", rng, light_size=400 - count + 1)


def test_shift_amount_independent_is_scale_solution():
    sc = Scenario(p=10000, m=1, n=1, beta=0.7, r=0.5, marginal=Pareto(1.0))
    assert shift_amount(sc) == pytest.approx(100.0, rel=1e-6)


def test_shift_amount_moving_average_closed_form():
    # equal weights 1/5: component sd is sqrt(5 * (1/5)^2) = 1/sqrt(5)
    sc = Scenario(p=1000, m=1, n=1, beta=0.7, r=0.5,
                  marginal=Normal(), dependence=MovingAverage.equal(5))
    from scipy.stats import norm
    expected = norm.isf(1000 ** -0.5, scale=1.0 / math.sqrt(5.0))
    assert shift_amount(sc) == pytest.approx(expected, rel=1e-10)


def test_shift_amount_ar1_closed_form():
    sc = Scenario(p=1000, m=1, n=1, beta=0.7, r=0.5,
                  marginal=Normal(), dependence=AR1(0.5))
    from scipy.stats import norm
    expected = norm.isf(1000 ** -0.5, scale=math.sqrt((1 - 0.5) / (1 + 0.5)))
    assert shift_amount(sc) == pytest.approx(expected, rel=1e-10)
    # alpha = 0 leaves the innovations independent
    assert shift_amount(replace(sc, dependence=AR1(0.0))) == shift_amount(
        replace(sc, dependence=Independent())
    )


def test_shift_amount_rejects_a_scenario_without_contrast():
    # At p = 200 the calibrated shift for r = 0.1 is negative.
    negative = Scenario(p=200, m=1, n=1, beta=0.6, r=0.1, marginal=Normal())
    with pytest.raises(DegenerateScenarioError) as info:
        shift_amount(negative)
    assert str(info.value) == (
        "calibrated shift amount -0.22421249328297663 is not positive; "
        "this (p, r, marginal) combination carries no upward signal"
    )
    everywhere = Scenario(p=10, m=1, n=1, beta=0.02, r=0.5, marginal=Normal())
    with pytest.raises(DegenerateScenarioError) as info:
        shift_amount(everywhere)  # round(10^0.98) = 10 shifts
    assert str(info.value) == "shift count round(p^(1-beta)) = 10 leaves no contrast at p = 10"
    live = replace(negative, r=0.7)
    amount = shift_amount(live)
    assert type(amount) is float and amount > 0
    assert shift_amount(live) is amount  # cached per scenario


def test_shift_amount_exp_ma_matches_empirical_tail():
    model = ExponentiatedMA(decay=0.5)
    sc = Scenario(p=500, m=1, n=1, beta=0.7, r=0.5,
                  marginal=Exponential(), dependence=model, seed=3)
    a = shift_amount(sc)
    assert shift_amount(sc) == a  # cached per scenario
    rng = np.random.default_rng(99)
    rows = np.concatenate([generate(sc, "X", rng).x_samples[0] for _ in range(200)])
    frac = float((rows > a).mean())
    assert frac == pytest.approx(500 ** -0.5, abs=0.01)


def test_exp_ma_sweep_cells_share_one_draw_of_component_params():
    template = Scenario(p=200, m=1, n=1, beta=0.6, r=0.6, marginal=Exponential(),
                        dependence=ExponentiatedMA(decay=0.5, alpha_range=(0.5, 2.0)), seed=7)
    shift_amount.cache_clear()
    _component_params.cache_clear()
    for beta in (0.55, 0.7, 0.85):
        for r in (0.3, 0.5, 0.7):
            shift_amount(replace(template, beta=beta, r=r))
    assert _component_params.cache_info().misses == 1


def test_apply_dependence_moving_average_hand_case():
    out = apply_dependence(MovingAverage((0.5, 0.5)), [1.0, 2.0, 3.0, 4.0], 3)
    np.testing.assert_allclose(out, [1.5, 2.5, 3.5])


def test_apply_dependence_ar1_hand_case():
    out = apply_dependence(AR1(0.5), [2.0, 0.0, 4.0], 3)
    np.testing.assert_allclose(out, [2.0, 1.0, 2.5])
    ones = apply_dependence(AR1(0.7), np.ones(50), 50)
    np.testing.assert_allclose(ones, 1.0)
    innovations = np.array([2.0, -1.0, 4.0])  # alpha = 0: no filter
    np.testing.assert_array_equal(apply_dependence(AR1(0.0), innovations, 3), innovations)
    # One AR1 draw pinned bit for bit, so the filter's arithmetic cannot drift.
    sc = Scenario(p=200, m=2, n=1, beta=0.6, r=0.5, marginal=Normal(), dependence=AR1(0.5),
                  seed=11)
    data = generate(sc, "Y")
    digest = hashlib.sha256(data.x_samples.tobytes() + data.y_samples.tobytes()
                            + data.z.tobytes()).hexdigest()
    assert digest == "f610def7a696293ac971706fc1ffd546d882b25e6a3ad0b7d58d4944bf31b8eb"
    assert data.shift_amount.hex() == "0x1.b2b0b10ff3fe1p-1"


def test_apply_dependence_exp_ma_short_kernel():
    # decay tiny: kernel is [1, decay, decay^2], so the output is the
    # innovations shifted by about decay * max
    model = ExponentiatedMA(decay=1e-6)
    innov = np.random.default_rng(4).exponential(1.0, 50 + model.kernel().size - 1)
    out = apply_dependence(model, innov, 50, alphas=np.ones(50))
    np.testing.assert_allclose(out, innov[:50], atol=1e-4)


def test_apply_dependence_exp_ma_unit_sum():
    model = ExponentiatedMA(decay=0.5)
    need = innovations_needed(model, 10)
    out = apply_dependence(model, np.ones(need), 10, alphas=np.ones(10))
    np.testing.assert_allclose(out, 2.0, atol=1e-10)  # geometric sum 1/(1-0.5)


def test_apply_dependence_validation():
    with pytest.raises(Exception):
        apply_dependence(MovingAverage((0.5, 0.5)), [1.0, 2.0], 3)  # too short
    with pytest.raises(ParameterError):
        model = ExponentiatedMA(decay=0.5, alpha_range=(0.5, 1.5))
        apply_dependence(model, np.ones(innovations_needed(model, 5)), 5)


# One model of each kind, with non-trivial parameters.
ROW_MODELS = {
    "independent": Independent(),
    "moving_average": MovingAverage((0.3, -0.2, 0.5, 0.1)),
    "ar1": AR1(0.7),
    "exp_ma": ExponentiatedMA(decay=0.5, alpha_range=(0.5, 2.0)),
}


@pytest.mark.parametrize("kind", list(DEPENDENCE))
def test_apply_dependence_on_rows_equals_row_by_row(kind):
    model, p = ROW_MODELS[kind], 300
    rng = np.random.default_rng(9)
    innov = rng.exponential(1.0, (4, innovations_needed(model, p) + 2))  # extra columns unused
    alphas = rng.uniform(0.5, 2.0, p)  # read by exp_ma only
    rows = apply_dependence(model, innov, p, alphas=alphas)
    assert rows.shape == (4, p)
    for row, out in zip(innov, rows):
        np.testing.assert_array_equal(out, apply_dependence(model, row, p, alphas=alphas))
    with pytest.raises(ShapeError):
        apply_dependence(model, innov[None], p, alphas=alphas)


def _exp_ma_oracle(innov, kernel, alphas):
    """sum_j c_j W_{j+k}^{alpha_k} term by term in extended precision."""
    w = innov.astype(np.longdouble)
    c = kernel.astype(np.longdouble)
    return np.array(
        [
            sum(c[j] * w[k + j] ** np.longdouble(a) for j in range(c.size))
            for k, a in enumerate(alphas)
        ]
    )


@pytest.mark.parametrize("innovation", [Exponential(), Pareto(1.0)])
@pytest.mark.parametrize("alpha_range", [(0.5, 2.0), (1.3, 1.3)])
@pytest.mark.parametrize("decay", [0.5, 1e-13])  # 41 kernel terms, and 1
@pytest.mark.parametrize("zeros", [False, True])
def test_exp_ma_transform_matches_direct_sum(innovation, alpha_range, decay, zeros, monkeypatch):
    model = ExponentiatedMA(decay=decay, alpha_range=alpha_range, innovation=innovation)
    kernel = model.kernel()
    p = 120
    rng = np.random.default_rng(17)
    alphas = rng.uniform(*alpha_range, p)
    innov = innovation.sample(rng, (3, p + kernel.size - 1))
    if zeros:
        innov[:, ::5] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _exp_ma_transform(innov, kernel, alphas)
    for row, values in zip(innov, out):
        np.testing.assert_allclose(values, _exp_ma_oracle(row, kernel, alphas), rtol=1e-14, atol=0)
        # a batched call gives each row exactly what a call on that row gives
        assert np.array_equal(_exp_ma_transform(row, kernel, alphas), values)
    # Blocks of 16 or 1 columns (and 50 or 2 components over the 3 rows)
    # give the one-block result bit for bit.
    for block in (50, 2):
        monkeypatch.setattr(datagen, "_BLOCK", block)
        assert np.array_equal(_exp_ma_transform(innov, kernel, alphas), out)
        assert np.array_equal(_exp_ma_transform(innov[1], kernel, alphas), out[1])


@pytest.mark.parametrize("decay", [0.5, 0.8])  # 41 and 131 kernel terms
def test_exp_ma_calibration_memory_does_not_grow_with_the_kernel(decay):
    sc = Scenario(p=20_000, m=1, n=1, beta=0.6, r=0.9, marginal=Exponential(),
                  dependence=ExponentiatedMA(decay=decay, alpha_range=(0.5, 2.0)), seed=3)
    draws = math.ceil(50.0 * 20_000 ** 0.9)  # the calibration sample size here
    _component_params(sc.seed, sc.p, sc.dependence)  # drawn once per sweep, not per cell
    shift_amount.cache_clear()
    _calibration_sample.cache_clear()
    tracemalloc.start()
    try:
        shift_amount(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * draws * 8


@pytest.mark.parametrize("decay", [0.5, 0.9])  # 41 and 285 kernel terms
def test_exp_ma_calibration_peaks_below_four_sample_sizes(decay):
    # The sample and its exponent picks are the only full-length arrays; the
    # quantile's copy comes after the picks are gone.
    sc = Scenario(p=20_000, m=1, n=1, beta=0.6, r=0.9, marginal=Exponential(),
                  dependence=ExponentiatedMA(decay=decay, alpha_range=(0.5, 2.0)), seed=3)
    draws = math.ceil(50.0 * 20_000 ** 0.9)
    _component_params(sc.seed, sc.p, sc.dependence)
    shift_amount.cache_clear()
    _calibration_sample.cache_clear()
    tracemalloc.start()
    try:
        shift_amount(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * draws * 8


@pytest.mark.parametrize("offset_bound", [0.0, 0.3])
def test_exp_ma_calibration_sample_does_not_depend_on_the_block(offset_bound, monkeypatch):
    # Blocks of 64 and of 16 draws, the latter shorter than the 40-innovation
    # overlap between blocks, draw the same stream as one block.
    model = ExponentiatedMA(decay=0.5, alpha_range=(0.5, 2.0), offset_bound=offset_bound)
    _calibration_sample.cache_clear()
    whole = _calibration_sample(5, 300, model, 5_000)
    for block in (64, 16):
        monkeypatch.setattr(datagen, "_BLOCK", block)
        _calibration_sample.cache_clear()
        assert np.array_equal(_calibration_sample(5, 300, model, 5_000), whole)
    _calibration_sample.cache_clear()


def test_innovations_needed():
    assert innovations_needed(Independent(), 100) == 100
    assert innovations_needed(MovingAverage.equal(5), 100) == 104
    model = ExponentiatedMA(decay=0.5)
    assert innovations_needed(model, 100) == 100 + model.kernel().size - 1


def test_moving_average_lag_one_correlation():
    sc = Scenario(p=200_000, m=1, n=1, beta=0.7, r=0.5,
                  marginal=Normal(), dependence=MovingAverage.equal(5))
    row = generate(sc, "X", np.random.default_rng(8)).x_samples[0]
    corr = float(np.corrcoef(row[:-1], row[1:])[0, 1])
    assert corr == pytest.approx(0.8, abs=0.01)  # overlap 4 of 5 equal weights


def test_generate_shapes_and_bookkeeping():
    sc = Scenario(p=300, m=2, n=3, beta=0.6, r=0.5, marginal=Normal(), seed=5)
    data = generate(sc, "Y")
    assert data.x_samples.shape == (2, 300)
    assert data.y_samples.shape == (3, 300)
    assert data.z.shape == (300,)
    assert data.z_label == "Y"
    assert data.shift_indices.size == shift_count(300, 0.6)
    assert data.shift_amount == pytest.approx(shift_amount(sc))


def test_generate_deterministic():
    sc = Scenario(p=200, m=1, n=1, beta=0.6, r=0.5, marginal=StudentT(4.0), seed=21)
    a, b = generate(sc, "X"), generate(sc, "X")
    np.testing.assert_array_equal(a.x_samples, b.x_samples)
    np.testing.assert_array_equal(a.y_samples, b.y_samples)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.shift_indices, b.shift_indices)


def test_generate_z_label_only_moves_shifted_components():
    sc = Scenario(p=200, m=1, n=1, beta=0.6, r=0.5, marginal=Normal(), seed=6)
    from_x = generate(sc, "X", np.random.default_rng(13))
    from_y = generate(sc, "Y", np.random.default_rng(13))
    idx = from_x.shift_indices
    np.testing.assert_array_equal(from_x.shift_indices, from_y.shift_indices)
    mask = np.zeros(200, dtype=bool)
    mask[idx] = True
    np.testing.assert_array_equal(from_x.z[~mask], from_y.z[~mask])
    np.testing.assert_allclose(from_y.z[mask] - from_x.z[mask], from_x.shift_amount)


def test_generate_blocked_marginal():
    sc = Scenario(p=100, m=1, n=1, beta=0.5, r=0.5,
                  marginal=((Normal(), 40), (Exponential(), 60)), seed=9)
    data = generate(sc, "X")
    assert data.x_samples.shape == (1, 100)
    # exponential block is nonnegative, normal block is not (whp at 40 draws)
    assert np.all(data.x_samples[0, 40:] >= 0)
    assert np.any(data.x_samples[0, :40] < 0)


def test_generate_exp_ma_end_to_end():
    model = ExponentiatedMA(decay=0.4, alpha_range=(0.8, 1.2), offset_bound=0.1)
    sc = Scenario(p=150, m=1, n=1, beta=0.6, r=0.4,
                  marginal=Exponential(), dependence=model, seed=10)
    data = generate(sc, "Y")
    assert data.x_samples.shape == (1, 150)
    assert np.isfinite(data.z).all()


def test_scenario_validation():
    ok = dict(p=100, m=1, n=1, beta=0.5, r=0.5, marginal=Normal())
    Scenario(**ok)
    for bad in (dict(ok, p=1), dict(ok, m=0), dict(ok, beta=0.0), dict(ok, r=1.0),
                dict(ok, shift_placement="middle"), dict(ok, seed=-1)):
        with pytest.raises(ParameterError):
            Scenario(**bad)
    with pytest.raises(ParameterError):
        Scenario(**dict(ok, marginal=((Normal(), 40), (Exponential(), 70))))
    with pytest.raises(ConfigurationError):
        Scenario(**dict(ok, marginal=StudentT(4.0), dependence=MovingAverage.equal(3)))
    with pytest.raises(ConfigurationError):
        Scenario(**dict(ok, marginal=((Normal(), 50), (Normal(), 50)),
                        dependence=AR1(0.5)))


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(marginal="normal"), "unknown marginal 'normal'"),
        (dict(marginal=((Normal(), 50), ("normal", 50))), "unknown marginal 'normal'"),
        (dict(dependence="ar1"), "unknown dependence model 'ar1'"),
        (dict(dependence=None), "unknown dependence model None"),
    ],
    ids=["marginal_text", "block_text", "dependence_text", "dependence_none"],
)
def test_scenario_rejects_a_model_that_is_not_a_spec(fields, message):
    # Each would otherwise reach shift_amount and fail there with an AttributeError.
    ok = dict(p=100, m=1, n=1, beta=0.5, r=0.5, marginal=Normal())
    with pytest.raises(ConfigurationError) as exc:
        Scenario(**dict(ok, **fields))
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["p", "m", "n", "seed"])
def test_scenario_integer_fields_reject_a_float_and_store_an_int(name):
    ok = dict(p=200, m=2, n=2, beta=0.6, r=0.5, marginal=Normal(), seed=3)
    with pytest.raises(ParameterError, match=rf"^{name} must be an integer, got 2\.5$"):
        Scenario(**dict(ok, **{name: 2.5}))
    sc = Scenario(**dict(ok, **{name: np.int64(ok[name])}))
    assert type(getattr(sc, name)) is int
    assert sc == Scenario(**ok)
    json.dumps(scenario_fields(sc))  # a numpy integer would not serialise


def test_gen_mixed_light_heavy_coupling():
    rng = np.random.default_rng(11)
    data = gen_mixed_light_heavy(1000, 0.5, 0.8, "heavy_block", rng, z_from="Y")
    light = shift_count(1000, 0.5)
    mu = 0.8 * math.log(1000)
    assert data.shift_amount == pytest.approx(mu)
    assert data.shift_indices.size == light
    assert np.all(data.shift_indices >= light)  # heavy block starts after the light one
    mask = np.zeros(1000, dtype=bool)
    mask[data.shift_indices] = True
    # Y reuses X except on the perturbed components
    np.testing.assert_array_equal(data.y_samples[0, ~mask], data.x_samples[0, ~mask])
    np.testing.assert_allclose(data.y_samples[0, mask] - data.x_samples[0, mask], mu)
    # the test vector is a fresh draw, not a copy
    assert not np.any(data.z == data.x_samples[0])


def test_gen_mixed_light_block_placement():
    rng = np.random.default_rng(12)
    data = gen_mixed_light_heavy(1000, 0.5, 0.8, "light_block", rng)
    light = shift_count(1000, 0.5)
    assert data.shift_indices.tolist() == list(range(light))
    # light block is normal, heavy block exponential (nonnegative)
    assert np.all(data.x_samples[0, light:] >= 0)
    assert np.any(data.x_samples[0, :light] < 0)


def test_gen_mixed_multirow():
    rng = np.random.default_rng(13)
    data = gen_mixed_light_heavy(500, 0.5, 0.6, "heavy_block", rng, m=2, n=3)
    assert data.x_samples.shape == (2, 500)
    assert data.y_samples.shape == (3, 500)
    mask = np.zeros(500, dtype=bool)
    mask[data.shift_indices] = True
    for j in range(3):
        np.testing.assert_array_equal(
            data.y_samples[j, ~mask], data.x_samples[j % 2, ~mask]
        )


def test_gen_mixed_errors():
    rng = np.random.default_rng(14)
    with pytest.raises(ConfigurationError):
        gen_mixed_light_heavy(1000, 0.5, 0.8, "uniform_random", rng)
    with pytest.raises(ConfigurationError):
        # round(100^0.89) = 60 shifted components; two blocks of 60 exceed p
        gen_mixed_light_heavy(100, 0.11, 0.8, "heavy_block", rng)
    with pytest.raises(ParameterError):
        gen_mixed_light_heavy(1000, 0.5, -0.1, "heavy_block", rng)


def test_dependence_model_validation():
    with pytest.raises(ParameterError):
        MovingAverage(())
    with pytest.raises(ParameterError):
        MovingAverage((0.0, 0.0))
    with pytest.raises(ParameterError):
        AR1(1.0)
    with pytest.raises(ParameterError):
        ExponentiatedMA(decay=1.5)
    with pytest.raises(ParameterError):
        ExponentiatedMA(decay=0.5, alpha_range=(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        ExponentiatedMA(decay=0.5, innovation=Normal())
    for alpha_range in ((), (0.5,), (0.5, 2.0, 3.0)):  # not one (lo, hi) pair
        with pytest.raises(ConfigurationError, match="alpha_range must be"):
            ExponentiatedMA(decay=0.5, alpha_range=alpha_range)
