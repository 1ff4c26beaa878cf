"""Acceptance gate: one check per headline behavior, at pinned seeds.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; each test also prints a ``[criterion NN]`` summary with the
measured numbers (shown with ``-s`` or on failure).

Checks 3 and 5 test the paper's limiting claims where the method makes them.
Check 3 compares the robust rule with the plain neighbor rule under Cauchy
noise, which has no finite variance, at the deep-signal cell of check 2: the
robustness claim is against the neighbor rule's need for finite moments, and
at a weak-signal cell with finite-variance noise the two rules nearly tie.
Check 5 holds the extrema rule's heavy-block rate at p = 20000 to an exact
probability computed from the laws of the block maxima, independently of the
generator and the classifier; the paper's limit (that rate tending to 1) is
asserted on that probability, which passes 0.90 only between p = 10^5 and
p = 10^6.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from robustnn import (
    DEFAULT_XI,
    Exponential,
    MovingAverage,
    Normal,
    Pareto,
    RobustMethod,
    Scenario,
    StandardNNMethod,
    StudentT,
    apriori_optimal_threshold,
    classify_extrema,
    classify_nn_standard,
    classify_robust,
    compute_T_S,
    derive_seed,
    estimate_success_rate,
    gen_mixed_light_heavy,
    loo_cross_validate,
    solve_scale,
    success_vs_c,
)
from robustnn.dataset import Dataset


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _comb_se(a, b):
    return math.hypot(a.se, b.se)


# -- criterion 1: indicator-distance oracle equivalence ----------------------


def _brute_indicator_label(x, y, z, t):
    """Nearest-neighbor label on 0/1 exceedance vectors, ties to X."""
    bx = (x > t).astype(int)
    by = (y > t).astype(int)
    bz = (z > t).astype(int)
    d_x = np.abs(bx - bz).sum(axis=1).min()
    d_y = np.abs(by - bz).sum(axis=1).min()
    return ("X" if d_x <= d_y else "Y"), d_x, d_y


def test_criterion_01_indicator_oracle_equivalence():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(1000):
        p = int(rng.integers(2, 21))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        x = rng.integers(0, 6, (m, p)).astype(float)
        y = rng.integers(0, 6, (n, p)).astype(float)
        z = rng.integers(0, 6, p).astype(float)
        pooled = np.unique(np.concatenate([x.ravel(), y.ravel(), z]))
        # one t strictly inside every gap, plus one below and one above all values
        grid = np.concatenate(
            [[pooled[0] - 1.0], (pooled[:-1] + pooled[1:]) / 2.0, [pooled[-1] + 1.0]]
        )
        for t in grid:
            stats = compute_T_S(x, y, z, float(t))
            brute_label, d_x, d_y = _brute_indicator_label(x, y, z, t)
            sign_label = "X" if stats.T <= 0 else "Y"
            assert sign_label == brute_label
            assert stats.T == d_x - d_y
            checked += 1
    _report(1, True, f"{checked} grid points across 1000 instances agreed exactly")


# -- criterion 2: success-region boundary behavior ---------------------------


def test_criterion_02_boundary_rates():
    template = Scenario(p=20000, m=1, n=1, beta=0.7, r=0.4, marginal=Normal(), seed=0)
    method = RobustMethod(xi_or_c=0.7)
    cells = [(0.6, 0.9), (0.9, 0.3), (0.7, 0.3), (0.7, 0.6), (0.7, 0.9)]
    rates = {}
    for idx, (beta, r) in enumerate(cells):
        scenario = replace(template, beta=beta, r=r)
        rates[(beta, r)] = estimate_success_rate(
            scenario, [method], 400, 102, cell_index=idx
        )["robust"]
    easy = rates[(0.6, 0.9)]
    hard = rates[(0.9, 0.3)]
    ok_easy = easy.rate >= 0.90
    ok_hard = hard.rate <= 0.95
    ladder = [rates[(0.7, r)] for r in (0.3, 0.6, 0.9)]
    ok_mono = all(
        b.rate >= a.rate - 2 * _comb_se(a, b) for a, b in zip(ladder, ladder[1:])
    )
    detail = (
        f"deep-signal cell {easy.rate:.4f} (needs >= 0.90), "
        f"sparse-weak cell {hard.rate:.4f} (needs <= 0.95), "
        f"ladder {[round(v.rate, 4) for v in ladder]} nondecreasing within 2 SE: {ok_mono}"
    )
    _report(2, ok_easy and ok_hard and ok_mono, detail)


# -- criterion 3: heavy-tail advantage over the plain neighbor rule ----------


def test_criterion_03_heavy_tail_margin():
    # Cauchy noise (t with 1 degree of freedom) has no finite variance, which
    # is what the plain rule needs; (0.6, 0.9) is the deep-signal cell where
    # criterion 2 shows the robust rule succeeding under normal noise.
    scenario = Scenario(
        p=20000, m=1, n=1, beta=0.6, r=0.9, marginal=StudentT(1.0), seed=0
    )
    out = estimate_success_rate(
        scenario, [RobustMethod(), StandardNNMethod()], 400, 103
    )
    rob, nn = out["robust"], out["nn"]
    gap = rob.rate - nn.rate
    bar = 3 * _comb_se(rob, nn)
    detail = (
        f"Cauchy noise at the deep-signal cell (beta, r) = (0.6, 0.9): robust "
        f"{rob.rate:.4f} vs nn {nn.rate:.4f}, gap {gap:.4f} (needs > {bar:.4f}, "
        f"3 combined SE over 400 paired trials)"
    )
    _report(3, gap > bar, detail)


# -- criterion 4: plain neighbor rule chases the smaller variance ------------


def test_criterion_04_small_variance_pull():
    to_x = 0
    trials = 200
    for j in range(trials):
        rng = np.random.default_rng(derive_seed(104, j))
        x = rng.normal(0.0, 1.0, (1, 10000))
        y = rng.normal(0.0, 3.0, (1, 10000))
        z = rng.normal(0.0, 1.0 if j % 2 == 0 else 3.0, 10000)
        to_x += classify_nn_standard(x, y, z) == "X"
    rate = to_x / trials
    _report(
        4,
        rate >= 0.95,
        f"equal-mean populations, sigma 1 vs 3: {rate:.4f} of verdicts went to the "
        f"small-variance class (needs >= 0.95), whatever the true origin",
    )


# -- criterion 5: when componentwise maxima do and do not separate -----------


def _mixed_block_rates(perturb, sub, trials=200):
    extrema = robust = 0
    for j in range(trials):
        rng = np.random.default_rng(derive_seed(105, sub, j))
        data = gen_mixed_light_heavy(20000, 0.5, 0.8, perturb, rng)
        extrema += classify_extrema(data.x_samples, data.y_samples, data.z) == "Y"
        label, _ = classify_robust(data.x_samples, data.y_samples, data.z)
        robust += label == "Y"
    return extrema / trials, robust / trials


def _extrema_heavy_block_probability(p, beta=0.5, r=0.8):
    """Exact P(extrema rule says Y) for one mixed heavy-block trial, m = n = 1.

    The training row x has s = round(p^(1-beta)) standard normals and p - s
    unit exponentials; y reuses x with s of the exponentials raised by
    mu = r log p, and the test vector is a fresh row shifted the same way.
    With W the maximum of x outside the shifted set and C the maximum of x
    on it (before the shift), max x = max(W, C) and max y = max(W, C + mu).
    Those coincide (a tie, which goes to X) unless C + mu > W, and then the
    rule says Y exactly when the test maximum V exceeds their midpoint:

        P = int f_C(c) [F_W(c) S_V(c + mu/2)
                        + int_c^(c+mu) f_W(w) S_V((w + c + mu)/2) dw] dc,

    where S_V is the survival function of V.  Both integrals use
    200 Gauss-Legendre nodes, which agree with adaptive quadrature to 1e-9.
    """
    s = round(p ** (1.0 - beta))
    k = p - 2 * s
    mu = r * math.log(p)

    def log_cdf_w(w):
        return s * special.log_ndtr(w) + k * np.log(-np.expm1(-w))

    def pdf_w(w):
        normal_hazard = np.exp(
            -0.5 * w * w - 0.5 * math.log(2.0 * math.pi) - special.log_ndtr(w)
        )
        return np.exp(log_cdf_w(w)) * (s * normal_hazard + k * np.exp(-w) / -np.expm1(-w))

    def sf_v(v):
        above = np.maximum(v - mu, 1e-300)
        log_cdf = log_cdf_w(v) + s * np.log(-np.expm1(-above))
        return np.where(v > mu, -np.expm1(log_cdf), 1.0)

    x, weights = np.polynomial.legendre.leggauss(200)
    c_hi = math.log(s) + 40.0
    c = 0.5 * c_hi * (x + 1.0)
    pdf_c = np.exp(math.log(s) - c + (s - 1) * np.log(-np.expm1(-c)))
    tie_free = np.exp(log_cdf_w(c)) * sf_v(c + 0.5 * mu)
    w = c[:, None] + 0.5 * mu * (x[None, :] + 1.0)
    between = (pdf_w(w) * sf_v(0.5 * (w + c[:, None] + mu))) @ (0.5 * mu * weights)
    return float(np.sum(0.5 * c_hi * weights * pdf_c * (tie_free + between)))


def test_criterion_05_extrema_contrast():
    trials = 200
    heavy_ext, heavy_rob = _mixed_block_rates("heavy_block", 0, trials)
    light_ext, light_rob = _mixed_block_rates("light_block", 1, trials)
    # The shifted maximum clears the unshifted ones only by about
    # (r - beta) log p against Gumbel noise of order 1, so the heavy-block
    # rate tends to 1 slowly; at p = 20000 it is held to its exact value.
    ladder = [_extrema_heavy_block_probability(p) for p in (20000, 10**5, 10**6)]
    exact = ladder[0]
    heavy_se = math.sqrt(exact * (1.0 - exact) / trials)
    ok_heavy = abs(heavy_ext - exact) <= 3 * heavy_se
    contrast_se = math.sqrt(
        (heavy_ext * (1 - heavy_ext) + light_ext * (1 - light_ext)) / trials
    )
    ok_contrast = heavy_ext - light_ext > 3 * contrast_se
    ok_limit = all(a < b for a, b in zip(ladder, ladder[1:])) and ladder[-1] >= 0.90
    ok_light = light_ext <= 0.60
    ok_robust = heavy_rob > 0.9 and light_rob > 0.9
    detail = (
        f"extrema on exponential-block shifts {heavy_ext:.4f} vs exact "
        f"{exact:.4f} (needs within 3 SE = {3 * heavy_se:.4f}); on normal-block "
        f"shifts {light_ext:.4f} (needs <= 0.60); contrast "
        f"{heavy_ext - light_ext:.4f} (needs > {3 * contrast_se:.4f}, 3 combined "
        f"SE); exact rate at p = 2e4, 1e5, 1e6: "
        f"{', '.join(f'{v:.4f}' for v in ladder)} (needs increasing, >= 0.90 at "
        f"1e6); robust {heavy_rob:.4f}/{light_rob:.4f} (needs > 0.9 both)"
    )
    _report(5, ok_heavy and ok_contrast and ok_limit and ok_light and ok_robust, detail)


# -- criteria 6 and 7 share one empirical slope curve ------------------------


@pytest.fixture(scope="module")
def slope_curve():
    scenario = Scenario(
        p=20000, m=1, n=1, beta=0.7, r=0.4, marginal=StudentT(4.0), seed=0
    )
    grid = [round(0.1 * k, 1) for k in range(1, 13)]
    return scenario, success_vs_c(scenario, grid, 200, 106)


def test_criterion_06_best_slope_range(slope_curve):
    _, curve = slope_curve
    best = int(np.argmax(curve.rates))
    best_c = float(curve.xs[best])
    _report(
        6,
        0.3 <= best_c <= 0.9,
        f"best slope c = {best_c} (rate {curve.rates[best]:.4f}) over "
        f"{{0.1, ..., 1.2}}; needs to land in [0.3, 0.9]",
    )


def test_criterion_07_predicted_vs_empirical(slope_curve):
    scenario, curve = slope_curve
    best = int(np.argmax(curve.rates))
    empirical = float(curve.rates[best])
    se = float(curve.ses[best])
    ahead = apriori_optimal_threshold(
        scenario, np.arange(0.0, 8.01, 0.25), "normal_approx"
    )
    predicted = float(np.max(ahead.values))
    _report(
        7,
        predicted >= empirical - 2 * se,
        f"planned-threshold prediction {predicted:.4f} at t_star = {ahead.t_star} vs "
        f"best empirical {empirical:.4f} - 2 SE ({se:.4f})",
    )


# -- criterion 8: shift-scale solver exactness -------------------------------


def test_criterion_08_scale_solver_exactness():
    pareto = solve_scale(Pareto(1.0), 10000, 0.5)
    pareto_err = abs(pareto - 100.0) / 100.0
    target = 0.4 * math.log(20000.0)
    expo = solve_scale(Exponential(), 20000, 0.4)
    expo_err = abs(expo - target) / target
    _report(
        8,
        pareto_err <= 1e-6 and expo_err <= 1e-8,
        f"power-tail solution {pareto!r} (rel err {pareto_err:.2e} vs 1e-6), "
        f"exponential solution {expo!r} (rel err {expo_err:.2e} vs 1e-8)",
    )


# -- criterion 9: correlated components --------------------------------------


def test_criterion_09_dependence_study():
    scenario = Scenario(
        p=20000,
        m=1,
        n=1,
        beta=0.7,
        r=0.6,
        marginal=Normal(),
        dependence=MovingAverage.equal(5),
        seed=0,
    )
    out = estimate_success_rate(
        scenario, [RobustMethod(), StandardNNMethod()], 400, 109
    )
    rob, nn = out["robust"], out["nn"]
    ok_rate = rob.rate >= nn.rate - 2 * _comb_se(rob, nn)
    dep = estimate_success_rate(
        scenario, [RobustMethod(rule="dependent", xi_or_c=DEFAULT_XI)], 400, 109
    )["robust"]
    ok_dep = dep.defaulted_fraction < 1.0
    _report(
        9,
        ok_rate and ok_dep,
        f"averaged-noise cell: robust {rob.rate:.4f} vs nn {nn.rate:.4f} "
        f"(within 2 SE: {ok_rate}); log-p rule ran with defaulted fraction "
        f"{dep.defaulted_fraction:.4f} (needs < 1)",
    )


# -- criterion 10: stand-in for the unavailable tumor dataset ----------------


def test_criterion_10_external_data_substitute():
    rng = np.random.default_rng(derive_seed(110, 0))
    x = rng.normal(0.0, 1.0, (4, 30))
    y = rng.normal(10.0, 1.0, (4, 30))
    ids = tuple(f"f{k:02d}" for k in range(30))
    dataset = Dataset(ids, np.vstack([x, y]), ["X"] * 4 + ["Y"] * 4)
    robust = loo_cross_validate(dataset, RobustMethod())
    nn = loo_cross_validate(dataset, StandardNNMethod())
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = readme.exists() and "replay" in readme.read_text(encoding="utf-8").lower()
    _report(
        10,
        robust.accuracy == 1.0 and nn.accuracy == 1.0 and documented,
        f"held-out accuracy on a plainly separated dataset: robust "
        f"{robust.accuracy:.2f}, nn {nn.accuracy:.2f} (both need 1.00); replay "
        f"instructions for user-supplied data present in README: {documented}. "
        f"The published tumor-study figures themselves need the original data; "
        f"the exactness suite (criterion 1) covers the classifier mechanics",
    )
