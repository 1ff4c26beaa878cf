"""CSV dataset handling and leave-one-out evaluation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import robustnn.classifier as classifier
import robustnn.dataset as dataset_module
from robustnn import (
    Dataset,
    DatasetError,
    ExtremaMethod,
    Normal,
    ParameterError,
    ProtocolError,
    RobustMethod,
    Scenario,
    StandardNNMethod,
    classify_extrema,
    classify_nn_standard,
    classify_robust,
    dataset_from_generated,
    generate,
    load_dataset,
    loo_cross_validate,
    save_dataset,
)
from robustnn.classifier import DEFAULT_C, RULES


def make_dataset():
    return Dataset(
        feature_ids=("g1", "g2", "g3"),
        samples=np.array(
            [
                [0.1, 0.2, 0.3],
                [0.0, 0.25, 0.2],
                [5.0, 5.1, 4.9],
                [5.2, 5.0, 5.1],
            ]
        ),
        labels=("tumor", "tumor", "normal", "normal"),
    )


def test_dataset_invariants():
    ds = make_dataset()
    assert ds.samples.shape[1] == 3
    assert ds.class_labels == ("normal", "tumor")  # sorted, first plays the X role
    assert ds.rows_of("tumor").shape == (2, 3)
    with pytest.raises(DatasetError):
        Dataset(("a", "a"), np.zeros((2, 2)), ("u", "v"))
    with pytest.raises(DatasetError):
        Dataset(("a", "b"), np.zeros((2, 2)), ("u", "u"))
    with pytest.raises(DatasetError):
        Dataset(("a", "b"), np.zeros((2, 3)), ("u", "v"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_values(value):
    samples = np.array([[0.0, 1.0], [value, 1.0]])
    with pytest.raises(DatasetError) as info:
        Dataset(("a", "b"), samples, ("X", "Y"))
    assert str(info.value) == f"row 1: feature 'a' is {value!r}, not a finite number"


def test_save_load_round_trip(tmp_path):
    ds = make_dataset()
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.feature_ids == ds.feature_ids
    assert back.labels == ds.labels
    np.testing.assert_array_equal(back.samples, ds.samples)


def test_round_trip_preserves_exact_floats(tmp_path):
    vals = np.array([[1e-17, -2.5, 1 / 3], [np.pi, 1e300, -0.0]])
    ds = Dataset(("a", "b", "c"), vals, ("u", "v"))
    path = tmp_path / "exact.csv"
    save_dataset(ds, path)
    np.testing.assert_array_equal(load_dataset(path).samples, vals)


def test_load_dataset_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("gene,g1\nu,1.0\nv,2.0\n")
    with pytest.raises(DatasetError, match="label"):
        load_dataset(path)

    path.write_text("label,g1\nu,1.0\nv,oops\n")
    with pytest.raises(DatasetError, match="line 3"):
        load_dataset(path)

    path.write_text("label,g1\nu,1.0\nu,2.0\n")
    with pytest.raises(DatasetError):
        load_dataset(path)  # only one class

    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "missing.csv")


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_dataset_rejects_non_finite_values(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"label,g1,g2\nu,1.0,2.0\n\nv,3.0,{cell}\nv,1.0,1.0\n")
    value = repr(float(cell))
    with pytest.raises(DatasetError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}, line 4: feature 'g2' is {value}, not a finite number"


def test_load_dataset_skips_a_byte_order_mark(tmp_path):
    text = "label,g1,g2\nu,1.0,2.0\nv,3.0,4.0\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    a, b = load_dataset(marked), load_dataset(plain)
    assert a.feature_ids == b.feature_ids == ("g1", "g2")
    assert a.labels == b.labels
    np.testing.assert_array_equal(a.samples, b.samples)


def test_load_dataset_names_the_first_duplicate_feature_id(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("label,g1,g2,g3,g2,g1\nu,1,2,3,4,5\nv,1,2,3,4,5\n")
    with pytest.raises(DatasetError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}, line 1: duplicate feature id 'g1'"


def test_load_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("label,g1,g2\nu,1.0,2.0\n\nv,3.0,4.0\n\n")
    ds = load_dataset(path)
    assert ds.labels == ("u", "v")
    assert ds.samples.shape == (2, 2)


def test_dataset_from_generated():
    sc = Scenario(p=40, m=2, n=3, beta=0.5, r=0.6, marginal=Normal(), seed=7)
    data = generate(sc, "Y")
    ds = dataset_from_generated(data)
    assert ds.samples.shape == (6, 40)
    assert ds.labels == ("X", "X", "Y", "Y", "Y", "Y")  # z appended under its true label
    assert ds.feature_ids[0] == "f00" and ds.feature_ids[-1] == "f39"
    np.testing.assert_array_equal(ds.samples[:2], data.x_samples)
    np.testing.assert_array_equal(ds.samples[-1], data.z)


def test_loo_separable_is_perfect():
    ds = make_dataset()
    for method in (StandardNNMethod(), RobustMethod()):
        result = loo_cross_validate(ds, method)
        assert result.accuracy == 1.0
        assert result.correct == result.total == 4
        assert result.confusion[("normal", "normal")] == 2
        assert result.confusion[("tumor", "tumor")] == 2
        assert result.confusion[("normal", "tumor")] == 0


def test_loo_requires_two_per_class():
    ds = Dataset(
        ("a", "b"),
        np.array([[0.0, 0.0], [1.0, 1.0], [1.1, 1.1]]),
        ("u", "v", "v"),
    )
    with pytest.raises(ProtocolError):
        loo_cross_validate(ds, StandardNNMethod())


def test_loo_report_text():
    result = loo_cross_validate(make_dataset(), StandardNNMethod())
    text = str(result)
    assert "4/4" in text
    assert "normal" in text and "tumor" in text


def test_loo_counts_match_manual_folds():
    rng = np.random.default_rng(3)
    samples = np.vstack([rng.normal(0, 1, (4, 6)), rng.normal(1.5, 1, (4, 6))])
    labels = ("a",) * 4 + ("b",) * 4
    ds = Dataset(tuple(f"f{i}" for i in range(6)), samples, labels)
    for method, classify in (
        (StandardNNMethod(), classify_nn_standard),
        (ExtremaMethod(), classify_extrema),
    ):
        confusion = {(t, q): 0 for t in "ab" for q in "ab"}
        for i in range(8):
            mask = np.ones(8, dtype=bool)
            mask[i] = False
            held = samples[i]
            train_a = samples[mask & (np.arange(8) < 4)]
            train_b = samples[mask & (np.arange(8) >= 4)]
            pred = classify(train_a, train_b, held)  # "a" sorts first: X role
            confusion[(labels[i], "a" if pred == "X" else "b")] += 1
        result = loo_cross_validate(ds, method)
        assert result.confusion == confusion, method.name
        assert result.correct == confusion[("a", "a")] + confusion[("b", "b")]
        assert result.total == 8


# Ties of small integers, +0.0 beside -0.0, and values whose sums overflow.
tie_heavy = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1.7e308, -1.7e308, 1.6e308, -1.6e308]),
)


@st.composite
def labeled_rows(draw):
    """Rows of two classes (at least 2 each) in a random order, a rule and a slope."""
    n_x, n_y, p = draw(st.integers(2, 5)), draw(st.integers(2, 5)), draw(st.integers(2, 5))
    samples = draw(arrays(float, (n_x + n_y, p), elements=tie_heavy))
    in_x = np.array(draw(st.permutations([True] * n_x + [False] * n_y)))
    return samples, in_x, draw(st.sampled_from(RULES)), draw(st.sampled_from([0.0, 0.3, 1.0]))


ZEROS = np.array([[0.0, -0.0], [-0.0, 1.0], [-0.0, 0.0], [0.0, -0.0], [1.0, -0.0]])
NEAR_MAX = np.array(
    [[1.7e308, -1.7e308], [1.6e308, 1.7e308], [-1.7e308, 1.7e308], [1.7e308, 1.6e308]]
)


@settings(max_examples=200, deadline=None)
@given(labeled_rows())
@example((ZEROS, np.array([True, False, True, False, False]), "independent", DEFAULT_C))
@example((NEAR_MAX, np.array([True, True, False, False]), "dependent", 0.3))
def test_robust_loo_matches_fold_by_fold_classify_robust(instance):
    samples, in_x, rule, c = instance
    verdicts = classifier._leave_one_out(samples, in_x, rule, c)
    assert len(verdicts) == len(samples)
    for i, (label, theta, defaulted) in enumerate(verdicts):
        rest = np.arange(len(samples)) != i
        want, decision = classify_robust(
            samples[rest & in_x], samples[rest & ~in_x], samples[i], rule, c
        )
        # repr round-trips a double, so equal reprs are equal bits, sign of zero included.
        assert (label, repr(theta), defaulted) == (want, repr(decision.theta), decision.defaulted)
    ds = Dataset(
        tuple(f"f{k}" for k in range(samples.shape[1])),
        samples,
        tuple("a" if x else "b" for x in in_x),
    )
    result = loo_cross_validate(ds, RobustMethod(rule=rule, xi_or_c=c))
    assert result.correct == sum((v[0] == "X") == x for v, x in zip(verdicts, in_x))


def test_robust_loo_rejects_p_1_before_any_fold(monkeypatch):
    def no_fold(*args):
        raise AssertionError("a fold ran")

    monkeypatch.setattr(classifier, "_nearest", no_fold)
    monkeypatch.setattr(dataset_module, "evaluate_method", no_fold)
    ds = Dataset(("g",), np.array([[0.0], [1.0], [2.0], [3.0]]), ("u", "u", "v", "v"))
    with pytest.raises(ParameterError, match="^p must be at least 2, got 1$"):
        loo_cross_validate(ds, RobustMethod())
