"""CSV dataset handling and leave-one-out evaluation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import robustnn.classifier as classifier
import robustnn.dataset as dataset_module
from robustnn import (
    ConfigurationError,
    Dataset,
    DatasetError,
    ExtremaMethod,
    Normal,
    ParameterError,
    RobustMethod,
    SampleSizeError,
    Scenario,
    StandardNNMethod,
    classify_extrema,
    classify_nn_standard,
    classify_robust,
    dataset_from_generated,
    generate,
    load_config,
    load_dataset,
    loo_cross_validate,
    save_dataset,
)
from robustnn.classifier import DEFAULT_C, RULES
from robustnn.cli import dispatch


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


def assert_loads_as_the_row_reader(path):
    """load_dataset gives the reference row reader's dataset, bit for bit, or
    raises its DatasetError with the same text; returns the dataset or None."""
    try:
        want = dataset_module._read_rows(path)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == str(exc)
        return None
    got = load_dataset(path)
    assert (got.feature_ids, got.labels) == (want.feature_ids, want.labels)
    assert got.samples.shape == want.samples.shape
    assert got.samples.tobytes() == want.samples.tobytes()  # -0.0 and 0.0 differ here
    return got


def parses_plain(path):
    """Whether the vectorised parse, not the row reader, reads ``path``."""
    text = path.read_bytes().decode("utf-8-sig")
    return dataset_module._parse_plain(text) is not None


# Subnormals, +-0.0, +-1e308 and every other finite double, as repr writes them,
# with 17 significant digits and in exponent form.
any_double = st.floats(allow_nan=False, allow_infinity=False)
spellings = st.sampled_from([repr, "{:.17g}".format, "{:.16e}".format, "{:+.17g}".format])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_vectorised_parse_has_the_row_readers_bits(tmp_path, rows, p, data):
    values = data.draw(arrays(float, (rows + 1, p), elements=any_double))
    spell = data.draw(spellings)
    labels = ["u"] * rows + ["v"]
    lines = [",".join(["label", *(f"g{k}" for k in range(p))])]
    lines += [",".join([label, *map(spell, row)]) for label, row in zip(labels, values.tolist())]
    path = tmp_path / "doubles.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert parses_plain(path)
    got = assert_loads_as_the_row_reader(path)
    want = [[float(spell(v)) for v in row] for row in values.tolist()]
    assert got.samples.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize(
    "cell",
    ["+1.5", " 1.5 ", "1_000", '"1.5"', "１.５", "0x10", "nan", "-Infinity", "1e999", "", " ",
     "1e-400", "4.9e-324", "\xa01.5", "1.5\x00", "1,5"],
)
@pytest.mark.parametrize("place", [(0, 1), (2, 0), (3, 1)])
def test_load_dataset_reads_each_spelling_as_float_does(tmp_path, cell, place):
    rows = [["u", "1.0", "2.0"], ["u", "0.5", "-3"], ["v", "7", "8e-3"], ["v", "-0.0", "4"]]
    row, col = place
    rows[row][col + 1] = cell
    path = tmp_path / "cell.csv"
    path.write_text("label,g1,g2\n" + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    assert_loads_as_the_row_reader(path)


BAD_AND_ODD_FILES = {
    "extra cell": "label,g1,g2\nu,1,2\nv,3,4,5\n",
    "missing cell": "label,g1,g2\nu,1,2\nv,3\n",
    "every row a cell short": "label,g1,g2\nu,1\nv,3\n",
    "label only": "label,g1,g2\nu,1,2\nv\n",
    "trailing comma": "label,g1\nu,1\nv,\n",
    "whitespace-only line": "label,g1,g2\nu,1,2\n  \nv,3,4\n",
    "blank lines": "\nlabel,g1\n",
    "CRLF": "label,g1,g2\r\nu,1,2\r\n\r\nv,3,4\r\n",
    "lone CR": "label,g1,g2\ru,1,2\rv,3,4\r",
    "CR in a cell": "label,g1,g2\nu,1\r,2\nv,3,4\n",
    "CR in a label": "label,g1\nu\r,1\nv,2\n",
    "BOM": "\ufefflabel,g1,g2\nu,1,2\nv,3,4\n",
    "quoted label": 'label,g1\n"u",1\nv,2\n',
    "quoted label with a comma": 'label,g1\n"u,w",1\nv,2\n',
    "quoted feature id": 'label,"g,1",g2\nu,1,2\nv,3,4\n',
    "quoted newline": 'label,g1\n"u\nw",1\nv,2\n',
    "no final newline": "label,g1,g2\nu,1,2\nv,3,4",
    "one class": "label,g1\nu,1\nu,2\n",
    "three classes": "label,g1\nu,1\nv,2\nw,3\n",
    "empty label": "label,g1\n,1\nv,2\n",
    "spaces in labels": "label,g1\n u,1\nu ,2\n",
    "header only": "label,g1,g2\n",
    "empty file": "",
    "empty header": "\n",
    "no features": "label\nu\nv\n",
    "wrong first column": "gene,g1\nu,1\nv,2\n",
    "duplicate feature id": "label,g1,g1\nu,1,2\nv,3,4\n",
    "label as a feature id": "label,label,g1\nu,1,2\nv,3,4\n",
    "non-finite after a bad row": "label,g1\nu,inf\nv,x\n",
    "bad row after a non-finite": "label,g1\nu,x\nv,inf\n",
    "single row a class, one column": "label,g1\nu,1\nv,2\n",
}


# Valid files without quotes or lone carriage returns take the vectorised parse.
PLAIN_FILES = {"CRLF", "BOM", "no final newline", "empty label", "spaces in labels",
               "label as a feature id", "single row a class, one column"}


@pytest.mark.parametrize("name", BAD_AND_ODD_FILES)
def test_load_dataset_reads_each_layout_as_the_row_reader(tmp_path, name):
    path = tmp_path / "layout.csv"
    path.write_bytes(BAD_AND_ODD_FILES[name].encode("utf-8"))
    assert_loads_as_the_row_reader(path)
    assert parses_plain(path) == (name in PLAIN_FILES)


@pytest.mark.parametrize("rows_before", [1, 50_000])  # in the first 8 KB, past 64 KB
def test_load_dataset_reports_a_bad_byte_wherever_it_lies(tmp_path, capsys, rows_before):
    # The file is decoded whole first, so a bad byte is the error even behind
    # a header error on line 1, from both readers and from the CLI.
    path = tmp_path / "latin1.csv"
    rows = b"u,1\n" * rows_before + b"v,\xe9\n"
    message = f"{path}: not UTF-8 text (invalid continuation byte)"
    for header in (b"gene,g1\n", b"label,g1\n"):
        path.write_bytes(header + rows)
        for read in (load_dataset, dataset_module._read_rows):
            with pytest.raises(DatasetError) as info:
                read(path)
            assert str(info.value) == message
    out = tmp_path / "loo.json"
    assert dispatch(["loo", "--data", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("comments_before", [10, 20_000])  # in the first 8 KB, past it
def test_load_config_reports_a_bad_byte_wherever_it_lies(tmp_path, capsys, comments_before):
    # A config file is decoded whole too, so its bad byte is the error even
    # behind a duplicate key on line 3.
    path = tmp_path / "latin1.ini"
    comments = b"# note\n" * comments_before
    path.write_bytes(b"[scenario]\np = 200\np = 200\n" + comments + b"# caf\xe9\n")
    message = f"{path}: not UTF-8 text (invalid continuation byte)"
    with pytest.raises(ConfigurationError) as info:
        load_config(path)
    assert str(info.value) == message
    out = tmp_path / "g.csv"
    assert dispatch(["gen", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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
    with pytest.raises(SampleSizeError):
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
def labeled_rows(draw, max_rows=5):
    """Rows of two classes (2 to ``max_rows`` each) in a random order, a rule and a slope."""
    n_x, n_y = draw(st.integers(2, max_rows)), draw(st.integers(2, max_rows))
    p = draw(st.integers(2, 5))
    samples = draw(arrays(float, (n_x + n_y, p), elements=tie_heavy))
    in_x = np.array(draw(st.permutations([True] * n_x + [False] * n_y)))
    return samples, in_x, draw(st.sampled_from(RULES)), draw(st.sampled_from([0.0, 0.3, 1.0]))


ZEROS = np.array([[0.0, -0.0], [-0.0, 1.0], [-0.0, 0.0], [0.0, -0.0], [1.0, -0.0]])
NEAR_MAX = np.array(
    [[1.7e308, -1.7e308], [1.6e308, 1.7e308], [-1.7e308, 1.7e308], [1.7e308, 1.6e308]]
)


def far_apart(p, k=3):
    """k X rows of 1s and k Y rows of -1s, interleaved.  Leaving out an X row
    puts t0 at -1, where that row is at indicator distance p from every Y
    row: T = -p and S^2 = p.  The slope puts z_p at sqrt(3p / 4), between
    sqrt(p / 2) and sqrt(p), so t0 fires only with the right S^2."""
    in_x = np.array([True, False] * k)
    c = math.sqrt(0.75 * p / math.log(p))
    return np.where(in_x, 1.0, -1.0)[:, None].repeat(p, axis=1), in_x, "independent", c


def common_cuts(size):
    """2 X rows and 2 Y rows, interleaved, whose folds share ``size`` common
    cuts.  Each row has k + 1 zeros and k positive values, k = ceil((size - 2)
    / 4), so every fold's t0 is 0; the positives cycle through 1..size - 2, and
    with 0 they are the size - 1 values at or above the least t0.  With c = 0
    a fold fires at the first grid point where T is not 0, and in some folds
    a top rank wrapped to 0 moves that point."""
    k = -(-(size - 2) // 4)
    positives = np.resize(np.arange(1.0, size - 1), (4, k))
    samples = np.hstack([np.zeros((4, k + 1)), positives])
    return samples, np.array([True, False] * 2), "independent", 0.0


# 256 equal X rows, then two more X rows and two Y rows, so that in many
# folds the nearest rows sit at indices 256 to 259, past uint8.
MANY_ROWS = np.array([[-1.0, -1.0]] * 256 + [[1.0, 2.0]] * 2 + [[2.0, 1.0], [0.0, 2.0]])


def assert_loo_matches_fold_by_fold(samples, in_x, rule, c):
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


@settings(max_examples=200, deadline=None)
@given(labeled_rows())
@example((ZEROS, np.array([True, False, True, False, False]), "independent", DEFAULT_C))
@example((NEAR_MAX, np.array([True, True, False, False]), "dependent", 0.3))
# Held out, row 0 is at 2p = 4 from row 1, its fold's one X row, at cuts
# between 0 and 2: a "no row yet" mark at 2p would find no X row there.
@example((np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
          np.array([True, True, False, False, False]), "independent", 0.0))
def test_robust_loo_matches_fold_by_fold_classify_robust(instance):
    assert_loo_matches_fold_by_fold(*instance)


@settings(max_examples=100, deadline=None)
@given(labeled_rows(max_rows=8))
# Distances and counts, at most 2p, share np.min_scalar_type(2p); a
# held-out Y row is at 2p from every X row.
@example(far_apart(127))  # 254 in uint8
@example(far_apart(128))  # 256 needs uint16
@example(far_apart(32767))  # 65534 in uint16
@example(far_apart(32768))  # 65536 needs uint32
# The dtype edges of an earlier layout, keys d n + row in
# np.min_scalar_type((p + 1) n) with n = 6 rows (4 for far_apart(63, 2)).
@example(far_apart(41))
@example(far_apart(42))
@example(far_apart(63, 2))
@example(far_apart(10921))
@example(far_apart(10922))
@example((MANY_ROWS, np.arange(260) < 258, "independent", DEFAULT_C))  # rows past uint8
# Ranks, 0 to size - 1, are in np.min_scalar_type(size), size the number of
# common cuts: on each side of the type's edges and of the top rank's.
@example(common_cuts(255))  # uint8
@example(common_cuts(256))  # uint16, top rank 255
@example(common_cuts(257))  # top rank 256
@example(common_cuts(65535))  # uint16
@example(common_cuts(65536))  # uint32, top rank 65535
@example(common_cuts(65537))  # top rank 65536
def test_robust_loo_matches_fold_by_fold_with_many_partners(instance):
    # Up to 7 partners of a class per row exercise the pair order and the
    # lowest-row rule on ties.
    assert_loo_matches_fold_by_fold(*instance)


def test_robust_loo_memory_per_row_and_cut(monkeypatch):
    # Each row's count and its least distance and count to each class, two
    # bytes each at p = 2000, are 10 B per row and cut of the common grid.
    rng = np.random.default_rng(37)
    samples = rng.standard_t(3, (60, 2000))
    in_x = np.arange(60) % 2 == 0
    sizes = []

    def pooled_ranks(*args):
        values, ranks = pooled(*args)
        sizes.append(values.size)
        return values, ranks

    pooled = classifier._pooled_ranks
    monkeypatch.setattr(classifier, "_pooled_ranks", pooled_ranks)
    tracemalloc.start()
    try:
        classifier._leave_one_out(samples, in_x, "independent", DEFAULT_C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (size,) = sizes
    assert peak < 12.5 * len(samples) * (size + 1), peak / (len(samples) * (size + 1))


@pytest.mark.parametrize("p", [127, 128, 32768])  # distances in uint8, uint16, uint32
def test_robust_loo_hands_the_rule_signed_32_bit_T_and_S2(monkeypatch, p):
    # np.sqrt of an int16 or uint16 S^2 is float32, so a 16-bit S^2 would move
    # |T| > z_p S off the float64 comparison select_threshold makes.
    dtypes = []
    original = classifier._first_firing

    def first_firing(T, S2, z_p):
        dtypes.extend([T.dtype, S2.dtype])
        return original(T, S2, z_p)

    monkeypatch.setattr(classifier, "_first_firing", first_firing)
    classifier._leave_one_out(*far_apart(p))
    assert len(dtypes) == 2 * 6  # T and S^2 of each of far_apart's 6 folds
    assert all(d.kind == "i" and d.itemsize >= 4 for d in dtypes), dtypes


small_ties = st.one_of(st.integers(-2, 2).map(float), st.sampled_from([0.0, -0.0]))


@st.composite
def folds(draw):
    """2 to 5 rows of each class in a random order, p in {2, 3}: each fold
    pools (n - 1) p values, an odd count only for p = 3 and n even."""
    n_x, n_y = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    samples = draw(arrays(float, (n_x + n_y, draw(st.sampled_from([2, 3]))), elements=small_ties))
    return samples, np.array(draw(st.permutations([True] * n_x + [False] * n_y)))


@settings(max_examples=300, deadline=None)
@given(folds())
@example((np.array([[-1.0, 1.0], [1.0, -1.0], [-0.0, 0.0], [2.0, -2.0]]),
          np.array([True, False, True, False])))  # even folds, middle values -1 and 1
@example((np.array([[-0.0, 0.0, -0.0]] * 3 + [[0.0, -0.0, 0.0]]),
          np.array([True, False, True, False])))  # odd folds of signed zeros
def test_robust_loo_matches_fold_by_fold_on_tied_folds(instance):
    # Most of these folds default to theta = t0, so the repr check pins t0's sign.
    assert_loo_matches_fold_by_fold(*instance, "independent", DEFAULT_C)


def test_robust_loo_rejects_p_1_before_any_fold(monkeypatch):
    def no_fold(*args):
        raise AssertionError("a fold ran")

    monkeypatch.setattr(classifier, "_below", no_fold)
    monkeypatch.setattr(dataset_module, "evaluate_method", no_fold)
    ds = Dataset(("g",), np.array([[0.0], [1.0], [2.0], [3.0]]), ("u", "u", "v", "v"))
    with pytest.raises(ParameterError, match="^p must be at least 2, got 1$"):
        loo_cross_validate(ds, RobustMethod())
