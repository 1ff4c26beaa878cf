"""Labeled two-class CSV datasets and leave-one-out evaluation.

File format: UTF-8 CSV, with or without a byte-order mark, whose header
starts with ``label`` followed by distinct feature ids; each subsequent row
is a class label and p numeric cells (scientific notation accepted, NaN and
infinities rejected).  Exactly two distinct labels must appear.
The lexicographically smaller label plays the X role in every classifier
so that tie rules and confusion counts are deterministic.

A file is read and decoded whole, so a file that is not UTF-8 is reported
as such wherever its bad byte lies.  Its cells are then parsed by one
``np.loadtxt`` call.  A file that parse does not take (quotes, spellings only
``float()`` accepts, any error) is parsed again row by row with ``float()``
on each cell, which gives the same values and names the line of an error.

Leave-one-out holds out each row in turn.  The robust folds all pool the
same rows, so they share one ranking, each row's counts below every cut and
each unordered pair's count of minima below every cut: the scan's kernel
with every row held (``classifier._leave_one_out``); their verdicts are
``classify_robust``'s.  The other methods run fold by fold.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .classifier import MethodSpec, RobustMethod, _leave_one_out, evaluate_method
from .errors import DatasetError, SampleSizeError

__all__ = [
    "Dataset",
    "LooResult",
    "load_dataset",
    "save_dataset",
    "loo_cross_validate",
    "dataset_from_generated",
]

LABEL_COLUMN = "label"


def _reject_non_finite(samples: np.ndarray, feature_ids, place) -> None:
    """Reject NaN and infinite cells; ``place(row)`` says where a row came from."""
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        row, col = bad[0]
        raise DatasetError(
            f"{place(row)}: feature {feature_ids[col]!r} is "
            f"{float(samples[row, col])!r}, not a finite number"
        )


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with one class label per row."""

    feature_ids: tuple[str, ...]
    samples: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2:
            raise DatasetError(f"samples must be 2-dimensional, got shape {samples.shape}")
        if samples.shape[1] != len(self.feature_ids):
            raise DatasetError(
                f"{len(self.feature_ids)} feature ids but rows have "
                f"{samples.shape[1]} cells"
            )
        if samples.shape[0] != len(self.labels):
            raise DatasetError(
                f"{samples.shape[0]} rows but {len(self.labels)} labels"
            )
        if len(set(self.feature_ids)) != len(self.feature_ids):
            raise DatasetError("duplicate feature ids")
        _reject_non_finite(samples, self.feature_ids, lambda row: f"row {row}")
        if len(self.class_labels) != 2:
            raise DatasetError(
                f"need exactly two distinct labels, got {sorted(set(self.labels))}"
            )

    @property
    def class_labels(self) -> tuple[str, str]:
        """The two labels in sorted order; the first plays the X role."""
        distinct = sorted(set(self.labels))
        return tuple(distinct)

    def rows_of(self, label: str, held_out: int | None = None) -> np.ndarray:
        """The rows labeled ``label``, leaving out row ``held_out``."""
        mask = np.array([lab == label for lab in self.labels])
        if held_out is not None:
            mask[held_out] = False
        return self.samples[mask]


def _read_text(path) -> str:
    """The decoded text of ``path``, line ends as they are, without a byte-order mark."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise DatasetError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_plain(text: str) -> Dataset | None:
    """The dataset in ``text`` from one vectorised parse of its cells, or None
    where the row reader must decide: a file with quotes, a lone carriage
    return or any line, cell or label the row reader would reject, and cells
    ``np.loadtxt`` does not take, such as ``1_000``.  Both parsers round
    correctly, so the cells they both take have the same bits."""
    if '"' in text:
        return None
    lines = text.split("\n")
    if "\r" in text:
        # Drop the "\r" of each "\r\n" line by line: a replace through the text is slower.
        lines = [line.removesuffix("\r") for line in lines[:-1]] + lines[-1:]
        if any("\r" in line for line in lines):  # csv ends a line at a lone one too
            return None
    header, *lines = lines
    header = header.split(",")
    feature_ids = tuple(header[1:])
    if header[0] != LABEL_COLUMN or not feature_ids or len(set(feature_ids)) < len(feature_ids):
        return None
    rows = [line.split(",", 1) for line in lines if line]  # csv skips empty lines
    # np.loadtxt skips an empty line, so a row without cells goes to the row reader
    if not rows or any(len(row) < 2 or not row[1] for row in rows):
        return None
    labels = tuple(label for label, _ in rows)
    if len(set(labels)) != 2:
        return None
    try:
        samples = np.loadtxt(
            [cells for _, cells in rows], delimiter=",", comments=None, dtype=float, ndmin=2
        )
    except ValueError:
        return None
    if samples.shape != (len(rows), len(feature_ids)) or not np.isfinite(samples).all():
        return None
    return Dataset(feature_ids=feature_ids, samples=samples, labels=labels)


def load_dataset(path) -> Dataset:
    """Read and validate a labeled CSV file; errors carry the line number.

    A plain file is read by one vectorised parse (``_parse_plain``); any
    other, and every invalid one, by the row reader ``_read_rows``."""
    text = _read_text(path)
    dataset = _parse_plain(text)
    return _read_rows(path, text) if dataset is None else dataset


def _read_rows(path, text: str | None = None) -> Dataset:
    """``load_dataset`` row by row, with ``float()`` on each cell: the
    reference for the vectorised parse, and the reader that names the line of
    an error.  ``text`` is the file's decoded text, read from ``path`` if None."""
    if text is None:
        text = _read_text(path)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError(f"{path}: empty file") from None
    if not header:
        raise DatasetError(f"{path}, line 1: empty header")
    if header[0] != LABEL_COLUMN:
        raise DatasetError(
            f"{path}, line 1: first header column must be {LABEL_COLUMN!r}, "
            f"got {header[0]!r}"
        )
    feature_ids = tuple(header[1:])
    if not feature_ids:
        raise DatasetError(f"{path}, line 1: no feature columns")
    repeated = [name for name, k in Counter(feature_ids).items() if k > 1]
    if repeated:
        raise DatasetError(f"{path}, line 1: duplicate feature id {repeated[0]!r}")
    rows: list[list[float]] = []
    labels: list[str] = []
    lines: list[int] = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise DatasetError(
                f"{path}, line {line}: expected {len(header)} cells, got {len(row)}"
            )
        labels.append(row[0])
        lines.append(line)
        try:
            rows.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise DatasetError(f"{path}, line {line}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    if len(set(labels)) != 2:
        raise DatasetError(
            f"{path}: need exactly two distinct labels, got {sorted(set(labels))}"
        )
    samples = np.array(rows)
    _reject_non_finite(samples, feature_ids, lambda row: f"{path}, line {lines[row]}")
    return Dataset(feature_ids=feature_ids, samples=samples, labels=tuple(labels))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a Dataset so that load_dataset recovers it exactly.

    Values are serialized with repr, which round-trips doubles.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([LABEL_COLUMN, *dataset.feature_ids])
        for label, row in zip(dataset.labels, dataset.samples):
            writer.writerow([label, *[repr(float(v)) for v in row]])


@dataclass(frozen=True)
class LooResult:
    """Leave-one-out tally: per-class hit counts and overall accuracy."""

    accuracy: float
    correct: int
    total: int
    confusion: dict[tuple[str, str], int]
    class_labels: tuple[str, str]

    def __str__(self) -> str:
        lines = [f"accuracy {self.correct}/{self.total} = {self.accuracy:.4f}"]
        for true in self.class_labels:
            for predicted in self.class_labels:
                lines.append(
                    f"  true {true} -> predicted {predicted}: "
                    f"{self.confusion[(true, predicted)]}"
                )
        return "\n".join(lines)


def loo_cross_validate(dataset: Dataset, method: MethodSpec) -> LooResult:
    """Hold out each row in turn, train on the rest, and tally the verdicts.

    The robust method re-selects its threshold inside every fold; its folds
    pool the same rows, so they share one ranking, each row's counts and
    each pair of rows' distances.
    Other methods run fold by fold through ``evaluate_method``.  Requires at
    least two rows per class so every fold keeps a trainer on each side.
    """
    first, second = dataset.class_labels
    counts = {lab: sum(x == lab for x in dataset.labels) for lab in (first, second)}
    for lab, count in counts.items():
        if count < 2:
            raise SampleSizeError(
                f"class {lab!r} has {count} sample(s); leave-one-out needs at least 2"
            )
    labels = np.array(dataset.labels)
    if isinstance(method, RobustMethod):
        verdicts = _leave_one_out(dataset.samples, labels == first, method.rule, method.xi_or_c)
    else:
        verdicts = (
            evaluate_method(
                dataset.rows_of(first, i), dataset.rows_of(second, i), dataset.samples[i], method
            )
            for i in range(len(labels))
        )
    confusion = {(a, b): 0 for a in (first, second) for b in (first, second)}
    correct = 0
    for true, (label, _, _) in zip(labels, verdicts):
        predicted = first if label == "X" else second
        confusion[(str(true), predicted)] += 1
        correct += predicted == true
    total = len(labels)
    return LooResult(
        accuracy=correct / total,
        correct=correct,
        total=total,
        confusion=confusion,
        class_labels=(first, second),
    )


def dataset_from_generated(data) -> Dataset:
    """Bundle a generated draw's training rows and test vector as a Dataset labeled X and Y.

    The test vector is appended last under its true label, so the file
    records the whole trial.
    """
    samples = np.vstack([data.x_samples, data.y_samples, data.z])
    labels = ["X"] * data.x_samples.shape[0] + ["Y"] * data.y_samples.shape[0] + [data.z_label]
    p = samples.shape[1]
    width = len(str(p - 1))
    feature_ids = tuple(f"f{index:0{width}d}" for index in range(p))
    return Dataset(feature_ids=feature_ids, samples=samples, labels=tuple(labels))
