"""Classifiers over sparse count vectors.

Multinomial Naive Bayes with Laplace smoothing is the primary model.
Logistic regression (batch gradient descent, L2 on the weights) exists for
feature-importance ranking, and the select-all baseline labels everything IR.
It trains on a sparse design matrix, the (row, col, value) triples of the
non-zero counts, so its memory grows with the non-zeros rather than with
rows x vocabulary. X @ w and X.T @ r are np.bincount sums in triple order,
so the weights do not depend on the BLAS build or its thread count.
All models serialize to a versioned JSON document. numpy is imported only
inside the logistic-regression functions, so the NB path never loads it.
"""

from __future__ import annotations

import math
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from crisislang.features import (
    ALPHA_RANGE,
    FeatureClass,
    FeatureId,
    FeatureVector,
    K_RANGE,
    LogRegParams,
    checked,
    feature_classes,
    split_feature,
)
from crisislang.ingest import json_value, write_json

if TYPE_CHECKING:
    import numpy as np

IR = "IR"
OR = "OR"
LABELS = (IR, OR)

MODEL_SCHEMA_VERSION = 1

LabeledVector = tuple[FeatureVector, str]


class TrainingDiverged(ValueError):
    """Logistic-regression loss became non-finite (learning rate too high)."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"non-finite loss at epoch {epoch}; lower the learning rate")


class Prediction(NamedTuple):
    label: str
    score: float


class NaiveBayesModel:
    def __init__(self, class_log_prior, feature_log_likelihood, vocabulary, alpha) -> None:
        self.class_log_prior: dict[str, float] = class_log_prior
        self.feature_log_likelihood: dict[str, dict[FeatureId, float]] = feature_log_likelihood
        self.vocabulary: frozenset[FeatureId] = vocabulary
        self.alpha: float = alpha

    @cached_property
    def log_ratio(self) -> tuple[float, dict[FeatureId, float]]:
        """The prior margin log P(IR) - log P(OR) and, per vocabulary
        feature, ll_IR[f] - ll_OR[f]. Derived on the first prediction, so a
        fit that never predicts pays nothing; each difference is the same
        IEEE subtraction predict_nb would make per feature, done once."""
        ll_ir = self.feature_log_likelihood[IR]
        ll_or = self.feature_log_likelihood[OR]
        margin = self.class_log_prior[IR] - self.class_log_prior[OR]
        return margin, {fid: ll_ir[fid] - ll_or[fid] for fid in ll_ir}


class LogisticRegressionModel(NamedTuple):
    weights: dict[FeatureId, float]
    bias: float
    params: LogRegParams


def _check_labels(labels: Iterable[str]) -> None:
    seen = set(labels)
    if not seen:
        raise ValueError("training data is empty")
    bad = seen - set(LABELS)
    if bad:
        raise ValueError(f"labels must be IR or OR, got {sorted(bad)}")
    if seen != set(LABELS):
        raise ValueError(f"both labels required, got only {sorted(seen)}")


def train_naive_bayes(data: Sequence[LabeledVector], alpha: float = 1.0) -> NaiveBayesModel:
    """Fit multinomial NB: likelihood(f|c) = (n_fc + alpha) / (n_c + alpha |V|),
    one log per distinct count n_fc per label (nb_log_likelihoods)."""
    alpha = checked(alpha, float, "alpha", *ALPHA_RANGE)
    _check_labels(label for _, label in data)
    counts, totals, instances = nb_counts(data)
    n = len(data)
    v = len(counts)
    class_log_prior: dict[str, float] = {}
    loglik: dict[str, dict[FeatureId, float]] = {}
    for slot, label in enumerate(LABELS):
        class_log_prior[label] = math.log(instances[slot] / n)
        values = {pair[slot] for pair in counts.values()}
        table = nb_log_likelihoods(values, totals[slot], v, alpha)
        loglik[label] = {fid: table[pair[slot]] for fid, pair in counts.items()}
    return NaiveBayesModel(class_log_prior, loglik, frozenset(counts), alpha)


def nb_log_likelihoods(
    counts: Iterable[int], total: int, size: int, alpha: float
) -> dict[int, float]:
    """NB's smoothed log-likelihood log((c + alpha) / (total + alpha * size))
    of a feature seen c times, once per distinct count c; no count, no
    division. ValueError naming alpha when a likelihood rounds to 0."""
    denom = total + alpha * size
    table: dict[int, float] = {}
    for c in counts:
        if c not in table:
            likelihood = (c + alpha) / denom
            if not likelihood:
                raise ValueError(f"alpha {alpha!r} rounds a smoothed likelihood to 0")
            table[c] = math.log(likelihood)
    return table


def nb_counts(
    data: Iterable[LabeledVector],
) -> tuple[dict[FeatureId, list[int]], list[int], list[int]]:
    """NB's counts over labelled vectors, each as an [IR, OR] pair: per
    feature its count, then the feature totals and the instance totals."""
    counts: dict[FeatureId, list[int]] = {}
    totals = [0, 0]
    instances = [0, 0]
    for vector, label in data:
        slot = 0 if label == IR else 1
        instances[slot] += 1
        for fid, count in vector.items():
            pair = counts.get(fid)
            if pair is None:
                pair = counts[fid] = [0, 0]
            pair[slot] += count
            totals[slot] += count
    return counts, totals, instances


def predict_nb(model: NaiveBayesModel, vector: FeatureVector) -> Prediction:
    """Log-posterior margin for IR vs OR; unseen features are ignored.

    Score 0 ties break toward IR (recall favors the in-region class). The
    terms come from the model's log-ratio table and are summed in vector
    order, so every score is bit-identical to summing
    count * (ll_IR[f] - ll_OR[f]) feature by feature.
    """
    score, delta = model.log_ratio
    lookup = delta.get
    for fid, count in vector.items():
        term = lookup(fid)
        if term is not None:
            score += count * term
    return tuple.__new__(Prediction, (IR if score >= 0.0 else OR, score))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class SparseDesign(NamedTuple):
    """The non-zero cells of a count matrix as (row, col, value) triples,
    row by row with columns ascending."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.values.nbytes


def logistic_loss_and_gradient(
    x: SparseDesign, y: np.ndarray, weights: np.ndarray, bias: float, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean negative log-likelihood plus (l2/2)||w||^2; bias unregularized."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # the trainer catches a non-finite loss
        z = np.bincount(x.rows, weights=x.values * weights[x.cols], minlength=len(y)) + bias
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * float(weights @ weights))
        residual = _sigmoid(z) - y
        xt_r = np.bincount(x.cols, weights=x.values * residual[x.rows], minlength=len(weights))
        grad_w = xt_r / len(y) + l2 * weights
        grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


def design_matrix(
    data: Sequence[LabeledVector],
) -> tuple[SparseDesign, np.ndarray, list[FeatureId]]:
    """Sparse design matrix, labels (IR = 1) and the sorted feature ids that
    number its columns."""
    import numpy as np

    vocab = sorted({fid for vector, _ in data for fid in vector})
    index = {fid: i for i, fid in enumerate(vocab)}
    nnz = sum(len(vector) for vector, _ in data)
    rows = np.repeat(np.arange(len(data), dtype=np.intp), [len(vector) for vector, _ in data])
    cols = np.fromiter((index[fid] for vector, _ in data for fid in vector), np.intp, nnz)
    values = np.fromiter((c for vector, _ in data for c in vector.values()), float, nnz)
    order = np.lexsort((cols, rows))
    x = SparseDesign(rows[order], cols[order], values[order])
    y = np.fromiter((1.0 if label == IR else 0.0 for _, label in data), float, len(data))
    return x, y, vocab


def train_logreg(
    data: Sequence[LabeledVector], params: LogRegParams = LogRegParams()
) -> LogisticRegressionModel:
    """Batch gradient descent from zero init until the update stalls."""
    import numpy as np

    _check_labels(label for _, label in data)
    x, y, vocab = design_matrix(data)
    weights = np.zeros(len(vocab))
    bias = 0.0
    for epoch in range(params.max_epochs):
        loss, grad_w, grad_b = logistic_loss_and_gradient(x, y, weights, bias, params.l2)
        if not math.isfinite(loss):
            raise TrainingDiverged(epoch)
        with np.errstate(over="ignore"):  # the next loss, or the check after the loop, fails
            step_w = params.learning_rate * grad_w
        step_b = params.learning_rate * grad_b
        weights -= step_w
        bias -= step_b
        largest = max(float(np.max(np.abs(step_w))) if len(vocab) else 0.0, abs(step_b))
        if largest < params.tolerance:
            break
    if not (np.all(np.isfinite(weights)) and math.isfinite(bias)):
        raise TrainingDiverged(params.max_epochs)
    weight_by_id = {fid: float(w) for fid, w in zip(vocab, weights)}
    return LogisticRegressionModel(weight_by_id, float(bias), params)


def predict_lr(model: LogisticRegressionModel, vector: FeatureVector) -> Prediction:
    """Sigmoid probability of IR; label IR at probability >= 0.5."""
    z = model.bias
    for fid, count in vector.items():
        z += count * model.weights.get(fid, 0.0)
    prob = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
    return Prediction(label=IR if prob >= 0.5 else OR, score=prob)


def top_features(
    model: LogisticRegressionModel, k: int, feature_class: FeatureClass
) -> list[tuple[FeatureId, float]]:
    """Most IR-indicative features of one class: weight descending, key ties."""
    return rank_features(model, k, [feature_class])[0]


def rank_features(
    model: LogisticRegressionModel, k: int, classes: Sequence[FeatureClass]
) -> list[list[tuple[FeatureId, float]]]:
    """top_features of each of classes, in order, from one pass over the ids."""
    k = checked(k, int, "k", *K_RANGE)
    groups: list[list[tuple[FeatureId, float]]] = [[] for _ in classes]
    for fid, w in model.weights.items():
        cls = split_feature(fid)[0]
        if cls in classes:  # a list, since hashing an Enum member runs Python code
            groups[classes.index(cls)].append((fid, w))
    for items in groups:
        items.sort(key=lambda kv: (-kv[1], kv[0]))
    return [items[:k] for items in groups]


def select_all_baseline(vector: FeatureVector) -> Prediction:
    """Label every instance IR, the degenerate recall-1.0 baseline."""
    return Prediction(label=IR, score=math.inf)


def model_to_dict(
    model: NaiveBayesModel | LogisticRegressionModel, feature_classes: Sequence[FeatureClass]
) -> dict:
    doc: dict = {"version": MODEL_SCHEMA_VERSION}
    doc["feature_classes"] = [c.value for c in feature_classes]
    if isinstance(model, NaiveBayesModel):
        doc["kind"] = "nb"
        doc["alpha"] = model.alpha
        doc["class_log_prior"] = dict(model.class_log_prior)
        tables = model.feature_log_likelihood
        doc["feature_log_likelihood"] = {label: dict(table) for label, table in tables.items()}
    else:
        doc["kind"] = "logreg"
        doc["bias"] = model.bias
        doc["weights"] = dict(model.weights)
        doc["hyperparameters"] = model.params._asdict()
    return doc


def _number(value, name: str) -> float:
    return checked(value, float, name)


def _per_label(value, name: str, convert) -> dict:
    """An object keyed by exactly IR and OR, each value passed through convert."""
    checked(value, dict, name, lambda v: v.keys() == set(LABELS), "keyed by exactly IR and OR")
    return {label: convert(value[label], f"{name}.{label}") for label in LABELS}


def _weight_table(value, name: str) -> dict[FeatureId, float]:
    """Feature id to finite number; the ids are checked by _check_ids."""
    table = {}
    isfinite = math.isfinite
    for fid, weight in checked(value, dict, name).items():
        # A finite float is taken as is, which is what _number would return.
        ok = type(weight) is float and isfinite(weight)
        table[fid] = weight if ok else _number(weight, f"{name}[{fid!r}]")
    return table


def _check_ids(ids: Iterable[FeatureId]) -> list[FeatureClass]:
    """The feature classes of ids; ValueError on the first id of no class."""
    used: list[FeatureClass] = []
    for fid in ids:
        cls = split_feature(fid)[0]
        if cls not in used:  # a list, since hashing an Enum member runs Python code
            used.append(cls)
    return used


def model_from_dict(doc: dict) -> tuple[NaiveBayesModel | LogisticRegressionModel, list[FeatureClass]]:
    """Rebuild a model and the feature classes it was trained on; ValueError
    on a bad version, kind, feature class, or a field that is missing or of
    the wrong shape, and when the classes miss one the feature ids use."""
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model version: {doc.get('version')!r}")
    try:
        if doc["kind"] == "nb":
            name = "feature_log_likelihood"
            loglik = _per_label(doc[name], f"model field {name}", _weight_table)
            ll_ir, ll_or = loglik[IR], loglik[OR]
            # Each id is checked once: the IR table's, then any only OR holds.
            used = _check_ids(ll_ir)
            if ll_ir.keys() != ll_or.keys():
                _check_ids(fid for fid in ll_or if fid not in ll_ir)
                raise ValueError(f"model tables {name}.IR and {name}.OR hold different ids")
            alpha = checked(doc["alpha"], float, "model field alpha", *ALPHA_RANGE)
            prior = _per_label(doc["class_log_prior"], "model field class_log_prior", _number)
            model: NaiveBayesModel | LogisticRegressionModel = NaiveBayesModel(
                prior, loglik, frozenset(ll_ir), alpha
            )
        elif doc["kind"] == "logreg":
            hp = checked(doc["hyperparameters"], dict, "model field hyperparameters")
            values = {name: hp[name] for name in LogRegParams._fields}
            try:
                params = LogRegParams(**values)
            except ValueError as exc:
                raise ValueError(f"model field hyperparameters.{exc}") from None
            weights = _weight_table(doc["weights"], "model field weights")
            used = _check_ids(weights)
            bias = _number(doc["bias"], "model field bias")
            model = LogisticRegressionModel(weights, bias, params)
        else:
            raise ValueError(f"unknown model kind: {doc.get('kind')!r}")
        classes = feature_classes(doc["feature_classes"], "model field feature_classes")
    except KeyError as exc:
        raise ValueError(f"model document lacks field {exc}") from None
    if missing := ", ".join(cls.value for cls in used if cls not in classes):
        raise ValueError(f"model field feature_classes lacks {missing}, which its feature ids use")
    return model, classes


def save_model(
    path: str | Path,
    model: NaiveBayesModel | LogisticRegressionModel,
    feature_classes: Sequence[FeatureClass],
) -> None:
    write_json(path, model_to_dict(model, feature_classes))


def load_model(path: str | Path) -> tuple[NaiveBayesModel | LogisticRegressionModel, list[FeatureClass]]:
    return model_from_dict(json_value(Path(path).read_bytes()))
