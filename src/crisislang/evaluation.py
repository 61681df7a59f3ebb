"""Experimental protocol: balanced sampling, repeated stratified CV,
IR-perspective metrics, rank-based ROC AUC, the class-imbalance sweep, and
the exhaustive search over the 63 feature-class combinations.

No NB model is fitted here: CV and the sweep score their classes as one
vectorize column, the search one per class, and all score held-out rows
through _held_out_scores, which subtracts them from counts taken once over
the whole set. Randomness comes only from integer seeds; repeat i of a CV
run uses seed + i, so each reading is individually reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from crisislang.features import (
    ALPHA_RANGE,
    DEFAULT_IMBALANCE_RATIOS,
    FOLDS_RANGE,
    FeatureClass,
    FeatureId,
    FeatureVector,
    K_RANGE,
    REPEATS_RANGE,
    checked,
    missing_classes,
    vectorize,
)
from crisislang.model import IR, OR, _check_labels, nb_counts, nb_log_likelihoods
from crisislang.text import TaggedTweet

LabeledTweet = tuple[TaggedTweet, str]

TEST_FRACTION = 0.2  # the share of each label imbalance_sweep holds out to test


class Metrics(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate_flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        # The flags as a list, so the dict equals the JSON read back.
        return dict(self._asdict(), degenerate_flags=list(self.degenerate_flags))


def compute_metrics(predicted: Sequence[str], truth: Sequence[str]) -> Metrics:
    """Confusion-matrix metrics with IR as the positive class.

    Undefined denominators are reported as 0 with an explicit flag so
    degenerate readings stay visible in aggregates.
    """
    if len(predicted) != len(truth):
        raise ValueError(f"length mismatch: {len(predicted)} predictions, {len(truth)} truths")
    if not truth:
        raise ValueError("empty prediction set")
    tp = fp = fn = tn = 0
    for p, t in zip(predicted, truth):
        if p == IR and t == IR:
            tp += 1
        elif p == IR:
            fp += 1
        elif t == IR:
            fn += 1
        else:
            tn += 1
    flags: list[str] = []
    accuracy = (tp + tn) / len(truth)
    if tp + fp == 0:
        precision = 0.0
        flags.append("precision")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        flags.append("recall")
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        f1 = 0.0
        flags.append("f1")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(accuracy, precision, recall, f1, tuple(flags))


def mean_metrics(readings: Sequence[Metrics]) -> Metrics:
    n = len(readings)
    flags = sorted({flag for m in readings for flag in m.degenerate_flags})
    return Metrics(
        accuracy=sum(m.accuracy for m in readings) / n,
        precision=sum(m.precision for m in readings) / n,
        recall=sum(m.recall for m in readings) / n,
        f1=sum(m.f1 for m in readings) / n,
        degenerate_flags=tuple(flags),
    )


def balanced_sample(
    ir: Sequence[TaggedTweet], or_pool: Sequence[TaggedTweet], seed: int
) -> list[LabeledTweet]:
    """All IR tweets plus an equal-size uniform sample from the OR pool.

    When the OR pool is the smaller side, IR is downsampled instead (with a
    warning) so the result is always a 50/50 split.
    """
    if not ir:
        raise ValueError("IR set is empty; nothing to balance against")
    rng = random.Random(seed)
    if len(or_pool) >= len(ir):
        chosen_or = rng.sample(list(or_pool), len(ir))
        return [(t, IR) for t in ir] + [(t, OR) for t in chosen_or]
    import logging

    logging.getLogger(__name__).warning(
        "OR pool (%d) smaller than IR (%d); downsampling IR", len(or_pool), len(ir)
    )
    chosen_ir = rng.sample(list(ir), len(or_pool))
    return [(t, IR) for t in chosen_ir] + [(t, OR) for t in or_pool]


def stratified_fold_indices(
    labels: Sequence[str], folds: int, rng: random.Random
) -> list[list[int]]:
    """Shuffle, then deal each label's instances round-robin across folds.

    Per repeat the folds are disjoint and their union is the full index set.
    """
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    order = list(range(len(labels)))
    rng.shuffle(order)
    assignments: list[list[int]] = [[] for _ in range(folds)]
    dealt: Counter[str] = Counter()
    for idx in order:
        label = labels[idx]
        assignments[dealt[label] % folds].append(idx)
        dealt[label] += 1
    return assignments


class CvReport:
    def __init__(self, readings, mean, seed, repeats, folds) -> None:
        self.readings: list[Metrics] = readings
        self.mean: Metrics = mean
        self.seed: int = seed
        self.repeats: int = repeats
        self.folds: int = folds

    def to_dict(self) -> dict:
        # Each Metrics as _asdict gives it, flags as a tuple: JSON writes both as lists.
        readings = [m._asdict() for m in self.readings]
        return dict(vars(self), readings=readings, mean=self.mean._asdict())

    def rows(self) -> list[list]:
        numbered = [*enumerate(self.readings, start=1), ("mean", self.mean)]
        return [["reading", "accuracy", "precision", "recall", "f1", "degenerate_flags"]] + [
            [i, m.accuracy, m.precision, m.recall, m.f1, ";".join(m.degenerate_flags)]
            for i, m in numbered
        ]


def _held_out_scores(
    whole: Sequence[tuple[dict[FeatureId, list[int]], list[int], list[int]]],
    rows: Sequence[Sequence[FeatureVector]],
    labels: Sequence[str],
    held_out: Sequence[int],
    subsets: Sequence[tuple[int, ...]],
    alpha: float,
) -> list[list[float]]:
    """Per subset of columns (index tuples), each held-out row's NB margin
    under a model of the other rows: predict_nb's score after
    train_naive_bayes on the union of the subset's columns, bit for bit
    (column ids are disjoint). whole[k] is column k's nb_counts over all
    rows; training counts are it minus the held-out rows'. alpha comes checked.
    """
    # A held-out feature's term depends only on its count in the row, its
    # training (n_IR, n_OR) pair and the subset's denominators. Per column,
    # each distinct (count, n_IR, n_OR) of the held-out rows' in-vocabulary
    # features gets an index. hits[t][k]: the index per in-vocabulary feature
    # of held-out row t in column k, in the vector's order.
    hits: list[list[list[int]]] = [[] for _ in held_out]
    triples: list[list[tuple[int, int, int]]] = []
    sizes: list[int] = []
    totals: tuple[list[int], list[int]] = ([], [])
    for k, (counts, whole_totals, instances) in enumerate(whole):
        held, held_totals, held_instances = nb_counts((rows[j][k], labels[j]) for j in held_out)
        # The held-out features' training pairs; a feature whose whole count
        # sits in the held-out rows leaves the training vocabulary.
        train = {
            fid: pair
            for fid, (h_ir, h_or) in held.items()
            if (pair := (counts[fid][0] - h_ir, counts[fid][1] - h_or)) != (0, 0)
        }
        sizes.append(len(counts) - len(held) + len(train))
        for slot in (0, 1):
            totals[slot].append(whole_totals[slot] - held_totals[slot])
        index: dict[tuple[int, int, int], int] = {}
        for row_hits, j in zip(hits, held_out):
            row_hits.append(
                [
                    index.setdefault((count, *pair), len(index))
                    for fid, count in rows[j][k].items()
                    if (pair := train.get(fid)) is not None
                ]
            )
        triples.append(list(index))
    # Every column counts the same instances.
    n_ir = instances[0] - held_instances[0]
    n_or = instances[1] - held_instances[1]
    n = n_ir + n_or
    prior = math.log(n_ir / n) - math.log(n_or / n)
    # Per label and column, the distinct training counts its hits hold.
    values = [[{triple[i] for triple in t} for t in triples] for i in (1, 2)]
    scores: list[list[float]] = []
    for subset in subsets:
        v = sum(sizes[k] for k in subset)
        # Logs only of the values the subset's columns hold, so an empty
        # vocabulary (v = 0, zero denominators) is never divided by.
        ll_ir, ll_or = [
            nb_log_likelihoods(
                itertools.chain.from_iterable(label_values[k] for k in subset),
                sum(label_totals[k] for k in subset),
                v,
                alpha,
            )
            for label_values, label_totals in zip(values, totals)
        ]
        terms = [
            [count * (ll_ir[n_fir] - ll_or[n_for]) for count, n_fir, n_for in triples[k]]
            for k in subset
        ]
        subset_scores = []
        for row_hits in hits:
            score = prior
            for k, column_terms in zip(subset, terms):
                for t in row_hits[k]:
                    score += column_terms[t]
            subset_scores.append(score)
        scores.append(subset_scores)
    return scores


def _subset_readings(
    rows: Sequence[Sequence[FeatureVector]],
    labels: Sequence[str],
    subsets: Sequence[tuple[int, ...]],
    repeats: int,
    folds: int,
    seed: int,
    alpha: float,
) -> list[CvReport]:
    """Repeated stratified CV of NB on every subset of the rows' columns
    (index tuples), each fold scored by _held_out_scores from one whole-set
    count per column, which is folds / (folds - 1) times a fold's training
    side. One report per subset, carrying the repeats and folds checked here."""
    folds = checked(folds, int, "folds", *FOLDS_RANGE)
    label_counts = Counter(labels)
    if max(label_counts.values(), default=0) < folds:  # each fold gets one of the largest label
        n_ir, n_or = label_counts[IR], label_counts[OR]
        raise ValueError(f"{len(rows)} instances ({n_ir} IR, {n_or} OR) cannot fill {folds} folds")
    repeats = checked(repeats, int, "repeats", *REPEATS_RANGE)
    alpha = checked(alpha, float, "alpha", *ALPHA_RANGE)
    whole = [nb_counts(zip((row[k] for row in rows), labels)) for k in range(len(rows[0]))]
    readings: list[list[Metrics]] = [[] for _ in subsets]
    for repeat in range(repeats):
        rng = random.Random(seed + repeat)
        for held_out in stratified_fold_indices(labels, folds, rng):
            truth = [labels[j] for j in held_out]
            _check_labels(label_counts - Counter(truth))
            scores = _held_out_scores(whole, rows, labels, held_out, subsets, alpha)
            for subset_scores, subset_readings in zip(scores, readings):
                predicted = [IR if score >= 0.0 else OR for score in subset_scores]
                subset_readings.append(compute_metrics(predicted, truth))
    return [
        CvReport(readings=r, mean=mean_metrics(r), seed=seed, repeats=repeats, folds=folds)
        for r in readings
    ]


def cross_validate(
    data: Sequence[LabeledTweet],
    classes: Sequence[FeatureClass],
    repeats: int = 3,
    folds: int = 5,
    seed: int = 0,
    alpha: float = 1.0,
) -> CvReport:
    """Repeated stratified k-fold CV of NB, the classes scored as one column.

    Each repeat reshuffles with seed + repeat index; the report carries
    repeats x folds readings plus their arithmetic mean.
    """
    rows = [[vectorize(tweet, classes)] for tweet, _ in data]
    labels = [label for _, label in data]
    return _subset_readings(rows, labels, [(0,)], repeats, folds, seed, alpha)[0]


def roc_auc(scores: Sequence[float], truth: Sequence[str]) -> float:
    """Rank-based AUC: P(random IR scores above random OR), ties count half."""
    if len(scores) != len(truth):
        raise ValueError("scores and truth differ in length")
    n_pos = sum(1 for t in truth if t == IR)
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both labels in the truth sequence")
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = avg_rank
        i = j + 1
    pos_rank_sum = sum(r for r, t in zip(ranks, truth) if t == IR)
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class ImbalanceSweep:
    def __init__(self, ratios, auc_per_ratio, summary_auc, seed) -> None:
        self.ratios: list[float] = ratios
        self.auc_per_ratio: list[float] = auc_per_ratio
        self.summary_auc: float = summary_auc
        self.seed: int = seed

    def to_dict(self) -> dict:
        return dict(vars(self))

    def rows(self) -> list[list]:
        return [["ratio", "auc"], *map(list, zip(self.ratios, self.auc_per_ratio))]


def _test_split(
    indices_by_label: dict[str, Sequence[int]], test_fraction: float, rng: random.Random
) -> list[int]:
    test: list[int] = []
    for label in sorted(indices_by_label):
        members = list(indices_by_label[label])
        rng.shuffle(members)
        n_test = max(1, round(len(members) * test_fraction))
        if n_test >= len(members):
            raise ValueError(f"label {label} too small to split train/test")
        test.extend(members[:n_test])
    return test


def imbalance_sweep(
    ir: Sequence[TaggedTweet],
    or_pool: Sequence[TaggedTweet],
    classes: Sequence[FeatureClass],
    ratios: Sequence[float] = DEFAULT_IMBALANCE_RATIOS,
    seed: int = 0,
    alpha: float = 1.0,
) -> ImbalanceSweep:
    """AUC of NB margins at each IR fraction, on a held-out split.

    For each ratio, after its range and size checks and before alpha's, the
    largest dataset the two pools can support is drawn and split stratified
    (TEST_FRACTION of each label to test). Its test split is the held-out side
    of _held_out_scores, so each margin is the one a model of the training
    split would give.
    """
    if not ratios:
        raise ValueError("at least one ratio is required")
    ir_rows = [[vectorize(t, classes)] for t in ir]
    or_rows = [[vectorize(t, classes)] for t in or_pool]
    aucs: list[float] = []
    for step, ratio in enumerate(ratios):
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"ratio must be in (0, 1), got {ratio}")
        n_total = min(int(len(ir_rows) / ratio), int(len(or_rows) / (1.0 - ratio)))
        k_ir = min(round(n_total * ratio), len(ir_rows))
        k_or = min(n_total - k_ir, len(or_rows))
        if k_ir < 2 or k_or < 2:
            raise ValueError(
                f"ratio {ratio} infeasible for pools of {len(ir_rows)} IR / "
                f"{len(or_rows)} OR tweets"
            )
        rng = random.Random(seed * 1000003 + step)
        sample = rng.sample(ir_rows, k_ir) + rng.sample(or_rows, k_or)
        labels = [IR] * k_ir + [OR] * k_or
        test = _test_split({IR: range(k_ir), OR: range(k_ir, len(sample))}, TEST_FRACTION, rng)
        alpha = checked(alpha, float, "alpha", *ALPHA_RANGE)
        whole = [nb_counts(zip((v for [v] in sample), labels))]
        [scores] = _held_out_scores(whole, sample, labels, test, [(0,)], alpha)
        aucs.append(roc_auc(scores, [labels[i] for i in test]))
    return ImbalanceSweep(list(ratios), aucs, sum(aucs) / len(aucs), seed)


class CombinationEntry:
    def __init__(self, classes, report) -> None:
        self.classes: tuple[FeatureClass, ...] = classes
        self.report: CvReport = report

    def class_names(self) -> str:
        return "+".join(c.value for c in self.classes)


class CombinationReport:
    def __init__(self, entries, excluded_classes) -> None:
        self.entries: list[CombinationEntry] = entries
        self.excluded_classes: list[FeatureClass] = excluded_classes

    def ranked(self) -> list[CombinationEntry]:
        return sorted(
            self.entries,
            key=lambda e: (-e.report.mean.f1, len(e.classes), e.class_names()),
        )

    def to_dict(self) -> dict:
        return {
            "excluded_classes": [c.value for c in self.excluded_classes],
            "entries": [
                {"classes": e.class_names(), "mean": e.report.mean.to_dict()}
                for e in self.ranked()
            ],
        }

    def rows(self) -> list[list]:
        rows: list[list] = [["rank", "classes", "accuracy", "precision", "recall", "f1"]]
        for rank, e in enumerate(self.ranked(), start=1):
            m = e.report.mean
            rows.append([rank, e.class_names(), m.accuracy, m.precision, m.recall, m.f1])
        return rows


def enumerate_combinations(
    data: Sequence[LabeledTweet],
    seed: int = 0,
    repeats: int = 3,
    folds: int = 5,
    alpha: float = 1.0,
) -> CombinationReport:
    """Cross-validate every non-empty subset of the extractable classes.

    All subsets share the same fold seed, so rankings compare like-for-like.
    A class is extractable only when every tweet carries its tag layer;
    anything else is excluded and reported. All subsets are scored from one
    count per class column and fold (_subset_readings).
    """
    available = [
        cls
        for cls in FeatureClass
        if all(not missing_classes(tweet, [cls]) for tweet, _ in data)
    ]
    excluded = [cls for cls in FeatureClass if cls not in available]
    if not available:
        raise ValueError("no feature class is extractable from this data")
    subsets: list[tuple[int, ...]] = []
    for size in range(1, len(available) + 1):
        subsets.extend(itertools.combinations(range(len(available)), size))

    rows = [[vectorize(tweet, [cls]) for cls in available] for tweet, _ in data]
    labels = [label for _, label in data]
    reports = _subset_readings(rows, labels, subsets, repeats, folds, seed, alpha)
    entries = [
        CombinationEntry(classes=tuple(available[k] for k in subset), report=report)
        for subset, report in zip(subsets, reports)
    ]
    return CombinationReport(entries=entries, excluded_classes=excluded)


def bigram_cloud(counts: Mapping[str, int], k: int) -> list[tuple[str, int]]:
    """Top-k word bigrams of bigram counts, ties broken lexicographically."""
    k = checked(k, int, "k", *K_RANGE)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:k]
