import ast
import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from crisislang import evaluation, model
from crisislang.evaluation import (
    balanced_sample,
    bigram_cloud,
    compute_metrics,
    cross_validate,
    enumerate_combinations,
    imbalance_sweep,
    roc_auc,
    stratified_fold_indices,
)
from crisislang.features import FeatureClass, MissingLayerError, vectorize
from crisislang.ingest import write_csv
from crisislang.model import IR, OR, nb_counts, predict_nb, select_all_baseline
from crisislang.text import attach_tags
from oracles import auc_pairwise, confusion_metrics, reference_train_naive_bayes
from synthdata import separable_labeled_set, tagged_labeled_set, tweet_from_text, word_counts

U = [FeatureClass.UNIGRAM]
ALL = list(FeatureClass)


def make_tweets(n, prefix="t", text="hello world"):
    return [tweet_from_text(f"{prefix}{i}", text) for i in range(n)]


class TestBalancedSample:
    def test_sizes(self):
        data = balanced_sample(make_tweets(5, "ir"), make_tweets(100, "or"), seed=7)
        assert len(data) == 10
        assert sum(1 for _, label in data if label == IR) == 5

    def test_deterministic_per_seed(self):
        ir, or_pool = make_tweets(5, "ir"), make_tweets(100, "or")
        a = balanced_sample(ir, or_pool, seed=7)
        b = balanced_sample(ir, or_pool, seed=7)
        assert [(t.tweet_id, label) for t, label in a] == [(t.tweet_id, label) for t, label in b]
        c = balanced_sample(ir, or_pool, seed=8)
        assert [(t.tweet_id, label) for t, label in a] != [(t.tweet_id, label) for t, label in c]

    def test_empty_ir_rejected(self):
        with pytest.raises(ValueError):
            balanced_sample([], make_tweets(10), seed=1)

    def test_small_or_pool_downsamples_ir(self):
        data = balanced_sample(make_tweets(10, "ir"), make_tweets(4, "or"), seed=3)
        assert len(data) == 8
        assert sum(1 for _, label in data if label == IR) == 4

    def test_without_replacement(self):
        data = balanced_sample(make_tweets(5, "ir"), make_tweets(20, "or"), seed=2)
        or_ids = [t.tweet_id for t, label in data if label == OR]
        assert len(or_ids) == len(set(or_ids))

    def test_downsampling_logs_a_warning(self, caplog):
        balanced_sample(make_tweets(10, "ir"), make_tweets(4, "or"), seed=3)
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("crisislang.evaluation", "WARNING", "OR pool (4) smaller than IR (10); downsampling IR")
        ]

    def test_enough_or_tweets_log_nothing(self, caplog):
        balanced_sample(make_tweets(4, "ir"), make_tweets(10, "or"), seed=3)
        assert caplog.records == []


class TestComputeMetrics:
    def test_select_all_on_balanced_set(self):
        truth = [IR] * 10 + [OR] * 10
        predicted = [select_all_baseline({}).label for _ in truth]
        m = compute_metrics(predicted, truth)
        assert (m.accuracy, m.precision, m.recall) == (0.5, 0.5, 1.0)
        assert m.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert m.degenerate_flags == ()

    def test_perfect_predictions(self):
        truth = [IR, OR, IR]
        m = compute_metrics(truth, truth)
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_no_predicted_ir_flags_precision(self):
        m = compute_metrics([OR, OR], [IR, OR])
        assert m.precision == 0.0 and m.recall == 0.0
        assert "precision" in m.degenerate_flags and "f1" in m.degenerate_flags

    def test_select_all_on_all_or_set_flags_recall(self):
        m = compute_metrics([IR, IR], [OR, OR])
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert "recall" in m.degenerate_flags

    def test_to_dict_equals_its_json_read_back(self):
        metrics = compute_metrics([OR, OR], [OR, OR])
        assert metrics.degenerate_flags
        assert json.loads(json.dumps(metrics.to_dict())) == metrics.to_dict()

    def test_report_dicts_keep_their_shape(self):
        """Each to_dict, key order and value types included: the flags are a
        list in Metrics.to_dict and a tuple inside a CvReport's dict."""
        m = evaluation.Metrics(0.5, 0.25, 1.0, 0.4, ("precision", "f1"))
        flat = {"accuracy": 0.5, "precision": 0.25, "recall": 1.0, "f1": 0.4}
        assert m.to_dict() == {**flat, "degenerate_flags": ["precision", "f1"]}
        nested = {**flat, "degenerate_flags": ("precision", "f1")}
        report = evaluation.CvReport([m, m], m, seed=3, repeats=1, folds=2)
        want = {"readings": [nested, nested], "mean": nested, "seed": 3, "repeats": 1, "folds": 2}
        assert repr(report.to_dict()) == repr(want)
        sweep = evaluation.ImbalanceSweep([0.1, 0.5], [0.6, 0.7], 0.65, 4)
        want = {"ratios": [0.1, 0.5], "auc_per_ratio": [0.6, 0.7], "summary_auc": 0.65, "seed": 4}
        assert repr(sweep.to_dict()) == repr(want)
        combos = evaluation.CombinationReport(
            [evaluation.CombinationEntry((FeatureClass.UNIGRAM,), report)], [FeatureClass.BIGRAM]
        )
        want = {
            "excluded_classes": ["BIGRAM"],
            "entries": [{"classes": "UNIGRAM", "mean": m.to_dict()}],
        }
        assert repr(combos.to_dict()) == repr(want)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([IR], [IR, OR])

    def test_all_two_instance_cases_match_confusion_arithmetic(self):
        labels = (IR, OR)
        for predicted in itertools.product(labels, repeat=2):
            for truth in itertools.product(labels, repeat=2):
                m = compute_metrics(list(predicted), list(truth))
                acc, prec, rec, f1 = confusion_metrics(list(predicted), list(truth))
                assert (m.accuracy, m.precision, m.recall, m.f1) == (acc, prec, rec, f1)


class TestStratifiedFolds:
    def test_partition_property_on_random_datasets(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randrange(10, 501)
            labels = [IR if rng.random() < rng.uniform(0.2, 0.8) else OR for _ in range(n)]
            folds = stratified_fold_indices(labels, 5, random.Random(rng.randrange(1000)))
            flat = [i for fold in folds for i in fold]
            assert sorted(flat) == list(range(n))
            assert len(folds) == 5

    def test_stratification_balances_labels(self):
        labels = [IR] * 50 + [OR] * 50
        folds = stratified_fold_indices(labels, 5, random.Random(1))
        for fold in folds:
            assert sum(1 for i in fold if labels[i] == IR) == 10


class TestCrossValidate:
    def test_fifteen_readings(self):
        data = separable_labeled_set(n=60, seed=1)
        report = cross_validate(data, U, repeats=3, folds=5, seed=5)
        assert len(report.readings) == 15
        assert report.repeats == 3 and report.folds == 5

    def test_separable_data_perfect_f1(self):
        # Large enough that the marker dominates accumulated noise-token mass.
        data = separable_labeled_set(n=400, seed=2)
        report = cross_validate(data, U, seed=5)
        assert report.mean.f1 == 1.0

    def test_byte_identical_reruns(self):
        data = separable_labeled_set(n=60, seed=3)
        a = cross_validate(data, U, seed=11)
        b = cross_validate(data, U, seed=11)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_mean_is_arithmetic_mean(self):
        data = separable_labeled_set(n=60, marker_in_rate=0.7, marker_out_rate=0.3, seed=4)
        report = cross_validate(data, U, seed=1)
        assert report.mean.f1 == pytest.approx(
            sum(m.f1 for m in report.readings) / 15, abs=1e-12
        )

    def test_too_few_instances_rejected(self):
        data = separable_labeled_set(n=4, seed=5)
        with pytest.raises(ValueError):
            cross_validate(data, U, folds=5)

    @pytest.mark.parametrize(
        "search",
        [
            lambda data: cross_validate(data, U, folds=5),
            lambda data: enumerate_combinations(data, seed=0, folds=5),
        ],
        ids=["cross_validate", "enumerate_combinations"],
    )
    def test_folds_beyond_each_label_count_are_named(self, search):
        """Six instances reach five folds, but three of a label leave two empty."""
        data = separable_labeled_set(n=6, seed=5)
        with pytest.raises(ValueError, match=r"^6 instances \(3 IR, 3 OR\) cannot fill 5 folds$"):
            search(data)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_nonfinite_alpha_rejected(self, alpha):
        data = separable_labeled_set(n=20, seed=7)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            cross_validate(data, U, repeats=1, folds=2, alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            enumerate_combinations(data, seed=4, repeats=1, folds=2, alpha=alpha)

    @pytest.mark.parametrize(
        "repeats, message",
        [
            (0, "repeats must be at least 1, got 0"),
            (-2, "repeats must be at least 1, got -2"),
            (1.5, "repeats must be a whole number, got 1.5"),
        ],
    )
    def test_bad_repeats_rejected(self, repeats, message):
        data = separable_labeled_set(n=20, seed=7)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cross_validate(data, U, repeats=repeats, folds=2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_combinations(data, seed=4, repeats=repeats, folds=2)

    @pytest.mark.parametrize(
        "folds, message",
        [
            (2.5, "folds must be a whole number, got 2.5"),
            (1, "folds must be at least 2, got 1"),
            (0, "folds must be at least 2, got 0"),
        ],
    )
    def test_bad_folds_rejected(self, folds, message):
        data = separable_labeled_set(n=20, seed=7)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cross_validate(data, U, repeats=1, folds=folds)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_combinations(data, seed=4, repeats=1, folds=folds)

    def test_whole_float_folds_runs_as_int(self):
        """Whole floats run as ints, and the reports carry the ints that ran:
        compared as JSON, where 2.0 and 2 differ."""
        data = separable_labeled_set(n=20, seed=7)
        assert json.dumps(cross_validate(data, U, repeats=2.0, folds=3.0).to_dict()) == (
            json.dumps(cross_validate(data, U, repeats=2, folds=3).to_dict())
        )
        as_float = enumerate_combinations(data, seed=4, repeats=2.0, folds=3.0)
        as_int = enumerate_combinations(data, seed=4, repeats=2, folds=3)
        assert as_float.to_dict() == as_int.to_dict()
        assert [json.dumps(e.report.to_dict()) for e in as_float.entries] == (
            [json.dumps(e.report.to_dict()) for e in as_int.entries]
        )

    def test_csv_has_fifteen_rows_plus_mean(self, tmp_path):
        data = separable_labeled_set(n=60, seed=6)
        report = cross_validate(data, U, seed=2)
        write_csv(tmp_path / "cv.csv", report.rows())
        lines = (tmp_path / "cv.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 17
        assert lines[-1].startswith("mean,")


class TestRocAuc:
    def test_perfect_ordering(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [IR, IR, OR, OR]) == 1.0

    def test_inverted_ordering(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [IR, IR, OR, OR]) == 0.0

    def test_all_ties(self):
        assert roc_auc([0.5] * 6, [IR, OR, IR, OR, IR, OR]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [IR, IR])

    def test_matches_pairwise_oracle(self):
        rng = random.Random(14)
        for _ in range(400):
            n = rng.randrange(2, 101)
            truth = [IR, OR] + [rng.choice([IR, OR]) for _ in range(n - 2)]
            scores = [rng.choice([0.1, 0.25, 0.5, 0.75, rng.random()]) for _ in range(n)]
            assert abs(roc_auc(scores, truth) - auc_pairwise(scores, truth)) <= 1e-12

    def test_random_scores_near_half(self):
        hits = 0
        for seed in range(100):
            rng = random.Random(seed)
            truth = [IR] * 1000 + [OR] * 1000
            scores = [rng.random() for _ in range(2000)]
            if 0.45 <= roc_auc(scores, truth) <= 0.55:
                hits += 1
        assert hits >= 95


class TestImbalanceSweep:
    def test_separable_high_auc_everywhere(self):
        data = separable_labeled_set(n=400, seed=9)
        ir = [t for t, label in data if label == IR]
        or_pool = [t for t, label in data if label == OR]
        sweep = imbalance_sweep(ir, or_pool, U, ratios=(0.2, 0.5, 0.8), seed=3)
        assert all(a >= 0.99 for a in sweep.auc_per_ratio)
        assert sweep.summary_auc == pytest.approx(sum(sweep.auc_per_ratio) / 3, abs=1e-12)

    def test_infeasible_ratio_rejected(self):
        data = separable_labeled_set(n=20, seed=10)
        ir = [t for t, label in data if label == IR][:2]
        or_pool = [t for t, label in data if label == OR]
        with pytest.raises(ValueError, match="infeasible"):
            imbalance_sweep(ir, or_pool, U, ratios=(0.95,), seed=1)

    def test_no_ratio_rejected_before_vectorizing(self):
        # The tweets carry no PTB layer, so vectorizing them would raise
        # MissingLayerError first.
        ir, or_pool = make_tweets(4, "ir"), make_tweets(4, "or")
        with pytest.raises(ValueError, match="^at least one ratio is required$"):
            imbalance_sweep(ir, or_pool, [FeatureClass.PTB_POS], ratios=[], seed=1)

    def test_deterministic(self):
        data = separable_labeled_set(n=200, marker_in_rate=0.8, marker_out_rate=0.2, seed=11)
        ir = [t for t, label in data if label == IR]
        or_pool = [t for t, label in data if label == OR]
        a = imbalance_sweep(ir, or_pool, U, ratios=(0.3, 0.5), seed=6)
        b = imbalance_sweep(ir, or_pool, U, ratios=(0.3, 0.5), seed=6)
        assert a.auc_per_ratio == b.auc_per_ratio


class TestEnumerateCombinations:
    def _tagged_data(self, n=40):
        # Fully tagged synthetic tweets so all six classes are extractable.
        rng = random.Random(0)
        data = []
        for i in range(n):
            label = IR if i % 2 == 0 else OR
            marker = "qz1" if label == IR else "qz2"
            words = [marker] + [rng.choice(["in", "boston", "storm", "safe"]) for _ in range(3)]
            from crisislang.text import attach_tags

            tags = ["N"] * len(words)
            ptb = ["NN"] * len(words)
            chunks = ["B-NP"] * len(words)
            data.append((attach_tags(words, tags, ptb, chunks, tweet_id=f"c{i}"), label))
        return data

    def test_sixty_three_entries(self):
        report = enumerate_combinations(self._tagged_data(), seed=4, repeats=1, folds=2)
        assert len(report.entries) == 63
        assert report.excluded_classes == []

    def test_word_only_data_gives_three_entries(self):
        data = separable_labeled_set(n=20, seed=12)
        report = enumerate_combinations(data, seed=4, repeats=1, folds=2)
        assert len(report.entries) == 3
        combos = {e.class_names() for e in report.entries}
        assert combos == {"UNIGRAM", "BIGRAM", "UNIGRAM+BIGRAM"}
        assert FeatureClass.ARK_POS in report.excluded_classes

    def test_singleton_entry_equals_direct_cv(self):
        data = self._tagged_data()
        report = enumerate_combinations(data, seed=9, repeats=2, folds=3)
        for entry in report.entries:
            if entry.classes == (FeatureClass.UNIGRAM,):
                direct = cross_validate(data, [FeatureClass.UNIGRAM], repeats=2, folds=3, seed=9)
                assert json.dumps(entry.report.to_dict(), sort_keys=True) == json.dumps(
                    direct.to_dict(), sort_keys=True
                )
                break
        else:
            pytest.fail("singleton UNIGRAM entry missing")

    def test_ranking_is_f1_descending(self):
        report = enumerate_combinations(self._tagged_data(), seed=4, repeats=1, folds=2)
        f1s = [e.report.mean.f1 for e in report.ranked()]
        assert f1s == sorted(f1s, reverse=True)


def reference_readings(data, classes, repeats, folds, seed, alpha=1.0):
    """CV readings from one NB model per fold, fitted by the oracle
    reference_train_naive_bayes, plus every held-out (tweet id, score) that
    predict_nb gave."""
    vectors = [vectorize(tweet, classes) for tweet, _ in data]
    labels = [label for _, label in data]
    readings, scores = [], []
    for repeat in range(repeats):
        rng = random.Random(seed + repeat)
        for held_out in stratified_fold_indices(labels, folds, rng):
            held = set(held_out)
            train = [(vectors[i], labels[i]) for i in range(len(data)) if i not in held]
            fitted = reference_train_naive_bayes(train, alpha=alpha)
            predictions = [predict_nb(fitted, vectors[i]) for i in held_out]
            scores += [(data[i][0].tweet_id, p.score) for i, p in zip(held_out, predictions)]
            readings.append(
                compute_metrics([p.label for p in predictions], [labels[i] for i in held_out])
            )
    return readings, scores


def held_out_margins(data, columns, subsets, repeats, folds, seed, alpha=1.0):
    """Per subset of columns (index tuples), every held-out (tweet id, margin)
    that evaluation._held_out_scores gives on rows of one vectorize(tweet,
    classes) per class list in columns, in reference_readings' order."""
    rows = [[vectorize(t, classes) for classes in columns] for t, _ in data]
    labels = [label for _, label in data]
    whole = [nb_counts(zip((row[k] for row in rows), labels)) for k in range(len(columns))]
    margins = [[] for _ in subsets]
    for repeat in range(repeats):
        rng = random.Random(seed + repeat)
        for held_out in stratified_fold_indices(labels, folds, rng):
            scores = evaluation._held_out_scores(whole, rows, labels, held_out, subsets, alpha)
            for subset_margins, subset_scores in zip(margins, scores):
                subset_margins += zip([data[j][0].tweet_id for j in held_out], subset_scores)
    return margins


def reference_sweep(ir, or_pool, classes, ratios, seed, alpha=1.0):
    """imbalance_sweep's AUCs from one NB model per ratio, fitted by the
    oracle reference_train_naive_bayes on the training split and applied by
    predict_nb to the test split, plus each ratio's training vocabulary and
    test vectors."""
    ir_vectors = [vectorize(t, classes) for t in ir]
    or_vectors = [vectorize(t, classes) for t in or_pool]
    aucs, splits = [], []
    for step, ratio in enumerate(ratios):
        n_total = min(int(len(ir_vectors) / ratio), int(len(or_vectors) / (1.0 - ratio)))
        k_ir = min(round(n_total * ratio), len(ir_vectors))
        k_or = min(n_total - k_ir, len(or_vectors))
        rng = random.Random(seed * 1000003 + step)
        sample = [(v, IR) for v in rng.sample(ir_vectors, k_ir)]
        sample += [(v, OR) for v in rng.sample(or_vectors, k_or)]
        by_label = {IR: list(range(k_ir)), OR: list(range(k_ir, k_ir + k_or))}
        test_idx = evaluation._test_split(by_label, 0.2, rng)
        train = [row for i, row in enumerate(sample) if i not in test_idx]
        fitted = reference_train_naive_bayes(train, alpha=alpha)
        scores = [predict_nb(fitted, sample[i][0]).score for i in test_idx]
        aucs.append(roc_auc(scores, [sample[i][1] for i in test_idx]))
        splits.append((fitted.vocabulary, [sample[i][0] for i in test_idx]))
    return aucs, splits


def lone_word_pools(seed):
    """Word-only IR and OR pools in which eight tweets per pool carry words
    no other tweet has: held out, four of them have no in-vocabulary feature
    and the other four one in-vocabulary word beside their lone ones."""
    data = separable_labeled_set(n=60, marker_in_rate=0.7, marker_out_rate=0.3, seed=seed)
    pools = {IR: [], OR: []}
    for tweet, label in data:
        pools[label].append(tweet)
    for label, pool in pools.items():
        for i in range(8):
            text = f"lq{label}{i}x lq{label}{i}y" + (" qz1" if i % 2 else "")
            pool.append(tweet_from_text(f"lone-{label}{i}", text))
    return pools[IR], pools[OR]


def tagged_pools(seed):
    data = tagged_labeled_set(n=60, seed=seed)
    return [t for t, label in data if label == IR], [t for t, label in data if label == OR]


SWEEP_CASES = [
    (lambda: lone_word_pools(1), [FeatureClass.UNIGRAM, FeatureClass.BIGRAM], 1.0),
    (lambda: lone_word_pools(2), [FeatureClass.UNIGRAM, FeatureClass.UNIGRAM], 0.3),
    (lambda: lone_word_pools(3), [FeatureClass.BIGRAM, *U, FeatureClass.BIGRAM], 7.5),
    (lambda: tagged_pools(4), ALL, 1.0),
    (lambda: tagged_pools(5), ALL + [FeatureClass.ARK_POS], 0.01),
]
SWEEP_IDS = ["lone-words", "repeated-class", "repeated-classes", "tagged", "tagged-repeated"]
SWEEP_RATIOS = (0.1, 0.25, 0.5, 0.75, 0.9)


def zero_margin_corpus():
    """Four IR and four OR tweets, all fully tagged. With two folds every
    training side holds two of each label, so the prior difference is 0, and
    the OR tweet "z" shares no word, tag or chunk label with any other tweet:
    held out, it has no in-vocabulary feature and a margin of exactly 0."""
    data = tagged_labeled_set(n=8, seed=21)
    words = ["zq1", "zq2", "zq3"]
    z = attach_tags(words, ["Z"] * 3, ["ZZ"] * 3, ["B-ZP", "I-ZP", "B-ZP"], tweet_id="z")
    return data[:-1] + [(z, OR)]


def _rebuilt(tweet, positions, chunk_tags=None):
    return attach_tags(
        [tweet.words[i] for i in positions],
        [tweet.ark[i] for i in positions],
        [tweet.ptb[i] for i in positions],
        chunk_tags or [tweet.chunk[i] for i in positions],
        tweet_id=tweet.tweet_id,
    )


def all_o_chunk_corpus():
    """Fully tagged tweets whose chunk tags are all O: the SHALLOW_PARSE
    layer is present, but the class has no feature and an empty vocabulary."""
    data = tagged_labeled_set(n=20, seed=5)
    return [
        (_rebuilt(t, range(len(t.words)), ["O"] * len(t.words)), label) for t, label in data
    ]


def one_token_corpus():
    """Fully tagged one-token tweets, the marker kept where there is one:
    BIGRAM has no feature and an empty vocabulary."""
    data = tagged_labeled_set(n=20, seed=6)
    markers = ("qz1", "qz2")
    kept = [next((i for i, w in enumerate(t.words) if w in markers), 0) for t, _ in data]
    return [(_rebuilt(t, [i]), label) for (t, label), i in zip(data, kept)]


def held_out_only_feature_corpus():
    """Fully tagged tweets, one of which alone carries the word "zonly" with
    tags no other tweet has: in the fold that holds it out, its features
    leave every class's training vocabulary."""
    data = tagged_labeled_set(n=20, seed=11)
    t, label = data[0]
    lone = attach_tags(
        [*t.words, "zonly"], [*t.ark, "Z"], [*t.ptb, "ZZ"], [*t.chunk, "B-ZP"], tweet_id=t.tweet_id
    )
    return [(lone, label)] + data[1:]


def twice_counted_corpus():
    """Fully tagged tweets that each repeat their first token and its tags,
    so every tweet carries a UNIGRAM feature counted twice."""
    data = tagged_labeled_set(n=20, seed=12)
    return [(_rebuilt(t, [0, *range(len(t.words))]), label) for t, label in data]


def one_chunked_tweet_corpus():
    """all_o_chunk_corpus with chunks on its first tweet only: in the fold
    that holds that tweet out, SHALLOW_PARSE's training side is empty while
    the held-out tweet carries its features."""
    data = all_o_chunk_corpus()
    t, label = data[0]
    chunks = ["B-NP"] + ["I-NP"] * (len(t.words) - 1)
    return [(_rebuilt(t, range(len(t.words)), chunks), label)] + data[1:]


class TestReferenceEquality:
    @pytest.mark.parametrize(
        "make_data, folds, alpha",
        [
            (lambda: tagged_labeled_set(n=40, seed=7), 5, 1.0),
            (lambda: tagged_labeled_set(n=30, seed=8), 3, 0.3),
            (zero_margin_corpus, 2, 1.0),
            (all_o_chunk_corpus, 3, 1.0),
            (one_token_corpus, 3, 1.0),
            (held_out_only_feature_corpus, 5, 1.0),
            (twice_counted_corpus, 3, 0.5),
            (one_chunked_tweet_corpus, 4, 1.0),
        ],
        ids=[
            "tagged",
            "tagged-alpha",
            "zero-margin",
            "empty-shallow-parse",
            "empty-bigram",
            "held-out-only-feature",
            "twice-counted",
            "empty-training-class",
        ],
    )
    def test_every_subset_matches_per_fold_training(self, make_data, folds, alpha):
        data = make_data()
        report = enumerate_combinations(data, seed=3, repeats=3, folds=folds, alpha=alpha)
        assert len(report.entries) == 63
        subsets = [tuple(ALL.index(c) for c in entry.classes) for entry in report.entries]
        columns = [[cls] for cls in ALL]
        margins = held_out_margins(data, columns, subsets, 3, folds, seed=3, alpha=alpha)
        for entry, subset_margins in zip(report.entries, margins):
            classes = list(entry.classes)
            expected, scores = reference_readings(data, classes, 3, folds, seed=3, alpha=alpha)
            assert entry.report.readings == expected, entry.class_names()
            assert subset_margins == scores, entry.class_names()
            # The subset's classes as one column, as cross_validate scores them.
            [one_column] = held_out_margins(data, [classes], [(0,)], 3, folds, seed=3, alpha=alpha)
            assert one_column == scores, entry.class_names()
            direct = cross_validate(data, classes, repeats=3, folds=folds, seed=3, alpha=alpha)
            assert direct.readings == expected, entry.class_names()

    @pytest.mark.parametrize("make_pools, classes, alpha", SWEEP_CASES, ids=SWEEP_IDS)
    def test_sweep_matches_one_fit_per_ratio(self, make_pools, classes, alpha):
        ir, or_pool = make_pools()
        for seed in range(3):
            sweep = imbalance_sweep(ir, or_pool, classes, SWEEP_RATIOS, seed=seed, alpha=alpha)
            expected, _ = reference_sweep(ir, or_pool, classes, SWEEP_RATIOS, seed, alpha)
            assert sweep.auc_per_ratio == expected, seed

    def test_lone_word_pools_hold_out_what_no_fit_has_seen(self):
        # The sweep test above covers a test tweet with no in-vocabulary
        # feature, and a feature seen only in the test split beside one that
        # was trained, only if the lone-word tweets really land in test splits.
        for make_pools, classes, alpha in SWEEP_CASES[:3]:
            splits = reference_sweep(*make_pools(), classes, SWEEP_RATIOS, 0, alpha)[1]
            held = [(vocabulary, v) for vocabulary, test in splits for v in test]
            assert any(v and not vocabulary.intersection(v) for vocabulary, v in held)
            assert any(vocabulary.intersection(v) and set(v) - vocabulary for vocabulary, v in held)

    def test_zero_margin_corpus_has_its_tie(self):
        # The equality test above covers the IR tie-break only if "z" really
        # scores exactly 0 in every subset.
        data = zero_margin_corpus()
        for size in range(1, 7):
            for subset in itertools.combinations(list(FeatureClass), size):
                _, scores = reference_readings(data, list(subset), 3, 2, seed=3)
                assert [score for tweet_id, score in scores if tweet_id == "z"] == [0.0] * 3

    @pytest.mark.parametrize(
        "make_data, empty",
        [
            (all_o_chunk_corpus, FeatureClass.SHALLOW_PARSE),
            (one_token_corpus, FeatureClass.BIGRAM),
        ],
    )
    def test_empty_class_corpora_have_their_empty_class(self, make_data, empty):
        # The equality test above covers a subset whose vocabulary is empty
        # only if the class really yields no feature on any tweet.
        data = make_data()
        assert all(vectorize(t, [empty]) == {} for t, _ in data)
        assert all(vectorize(t, [FeatureClass.UNIGRAM]) for t, _ in data)

    def test_held_out_only_feature_corpus_has_its_lone_features(self):
        # The equality test above covers a fold whose vocabulary shrinks only
        # if the lone tweet's features really are carried by no other tweet.
        data = held_out_only_feature_corpus()
        for cls in FeatureClass:
            lone = vectorize(data[0][0], [cls]).keys()
            others = {fid for t, _ in data[1:] for fid in vectorize(t, [cls])}
            assert lone - others, cls

    def test_twice_counted_corpus_counts_a_feature_twice(self):
        data = twice_counted_corpus()
        assert all(max(vectorize(t, [FeatureClass.UNIGRAM]).values()) >= 2 for t, _ in data)

    def test_one_chunked_tweet_corpus_empties_a_training_side(self):
        # Only the first tweet carries SHALLOW_PARSE features, so the fold
        # holding it out trains that class on nothing.
        data = one_chunked_tweet_corpus()
        carried = [bool(vectorize(t, [FeatureClass.SHALLOW_PARSE])) for t, _ in data]
        assert carried == [True] + [False] * (len(data) - 1)

    @staticmethod
    def _counted(monkeypatch, module, names, calls):
        for name in names:
            fn = getattr(module, name)

            def wrapper(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

    def test_search_vectorizes_once_and_never_trains(self, monkeypatch):
        data = tagged_labeled_set(n=20, seed=9)
        calls = Counter()
        self._counted(monkeypatch, evaluation, ["vectorize", "nb_counts"], calls)
        self._counted(monkeypatch, model, ["train_naive_bayes", "predict_nb"], calls)
        report = enumerate_combinations(data, seed=1, repeats=2, folds=3)
        assert len(report.entries) == 63
        assert 0 < calls["vectorize"] <= len(data) * len(FeatureClass)
        assert calls["train_naive_bayes"] == calls["predict_nb"] == 0
        # Per class, one whole-set count table and one held-out table per
        # fold, from the routine NB training uses.
        assert calls["nb_counts"] == len(FeatureClass) * (1 + 2 * 3)

    def test_sweep_never_trains(self, monkeypatch):
        data = separable_labeled_set(n=60, seed=9)
        ir = [t for t, label in data if label == IR]
        or_pool = [t for t, label in data if label == OR]
        calls = Counter()
        self._counted(monkeypatch, evaluation, ["nb_counts"], calls)
        self._counted(monkeypatch, model, ["train_naive_bayes", "predict_nb"], calls)
        sweep = imbalance_sweep(ir, or_pool, U, ratios=(0.3, 0.5), seed=2)
        assert len(sweep.auc_per_ratio) == 2
        assert calls["train_naive_bayes"] == calls["predict_nb"] == 0
        # Per ratio, one whole-sample table and one for its test split.
        assert calls["nb_counts"] == 2 * 2

    def test_evaluation_binds_no_nb_fit(self):
        # A name bound at import would escape the probes above, which patch
        # only the model module.
        assert not hasattr(evaluation, "train_naive_bayes")
        assert not hasattr(evaluation, "predict_nb")

    def test_errors_keep_their_types(self):
        data = tagged_labeled_set(n=10, seed=4)
        with pytest.raises(ValueError, match="alpha"):
            cross_validate(data, U, folds=2, alpha=0.0)
        with pytest.raises(ValueError, match="both labels"):
            cross_validate([(t, IR) for t, _ in data], U, folds=2)
        untagged = separable_labeled_set(n=10, seed=4)
        classes = [FeatureClass.UNIGRAM, FeatureClass.ARK_POS, FeatureClass.PTB_POS]
        with pytest.raises(MissingLayerError, match="ARK_POS, PTB_POS"):
            cross_validate(untagged, classes, folds=2)
        # The rows are vectorized before folds is checked.
        with pytest.raises(MissingLayerError, match="ARK_POS, PTB_POS"):
            cross_validate(untagged, classes, folds=1)


def test_rows_are_built_only_through_vectorize():
    """Only features.vectorize calls a class's extract, and every evaluation
    function that hands rows to the scorer builds them with vectorize, so
    vectorize's call count and timings cover every vector the scorer reads."""
    namers: dict[str, set[str]] = {}  # a name, or .attribute, read -> where
    for path in sorted(Path(evaluation.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_bytes(), path.name).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else f".{node.attr}"
                    namers.setdefault(name, set()).add(where)
    assert namers[".extract"] == {"features.vectorize"}
    scorers = {"evaluation.cross_validate", "evaluation.imbalance_sweep",
               "evaluation.enumerate_combinations"}
    rows_handed = namers["_held_out_scores"] | namers["_subset_readings"]
    assert rows_handed == scorers | {"evaluation._subset_readings"}
    assert {w for w in namers["vectorize"] if w.startswith("evaluation.")} == scorers
    assert not any(
        w.startswith("evaluation.")
        for name, where in namers.items()
        if name.lstrip(".") == "count_ngrams" or name.lstrip(".").startswith("extract")
        for w in where
    )


class TestBigramCloud:
    def test_dominant_bigram_first(self):
        tweets = [tweet_from_text("1", "in boston now"), tweet_from_text("2", "in boston")]
        cloud = bigram_cloud(word_counts(tweets, 2), 10)
        assert cloud[0] == ("in boston", 2)

    def test_ties_lexicographic(self):
        tweets = [tweet_from_text("1", "b a"), tweet_from_text("2", "a b")]
        assert bigram_cloud(word_counts(tweets, 2), 2) == [("a b", 1), ("b a", 1)]

    def test_k_zero_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"^k must be positive, got {k}$"):
                bigram_cloud([], k)

    def test_fewer_than_k(self):
        assert bigram_cloud(word_counts([tweet_from_text("1", "a b")], 2), 10) == [("a b", 1)]
