"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL
line in the terminal summary (see conftest)."""

import itertools
import json
import random
import time
from collections import Counter

import numpy as np
import pytest

from crisislang.divergence import DivergenceMatrix, js_divergence, regional_divergence_matrix
from crisislang.evaluation import (
    compute_metrics,
    cross_validate,
    enumerate_combinations,
    roc_auc,
    stratified_fold_indices,
)
from crisislang.features import FeatureClass, extract_crisis_sensitive, split_feature
from crisislang.ingest import GeoPoint, haversine_km, parse_tweet_record
from crisislang.model import (
    IR,
    OR,
    design_matrix,
    logistic_loss_and_gradient,
    predict_nb,
    select_all_baseline,
    top_features,
    train_logreg,
    train_naive_bayes,
)
from crisislang.text import attach_tags, fallback_ark_tags, tag_raw_tweet
from oracles import (
    auc_pairwise,
    fd_gradient,
    jsd_brute,
    nb_posterior_margin,
    spherical_law_km,
)
from synthdata import (
    city_groups,
    hourly_shift_tweets,
    pipeline_corpus_lines,
    separable_labeled_set,
    write_config,
)

U = [FeatureClass.UNIGRAM]
UB = [FeatureClass.UNIGRAM, FeatureClass.BIGRAM]


def test_criterion_01_select_all_baseline_exact():
    start = time.perf_counter()
    rng = random.Random(0)
    for trial in range(20):
        n = rng.randrange(1, 50)
        truth = [IR] * n + [OR] * n
        rng.shuffle(truth)
        predicted = [select_all_baseline({}).label for _ in truth]
        m = compute_metrics(predicted, truth)
        assert (m.accuracy, m.precision, m.recall) == (0.5, 0.5, 1.0)
    assert time.perf_counter() - start < 1.0


def _fully_tagged_labeled_set(n=60, seed=0):
    rng = random.Random(seed)
    ptb_map = {"N": "NN", "V": "VB", "A": "JJ", "P": "IN", "D": "DT", "!": ".",
               "R": "RB", "L": "PRP", "$": "CD"}
    data = []
    for i in range(n):
        label = IR if i % 2 == 0 else OR
        marker = "qz1" if label == IR else "qz2"
        words = [marker] + [
            rng.choice(["in", "boston", "the", "storm", "safe", "exploded", "now"])
            for _ in range(4)
        ]
        ark = fallback_ark_tags(words)
        ptb = [ptb_map.get(t, "NN") for t in ark]
        chunks = ["B-NP" if t == "N" else "O" for t in ark]
        data.append((attach_tags(words, ark, ptb, chunks, tweet_id=f"f{i}"), label))
    return data


def test_criterion_02_combination_enumeration():
    data = _fully_tagged_labeled_set(n=60, seed=1)
    report = enumerate_combinations(data, seed=21, repeats=3, folds=5)
    assert len(report.entries) == 63
    subsets = {e.classes for e in report.entries}
    assert len(subsets) == 63
    for cls in FeatureClass:
        singleton = next(e for e in report.entries if e.classes == (cls,))
        direct = cross_validate(data, [cls], repeats=3, folds=5, seed=21)
        assert json.dumps(singleton.report.to_dict(), sort_keys=True) == json.dumps(
            direct.to_dict(), sort_keys=True
        )


def test_criterion_03_cv_readings_and_fold_invariants():
    data = separable_labeled_set(n=60, seed=2)
    report = cross_validate(data, U, repeats=3, folds=5, seed=3)
    assert len(report.readings) == 15

    rng = random.Random(303)
    for _ in range(100):
        n = rng.randrange(10, 501)
        p_ir = rng.uniform(0.2, 0.8)
        labels = [IR if rng.random() < p_ir else OR for _ in range(n)]
        folds = stratified_fold_indices(labels, 5, random.Random(rng.randrange(10**6)))
        flat = [i for fold in folds for i in fold]
        assert len(flat) == len(set(flat)) == n  # disjoint and exhaustive
        assert sorted(flat) == list(range(n))


def test_criterion_04_nb_matches_enumeration_oracle():
    rng = random.Random(404)
    features = [f"UNIGRAM:f{i}" for i in range(5)]
    for _ in range(1000):
        n_train = rng.randrange(2, 7)
        labels = [IR, OR] + [rng.choice([IR, OR]) for _ in range(n_train - 2)]
        data = []
        for label in labels:
            vec = {f: rng.randrange(1, 4) for f in features if rng.random() < 0.6}
            data.append((vec, label))
        alpha = rng.choice([0.5, 1.0, 2.0])
        model = train_naive_bayes(data, alpha=alpha)
        query = {f: rng.randrange(1, 4) for f in features if rng.random() < 0.6}
        got = predict_nb(model, query).score
        assert got == pytest.approx(nb_posterior_margin(data, query, alpha), abs=1e-9)


def test_criterion_05_js_divergence():
    same = {"a": 0.25, "b": 0.75}
    assert js_divergence(same, same) == 0.0
    assert js_divergence({"a": 1.0}, {"b": 1.0}) == 1.0
    assert js_divergence({"a": 0.5, "b": 0.5}, {"c": 0.5, "d": 0.5}) == 1.0
    hand = js_divergence({"a": 1.0}, {"a": 0.5, "b": 0.5})
    assert hand == pytest.approx(0.3113, abs=1e-4)

    rng = random.Random(505)
    for _ in range(1000):
        p = _random_three_token_dist(rng)
        q = _random_three_token_dist(rng)
        assert js_divergence(p, q) == pytest.approx(jsd_brute(p, q), abs=1e-9)


def _random_three_token_dist(rng):
    tokens = [t for t in ("a", "b", "c") if rng.random() < 0.8] or ["a"]
    raw = [rng.random() + 1e-9 for _ in tokens]
    total = sum(raw)
    return {t: v / total for t, v in zip(tokens, raw)}


def test_criterion_06_roc_auc():
    rng = random.Random(606)
    for _ in range(1000):
        n = rng.randrange(2, 101)
        truth = [IR, OR] + [rng.choice([IR, OR]) for _ in range(n - 2)]
        scores = [rng.choice([0.0, 0.5, 1.0, rng.random()]) for _ in range(n)]
        assert abs(roc_auc(scores, truth) - auc_pairwise(scores, truth)) <= 1e-12

    hits = 0
    for seed in range(100):
        srng = random.Random(seed)
        truth = [IR] * 1000 + [OR] * 1000
        scores = [srng.random() for _ in range(2000)]
        if 0.45 <= roc_auc(scores, truth) <= 0.55:
            hits += 1
    assert hits >= 95


def test_criterion_07_haversine():
    boston = GeoPoint(42.35, -71.08)
    nyc = GeoPoint(40.75, -73.99)
    assert haversine_km(boston, boston) == 0.0
    # Oracle-derived distance for the configured epicenters: 300.4575 km.
    assert abs(haversine_km(boston, nyc) - spherical_law_km(42.35, -71.08, 40.75, -73.99)) <= 1.0
    assert abs(haversine_km(boston, nyc) - 300.46) <= 1.0

    rng = random.Random(707)
    for _ in range(100):
        a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        assert abs(haversine_km(a, b) - spherical_law_km(a.lat, a.lon, b.lat, b.lon)) <= 1.0


def test_criterion_08_divergence_structure_on_shifted_corpus(tmp_path):
    from crisislang.cli import main

    start = time.perf_counter()
    records = hourly_shift_tweets(seed=808, tweets_per_hour=200, crisis_token_share=0.3)
    corpus = tmp_path / "hourly.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    config, out = tmp_path / "config.json", tmp_path / "out"
    # Boston, local day 2013-04-15, hours 10 to 19 at UTC-4.
    write_config(config, corpus, out)
    assert main(["--config", str(config), "divergence", "--mode", "hourly"]) == 0
    matrix = DivergenceMatrix(**json.loads((out / "divergence_hourly.json").read_text()))
    warnings = json.loads((out / "divergence_summary.json").read_text())["warnings"]
    assert warnings == []
    idx = {label: i for i, label in enumerate(matrix.labels)}
    pre = [idx[f"{h:02d}:00"] for h in range(10, 15)]
    during = [idx[f"{h:02d}:00"] for h in range(15, 20)]
    inter = [matrix.values[i][j] for i in pre for j in during]
    intra = [
        matrix.values[i][j]
        for block in (pre, during)
        for i, j in itertools.combinations(block, 2)
    ]
    mean_inter = sum(inter) / len(inter)
    mean_intra = sum(intra) / len(intra)
    assert mean_inter >= 2.0 * mean_intra

    tranquil, _ = regional_divergence_matrix(city_groups(crisis=False, seed=80))
    crisis, _ = regional_divergence_matrix(city_groups(crisis=True, seed=81))

    def mean_offdiag(m):
        n = len(m.labels)
        vals = [m.values[i][j] for i in range(n) for j in range(n) if i != j]
        return sum(vals) / len(vals)

    assert mean_offdiag(crisis) > mean_offdiag(tranquil)
    assert time.perf_counter() - start < 30.0


def test_criterion_09_separable_and_noisy_corpora():
    start = time.perf_counter()
    clean = separable_labeled_set(n=5000, seed=909)
    clean_f1 = cross_validate(clean, U, seed=9).mean.f1
    assert clean_f1 >= 0.99

    noisy = separable_labeled_set(n=5000, marker_in_rate=0.8, marker_out_rate=0.2, seed=910)
    uni = cross_validate(noisy, U, seed=9).mean.f1
    assert 0.75 <= uni <= 0.95
    unibi = cross_validate(noisy, UB, seed=9).mean.f1
    assert unibi >= uni - 0.02
    assert time.perf_counter() - start < 120.0


def test_criterion_10_crisis_pattern_fixture_exact(pattern_fixture):
    lines, expected = pattern_fixture
    assert len(lines) == 50
    totals = Counter()
    wt_total = 0
    for line in lines:
        tweet = tag_raw_tweet(parse_tweet_record(line))
        for fid, count in extract_crisis_sensitive(tweet).items():
            key = split_feature(fid)[1]
            if key.startswith("WT:"):
                wt_total += count
            else:
                totals[key] += count
    assert dict(totals) == expected
    # Every tag-pattern occurrence emits exactly one word/tag twin.
    pat_total = sum(c for k, c in expected.items() if k.startswith("PAT:"))
    assert wt_total == pat_total


def test_criterion_11_logreg_gradient_and_ranking():
    rng = random.Random(111)
    data = []
    for i in range(16):
        vec = {
            f"UNIGRAM:g{j}": rng.randrange(1, 3)
            for j in range(5)
            if rng.random() < 0.7
        }
        data.append((vec, IR if i % 2 == 0 else OR))
    x, y, vocab = design_matrix(data)
    l2 = 1e-4

    def loss_at(flat):
        return logistic_loss_and_gradient(x, y, np.array(flat[:-1]), flat[-1], l2)[0]

    for point in ([0.2, -0.3, 0.1, 0.0, 0.4, -0.2], [0.0] * 6):
        _, gw, gb = logistic_loss_and_gradient(x, y, np.array(point[:-1]), point[-1], l2)
        analytic = np.append(gw, gb)
        numeric = np.array(fd_gradient(loss_at, point))
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-4

    a = "UNIGRAM:a"
    b = "UNIGRAM:b"
    toy = [({a: 1}, IR)] * 10 + [({b: 1}, OR)] * 10
    model = train_logreg(toy)
    assert model.weights[a] > 0 > model.weights[b]
    assert top_features(model, 1, FeatureClass.UNIGRAM)[0][0] == a


def test_criterion_12_end_to_end_determinism(tmp_path):
    from crisislang.cli import main

    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(pipeline_corpus_lines(seed=12)) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    write_config(config, corpus, out)

    def run_pipeline():
        for argv in (
            ["partition"],
            ["train"],
            ["evaluate", "--mode", "single"],
            ["classify", "--model", str(out / "model.json")],
        ):
            assert main(["--config", str(config), *argv]) == 0
        return {
            str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()
        }

    first = run_pipeline()
    second = run_pipeline()
    assert first.keys() == second.keys()
    for name, blob in first.items():
        assert second[name] == blob, name
