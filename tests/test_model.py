import copy
import gc
import json
import math
import random
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crisislang.features import FeatureClass, split_feature
from crisislang.model import (
    IR,
    OR,
    LogisticRegressionModel,
    LogRegParams,
    TrainingDiverged,
    design_matrix,
    load_model,
    logistic_loss_and_gradient,
    model_from_dict,
    model_to_dict,
    predict_lr,
    Prediction,
    predict_nb,
    save_model,
    select_all_baseline,
    top_features,
    train_logreg,
    train_naive_bayes,
)
from oracles import (
    fd_gradient,
    nb_posterior_margin,
    reference_nb_score,
    reference_design_matrix,
    reference_logistic_loss_and_gradient,
    reference_train_logreg,
    reference_train_naive_bayes,
)
from synthdata import logreg_params_in_range

U = FeatureClass.UNIGRAM
B = FeatureClass.BIGRAM
CS = FeatureClass.CRISIS_SENSITIVE


def uf(key):
    return f"UNIGRAM:{key}"


def uvec(**counts):
    return {uf(k): v for k, v in counts.items()}


# A small id space, so that training vectors share ids and queries mix
# in-vocabulary ids with ids no training vector holds.
_IDS = st.sampled_from([uf(k) for k in "abcdefgh"] + ["BIGRAM:a b", "CRISIS_SENSITIVE:PAT:N"])


def _query_vectors():
    return st.dictionaries(_IDS | st.sampled_from([uf("zz"), "BIGRAM:zz zz"]), st.integers(1, 50))


@st.composite
def _nb_training_data(draw, max_count=9):
    """Labelled vectors holding both labels, empty vectors included."""
    vectors = st.dictionaries(_IDS, st.integers(1, max_count), max_size=6)
    rows = draw(st.lists(st.tuples(vectors, st.sampled_from([IR, OR])), min_size=0, max_size=12))
    return [(draw(vectors), IR), (draw(vectors), OR)] + rows


class TestTrainNaiveBayes:
    def test_hand_computed_two_example_model(self):
        model = train_naive_bayes([(uvec(x=1), IR), (uvec(y=1), OR)], alpha=1.0)
        assert math.exp(model.class_log_prior[IR]) == pytest.approx(0.5, abs=1e-12)
        assert math.exp(model.feature_log_likelihood[IR][uf("x")]) == pytest.approx(2 / 3, abs=1e-12)
        assert math.exp(model.feature_log_likelihood[OR][uf("x")]) == pytest.approx(1 / 3, abs=1e-12)

    def test_duplication_equals_alpha_scaling(self):
        data = [(uvec(x=2, y=1), IR), (uvec(y=3), OR), (uvec(x=1), IR), (uvec(z=1), OR)]
        doubled = data + data
        base = train_naive_bayes(data, alpha=1.0)
        scaled = train_naive_bayes(doubled, alpha=2.0)
        assert base.class_log_prior == scaled.class_log_prior
        assert base.feature_log_likelihood == scaled.feature_log_likelihood

    def test_priors_unchanged_by_duplication(self):
        data = [(uvec(x=1), IR), (uvec(y=1), OR), (uvec(y=2), OR)]
        assert (
            train_naive_bayes(data).class_log_prior
            == train_naive_bayes(data * 3).class_log_prior
        )

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_naive_bayes([])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            train_naive_bayes([(uvec(x=1), IR)])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match=re.escape("labels must be IR or OR, got ['XX']")):
            train_naive_bayes([(uvec(x=1), IR), (uvec(y=1), OR), (uvec(z=1), "XX")])

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            train_naive_bayes([(uvec(x=1), IR), (uvec(y=1), OR)], alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            train_naive_bayes([(uvec(x=1), IR), (uvec(y=1), OR)], alpha=alpha)

    @pytest.mark.parametrize("alpha", [5e-324, 1e308])
    def test_alpha_that_rounds_a_likelihood_to_zero_is_named(self, alpha):
        # Positive and finite, so alpha passes its range; the fit still
        # cannot take the log of a likelihood that rounds to 0.
        data = [(uvec(x=1, y=1), IR), (uvec(y=2), OR)]
        message = f"alpha {alpha!r} rounds a smoothed likelihood to 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_naive_bayes(data, alpha=alpha)

    # Counts up to 50 give the per-count log table many distinct values.
    @given(_nb_training_data(max_count=50), st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    @example([({}, IR), ({}, OR)], 1.0)
    def test_equals_the_per_label_reference_float_for_float(self, data, alpha):
        model = train_naive_bayes(data, alpha=alpha)
        expected = reference_train_naive_bayes(data, alpha=alpha)
        assert model.class_log_prior == expected.class_log_prior
        assert model.feature_log_likelihood == expected.feature_log_likelihood
        assert model.vocabulary == expected.vocabulary
        assert model.alpha == expected.alpha

    def test_normalization_invariants(self):
        rng = random.Random(1)
        for _ in range(20):
            data = []
            for i in range(rng.randrange(2, 10)):
                vec = {uf(f"w{rng.randrange(6)}"): rng.randrange(1, 4) for _ in range(3)}
                data.append((vec, IR if i % 2 == 0 else OR))
            model = train_naive_bayes(data, alpha=rng.choice([0.5, 1.0, 2.0]))
            prior_mass = sum(math.exp(p) for p in model.class_log_prior.values())
            assert prior_mass == pytest.approx(1.0, abs=1e-9)
            for label in (IR, OR):
                mass = sum(math.exp(v) for v in model.feature_log_likelihood[label].values())
                assert mass == pytest.approx(1.0, abs=1e-9)


class TestPredictNb:
    def test_hand_computed_score(self):
        model = train_naive_bayes([(uvec(x=1), IR), (uvec(y=1), OR)], alpha=1.0)
        p = predict_nb(model, uvec(x=1))
        assert p.score == pytest.approx(math.log(2), abs=1e-12)
        assert p.label == IR

    def test_empty_vector_equal_priors_ties_to_ir(self):
        model = train_naive_bayes([(uvec(x=1), IR), (uvec(y=1), OR)])
        p = predict_nb(model, {})
        assert p.score == 0.0
        assert p.label == IR

    def test_out_of_vocabulary_ignored(self):
        model = train_naive_bayes([(uvec(x=1), IR), (uvec(y=1), OR)])
        base = predict_nb(model, uvec(x=1))
        noisy = predict_nb(model, uvec(x=1, zzz=7))
        assert noisy.score == base.score
        only_oov = predict_nb(model, uvec(zzz=7))
        assert only_oov.score == predict_nb(model, {}).score

    def test_scaling_counts_scales_score_minus_prior_margin(self):
        model = train_naive_bayes(
            [(uvec(x=2, y=1), IR), (uvec(y=2), OR), (uvec(x=1), OR)], alpha=1.0
        )
        prior_margin = model.class_log_prior[IR] - model.class_log_prior[OR]
        base = predict_nb(model, uvec(x=1, y=2)).score - prior_margin
        for k in (2, 3, 5):
            scaled = predict_nb(model, uvec(x=k, y=2 * k)).score - prior_margin
            assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(42)
        features = [uf(f"f{i}") for i in range(5)]
        for _ in range(300):
            n_train = rng.randrange(2, 7)
            data = []
            labels = [IR, OR] + [rng.choice([IR, OR]) for _ in range(n_train - 2)]
            for label in labels[:n_train]:
                vec = {f: rng.randrange(1, 4) for f in features if rng.random() < 0.6}
                data.append((vec, label))
            alpha = rng.choice([0.5, 1.0, 2.0])
            model = train_naive_bayes(data, alpha=alpha)
            query = {f: rng.randrange(1, 4) for f in features if rng.random() < 0.6}
            got = predict_nb(model, query).score
            want = nb_posterior_margin(data, query, alpha)
            assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        data=_nb_training_data(),
        query=st.dictionaries(_IDS | st.just(uf("zz")), st.integers(1, 5), max_size=6),
        alpha=st.floats(0.1, 5.0),
    )
    def test_score_equals_enumeration_oracle_on_random_training_sets(self, data, query, alpha):
        got = predict_nb(train_naive_bayes(data, alpha=alpha), query).score
        assert got == pytest.approx(nb_posterior_margin(data, query, alpha), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(data=_nb_training_data(), queries=st.lists(_query_vectors(), min_size=1, max_size=4))
    def test_score_equals_per_feature_difference_formula(self, data, queries):
        model = train_naive_bayes(data, alpha=1.0)
        for query in queries:
            want = reference_nb_score(model, query)
            assert predict_nb(model, query) == Prediction(IR if want >= 0.0 else OR, want)


class TestLogisticRegression:
    def test_separable_signs(self):
        data = [(uvec(a=1), IR)] * 10 + [(uvec(b=1), OR)] * 10
        model = train_logreg(data)
        assert model.weights[uf("a")] > 0 > model.weights[uf("b")]

    def test_intercept_only_closed_form(self):
        # Identical empty vectors: only the bias trains, to the label logit.
        data = [({}, IR)] * 10 + [({}, OR)] * 5
        model = train_logreg(data)
        assert model.weights == {}
        assert model.bias == pytest.approx(math.log(2.0), abs=0.05)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_logreg([])

    def test_divergence_reported_with_epoch(self):
        data = [(uvec(a=1000), IR)] * 5 + [(uvec(b=1000), OR)] * 5
        with pytest.raises(TrainingDiverged) as err:
            train_logreg(data, LogRegParams(learning_rate=1e9, max_epochs=50))
        assert err.value.epoch >= 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_epochs", [1, 3])
    def test_overflowing_step_raises_without_a_warning(self, max_epochs):
        # The first step overflows the weights to infinity. With one epoch the
        # check after the loop reports it, with more the second loss does;
        # numpy must not warn on the way.
        data = [(uvec(a=40), IR), (uvec(b=40), OR)]
        with pytest.raises(TrainingDiverged) as err:
            train_logreg(data, LogRegParams(learning_rate=1e308, max_epochs=max_epochs))
        assert err.value.epoch == 1

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(6)
        data = []
        for i in range(12):
            vec = {uf(f"g{j}"): rng.randrange(1, 3) for j in range(4) if rng.random() < 0.7}
            data.append((vec, IR if i % 2 == 0 else OR))
        x, y, vocab = design_matrix(data)
        l2 = 1e-4

        def loss_at(flat):
            w = np.array(flat[:-1])
            b = flat[-1]
            return logistic_loss_and_gradient(x, y, w, b, l2)[0]

        for point in ([0.3, -0.2, 0.05, 0.4, -0.1], [0.0] * 5):
            w = np.array(point[:-1])
            b = point[-1]
            _, grad_w, grad_b = logistic_loss_and_gradient(x, y, w, b, l2)
            analytic = np.append(grad_w, grad_b)
            numeric = np.array(fd_gradient(loss_at, point))
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-4

    def test_gradient_fd_agreement_at_returned_parameters(self):
        data = [(uvec(a=1), IR)] * 8 + [(uvec(a=1, b=1), OR)] * 8
        model = train_logreg(data)
        x, y, vocab = design_matrix(data)
        w = np.array([model.weights[f] for f in vocab])
        _, grad_w, grad_b = logistic_loss_and_gradient(x, y, w, model.bias, model.params.l2)
        analytic = np.append(grad_w, grad_b)

        def loss_at(flat):
            return logistic_loss_and_gradient(
                x, y, np.array(flat[:-1]), flat[-1], model.params.l2
            )[0]

        numeric = np.array(fd_gradient(loss_at, list(w) + [model.bias]))
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-4

    def test_predict_threshold(self):
        data = [(uvec(a=1), IR)] * 10 + [(uvec(b=1), OR)] * 10
        model = train_logreg(data)
        assert predict_lr(model, uvec(a=1)).label == IR
        assert predict_lr(model, uvec(b=1)).label == OR
        assert 0.0 <= predict_lr(model, uvec(a=1)).score <= 1.0


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


# A small pool of ids over three classes, so a feature can sit in one row or
# many and every class gets a ranking. Counts up to 3 keep plain gradient
# descent at lr 0.1 stable, so rounding is not amplified into divergence.
_POOL = [f"UNIGRAM:u{i}" for i in range(5)] + [f"BIGRAM:b {i}" for i in range(3)] + [
    f"CRISIS_SENSITIVE:PAT:{t}" for t in ("N", "A", "N R")
]
_vectors = st.dictionaries(st.sampled_from(_POOL), st.integers(1, 3), max_size=6)
_corpora = st.lists(
    st.tuples(_vectors, st.sampled_from([IR, OR])), min_size=2, max_size=14
).filter(lambda data: {label for _, label in data} == {IR, OR})


class TestSparseMatchesDenseReference:
    """The sparse design matrix against the dense one it replaced
    (oracles.reference_*): same loss and gradient, same trained model."""

    @settings(max_examples=150, deadline=None)
    @given(_corpora, st.data())
    def test_loss_and_gradient(self, data, draw):
        x, y, vocab = design_matrix(data)
        rx, ry, rvocab = reference_design_matrix(data)
        assert vocab == rvocab and list(y) == list(ry)
        for _ in range(3):
            point = draw.draw(
                st.lists(st.floats(-3, 3), min_size=len(vocab) + 1, max_size=len(vocab) + 1)
            )
            w, b = np.array(point[:-1]), point[-1]
            loss, grad_w, grad_b = logistic_loss_and_gradient(x, y, w, b, 1e-4)
            r_loss, r_grad_w, r_grad_b = reference_logistic_loss_and_gradient(rx, ry, w, b, 1e-4)
            assert _close(loss, r_loss)
            assert _close(grad_b, r_grad_b)
            assert all(_close(g, r) for g, r in zip(grad_w, r_grad_w))

    @settings(max_examples=60, deadline=None)
    @given(_corpora)
    @example(  # empty vectors, repeated counts, features in one row only
        [({}, IR), ({uf("u0"): 3, uf("u1"): 1}, IR), ({uf("u1"): 2}, OR), ({}, OR),
         ({"BIGRAM:b 0": 1}, OR)]
    )
    def test_trained_model_and_ranking(self, data):
        model = train_logreg(data)
        ref = reference_train_logreg(data)
        assert list(model.weights) == list(ref.weights)
        assert all(_close(model.weights[f], w) for f, w in ref.weights.items())
        assert _close(model.bias, ref.bias)
        for cls in (U, FeatureClass.BIGRAM, FeatureClass.CRISIS_SENSITIVE):
            ranked = [f for f, _ in top_features(model, len(_POOL), cls)]
            ref_ranked = top_features(ref, len(_POOL), cls)
            assert len(ranked) == len(ref_ranked)
            # Where adjacent reference weights are farther apart than the
            # tolerance, both rankings must hold the same ids above the cut.
            for cut in range(1, len(ref_ranked)):
                above, below = ref_ranked[cut - 1][1], ref_ranked[cut][1]
                if not _close(below, above):
                    assert set(ranked[:cut]) == {f for f, _ in ref_ranked[:cut]}

    def test_divergence_at_same_epoch(self):
        data = [(uvec(a=1000), IR)] * 5 + [(uvec(b=1000), OR)] * 5
        params = LogRegParams(learning_rate=1e9, max_epochs=50)
        with pytest.raises(TrainingDiverged) as got:
            train_logreg(data, params)
        with pytest.raises(TrainingDiverged) as want:
            reference_train_logreg(data, params)
        assert got.value.epoch == want.value.epoch

    def test_design_matrix_holds_only_nonzeros(self):
        data = [({uf("b"): 2, uf("a"): 1}, IR), ({}, OR), ({uf("c"): 4}, OR)]
        x, y, vocab = design_matrix(data)
        assert vocab == [uf("a"), uf("b"), uf("c")]
        assert list(x.rows) == [0, 0, 2] and list(x.cols) == [0, 1, 2]
        assert list(x.values) == [1.0, 2.0, 4.0] and list(y) == [1.0, 0.0, 0.0]
        assert x.nbytes == x.rows.nbytes + x.cols.nbytes + x.values.nbytes


class TestLogRegMemory:
    def test_peak_far_below_dense_matrix(self):
        # 500 tweets x 20 ids drawn from 20,000: a dense matrix would hold
        # rows x distinct ids float64 cells, nearly all zero.
        rng = random.Random(20)
        data = [
            ({uf(f"w{rng.randrange(20_000)}"): 1 for _ in range(20)}, IR if i % 2 else OR)
            for i in range(500)
        ]
        n_cols = len({f for vector, _ in data for f in vector})
        dense_bytes = len(data) * n_cols * 8
        train_logreg(data[:2], LogRegParams(max_epochs=5))  # numpy's one-off set-up
        tracemalloc.start()
        try:
            train_logreg(data, LogRegParams(max_epochs=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4, (peak, dense_bytes)


class TestLoadModelMemory:
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="the caller keeps the bytes alive")
    def test_file_bytes_are_freed_before_parsing(self, tmp_path):
        # An NB model the size and shape of a trained one: about 7,000 unigram
        # and bigram ids, 660 KB of model.json. Holding the file's bytes while
        # its text is parsed put the peak at what the model holds plus twice
        # the file; without them it is about once the file.
        rng = random.Random(33)
        words = ["".join(rng.choice("abdefiklmnoprstuvz") for _ in range(rng.randint(3, 9)))
                 for _ in range(3000)]

        def row():
            picked = rng.sample(words, 10)
            bigrams = [f"BIGRAM:{a} {b}" for a, b in zip(picked, picked[1:])]
            return dict.fromkeys([uf(w) for w in picked] + bigrams, 1)

        path = tmp_path / "model.json"
        model = train_naive_bayes([(row(), IR if i % 4 == 0 else OR) for i in range(500)])
        save_model(path, model, feature_classes=[U, B])
        size = path.stat().st_size
        load_model(path)  # any one-off set-up
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_model(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded[0].vocabulary) > 6000
        assert peak < held + 1.5 * size, (peak, held, size)


class TestTopFeatures:
    def _model(self):
        data = [(uvec(a=1), IR)] * 10 + [(uvec(b=1), OR)] * 10
        return train_logreg(data)

    def test_separating_feature_first(self):
        ranked = top_features(self._model(), 1, U)
        assert ranked[0][0] == uf("a")

    def test_k_larger_than_vocabulary(self):
        ranked = top_features(self._model(), 100, U)
        assert [split_feature(fid)[1] for fid, _ in ranked] == ["a", "b"]

    def test_k_nonpositive(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"^k must be positive, got {k}$"):
                top_features(self._model(), k, U)

    def test_tie_breaks_lexicographic(self):
        from crisislang.model import LogisticRegressionModel

        model = LogisticRegressionModel(
            weights={uf("zeta"): 1.0, uf("alpha"): 1.0, uf("mid"): 2.0},
            bias=0.0,
            params=LogRegParams(),
        )
        ranked = top_features(model, 3, U)
        assert [split_feature(fid)[1] for fid, _ in ranked] == ["mid", "alpha", "zeta"]

    def test_class_filter(self):
        from crisislang.model import LogisticRegressionModel

        model = LogisticRegressionModel(
            weights={uf("a"): 1.0, "BIGRAM:a b": 5.0},
            bias=0.0,
            params=LogRegParams(),
        )
        assert [split_feature(fid)[1] for fid, _ in top_features(model, 5, U)] == ["a"]


class TestSelectAllBaseline:
    def test_always_ir(self):
        assert select_all_baseline({}).label == IR
        assert select_all_baseline(uvec(anything=3)).label == IR
        assert select_all_baseline({}).score == math.inf


# Keys that themselves hold colons and spaces must survive serialization.
PP_IN = "CRISIS_SENSITIVE:PP:in:boston"
WT = "CRISIS_SENSITIVE:WT:in/P the/D city/N"


class TestSerialization:
    def test_nb_round_trip(self):
        model = train_naive_bayes(
            [({**uvec(x=1, y=2), PP_IN: 1}, IR), ({**uvec(y=1), WT: 2}, OR)], alpha=0.5
        )
        doc = model_to_dict(model, feature_classes=[U, CS])
        restored, classes = model_from_dict(doc)
        assert classes == [U, CS]
        assert restored.class_log_prior == model.class_log_prior
        assert restored.feature_log_likelihood == model.feature_log_likelihood
        assert restored.vocabulary == model.vocabulary
        for vec in (uvec(x=1), uvec(y=3), {}, {PP_IN: 1, WT: 1}):
            assert predict_nb(restored, vec) == predict_nb(model, vec)

    def test_logreg_round_trip(self, tmp_path):
        data = [({**uvec(a=1), PP_IN: 1}, IR)] * 5 + [({**uvec(b=1), WT: 1}, OR)] * 5
        model = train_logreg(data)
        path = tmp_path / "model.json"
        save_model(path, model, feature_classes=[U, CS])
        restored, classes = load_model(path)
        assert classes == [U, CS]
        assert restored.weights == model.weights
        assert restored.bias == model.bias

    @settings(max_examples=60, deadline=None)
    @given(
        data=_nb_training_data(),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
        weights=st.dictionaries(_IDS, st.floats(-20.0, 20.0), min_size=1),
        bias=st.floats(-20.0, 20.0),
        queries=st.lists(_query_vectors(), min_size=1, max_size=4),
    )
    def test_saved_and_loaded_models_predict_equal(self, data, alpha, weights, bias, queries):
        nb = train_naive_bayes(data, alpha=alpha)
        lr = LogisticRegressionModel(weights, bias, LogRegParams())
        with tempfile.TemporaryDirectory() as tmp:
            restored = []
            for name, model in (("nb.json", nb), ("lr.json", lr)):
                save_model(Path(tmp) / name, model, feature_classes=[U, B, CS])
                restored.append(load_model(Path(tmp) / name)[0])
        for query in [{}, *queries]:
            assert predict_nb(restored[0], query) == predict_nb(nb, query)
            assert predict_lr(restored[1], query) == predict_lr(lr, query)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            model_from_dict({"version": 1, "kind": "svm"})

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({"version": 99, "kind": "nb"})

    def test_unknown_feature_class_rejected(self):
        doc = model_to_dict(train_naive_bayes([(uvec(x=1), IR), (uvec(y=1), OR)]), [U])
        doc["feature_log_likelihood"][OR]["NOPE:x"] = -1.0
        with pytest.raises(ValueError, match="NOPE"):
            model_from_dict(doc)

    def test_missing_field_rejected(self):
        doc = model_to_dict(train_naive_bayes([(uvec(x=1), IR), (uvec(y=1), OR)]), [U])
        del doc["feature_log_likelihood"]
        with pytest.raises(ValueError, match="feature_log_likelihood"):
            model_from_dict(doc)

    @pytest.mark.parametrize("kind", ["nb", "logreg"])
    def test_missing_feature_classes_rejected(self, kind):
        data = [(uvec(x=1), IR), (uvec(y=1), OR)]
        model = train_naive_bayes(data) if kind == "nb" else train_logreg(data)
        doc = model_to_dict(model, [U])
        del doc["feature_classes"]
        with pytest.raises(ValueError, match="^model document lacks field 'feature_classes'$"):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", 0.0),
            ("l2", -1.0),
            ("max_epochs", 0),
            ("tolerance", -1.0),
            ("max_epochs", 2.5),
        ],
    )
    def test_out_of_range_hyperparameter_rejected(self, key, value):
        doc = model_to_dict(LogisticRegressionModel({"UNIGRAM:a": 1.0}, 0.0, LogRegParams()), [U])
        doc["hyperparameters"][key] = value
        with pytest.raises(ValueError, match=f"model field hyperparameters.{key} must be"):
            model_from_dict(doc)

    def test_classes_that_miss_an_id_class_rejected(self):
        """A vocabulary of BIGRAM ids saved with [UNIGRAM] would score every
        tweet from the prior alone."""
        model = train_naive_bayes([({"BIGRAM:a b": 1}, IR), ({"BIGRAM:c d": 1}, OR)])
        message = "^model field feature_classes lacks BIGRAM, which its feature ids use$"
        with pytest.raises(ValueError, match=message):
            model_from_dict(model_to_dict(model, [U]))
        weights = {"UNIGRAM:a": 1.0, "PTB_POS:NN": 0.5, "BIGRAM:a b": -1.0, "PTB_POS:VB": 2.0}
        doc = model_to_dict(LogisticRegressionModel(weights, 0.0, LogRegParams()), [U])
        with pytest.raises(ValueError, match="lacks PTB_POS, BIGRAM, which"):
            model_from_dict(doc)
        doc["feature_classes"] = ["BIGRAM", "PTB_POS", "UNIGRAM", "ARK_POS"]
        assert model_from_dict(doc)[0].weights == weights

    @pytest.mark.parametrize("doc", [[], "nb", None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            model_from_dict(doc)


class TestLogRegParams:
    def test_defaults_and_types_come_from_field_defaults(self):
        defaults = {"learning_rate": 0.1, "l2": 1e-4, "max_epochs": 500, "tolerance": 1e-6}
        assert LogRegParams._field_defaults == defaults
        assert LogRegParams()._asdict() == defaults
        params = LogRegParams(1, 0, 20.0, 0)
        assert [type(v) for v in params] == [float, float, int, float]
        assert params == LogRegParams(learning_rate=1.0, l2=0.0, max_epochs=20, tolerance=0.0)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("learning_rate", 0.0, "learning_rate must be positive, got 0.0"),
            ("l2", -1.0, "l2 must be at least 0, got -1.0"),
            ("max_epochs", 2.5, "max_epochs must be a whole number, got 2.5"),
            ("max_epochs", 100_001, "max_epochs must be at most 100000, got 100001"),
            ("tolerance", math.inf, "tolerance must be finite, got inf"),
            ("learning_rate", True, "learning_rate must be a number, got True"),
        ],
    )
    def test_every_way_to_build_is_checked(self, key, value, message):
        """A call, _make and _replace all check each setting, with one message."""
        values = {**LogRegParams()._asdict(), key: value}
        for build in (
            lambda: LogRegParams(**values),
            lambda: LogRegParams(*values.values()),
            lambda: LogRegParams._make(values.values()),
            lambda: LogRegParams()._replace(**{key: value}),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()


def _valid_documents():
    nb = train_naive_bayes([({**uvec(x=1, y=2), "BIGRAM:x y": 1}, IR), (uvec(y=1), OR)])
    lr = train_logreg([(uvec(a=1), IR)] * 3 + [(uvec(b=1), OR)] * 3, LogRegParams(max_epochs=5))
    return [
        json.loads(json.dumps(model_to_dict(model, feature_classes=[U, FeatureClass.BIGRAM])))
        for model in (nb, lr)
    ]


def _paths(node, prefix=()):
    """The key path of every value in a JSON document, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


_DOCUMENTS = _valid_documents()
_FIELDS = [(k, path) for k, doc in enumerate(_DOCUMENTS) for path in _paths(doc)]
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["IR", "OR", "nb", "logreg", "UNIGRAM", "UNIGRAM:x", 10**400])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["IR", "OR", "UNIGRAM:x"]) | st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TestCorruptDocuments:
    @settings(max_examples=400, deadline=None)
    @given(field=st.sampled_from(_FIELDS), value=_JSON_VALUES)
    @example(field=(0, ("alpha",)), value=-1.0)
    @example(field=(1, ("hyperparameters", "max_epochs")), value=2.5)
    def test_any_field_replaced_raises_value_error_or_predicts(self, field, value):
        k, path = field
        doc = copy.deepcopy(_DOCUMENTS[k])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        try:
            model, _ = model_from_dict(doc)
        except ValueError:
            return
        if isinstance(model, LogisticRegressionModel):
            assert logreg_params_in_range(model.params)
            predict = predict_lr
        else:
            assert type(model.alpha) is float and 0 < model.alpha < math.inf
            predict = predict_nb
        ids = model.vocabulary if hasattr(model, "vocabulary") else model.weights
        predict(model, {fid: 1 for fid in ids})
        predict(model, {})
