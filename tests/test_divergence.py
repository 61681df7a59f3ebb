import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crisislang.divergence import (
    DivergenceMatrix,
    hourly_divergence_matrix,
    js_divergence,
    pairwise_matrix,
    regional_divergence_matrix,
    word_distribution,
)
from crisislang.ingest import write_csv
from oracles import jsd_brute
from synthdata import tweet_from_text, word_counts


def dist(**probs):
    return dict(probs)


class TestWordDistribution:
    def test_relative_frequencies(self):
        tweets = [tweet_from_text("1", "a b"), tweet_from_text("2", "a")]
        d = word_distribution(word_counts(tweets))
        assert d == {"a": 2 / 3, "b": 1 / 3}
        assert len(d) == 2

    def test_single_token(self):
        d = word_distribution(word_counts([tweet_from_text("1", "x")]))
        assert d == {"x": 1.0}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            word_distribution(word_counts([]))

    def test_probabilities_sum_to_one(self):
        rng = random.Random(4)
        tweets = [
            tweet_from_text(str(i), " ".join(rng.choice("abcde") for _ in range(8)))
            for i in range(20)
        ]
        d = word_distribution(word_counts(tweets))
        assert sum(d.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in d.values())


def _normalized(weights: dict[str, float]) -> dict[str, float]:
    total = sum(weights.values())
    return {t: w / total for t, w in weights.items()}


# Distributions over a few shared tokens, weights spanning six decades.
_distributions = st.dictionaries(
    st.sampled_from("abcdef"), st.floats(1e-6, 1.0), min_size=1
).map(_normalized)


class TestJsDivergence:
    def test_identity_is_zero(self):
        p = dist(a=0.5, b=0.5)
        assert js_divergence(p, p) == 0.0

    def test_disjoint_supports_exactly_one(self):
        assert js_divergence(dist(a=1.0), dist(b=1.0)) == 1.0
        assert js_divergence(dist(a=0.5, b=0.5), dist(c=0.5, d=0.5)) == 1.0

    def test_hand_derived_case(self):
        # KL(p||m) = log2(4/3), KL(q||m) = 1 - log2(3)/2; average = 0.31128.
        value = js_divergence(dist(a=1.0), dist(a=0.5, b=0.5))
        assert value == pytest.approx(0.3113, abs=1e-4)

    def test_symmetry_is_exact(self):
        rng = random.Random(8)
        for _ in range(200):
            p = _random_dist(rng)
            q = _random_dist(rng)
            assert js_divergence(p, q) == js_divergence(q, p)

    def test_range(self):
        rng = random.Random(12)
        for _ in range(200):
            v = js_divergence(_random_dist(rng), _random_dist(rng))
            assert -1e-12 <= v <= 1.0 + 1e-12

    @settings(max_examples=500, deadline=None)
    @given(p=_distributions, q=_distributions)
    @example(p=_normalized({"a": 1.0, "d": 0.5}), q=_normalized({"b": 0.65, "c": 0.5}))
    def test_symmetric_and_in_unit_range(self, p, q):
        value = js_divergence(p, q)
        assert value == js_divergence(q, p)
        assert 0.0 <= value <= 1.0

    def test_agrees_with_brute_force(self):
        rng = random.Random(21)
        for _ in range(1000):
            p = _random_dist(rng)
            q = _random_dist(rng)
            assert js_divergence(p, q) == pytest.approx(
                jsd_brute(p, q), abs=1e-9
            )

    def test_zero_only_for_equal_distributions(self):
        rng = random.Random(33)
        for _ in range(100):
            p = _random_dist(rng)
            q = _random_dist(rng)
            gap = max(
                abs(p.get(t, 0.0) - q.get(t, 0.0))
                for t in set(p) | set(q)
            )
            if gap > 1e-6:
                assert js_divergence(p, q) > 0.0


def _random_dist(rng, tokens=("a", "b", "c")):
    chosen = [t for t in tokens if rng.random() < 0.8] or [tokens[0]]
    raw = [rng.random() + 1e-9 for _ in chosen]
    total = sum(raw)
    return {t: v / total for t, v in zip(chosen, raw)}


class TestPairwiseMatrix:
    def test_symmetric_zero_diagonal(self):
        rng = random.Random(3)
        dists = [_random_dist(rng) for _ in range(5)]
        m = pairwise_matrix([f"g{i}" for i in range(5)], dists)
        for i in range(5):
            assert m.values[i][i] == 0.0
            for j in range(5):
                assert m.values[i][j] == m.values[j][i]
                assert 0.0 <= m.values[i][j] <= 1.0

    def test_normalized_copy_in_unit_range(self):
        rng = random.Random(30)
        dists = [_random_dist(rng) for _ in range(4)]
        m = pairwise_matrix(["a", "b", "c", "d"], dists)
        flat = [v for row in m.normalized_values for v in row]
        assert min(flat) == 0.0
        assert max(flat) == 1.0 or all(v == 0.0 for v in flat)

    def test_to_dict_holds_every_field_in_order(self):
        m = DivergenceMatrix(["x", "y"], [[0.0, 0.5], [0.5, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
        want = {
            "labels": ["x", "y"],
            "values": [[0.0, 0.5], [0.5, 0.0]],
            "normalized_values": [[0.0, 1.0], [1.0, 0.0]],
        }
        assert repr(m.to_dict()) == repr(want)

    def test_csv_shape(self, tmp_path):
        m = DivergenceMatrix(["x", "y"], [[0.0, 0.5], [0.5, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
        write_csv(tmp_path / "m.csv", m.rows())
        lines = (tmp_path / "m.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == ",x,y"
        assert lines[1].startswith("x,")


class TestHourlyMatrix:
    def test_single_hour_is_one_by_one_zero(self):
        buckets = {10: word_counts([tweet_from_text("1", "a b c")])}
        matrix, warnings = hourly_divergence_matrix(buckets)
        assert matrix.labels == ["10:00"]
        assert matrix.values == [[0.0]]

    def test_identical_hours_zero_off_diagonal(self):
        buckets = {
            10: word_counts([tweet_from_text("1", "same words here")]),
            11: word_counts([tweet_from_text("2", "same words here")]),
        }
        matrix, _ = hourly_divergence_matrix(buckets)
        assert matrix.values[0][1] == 0.0

    def test_empty_hour_dropped_with_warning(self):
        buckets = {10: word_counts([tweet_from_text("1", "a b")]), 11: word_counts([])}
        matrix, warnings = hourly_divergence_matrix(buckets)
        assert matrix.labels == ["10:00"]
        assert any("11:00" in w for w in warnings)

    def test_empty_hour_range_rejected(self):
        with pytest.raises(ValueError):
            hourly_divergence_matrix({})

    def test_no_tokens_anywhere_rejected(self):
        with pytest.raises(ValueError):
            hourly_divergence_matrix({10: word_counts([]), 11: word_counts([])})


class TestRegionalMatrix:
    def test_identical_groups_zero(self):
        groups = {
            "boston": word_counts([tweet_from_text("1", "same text")]),
            "nyc": word_counts([tweet_from_text("2", "same text")]),
        }
        matrix, warnings = regional_divergence_matrix(groups)
        assert matrix.values[0][1] == 0.0
        assert warnings == []

    def test_empty_group_dropped(self):
        groups = {
            "boston": word_counts([tweet_from_text("1", "words here")]),
            "ghost": word_counts([]),
        }
        matrix, warnings = regional_divergence_matrix(groups)
        assert matrix.labels == ["boston"]
        assert any("ghost" in w for w in warnings)

    def test_symmetry_and_diagonal_asserted(self):
        rng = random.Random(19)
        groups = {
            name: word_counts([
                tweet_from_text(f"{name}{i}", " ".join(rng.choice("abcdef") for _ in range(6)))
                for i in range(10)
            ])
            for name in ("a", "b", "c")
        }
        matrix, _ = regional_divergence_matrix(groups)
        for i in range(3):
            assert matrix.values[i][i] == 0.0
            for j in range(3):
                assert matrix.values[i][j] == matrix.values[j][i]
