"""Synthetic corpora for tests: separable marker corpora, hourly vocabulary
shifts, per-city groups, and full JSONL pipelines for the CLI."""

from __future__ import annotations

import json
import math
import random
from datetime import datetime, timedelta, timezone

from hypothesis import strategies as st

from crisislang.model import IR, OR
from crisislang.text import TaggedTweet, attach_tags, tokenize

BASE_VOCAB = [f"w{i}" for i in range(60)]
CRISIS_VOCAB = [f"crisis{i}" for i in range(20)]

BOSTON = {"lat": 42.35, "lon": -71.08}
NYC = {"lat": 40.75, "lon": -73.99}

CRISIS_START = datetime(2013, 4, 15, 18, 48, tzinfo=timezone.utc)
CRISIS_END = datetime(2013, 4, 16, 4, 0, tzinfo=timezone.utc)
PRE_START = datetime(2013, 4, 9, 14, 0, tzinfo=timezone.utc)
PRE_END = datetime(2013, 4, 9, 18, 48, tzinfo=timezone.utc)


# Any JSON value, nested a little: what a field of an outside record or
# config file may hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=8,
)


def tweet_from_text(tweet_id: str, text: str) -> TaggedTweet:
    return attach_tags(tokenize(text), tweet_id=tweet_id)


def word_counts(tweets: list[TaggedTweet], n: int = 1) -> dict[str, int]:
    """The counts of the tweets' word n-grams, each space-joined and inserted
    where it first occurs: what the CLI passes to divergence and clouds."""
    counts: dict[str, int] = {}
    for tweet in tweets:
        for gram in map(" ".join, zip(*(tweet.words[k:] for k in range(n)))):
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def _text(rng: random.Random, vocab: list[str], length: int) -> list[str]:
    return [rng.choice(vocab) for _ in range(length)]


def separable_labeled_set(
    n: int = 5000,
    marker_in_rate: float = 1.0,
    marker_out_rate: float = 0.0,
    seed: int = 0,
) -> list[tuple[TaggedTweet, str]]:
    """Half IR, half OR. IR tweets carry marker qz1 at marker_in_rate and qz2
    at marker_out_rate; OR tweets are symmetric."""
    rng = random.Random(seed)
    data = []
    for i in range(n):
        label = IR if i < n // 2 else OR
        words = _text(rng, BASE_VOCAB, 8)
        own, other = ("qz1", "qz2") if label == IR else ("qz2", "qz1")
        if rng.random() < marker_in_rate:
            words.insert(rng.randrange(len(words) + 1), own)
        if rng.random() < marker_out_rate:
            words.insert(rng.randrange(len(words) + 1), other)
        data.append((tweet_from_text(f"s{i}", " ".join(words)), label))
    return data


TAGGED_WORDS = BASE_VOCAB[:20] + ["in", "there", "the", "city"]
ARK_TAGS = ("N", "A", "!", "R", "L", "P", "D", "V")
PTB_TAGS = ("NN", "JJ", "UH", "RB", "PRP", "IN", "DT", "VB", "EX")
CHUNK_TAGS = ("B-NP", "I-NP", "B-PP", "B-VP", "I-VP", "O")


def tagged_labeled_set(n: int = 40, seed: int = 0) -> list[tuple[TaggedTweet, str]]:
    """Half IR, half OR, every tweet carrying random ARK, PTB and chunk
    layers, so all six feature classes are extractable. Most IR tweets carry
    marker qz1 and most OR tweets qz2, so margins vary in sign and size."""
    rng = random.Random(seed)
    data = []
    for i in range(n):
        label = IR if i < n // 2 else OR
        words = _text(rng, TAGGED_WORDS, rng.randrange(3, 10))
        if rng.random() < 0.7:
            words.insert(rng.randrange(len(words) + 1), "qz1" if label == IR else "qz2")
        tweet = attach_tags(
            words,
            [rng.choice(ARK_TAGS) for _ in words],
            [rng.choice(PTB_TAGS) for _ in words],
            [rng.choice(CHUNK_TAGS) for _ in words],
            tweet_id=f"g{i}",
        )
        data.append((tweet, label))
    return data


def hourly_shift_tweets(
    seed: int = 0,
    tweets_per_hour: int = 200,
    crisis_token_share: float = 0.3,
) -> list[dict]:
    """Raw records at the Boston epicenter on 2013-04-15 local hours 10..19.

    Hours 10-14 draw from the base vocabulary only; hours 15-19 replace
    crisis_token_share of their tokens with crisis vocabulary.
    """
    rng = random.Random(seed)
    records = []
    for hour in range(10, 20):
        for i in range(tweets_per_hour):
            words = []
            for _ in range(8):
                if hour >= 15 and rng.random() < crisis_token_share:
                    words.append(rng.choice(CRISIS_VOCAB))
                else:
                    words.append(rng.choice(BASE_VOCAB))
            utc_hour = hour + 4  # Eastern (UTC-4) to UTC
            records.append(
                {
                    "id": f"h{hour}_{i}",
                    "text": " ".join(words),
                    "created_at": f"2013-04-15T{utc_hour:02d}:{i % 60:02d}:00Z",
                    "geo": dict(BOSTON),
                }
            )
    return records


def city_groups(
    crisis: bool, seed: int = 0, tweets_per_city: int = 300
) -> dict[str, dict[str, int]]:
    """Four named city corpora as word counts; under crisis the affected
    cities mix in crisis vocabulary at diverging rates."""
    rng = random.Random(seed)
    rates = {"boston": 0.35, "nyc": 0.2, "chicago": 0.05, "miami": 0.0}
    groups: dict[str, dict[str, int]] = {}
    for city, rate in rates.items():
        share = rate if crisis else 0.0
        tweets = []
        for i in range(tweets_per_city):
            words = [
                rng.choice(CRISIS_VOCAB) if rng.random() < share else rng.choice(BASE_VOCAB)
                for _ in range(8)
            ]
            tweets.append(tweet_from_text(f"{city}{i}", " ".join(words)))
        groups[city] = word_counts(tweets)
    return groups


def pipeline_corpus_lines(seed: int = 0, n_ir: int = 80, n_or: int = 120, n_unlabeled: int = 60) -> list[str]:
    """A JSONL corpus exercising the whole CLI pipeline.

    Geotagged IR tweets sit at the Boston epicenter inside the crisis window
    and carry marker qz1; OR tweets sit in NYC with marker qz2; non-geotagged
    tweets are an even marker mix. A few pre-crisis records are included.
    """
    rng = random.Random(seed)
    lines = []

    def stamp(base: datetime, minutes: int) -> str:
        return (base + timedelta(minutes=minutes)).isoformat().replace("+00:00", "Z")

    def record(tweet_id: str, marker: str, geo: dict | None, created: str) -> str:
        words = _text(rng, BASE_VOCAB, 7)
        words.insert(rng.randrange(len(words) + 1), marker)
        doc = {"id": tweet_id, "text": " ".join(words), "created_at": created}
        if geo is not None:
            doc["geo"] = geo
        return json.dumps(doc, sort_keys=True)

    for i in range(n_ir):
        lines.append(record(f"ir{i}", "qz1", dict(BOSTON), stamp(CRISIS_START, 1 + i % 300)))
    for i in range(n_or):
        lines.append(record(f"or{i}", "qz2", dict(NYC), stamp(CRISIS_START, 1 + i % 300)))
    for i in range(10):
        geo = dict(BOSTON) if i % 2 == 0 else dict(NYC)
        lines.append(record(f"pc{i}", "qz1" if i % 2 == 0 else "qz2", geo, stamp(PRE_START, 5 + i)))
    for i in range(n_unlabeled):
        marker = "qz1" if i % 2 == 0 else "qz2"
        lines.append(record(f"u{i}", marker, None, stamp(CRISIS_START, 2 + i % 300)))
    return lines


def write_config(path, input_path, output_dir, **overrides) -> None:
    config = {
        "input": str(input_path),
        "output_dir": str(output_dir),
        "seed": 13,
        "timezone_offset_minutes": -240,
        "primary_region": "boston",
        "regions": {
            "boston": {"lat": BOSTON["lat"], "lon": BOSTON["lon"], "radius_km": 19.0},
            "nyc": {"lat": NYC["lat"], "lon": NYC["lon"], "radius_km": 20.0},
        },
        "crisis_window": {"start": "2013-04-15T18:48:00Z", "end": "2013-04-16T04:00:00Z"},
        "pre_crisis_window": {"start": "2013-04-09T14:00:00Z", "end": "2013-04-09T18:48:00Z"},
        "feature_classes": ["UNIGRAM", "BIGRAM"],
        "model": {"kind": "nb", "alpha": 1.0},
        "cv": {"repeats": 3, "folds": 5},
        "balance": True,
        "divergence": {"day": "2013-04-15", "hours": [10, 19], "window": "crisis"},
    }
    config.update(overrides)
    path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def logreg_params_in_range(params) -> bool:
    """Whether LogRegParams hold the types and ranges the README's settings
    table states, each float finite."""
    return (
        type(params.max_epochs) is int and 1 <= params.max_epochs <= 100_000
        and all(type(v) is float and math.isfinite(v) for v in
                (params.learning_rate, params.l2, params.tolerance))
        and params.learning_rate > 0 and params.l2 >= 0 and params.tolerance >= 0
    )
