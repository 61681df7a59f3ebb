"""Sparse feature extraction over tagged tweets.

Six feature classes: word unigrams and bigrams, POS n-grams (n = 1..3) over
the coarse ARK and fine PTB tag layers, shallow-parse chunk features, and the
mixed crisis-sensitive class (selected ARK tag patterns in tag-only and
word/tag form, the "in ... <noun>" prepositional pattern, and existential
"there" paired with its succeeding verb).

A feature id is the class-qualified string ``CLASS:key``, the same form the
model file and vector dumps use, so textually identical keys from different
classes never collide. Counts are raw frequencies. Every n-gram, of words,
tags or chunk labels, is counted by count_ngrams, which the bigram clouds and
the word distributions of the divergence module use too.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from crisislang.text import TaggedTweet


class FeatureClass(Enum):
    UNIGRAM = "UNIGRAM"
    BIGRAM = "BIGRAM"
    ARK_POS = "ARK_POS"
    PTB_POS = "PTB_POS"
    SHALLOW_PARSE = "SHALLOW_PARSE"
    CRISIS_SENSITIVE = "CRISIS_SENSITIVE"


# "CLASS:key". No class name is a prefix of another, so sorting ids as plain
# strings orders them by class name, then key.
FeatureId = str
FeatureVector = dict[FeatureId, int]

# ARK tag patterns mined from in-region crisis data; matched stride-1 with
# overlaps, emitted both tag-only (PAT:) and word/tag (WT:).
ARK_CRISIS_PATTERNS: tuple[tuple[str, ...], ...] = (
    ("N",),
    ("A",),
    ("!",),
    ("N", "R"),
    ("L", "A"),
    ("N", "P"),
    ("P", "D", "N"),
    ("L", "A", "!"),
    ("A", "N", "P"),
)

# Id prefixes, computed once: naming an Enum member runs Python code, which
# the per-tweet extractors would otherwise pay on every call. The classes
# that are plain n-grams of one column map to (prefix, column, orders).
_NGRAM_CLASSES = {
    cls: (f"{cls.value}:", column, orders)
    for cls, column, orders in (
        (FeatureClass.UNIGRAM, "words", (1,)),
        (FeatureClass.BIGRAM, "words", (2,)),
        (FeatureClass.ARK_POS, "ark", (1, 2, 3)),
        (FeatureClass.PTB_POS, "ptb", (1, 2, 3)),
    )
}
_SHALLOW_PREFIX = f"{FeatureClass.SHALLOW_PARSE.value}:"
_CRISIS_PREFIX = f"{FeatureClass.CRISIS_SENSITIVE.value}:"

# Index, pattern and width of every crisis pattern, keyed by its first tag,
# and each pattern's PAT: id.
_PATTERNS_BY_FIRST_TAG: dict[str, list[tuple[int, tuple[str, ...], int]]] = {}
for _k, _pattern in enumerate(ARK_CRISIS_PATTERNS):
    _PATTERNS_BY_FIRST_TAG.setdefault(_pattern[0], []).append((_k, _pattern, len(_pattern)))
_PAT_IDS = tuple(f"{_CRISIS_PREFIX}PAT:{' '.join(p)}" for p in ARK_CRISIS_PATTERNS)

# Layers each class needs beyond the tokens themselves.
_REQUIRED_LAYER = {
    FeatureClass.UNIGRAM: None,
    FeatureClass.BIGRAM: None,
    FeatureClass.ARK_POS: "ark",
    FeatureClass.PTB_POS: "ptb",
    FeatureClass.SHALLOW_PARSE: "chunk",
    FeatureClass.CRISIS_SENSITIVE: "ark",
}


class MissingLayerError(ValueError):
    """A requested feature class needs a tag layer the tweet does not carry."""

    def __init__(self, tweet_id: str, classes: list[FeatureClass]):
        self.tweet_id = tweet_id
        self.classes = classes
        names = ", ".join(c.value for c in classes)
        super().__init__(f"tweet {tweet_id!r} lacks tag layers for: {names}")


def split_feature(fid: FeatureId) -> tuple[FeatureClass, str]:
    """The class and key of a feature id; the key may itself contain ':'.

    Raises ValueError when the prefix names no feature class.
    """
    cls_name, _, key = fid.partition(":")
    return FeatureClass(cls_name), key


def _has_layer(tweet: TaggedTweet, layer: str | None) -> bool:
    """Whether the tweet carries the layer (None: the tokens alone). This
    is the one rule; a tokenless tweet carries each layer it was given."""
    return layer is None or getattr(tweet, layer) is not None


def missing_classes(tweet: TaggedTweet, classes: Iterable[FeatureClass]) -> list[FeatureClass]:
    return [c for c in classes if not _has_layer(tweet, _REQUIRED_LAYER[c])]


def count_ngrams(counts: dict[str, int], prefix: str, seq: Sequence[str], n: int) -> None:
    """Count the contiguous n-grams of seq into counts, as prefix + the
    space-joined n-gram, each id inserted where it first occurs."""
    grams = seq if n == 1 else map(" ".join, zip(*(seq[k:] for k in range(n))))
    for gram in grams:
        fid = prefix + gram
        counts[fid] = counts.get(fid, 0) + 1


def chunk_spans(tweet: TaggedTweet) -> list[tuple[str, int, int]]:
    """Maximal chunks as (label, start, end) half-open token spans.

    Tolerant IOB reading: a bare I- tag after O or a different label starts
    a fresh chunk; O tokens belong to no chunk.
    """
    spans: list[tuple[str, int, int]] = []
    current: tuple[str, int] | None = None
    for i, tag in enumerate(tweet.chunk or ()):
        tag = tag or "O"
        if tag == "O":
            if current is not None:
                spans.append((current[0], current[1], i))
                current = None
            continue
        prefix, _, label = tag.partition("-")
        if prefix == "I" and current is not None and current[0] == label:
            continue
        if current is not None:
            spans.append((current[0], current[1], i))
        current = (label, i)
    if current is not None:
        spans.append((current[0], current[1], len(tweet.words)))
    return spans


def extract_shallow_parse(tweet: TaggedTweet) -> FeatureVector:
    """Chunk-label n-grams (n = 1..3) plus one LABEL:headword per chunk.

    The n-grams run over the sequence of maximal chunks; the headword is
    approximated as the last token of the chunk.
    """
    if not _has_layer(tweet, "chunk"):
        raise MissingLayerError(tweet.tweet_id, [FeatureClass.SHALLOW_PARSE])
    spans = chunk_spans(tweet)
    labels = [label for label, _, _ in spans]
    counts: FeatureVector = {}
    for n in (1, 2, 3):
        count_ngrams(counts, _SHALLOW_PREFIX, labels, n)
    words = tweet.words
    for label, _, end in spans:
        fid = f"{_SHALLOW_PREFIX}{label}:{words[end - 1]}"
        counts[fid] = counts.get(fid, 0) + 1
    return counts


def _pp_match_in_chunks(spans: list[tuple[str, int, int]], i: int, j: int) -> bool:
    # The preposition must sit in a PP chunk and the noun in the NP chunk
    # that immediately follows it.
    for idx, (label, start, end) in enumerate(spans):
        if start <= i < end:
            if label != "PP":
                return False
            if idx + 1 >= len(spans):
                return False
            nxt_label, nxt_start, nxt_end = spans[idx + 1]
            return nxt_label == "NP" and nxt_start == end and nxt_start <= j < nxt_end
    return False


def extract_crisis_sensitive(tweet: TaggedTweet) -> FeatureVector:
    """The mixed crisis-sensitive class (requires the ARK layer).

    Emits, per match: PAT:<tags> and WT:<word/tag ...> for each of the nine
    ARK patterns; PP:in:<noun> for "in" + optional determiners/adjectives +
    noun (confined to a PP+NP chunk pair when a chunk layer is present); and
    EX:<verb> for existential "there" with its succeeding verb.

    One pass over the positions finds every pattern match, trying only the
    patterns that start with the tag found there. Matches are then emitted
    pattern by pattern, in ARK_CRISIS_PATTERNS order, so ids are inserted in
    the order one scan per pattern would insert them.
    """
    if not _has_layer(tweet, "ark"):
        raise MissingLayerError(tweet.tweet_id, [FeatureClass.CRISIS_SENSITIVE])
    words, tags = tweet.words, tweet.ark
    n_tokens = len(words)
    counts: FeatureVector = {}

    starts: list[list[int]] = [[] for _ in ARK_CRISIS_PATTERNS]
    for i, tag in enumerate(tags):
        for k, pattern, width in _PATTERNS_BY_FIRST_TAG.get(tag, ()):
            if width == 1 or tags[i : i + width] == pattern:
                starts[k].append(i)
    word_tags = [f"{word}/{tag}" for word, tag in zip(words, tags)]
    wt_prefix = _CRISIS_PREFIX + "WT:"
    for k, pattern_starts in enumerate(starts):
        if not pattern_starts:
            continue
        counts[_PAT_IDS[k]] = len(pattern_starts)
        width = len(ARK_CRISIS_PATTERNS[k])
        for i in pattern_starts:
            fid = wt_prefix + (word_tags[i] if width == 1 else " ".join(word_tags[i : i + width]))
            counts[fid] = counts.get(fid, 0) + 1

    spans = chunk_spans(tweet) if _has_layer(tweet, "chunk") else None
    for i, word in enumerate(words):
        if word != "in" or tags[i] != "P":
            continue
        j = i + 1
        while j < n_tokens and tags[j] in ("D", "A"):
            j += 1
        if j < n_tokens and tags[j] == "N":
            if spans is not None and not _pp_match_in_chunks(spans, i, j):
                continue
            fid = f"{_CRISIS_PREFIX}PP:in:{words[j]}"
            counts[fid] = counts.get(fid, 0) + 1

    if _has_layer(tweet, "ptb"):
        ptb = tweet.ptb
        for i, tag in enumerate(ptb):
            if tag != "EX":
                continue
            for j in (i + 1, i + 2):
                if j < n_tokens and (ptb[j] or "").startswith("V"):
                    fid = f"{_CRISIS_PREFIX}EX:{words[j]}"
                    counts[fid] = counts.get(fid, 0) + 1
                    break
    else:
        for i, word in enumerate(words):
            if word != "there":
                continue
            if i > 0 and tags[i - 1] == "P":
                continue
            for j in (i + 1, i + 2):
                if j < n_tokens and tags[j] == "V":
                    fid = f"{_CRISIS_PREFIX}EX:{words[j]}"
                    counts[fid] = counts.get(fid, 0) + 1
                    break

    return counts


def _extract_class(tweet: TaggedTweet, cls: FeatureClass) -> FeatureVector:
    ngrams = _NGRAM_CLASSES.get(cls)
    if ngrams is not None:
        prefix, column, orders = ngrams
        seq = getattr(tweet, column)
        counts: FeatureVector = {}
        for n in orders:
            count_ngrams(counts, prefix, seq, n)
        return counts
    if cls is FeatureClass.SHALLOW_PARSE:
        return extract_shallow_parse(tweet)
    return extract_crisis_sensitive(tweet)


def vectorize(tweet: TaggedTweet, classes: Iterable[FeatureClass]) -> FeatureVector:
    """Disjoint union of the requested per-class vectors.

    Raises MissingLayerError when a class needs a tag layer the tweet lacks;
    callers that want only the present classes ask missing_classes first. A
    tokenless tweet vectorizes to {} in every class whose layer it carries.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("at least one feature class is required")
    absent = missing_classes(tweet, classes)
    if absent:
        raise MissingLayerError(tweet.tweet_id, absent)
    vector: FeatureVector = {}
    for cls in classes:
        vector.update(_extract_class(tweet, cls))
    return vector


def vector_to_json(vector: FeatureVector) -> dict[str, int]:
    return dict(sorted(vector.items()))
