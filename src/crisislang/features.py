"""Sparse feature extraction over tagged tweets.

Six feature classes: word unigrams and bigrams, POS n-grams (n = 1..3) over
the coarse ARK and fine PTB tag layers, shallow-parse chunk features, and the
mixed crisis-sensitive class (selected ARK tag patterns in tag-only and
word/tag form, the "in ... <noun>" prepositional pattern, and existential
"there" paired with its succeeding verb).

A feature id is the class-qualified string ``CLASS:key``, the same form the
model file and vector dumps use, so textually identical keys from different
classes never collide. Counts are raw frequencies. vectorize checks each
class's tag layer and has its extractor count into one dict. Every n-gram,
of words, tags or chunk labels, is counted by count_ngrams, which the bigram
clouds and the word distributions of the divergence module use too.
"""

from __future__ import annotations

import math
import reprlib
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    from crisislang.text import TaggedTweet


class FeatureClass(Enum):
    UNIGRAM = "UNIGRAM"
    BIGRAM = "BIGRAM"
    ARK_POS = "ARK_POS"
    PTB_POS = "PTB_POS"
    SHALLOW_PARSE = "SHALLOW_PARSE"
    CRISIS_SENSITIVE = "CRISIS_SENSITIVE"

    # Set on every member at the end of this module: the tag layer the class
    # needs beyond the tokens (None: the tokens alone) and its extractor.
    # They are attributes rather than dicts keyed by member, because hashing
    # an Enum member runs Python code, and vectorize reads them per tweet.
    layer: str | None
    extract: Callable[[TaggedTweet, FeatureVector], None]


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


# Settings a run config or model file carries and their one checker. They live
# here, so loading a config loads neither the model nor the evaluation module.
_KIND_NAMES = {bool: "true or false", str: "a string", list: "a list", dict: "an object"}


def checked(value, kind: type, name: str, ok: Callable | None = None, rule: str | Callable = ""):
    """value as kind (bool, int, float, str, list or dict), or ValueError("<name>
    must be …"). No bool passes as a number, an int takes only a whole number and
    a float only a finite one. ok, when given, is the range and rule says it in
    words, or is a function of the value that does; it is checked before
    finiteness, so a rule may promise finiteness."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int or kind is float:
        if not number:
            raise ValueError(f"{name} must be a number, got {reprlib.repr(value)}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{name} must be a whole number, got {value!r}")
    elif not isinstance(value, kind):
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {reprlib.repr(value)}")
    if ok is not None and not ok(value):
        rule = rule(value) if callable(rule) else rule
        raise ValueError(f"{name} must be {rule}, got {reprlib.repr(value)}")
    if kind is int:
        return int(value)
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _between(low: int, high: int) -> tuple[Callable, Callable]:
    """The range low to high for checked, with a rule naming the bound broken."""
    return (
        lambda n: low <= n <= high,
        lambda n: f"at least {low}" if n < low else f"at most {high}",
    )


# NB's smoothing alpha, a top-k count and CV's repeat and fold counts: each
# one's range and the rule that says so, for checked. A repeat costs about 10 ms
# of `evaluate --mode combos` on 40 tweets: 1000 take 10 s, 1e18 would never end.
ALPHA_RANGE = (lambda alpha: 0 < alpha < math.inf, "positive and finite")
K_RANGE = (lambda k: k > 0, "positive")
REPEATS_RANGE = _between(1, 1000)
FOLDS_RANGE = (lambda folds: folds >= 2, "at least 2")


class _LogRegParams(NamedTuple):
    learning_rate: float = 0.1
    l2: float = 1e-4
    max_epochs: int = 500
    tolerance: float = 1e-6


class LogRegParams(_LogRegParams):
    """Logistic-regression settings, each through checked, stored as the type of
    its default: ValueError naming the first one of another type or range."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> LogRegParams:
        given = super().__new__(cls, *args, **kwargs)  # bound to fields, unchecked
        ranges = (
            (lambda rate: rate > 0, "positive"),
            (lambda l2: l2 >= 0, "at least 0"),
            # An epoch of top-features on 400 tweets costs about 0.11 ms, so
            # 100000 epochs take about 11 s there.
            _between(1, 100_000),
            (lambda tolerance: tolerance >= 0, "at least 0"),
        )
        values = (
            checked(value, type(cls._field_defaults[name]), name, *rule)
            for name, value, rule in zip(cls._fields, given, ranges)
        )
        return super().__new__(cls, *values)


def feature_classes(raw, name: str) -> list[FeatureClass]:
    """The feature classes raw names; ValueError("<name> …") unless it is a
    non-empty list of known class names with none named twice."""
    classes: list[FeatureClass] = []
    for item in checked(raw, list, name, bool, "a non-empty list"):
        cls = _CLASS_BY_NAME.get(item) if isinstance(item, str) else None
        if cls is None:
            raise ValueError(f"{name} lists unknown feature class {reprlib.repr(item)}")
        if cls in classes:
            raise ValueError(f"{name} lists {cls.value} more than once")
        classes.append(cls)
    return classes


DEFAULT_IMBALANCE_RATIOS = (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95)

# Looking a class up by name here runs no Python code, unlike FeatureClass(name).
_CLASS_BY_NAME = {cls.value: cls for cls in FeatureClass}
_SHALLOW_PREFIX = f"{FeatureClass.SHALLOW_PARSE.value}:"
_CRISIS_PREFIX = f"{FeatureClass.CRISIS_SENSITIVE.value}:"

# The crisis patterns as a trie keyed by tag. A node is the indices of the
# patterns that end at it and its children keyed by the next tag.
_PatternNode = tuple[list[int], dict[str, "_PatternNode"]]
_PATTERN_TRIE: dict[str, _PatternNode] = {}
for _k, _pattern in enumerate(ARK_CRISIS_PATTERNS):
    _level = _PATTERN_TRIE
    for _tag in _pattern[:-1]:
        _level = _level.setdefault(_tag, ([], {}))[1]
    _level.setdefault(_pattern[-1], ([], {}))[0].append(_k)
# Each pattern's PAT: id, and its WT: id with a %s for each word.
_PAT_IDS = tuple(f"{_CRISIS_PREFIX}PAT:{' '.join(p)}" for p in ARK_CRISIS_PATTERNS)
_WT_TEMPLATES = tuple(
    _CRISIS_PREFIX + "WT:" + " ".join(f"%s/{tag.replace('%', '%%')}" for tag in p)
    for p in ARK_CRISIS_PATTERNS
)


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
    cls = _CLASS_BY_NAME.get(cls_name)
    if cls is None:
        raise ValueError(f"{cls_name!r} is not a valid FeatureClass")
    return cls, key


def missing_classes(tweet: TaggedTweet, classes: Iterable[FeatureClass]) -> list[FeatureClass]:
    """The classes whose tag layer the tweet lacks (a layer of None is the
    tokens, always there); a tokenless tweet carries each layer it was given."""
    return [c for c in classes if c.layer is not None and getattr(tweet, c.layer) is None]


def count_ngrams(counts: dict[str, int], prefix: str, seq: Sequence[str], n: int) -> None:
    """Count the contiguous n-grams of seq into counts, as prefix + the
    space-joined n-gram, each id inserted where it first occurs. A bigram's
    id is formatted in one step rather than joined, then prefixed."""
    if n == 2:
        for first, second in zip(seq, seq[1:]):
            fid = f"{prefix}{first} {second}"
            counts[fid] = counts.get(fid, 0) + 1
        return
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


def _count_shallow_parse(tweet: TaggedTweet, counts: FeatureVector) -> None:
    """Chunk-label n-grams (n = 1..3) plus one LABEL:headword per chunk.

    The n-grams run over the sequence of maximal chunks; the headword is
    approximated as the last token of the chunk.
    """
    spans = chunk_spans(tweet)
    labels = [label for label, _, _ in spans]
    for n in (1, 2, 3):
        count_ngrams(counts, _SHALLOW_PREFIX, labels, n)
    words = tweet.words
    for label, _, end in spans:
        fid = f"{_SHALLOW_PREFIX}{label}:{words[end - 1]}"
        counts[fid] = counts.get(fid, 0) + 1


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


def _count_crisis_sensitive(tweet: TaggedTweet, counts: FeatureVector) -> None:
    """The mixed crisis-sensitive class (requires the ARK layer).

    Emits, per match: PAT:<tags> and WT:<word/tag ...> for each of the nine
    ARK patterns; PP:in:<noun> for "in" + optional determiners/adjectives +
    noun (confined to a PP+NP chunk pair when a chunk layer is present); and
    EX:<verb> for existential "there" with its succeeding verb.

    One pass over the positions finds every "in" and existential "there"
    (an EX tag when a PTB layer is present) and every pattern match, walking
    the pattern trie from each position. Word/tag strings are built only at
    matched positions. Matches are then emitted pattern by pattern, in
    ARK_CRISIS_PATTERNS order, then the PP:in and EX matches by position, so
    ids are inserted in the order one scan per pattern would insert them.
    """
    words, tags = tweet.words, tweet.ark
    ptb = tweet.ptb
    there_column, there_mark = (words, "there") if ptb is None else (ptb, "EX")
    n_tokens = len(words)

    starts: list[list[int]] = [[] for _ in ARK_CRISIS_PATTERNS]
    in_at: list[int] = []
    there_at: list[int] = []
    trie = _PATTERN_TRIE
    for i, tag in enumerate(tags):
        node = trie.get(tag)
        j = i
        while node is not None:
            ends, children = node
            for k in ends:
                starts[k].append(i)
            j += 1
            if j == n_tokens or not children:
                break
            node = children.get(tags[j])
        if tag == "P" and words[i] == "in":
            in_at.append(i)
        if there_column[i] == there_mark:
            there_at.append(i)

    wt_prefix = _CRISIS_PREFIX + "WT:"
    for k, pattern_starts in enumerate(starts):
        if not pattern_starts:
            continue
        counts[_PAT_IDS[k]] = len(pattern_starts)
        width = len(ARK_CRISIS_PATTERNS[k])
        if width == 1:
            for i in pattern_starts:
                fid = f"{wt_prefix}{words[i]}/{tags[i]}"
                counts[fid] = counts.get(fid, 0) + 1
        else:
            template = _WT_TEMPLATES[k]
            for i in pattern_starts:
                fid = template % words[i : i + width]
                counts[fid] = counts.get(fid, 0) + 1

    spans = chunk_spans(tweet) if in_at and tweet.chunk is not None else None
    for i in in_at:
        j = i + 1
        while j < n_tokens and tags[j] in ("D", "A"):
            j += 1
        if j < n_tokens and tags[j] == "N":
            if spans is not None and not _pp_match_in_chunks(spans, i, j):
                continue
            fid = f"{_CRISIS_PREFIX}PP:in:{words[j]}"
            counts[fid] = counts.get(fid, 0) + 1

    for i in there_at:
        if ptb is None and i > 0 and tags[i - 1] == "P":
            continue
        for j in (i + 1, i + 2):
            if j < n_tokens and (tags[j] == "V" if ptb is None else (ptb[j] or "").startswith("V")):
                fid = f"{_CRISIS_PREFIX}EX:{words[j]}"
                counts[fid] = counts.get(fid, 0) + 1
                break


def _ngram_extractor(
    cls: FeatureClass, layer: str | None, orders: tuple[int, ...]
) -> Callable[[TaggedTweet, FeatureVector], None]:
    """The extractor of a class that counts the n-grams of one column: the
    words (layer None) or one tag layer."""
    prefix, column = f"{cls.value}:", layer or "words"

    def extract(tweet: TaggedTweet, counts: FeatureVector) -> None:
        seq = getattr(tweet, column)
        for n in orders:
            count_ngrams(counts, prefix, seq, n)

    return extract


def vectorize(tweet: TaggedTweet, classes: Sequence[FeatureClass]) -> FeatureVector:
    """Disjoint union of the requested per-class vectors, counted into one
    dict class by class. A class listed more than once counts once.

    Raises MissingLayerError, naming once every class whose tag layer the
    tweet lacks, when there is one; callers that want only the present
    classes ask missing_classes first. A tokenless tweet vectorizes to {} in
    every class whose layer it carries.
    """
    vector: FeatureVector = {}
    seen: list[FeatureClass] = []
    for cls in classes:
        if cls in seen:
            continue
        if (layer := cls.layer) is not None and getattr(tweet, layer) is None:
            raise MissingLayerError(tweet.tweet_id, missing_classes(tweet, dict.fromkeys(classes)))
        seen.append(cls)
        cls.extract(tweet, vector)
    if not seen:
        raise ValueError("at least one feature class is required")
    return vector


def extract_crisis_sensitive(tweet: TaggedTweet) -> FeatureVector:
    """The tweet's CRISIS_SENSITIVE vector (see _count_crisis_sensitive)."""
    return vectorize(tweet, [FeatureClass.CRISIS_SENSITIVE])


# Each member's tag layer and extractor, read per tweet (see FeatureClass).
for _cls, _layer, _extract in (
    (FeatureClass.UNIGRAM, None, _ngram_extractor(FeatureClass.UNIGRAM, None, (1,))),
    (FeatureClass.BIGRAM, None, _ngram_extractor(FeatureClass.BIGRAM, None, (2,))),
    (FeatureClass.ARK_POS, "ark", _ngram_extractor(FeatureClass.ARK_POS, "ark", (1, 2, 3))),
    (FeatureClass.PTB_POS, "ptb", _ngram_extractor(FeatureClass.PTB_POS, "ptb", (1, 2, 3))),
    (FeatureClass.SHALLOW_PARSE, "chunk", _count_shallow_parse),
    (FeatureClass.CRISIS_SENSITIVE, "ark", _count_crisis_sensitive),
):
    _cls.layer, _cls.extract = _layer, _extract
