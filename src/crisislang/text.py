"""Twitter-aware tokenization, tag-layer alignment, and a fallback tagger.

The tokenizer is a deterministic approximation of Twitter-specific tooling:
lowercase, split on whitespace, peel edge punctuation into separate tokens,
and keep hashtags, mentions, URLs, and apostrophe contractions whole. URLs
are the one exception to lowercasing; their original form is preserved.

External taggers are out of scope. Corpora may carry pre-computed ARK, PTB,
and IOB chunk layers; for untagged desk-scale data the rule-based fallback
produces ARK-style tags only.

Both ``tokenize`` and ``fallback_ark_tags`` memoize their per-item work,
because tweets repeat the same pieces and tokens. ``tokenize`` caches a
whitespace piece's tokens as a tuple; the tagger caches a token's tag, a
string. An alphanumeric piece skips the memo: it holds no punctuation,
sigil or URL prefix, so it is one token, lowercased, which costs less than
a lookup. Each memo is a process-wide ``functools.lru_cache`` of at most
``MEMO_ENTRIES`` (1,024) entries: a miss on a full memo evicts the least
recently used entry, so no input, not even one long text, can grow it
further. Cached values are immutable and both functions return a fresh
list, so a caller that mutates its result changes no later call.

A tagged tweet is stored by column, not by token: ``words`` holds the tokens
and ``ark``, ``ptb`` and ``chunk`` hold one tag per token each, as parallel
tuples, so ``ark[i]`` is the ARK tag of ``words[i]``. A layer the tweet does
not carry is ``None``. Feature extractors read whole columns, and tagging a
tweet builds no per-token object.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from typing import NamedTuple

from crisislang.ingest import RawTweet

# Coarse Twitter POS inventory, for reference and fallback output.
ARK_TAGS = frozenset(
    ["N", "O", "^", "S", "Z", "V", "L", "M", "A", "R", "!", "D", "P", "&", "T",
     "X", "Y", "#", "@", "~", "U", "E", "$", "G", ","]
)

PREPOSITIONS = frozenset(
    ["in", "on", "at", "of", "for", "from", "to", "with", "by", "about", "over",
     "under", "near", "into", "through", "during", "after", "before", "against",
     "between", "without", "within", "along", "across", "around", "behind",
     "beyond", "off", "per", "via"]
)

DETERMINERS = frozenset(
    ["a", "an", "the", "this", "that", "these", "those", "my", "your", "his",
     "her", "its", "our", "their", "some", "any", "each", "every", "no",
     "all", "both"]
)

# ARK "L": fused nominal + verbal contractions.
CONTRACTIONS = frozenset(
    ["i'm", "it's", "there's", "that's", "he's", "she's", "what's", "who's",
     "here's", "where's", "how's", "let's", "i'll", "you'll", "he'll",
     "she'll", "we'll", "they'll", "i've", "you've", "we've", "they've",
     "i'd", "you'd", "he'd", "she'd", "we'd", "they'd", "you're", "we're",
     "they're"]
)

ADVERB_LEXICON = frozenset(
    ["here", "there", "now", "then", "very", "really", "just", "still", "too",
     "so", "again", "never", "always", "soon", "already", "everywhere",
     "away", "back", "home", "fast"]
)

VERB_LEXICON = frozenset(
    ["is", "are", "was", "were", "be", "been", "being", "am", "has", "have",
     "had", "do", "does", "did", "will", "would", "can", "could", "should",
     "may", "might", "must", "get", "got", "go", "goes", "went", "gone",
     "need", "needs", "stay", "run", "ran", "come", "came", "see", "saw",
     "know", "think", "say", "said", "make", "made", "take", "took", "hope",
     "pray", "help", "keep", "feel", "felt", "hear", "heard"]
)

ADJECTIVE_LEXICON = frozenset(
    ["safe", "big", "bad", "good", "scared", "afraid", "huge", "small", "new",
     "old", "free", "open", "great", "terrible", "awful", "crazy", "strong",
     "dark", "loud", "okay", "ok", "fine", "many", "much", "more", "worst",
     "horrible", "sad", "happy"]
)

_ADJ_SUFFIXES = ("ous", "ful", "ive", "able", "ible", "less", "ish", "al", "ic")

_URL_RE = re.compile(r"^(https?://|www\.)", re.IGNORECASE)
_SIGIL_RE = re.compile(r"^[@#][a-z0-9_]", re.IGNORECASE)
_NUMERIC_RE = re.compile(r"^[0-9]+([.,:/-][0-9]+)*%?$")


class AlignmentError(ValueError):
    """A tag layer does not line up one-per-token with the tokenization."""

    def __init__(self, tweet_id: str, layer: str, n_tags: int, n_tokens: int):
        self.tweet_id = tweet_id
        self.layer = layer
        super().__init__(
            f"tweet {tweet_id!r}: {layer} has {n_tags} tags for {n_tokens} tokens"
        )


class TaggedTweet(NamedTuple):
    """Tokens and tag layers as parallel tuples; an absent layer is None."""

    tweet_id: str
    words: tuple[str, ...]
    ark: tuple[str, ...] | None = None
    ptb: tuple[str, ...] | None = None
    chunk: tuple[str, ...] | None = None


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _split_piece(piece: str) -> list[str]:
    """Peel leading/trailing punctuation characters into their own tokens."""
    i, j = 0, len(piece) - 1
    left: list[str] = []
    while i <= j and _is_punct(piece[i]):
        left.append(piece[i])
        i += 1
    right: list[str] = []
    while j >= i and _is_punct(piece[j]):
        right.append(piece[j])
        j -= 1
    core = piece[i : j + 1]
    out = left
    if core:
        out.append(core)
    out.extend(reversed(right))
    return out


# The bound on each memo below; a miss on a full memo evicts the least
# recently used entry.
MEMO_ENTRIES = 1024


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _piece_tokens(piece: str) -> tuple[str, ...]:
    """The tokens of one whitespace piece that is not alphanumeric."""
    if _URL_RE.match(piece):
        return (piece,)  # URLs verbatim, case preserved
    piece = piece.lower()
    if _SIGIL_RE.match(piece):
        # Keep the @/# sigil attached; peel only trailing punctuation.
        j = len(piece) - 1
        trailing: list[str] = []
        while j > 1 and _is_punct(piece[j]):
            trailing.append(piece[j])
            j -= 1
        return (piece[: j + 1], *reversed(trailing))
    return tuple(_split_piece(piece))


def tokenize(text: str) -> list[str]:
    """Deterministic, lowercasing tokenization of one message."""
    tokens: list[str] = []
    for piece in text.split():
        if piece.isalnum():
            # No alphanumeric character is punctuation, '@' or '#', nor does
            # one lowercase to any, so the piece is one token. Lowercasing it
            # costs less than a memo lookup.
            tokens.append(piece.lower())
        else:
            tokens += _piece_tokens(piece)
    return tokens


def attach_tags(
    tokens: list[str],
    ark_tags: tuple[str, ...] | list[str] | None = None,
    ptb_tags: tuple[str, ...] | list[str] | None = None,
    chunk_tags: tuple[str, ...] | list[str] | None = None,
    tweet_id: str = "",
) -> TaggedTweet:
    """Align optional tag layers with a token sequence.

    Each provided layer must have exactly one tag per token; a layer is
    all-or-nothing for the whole tweet.
    """
    n_tokens = len(tokens)
    if ark_tags is not None and len(ark_tags) != n_tokens:
        raise AlignmentError(tweet_id, "ark_tags", len(ark_tags), n_tokens)
    if ptb_tags is not None and len(ptb_tags) != n_tokens:
        raise AlignmentError(tweet_id, "ptb_tags", len(ptb_tags), n_tokens)
    if chunk_tags is not None and len(chunk_tags) != n_tokens:
        raise AlignmentError(tweet_id, "chunk_tags", len(chunk_tags), n_tokens)
    return tuple.__new__(TaggedTweet, (
        tweet_id,
        tuple(tokens),
        tuple(ark_tags) if ark_tags is not None else None,
        tuple(ptb_tags) if ptb_tags is not None else None,
        tuple(chunk_tags) if chunk_tags is not None else None,
    ))


# The closed-class lexicons as one lookup, inserted lowest precedence first
# so that a word in two lexicons keeps the tag the first matching rule gave:
# P > D > L > R > V > A. No lexicon word is a sigil, a URL, punctuation or a
# number, so looking a token up here first changes no tag.
_CLOSED: dict[str, str] = {
    word: tag
    for lexicon, tag in (
        (ADJECTIVE_LEXICON, "A"),
        (VERB_LEXICON, "V"),
        (ADVERB_LEXICON, "R"),
        (CONTRACTIONS, "L"),
        (DETERMINERS, "D"),
        (PREPOSITIONS, "P"),
    )
    for word in lexicon
}


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _fallback_tag(token: str) -> str:
    tag = _CLOSED.get(token)
    if tag is not None:
        return tag
    # An alphabetic token is no sigil, URL, punctuation or number.
    if not token.isalpha():
        if token.startswith("@") and len(token) > 1:
            return "@"
        if token.startswith("#") and len(token) > 1:
            return "#"
        if _URL_RE.match(token):
            return "U"
        if all(_is_punct(ch) for ch in token):
            return "!"
        if _NUMERIC_RE.match(token):
            return "$"
    # Heuristic fallback for open-class words; noun is the default.
    if token.endswith("ly"):
        return "R"
    if token.endswith(("ing", "ed")):
        return "V"
    if token.endswith(_ADJ_SUFFIXES):
        return "A"
    return "N"


def fallback_ark_tags(tokens: list[str]) -> list[str]:
    """Rule-based ARK-style tag per token; deterministic, list-driven."""
    return list(map(_fallback_tag, tokens))


def tag_raw_tweet(tweet: RawTweet, use_fallback: bool = False) -> TaggedTweet:
    """Tokenize a raw tweet and attach whatever layers it carries.

    With use_fallback, tweets lacking an ARK layer get fallback tags so the
    tag-dependent feature classes stay usable.
    """
    tokens = tokenize(tweet.text)
    ark = tweet.ark_tags
    if ark is None and use_fallback:
        ark = fallback_ark_tags(tokens)  # attach_tags makes it a tuple
    return attach_tags(tokens, ark, tweet.ptb_tags, tweet.chunk_tags, tweet.id)
