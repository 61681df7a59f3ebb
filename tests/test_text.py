import random
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisislang import text as text_module
from crisislang.text import (
    ADJECTIVE_LEXICON,
    ADVERB_LEXICON,
    CONTRACTIONS,
    DETERMINERS,
    PREPOSITIONS,
    VERB_LEXICON,
    AlignmentError,
    attach_tags,
    fallback_ark_tags,
    tag_raw_tweet,
    tokenize,
)
from oracles import reference_fallback_ark_tags, reference_tokenize


class TestTokenize:
    def test_contraction_kept_whole(self):
        assert tokenize("I'm safe in Boston") == ["i'm", "safe", "in", "boston"]

    def test_special_tokens_preserved(self):
        assert tokenize("#prayforboston @user http://t.co/x") == [
            "#prayforboston",
            "@user",
            "http://t.co/x",
        ]

    def test_trailing_punctuation_split(self):
        assert tokenize("Explosion!!") == ["explosion", "!", "!"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_url_case_preserved(self):
        assert tokenize("see http://t.co/UxkKJLoX now") == ["see", "http://t.co/UxkKJLoX", "now"]

    def test_hashtag_trailing_punct_peeled(self):
        assert tokenize("#boston!") == ["#boston", "!"]

    def test_leading_punctuation(self):
        assert tokenize('"hello"') == ['"', "hello", '"']

    def test_punctuation_only(self):
        assert tokenize("!?") == ["!", "?"]

    @pytest.mark.parametrize(
        "text",
        [
            "I'm safe in Boston",
            "Explosion!! near the finish line...",
            "#prayforboston @user http://t.co/x",
            "it's 4:30 and we're ok",
            '"quoted" (parens) and-dashes',
        ],
    )
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    def test_idempotent_random(self):
        rng = random.Random(5)
        alphabet = "ab#@!.',x "
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30)))
            tokens = tokenize(text)
            assert tokenize(" ".join(tokens)) == tokens
            assert all(tokens), f"empty token from {text!r}"

    def test_characters_preserved_modulo_case_and_spacing(self):
        rng = random.Random(9)
        alphabet = "AbC#!.'x,- "
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 40)))
            tokens = tokenize(text)
            assert "".join(tokens) == "".join(text.lower().split())


class TestAttachTags:
    def test_layers_attached(self):
        tweet = attach_tags(["a", "b", "c"], ark_tags=["N", "V", "N"], tweet_id="t1")
        assert tweet.ark is not None and tweet.ptb is None
        assert list(tweet.ark) == ["N", "V", "N"]

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError, match="t1.*ark"):
            attach_tags(["a", "b", "c"], ark_tags=["N", "V"], tweet_id="t1")

    def test_no_layers(self):
        tweet = attach_tags(["a", "b", "c"], tweet_id="t1")
        assert tweet.ark is None and tweet.ptb is None and tweet.chunk is None
        assert list(tweet.words) == ["a", "b", "c"]

    def test_round_trip_with_tokenize(self):
        tokens = tokenize("there is a bomb")
        tweet = attach_tags(tokens, ark_tags=["R", "V", "D", "N"],
                            ptb_tags=["EX", "VBZ", "DT", "NN"],
                            chunk_tags=["B-NP", "B-VP", "B-NP", "I-NP"], tweet_id="t")
        assert len(tweet.words) == 4
        assert tweet.ark is not None and tweet.ptb is not None and tweet.chunk is not None


class TestFallbackTagger:
    def test_mention(self):
        assert fallback_ark_tags(["@user"]) == ["@"]

    def test_preposition_noun(self):
        assert fallback_ark_tags(["in", "boston"]) == ["P", "N"]

    def test_contraction_adjective(self):
        assert fallback_ark_tags(["i'm", "safe"]) == ["L", "A"]

    def test_hand_tagged_sample(self, tagger_sample):
        tokens = [token for token, _ in tagger_sample]
        expected = [tag for _, tag in tagger_sample]
        assert fallback_ark_tags(tokens) == expected

    def test_deterministic(self):
        tokens = tokenize("Explosion!! at 4:30 near @user #boston http://t.co/x")
        assert fallback_ark_tags(tokens) == fallback_ark_tags(tokens)


class TestTagRawTweet:
    def _raw(self, **kwargs):
        from datetime import datetime, timezone

        from crisislang.ingest import RawTweet

        defaults = dict(
            id="r1", text="in boston", created_at=datetime(2013, 4, 15, tzinfo=timezone.utc)
        )
        defaults.update(kwargs)
        return RawTweet(**defaults)

    def test_supplied_tags_attached(self):
        tweet = tag_raw_tweet(self._raw(ark_tags=("P", "N")))
        assert list(tweet.ark) == ["P", "N"]

    def test_fallback_fills_missing_ark(self):
        tweet = tag_raw_tweet(self._raw(), use_fallback=True)
        assert list(tweet.ark) == ["P", "N"]

    def test_no_fallback_leaves_untagged(self):
        tweet = tag_raw_tweet(self._raw())
        assert tweet.ark is None

    def test_misaligned_layer_names_tweet_and_layer(self):
        with pytest.raises(AlignmentError, match="r1.*ptb"):
            tag_raw_tweet(self._raw(ptb_tags=("IN",)))


LEXICON_WORDS = sorted(
    PREPOSITIONS | DETERMINERS | CONTRACTIONS | ADVERB_LEXICON | VERB_LEXICON
    | ADJECTIVE_LEXICON
)


def _cased(words):
    return st.tuples(words, st.sampled_from([str.lower, str.upper, str.title])).map(
        lambda pair: pair[1](pair[0])
    )


_PUNCT = st.text(st.characters(categories=["P"]), max_size=3)
_WORD = st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=8)

# Whitespace pieces that reach every rule of the tokenizer and the tagger.
_PIECES = st.one_of(
    st.text(max_size=12),
    _cased(st.sampled_from(LEXICON_WORDS)),
    _WORD,
    st.tuples(_PUNCT, st.one_of(_WORD, _cased(st.sampled_from(LEXICON_WORDS))), _PUNCT).map(
        "".join
    ),
    st.tuples(
        st.sampled_from(["http://", "https://", "HTTP://", "Https://", "www.", "WWW."]),
        st.text(max_size=8),
    ).map("".join),
    st.tuples(st.sampled_from("@#"), st.text(max_size=6), _PUNCT).map("".join),
    st.from_regex(r"[0-9]{1,4}([.,:/-][0-9]{1,3}){0,2}%?", fullmatch=True),
    _cased(st.sampled_from(["don't", "can't", "y'all", "rock'n'roll", *CONTRACTIONS])),
)
_TEXTS = st.lists(_PIECES, max_size=10).map(" ".join)


class TestReferenceEquality:
    """The fast paths of tokenize and fallback_ark_tags give exactly what the
    plain rule chains in oracles.py give."""

    @settings(max_examples=500, deadline=None)
    @given(text=_TEXTS)
    def test_tokenize_and_tags_match_reference(self, text):
        tokens = tokenize(text)
        assert tokens == reference_tokenize(text)
        assert fallback_ark_tags(tokens) == reference_fallback_ark_tags(tokens)
        # The tagger also takes tokens that no tokenizer produced.
        pieces = text.split()
        assert fallback_ark_tags(pieces) == reference_fallback_ark_tags(pieces)

    @pytest.mark.parametrize(
        "text, tokens, tags",
        [
            ("www.Example.com", ["www.Example.com"], ["U"]),
            ("HTTP://A.b", ["HTTP://A.b"], ["U"]),
            ("\u00b2", ["\u00b2"], ["N"]),
            ("\u00df", ["\u00df"], ["N"]),
            ("@Bo!", ["@bo", "!"], ["@", "!"]),
            ("There's", ["there's"], ["L"]),
            ("Running.", ["running", "."], ["V", "!"]),
            ("quickly", ["quickly"], ["R"]),
            ("1990", ["1990"], ["$"]),
            ("In, THE", ["in", ",", "the"], ["P", "!", "D"]),
            ("safe!", ["safe", "!"], ["A", "!"]),
        ],
    )
    def test_fast_path_boundaries(self, text, tokens, tags):
        assert tokenize(text) == tokens == reference_tokenize(text)
        assert fallback_ark_tags(tokens) == tags == reference_fallback_ark_tags(tokens)

    def test_alphanumeric_piece_may_lowercase_to_non_alphanumeric(self):
        # U+0130 lowercases to "i" plus a combining dot, which is not
        # alphanumeric; the piece is still one token.
        assert "\u0130stanbul".isalnum()
        tokens = tokenize("\u0130stanbul")
        assert tokens == ["i\u0307stanbul"] == reference_tokenize("\u0130stanbul")
        assert not tokens[0].isalnum()

    def test_every_lexicon_word_matches_reference(self):
        assert fallback_ark_tags(LEXICON_WORDS) == reference_fallback_ark_tags(LEXICON_WORDS)

    def test_no_alphanumeric_character_is_split_or_sigil(self):
        # The fast paths rest on this fact of the Unicode database: an
        # alphanumeric character, and every character it lowercases to, is
        # neither punctuation nor a sigil.
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            if not ch.isalnum():
                continue
            for c in ch + ch.lower():
                assert not unicodedata.category(c).startswith("P"), hex(cp)
                assert c not in "@#", hex(cp)


_ANY_WORD = st.one_of(_WORD, st.sampled_from(LEXICON_WORDS))
_URL = st.tuples(
    st.sampled_from(["hTtP://", "HTTPS://", "Www.", "http://T.co/"]),
    st.text(st.characters(categories=["L", "N"]), max_size=6),
    st.sampled_from(["", "!", "\u2026"]),
).map("".join)

# Pieces for the memo: the reference-equality pieces plus the ones whose
# tokens or tags a stale or shared memo entry would most likely get wrong.
_MEMO_PIECES = st.one_of(
    _PIECES,
    # Unicode punctuation on either side of a word.
    st.tuples(
        st.sampled_from(["\u00bf", "\u00a1", "\u2026", "\u00ab", "\u00ab\u00bb", ""]),
        _ANY_WORD,
        st.sampled_from(["?", "\u2026", "\u00bb", "\u00ab\u00bb", "!", ""]),
    ).map("".join),
    # URLs in mixed case, which stay as they are.
    _URL,
    # Sigils with trailing punctuation.
    st.tuples(
        st.sampled_from("@#"), _ANY_WORD, st.sampled_from(["!", "?!", ".\u2026", "\u00bb"])
    ).map("".join),
    # The same word or URL in several cases, as separate pieces.
    st.one_of(_ANY_WORD, _URL).map(
        lambda w: " ".join([w, w.lower(), w.upper(), w.title(), w.upper() + "!"])
    ),
    # Alphanumeric pieces that lowercase to something that is not.
    st.tuples(st.sampled_from(["\u0130", "\u0130\u0130"]), _WORD, _PUNCT).map("".join),
    st.sampled_from(
        ["\u0130stanbul", "\u0130STANBUL!", "#\u0130stanbul", "\u00ab\u0130stanbul\u00bb"]
    ),
)
# A text repeats pieces from a small pool, so later pieces hit the memo.
_MEMO_TEXTS = (
    st.lists(_MEMO_PIECES, min_size=1, max_size=6)
    .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=16))
    .map(" ".join)
)


_MEMOS = (text_module._piece_tokens, text_module._fallback_tag)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


def _push_distinct(n):
    """Send n new non-alphanumeric pieces, each one token, through both memos."""
    fillers = [f"~{i}~" for i in range(n)]
    assert tokenize(" ".join(fillers)) == fillers
    fallback_ark_tags(fillers)


class TestMemo:
    """tokenize and fallback_ark_tags memoize per piece and per token; the
    memos must never change a result and never outgrow MEMO_ENTRIES."""

    @staticmethod
    def _check(text):
        tokens = tokenize(text)
        assert tokens == reference_tokenize(text)
        assert fallback_ark_tags(tokens) == reference_fallback_ark_tags(tokens)
        pieces = text.split()
        assert fallback_ark_tags(pieces) == reference_fallback_ark_tags(pieces)

    @settings(max_examples=300, deadline=None)
    @given(text=_MEMO_TEXTS)
    def test_cold_warm_and_cleared_memo_match_reference(self, text):
        _clear_memos()
        self._check(text)  # cold
        self._check(text)  # warm: every memo lookup hits
        # Fill both memos to the bound, so the next miss evicts mid-text.
        bound = text_module.MEMO_ENTRIES
        pieces_memo, tags_memo = _MEMOS
        _push_distinct(bound - pieces_memo.cache_info().currsize)
        fallback_ark_tags([f"~~{i}" for i in range(bound - tags_memo.cache_info().currsize)])
        assert [memo.cache_info().currsize for memo in _MEMOS] == [bound, bound]
        self._check(text)  # full: each miss evicts the least recently used entry
        # More than MEMO_ENTRIES distinct pieces later, every entry was evicted.
        _push_distinct(bound + 1)
        self._check(text)
        self._check(text)

    def test_mutating_a_result_changes_no_later_call(self):
        text = "Explosion!! near @User #Boston\u2026 http://t.co/AbC \u00bfqu\u00e9? safe safe"
        tokens = tokenize(text)
        tags = fallback_ark_tags(tokens)
        first_tokens, first_tags = list(tokens), list(tags)
        for result in (tokens, tags):
            result.reverse()
            result[0] = "mutated"
            result.append("extra")
        assert tokenize(text) == first_tokens == reference_tokenize(text)
        assert fallback_ark_tags(first_tokens) == first_tags
        # The memos hold immutable values: tuples for pieces, strings for tags.
        pieces = [piece for piece in text.split() if not piece.isalnum()]
        for memo, keys, kind in zip(_MEMOS, (pieces, first_tokens), (tuple, str)):
            hits = memo.cache_info().hits
            assert all(type(memo(key)) is kind for key in keys)
            assert memo.cache_info().hits == hits + len(keys)  # all read from the memo

    def test_memos_stay_bounded_within_one_call(self):
        _clear_memos()
        bound = text_module.MEMO_ENTRIES
        # Each piece is new and not alphanumeric, and it has one new token.
        text = " ".join(f"w{i}." for i in range(10 * bound))
        tokens = tokenize(text)
        tags = fallback_ark_tags(tokens)
        assert len(tokens) == 2 * 10 * bound
        assert tokens == reference_tokenize(text)
        assert tags == reference_fallback_ark_tags(tokens)
        for memo in _MEMOS:
            info = memo.cache_info()
            assert info.maxsize == bound
            assert info.misses >= 10 * bound  # every piece and token was new once
            assert info.currsize == bound  # filled, and evicting rather than grown
