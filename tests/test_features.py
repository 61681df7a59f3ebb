import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisislang.features import (
    ARK_CRISIS_PATTERNS,
    FeatureClass,
    MissingLayerError,
    count_ngrams,
    extract_crisis_sensitive,
    missing_classes,
    split_feature,
    vectorize,
)
from crisislang.ingest import parse_tweet_record
from crisislang.text import ARK_TAGS, attach_tags, tag_raw_tweet
from oracles import reference_vector, scan_tag_patterns


def tweet_of(tokens, ark=None, ptb=None, chunks=None, tweet_id="t"):
    return attach_tags(tokens, ark_tags=ark, ptb_tags=ptb, chunk_tags=chunks, tweet_id=tweet_id)


def keys(vector):
    return {split_feature(fid)[1]: count for fid, count in vector.items()}


def present_only(tweet, classes):
    """The classes whose tag layers the tweet carries."""
    absent = missing_classes(tweet, classes)
    return [cls for cls in classes if cls not in absent]


class TestWordNgrams:
    def test_bigrams(self):
        v = vectorize(tweet_of(["i'm", "safe", "in", "boston"]), [FeatureClass.BIGRAM])
        assert keys(v) == {"i'm safe": 1, "safe in": 1, "in boston": 1}
        assert all(split_feature(fid)[0] is FeatureClass.BIGRAM for fid in v)

    def test_short_tweet_empty(self):
        assert vectorize(tweet_of(["boston"]), [FeatureClass.BIGRAM]) == {}

    def test_count_accumulation(self):
        assert keys(vectorize(tweet_of(["a", "a", "a"]), [FeatureClass.UNIGRAM])) == {"a": 3}

    def test_total_count_matches_length_arithmetic(self):
        rng = random.Random(2)
        for _ in range(50):
            tokens = [rng.choice("abc") for _ in range(rng.randrange(0, 10))]
            for n, cls in ((1, FeatureClass.UNIGRAM), (2, FeatureClass.BIGRAM)):
                total = sum(vectorize(tweet_of(tokens), [cls]).values())
                assert total == max(0, len(tokens) - n + 1)


class TestPosNgrams:
    def test_ark_trigram(self):
        counts = {}
        count_ngrams(counts, "", tweet_of(["@a", "@b", "#c"], ark=["@", "@", "#"]).ark, 3)
        assert counts == {"@ @ #": 1}

    def test_ark_bigrams(self):
        counts = {}
        count_ngrams(counts, "", tweet_of(["in", "the", "city"], ark=["P", "D", "N"]).ark, 2)
        assert counts == {"P D": 1, "D N": 1}

    def test_missing_layer(self):
        with pytest.raises(MissingLayerError):
            vectorize(tweet_of(["a"]), [FeatureClass.PTB_POS])

    def test_class_qualification(self):
        ark = vectorize(tweet_of(["x"], ark=["N"]), [FeatureClass.ARK_POS])
        ptb = vectorize(tweet_of(["x"], ptb=["N"]), [FeatureClass.PTB_POS])
        assert set(ark) != set(ptb)
        assert keys(ark) == keys(ptb) == {"N": 1}


class TestShallowParse:
    SHALLOW = [FeatureClass.SHALLOW_PARSE]

    def test_headword_from_np(self):
        v = vectorize(tweet_of(["the", "movie"], chunks=["B-NP", "I-NP"]), self.SHALLOW)
        assert keys(v) == {"NP": 1, "NP:movie": 1}

    def test_np_vp_sequence(self):
        v = vectorize(tweet_of(["bombs", "exploded"], chunks=["B-NP", "B-VP"]), self.SHALLOW)
        assert keys(v) == {"NP": 1, "VP": 1, "NP VP": 1, "NP:bombs": 1, "VP:exploded": 1}

    def test_all_outside_tags(self):
        assert vectorize(tweet_of(["a", "b"], chunks=["O", "O"]), self.SHALLOW) == {}

    def test_chunk_trigram_skips_outside_tokens(self):
        v = vectorize(
            tweet_of(
                ["bombs", "just", "exploded", "in", "boston"],
                chunks=["B-NP", "O", "B-VP", "B-PP", "B-NP"],
            ),
            self.SHALLOW,
        )
        assert keys(v)["NP VP PP"] == 1
        assert keys(v)["VP PP NP"] == 1

    def test_bare_inside_tag_starts_chunk(self):
        v = vectorize(tweet_of(["a", "b"], chunks=["I-NP", "I-VP"]), self.SHALLOW)
        assert keys(v) == {"NP": 1, "VP": 1, "NP VP": 1, "NP:a": 1, "VP:b": 1}


class TestCrisisSensitive:
    def test_in_boston(self):
        v = extract_crisis_sensitive(tweet_of(["in", "boston"], ark=["P", "N"]))
        assert keys(v) == {"PP:in:boston": 1, "PAT:N": 1, "WT:boston/N": 1}

    def test_existential_there(self):
        v = extract_crisis_sensitive(
            tweet_of(["there", "is", "a", "bomb"], ark=["R", "V", "D", "N"])
        )
        assert keys(v)["EX:is"] == 1

    def test_im_safe(self):
        v = extract_crisis_sensitive(tweet_of(["i'm", "safe"], ark=["L", "A"]))
        assert keys(v) == {"PAT:L A": 1, "WT:i'm/L safe/A": 1, "PAT:A": 1, "WT:safe/A": 1}

    def test_missing_ark_layer(self):
        with pytest.raises(MissingLayerError):
            extract_crisis_sensitive(tweet_of(["a"]))

    def test_pp_allows_determiners_and_adjectives(self):
        v = extract_crisis_sensitive(
            tweet_of(["in", "a", "big", "explosion"], ark=["P", "D", "A", "N"])
        )
        assert keys(v)["PP:in:explosion"] == 1

    def test_pp_requires_surface_in(self):
        v = extract_crisis_sensitive(tweet_of(["over", "boston"], ark=["P", "N"]))
        assert "PP:over:boston" not in keys(v)
        assert not any(k.startswith("PP:") for k in keys(v))

    def test_pp_chunk_constrained_match(self):
        v = extract_crisis_sensitive(
            tweet_of(
                ["in", "the", "city"],
                ark=["P", "D", "N"],
                chunks=["B-PP", "B-NP", "I-NP"],
            )
        )
        assert keys(v)["PP:in:city"] == 1

    def test_pp_chunk_constrained_rejection(self):
        # Same tags but the noun is not in an NP adjacent to the PP chunk.
        v = extract_crisis_sensitive(
            tweet_of(
                ["in", "the", "city"],
                ark=["P", "D", "N"],
                chunks=["B-PP", "O", "B-NP"],
            )
        )
        assert not any(k.startswith("PP:") for k in keys(v))

    def test_adverbial_there_blocked_by_preposition(self):
        v = extract_crisis_sensitive(
            tweet_of(["over", "there", "is", "smoke"], ark=["P", "R", "V", "N"])
        )
        assert not any(k.startswith("EX:") for k in keys(v))

    def test_existential_via_ptb_ex_tag(self):
        v = extract_crisis_sensitive(
            tweet_of(
                ["there", "is", "a", "bomb"],
                ark=["R", "V", "D", "N"],
                ptb=["EX", "VBZ", "DT", "NN"],
            )
        )
        assert keys(v)["EX:is"] == 1

    def test_ptb_layer_overrides_surface_detection(self):
        # Adverbial "there" tagged RB by PTB produces no existential feature.
        v = extract_crisis_sensitive(
            tweet_of(
                ["there", "is", "a", "bomb"],
                ark=["R", "V", "D", "N"],
                ptb=["RB", "VBZ", "DT", "NN"],
            )
        )
        assert not any(k.startswith("EX:") for k in keys(v))

    def test_pattern_counts_match_brute_force_scan(self):
        rng = random.Random(17)
        tagset = ["N", "A", "!", "R", "L", "P", "D", "V"]
        for _ in range(200):
            length = rng.randrange(1, 12)
            tags = [rng.choice(tagset) for _ in range(length)]
            tokens = [f"w{i}" for i in range(length)]
            v = extract_crisis_sensitive(tweet_of(tokens, ark=tags))
            got = {k: c for k, c in keys(v).items() if k.startswith("PAT:")}
            for pattern in ARK_CRISIS_PATTERNS:
                expected = scan_tag_patterns(tags, list(pattern))
                assert got.get("PAT:" + " ".join(pattern), 0) == expected

    def test_fixture_counts_exact(self, pattern_fixture):
        lines, expected = pattern_fixture
        totals = Counter()
        for line in lines:
            tweet = tag_raw_tweet(parse_tweet_record(line))
            for fid, count in extract_crisis_sensitive(tweet).items():
                totals[split_feature(fid)[1]] += count
        pattern_keys = {k: c for k, c in totals.items() if not k.startswith("WT:")}
        assert pattern_keys == expected


class TestVectorize:
    def test_single_class(self):
        v = vectorize(tweet_of(["boston"]), [FeatureClass.UNIGRAM])
        assert v == {"UNIGRAM:boston": 1}

    def test_union_of_classes(self):
        tweet = tweet_of(["in", "boston"])
        both = vectorize(tweet, [FeatureClass.UNIGRAM, FeatureClass.BIGRAM])
        separate = {}
        separate.update(vectorize(tweet, [FeatureClass.UNIGRAM]))
        separate.update(vectorize(tweet, [FeatureClass.BIGRAM]))
        assert both == separate

    def test_empty_class_set_rejected(self):
        with pytest.raises(ValueError):
            vectorize(tweet_of(["a"]), [])

    def test_missing_layer_error_lists_classes(self):
        tweet = tweet_of(["a"])
        with pytest.raises(MissingLayerError) as err:
            vectorize(tweet, [FeatureClass.UNIGRAM, FeatureClass.PTB_POS, FeatureClass.SHALLOW_PARSE])
        assert set(err.value.classes) == {FeatureClass.PTB_POS, FeatureClass.SHALLOW_PARSE}

    def test_repeated_class_counts_once(self):
        tweet = tweet_of(["a", "a"])
        assert vectorize(tweet, [FeatureClass.UNIGRAM, FeatureClass.UNIGRAM]) == {"UNIGRAM:a": 2}
        with pytest.raises(MissingLayerError, match="layers for: ARK_POS$"):
            vectorize(tweet, [FeatureClass.ARK_POS, FeatureClass.ARK_POS])

    # tagged_tweets is defined further down, with the reference-equality tests.
    @settings(max_examples=200, deadline=None)
    @given(
        tweet=st.deferred(lambda: tagged_tweets()),
        classes=st.lists(st.sampled_from(list(FeatureClass)), min_size=1, max_size=10),
    )
    def test_repeated_classes_equal_their_first_occurrences(self, tweet, classes):
        unique = list(dict.fromkeys(classes))
        absent = missing_classes(tweet, unique)
        if absent:
            with pytest.raises(MissingLayerError) as err:
                vectorize(tweet, classes)
            assert err.value.classes == absent
            return
        got = list(vectorize(tweet, classes).items())
        assert got == list(vectorize(tweet, unique).items())
        expected: dict[str, int] = {}
        for cls in unique:
            expected.update(reference_vector(tweet, cls.value))
        assert got == list(expected.items())

    def test_skip_mode_drops_missing(self):
        tweet = tweet_of(["a", "b"])
        v = vectorize(tweet, present_only(tweet, [FeatureClass.UNIGRAM, FeatureClass.ARK_POS]))
        assert all(split_feature(fid)[0] is FeatureClass.UNIGRAM for fid in v)

    def test_restriction_equals_single_extractor(self):
        rng = random.Random(23)
        all_classes = list(FeatureClass)
        for i in range(30):
            length = rng.randrange(1, 8)
            tokens = [rng.choice(["in", "boston", "safe", "i'm", "!", "there", "is"]) for _ in range(length)]
            ark = [rng.choice(["N", "A", "!", "P", "D", "L", "R", "V"]) for _ in range(length)]
            ptb = [rng.choice(["NN", "JJ", "IN", "EX", "VBZ", "DT"]) for _ in range(length)]
            chunks = [rng.choice(["B-NP", "I-NP", "B-VP", "B-PP", "O"]) for _ in range(length)]
            tweet = tweet_of(tokens, ark=ark, ptb=ptb, chunks=chunks, tweet_id=f"r{i}")
            full = vectorize(tweet, all_classes)
            for cls in all_classes:
                restricted = {fid: c for fid, c in full.items() if split_feature(fid)[0] is cls}
                assert restricted == vectorize(tweet, [cls])

    def test_no_cross_class_collisions(self):
        tweet = tweet_of(["n"], ark=["N"], ptb=["N"], chunks=["B-N"])
        v = vectorize(tweet, [FeatureClass.ARK_POS, FeatureClass.PTB_POS])
        ark_key = "ARK_POS:N"
        ptb_key = "PTB_POS:N"
        assert v[ark_key] == 1 and v[ptb_key] == 1

    def test_tokenless_tweet_with_every_layer_vectorizes_to_empty(self):
        tweet = tweet_of([], ark=[], ptb=[], chunks=[])
        assert missing_classes(tweet, list(FeatureClass)) == []
        for cls in FeatureClass:
            assert vectorize(tweet, [cls]) == {}
        assert vectorize(tweet, list(FeatureClass)) == {}

    def test_missing_classes_helper(self):
        tweet = tweet_of(["a"], ark=["N"])
        assert missing_classes(tweet, list(FeatureClass)) == [
            FeatureClass.PTB_POS,
            FeatureClass.SHALLOW_PARSE,
        ]


class TestFeatureIdSerialization:
    def test_round_trip(self):
        fid = "CRISIS_SENSITIVE:PP:in:boston"
        cls, key = split_feature(fid)
        assert (cls, key) == (FeatureClass.CRISIS_SENSITIVE, "PP:in:boston")
        assert f"{cls.value}:{key}" == fid

    def test_key_with_colons_and_spaces(self):
        fid = "CRISIS_SENSITIVE:WT:in/P the/D city/N"
        cls, key = split_feature(fid)
        assert (cls, key) == (FeatureClass.CRISIS_SENSITIVE, "WT:in/P the/D city/N")
        assert f"{cls.value}:{key}" == fid


_WORDS = ["in", "there", "the", "a", "city", "boston", "is", "safe", "!", "i'm", "x y", "w/N"]
_FREQUENT_ARK = ["N", "A", "!", "R", "L", "P", "D", "V"]
_PTB = ["EX", "VBZ", "VB", "NN", "IN", "DT", ""]
_CHUNK = ["O", "B-NP", "I-NP", "B-PP", "I-PP", "B-VP", "I-VP", "I-", ""]


@st.composite
def tagged_tweets(draw):
    """Fully ARK-tagged tweets, with and without PTB and chunk layers, empty
    ones included, biased towards the tags and words the crisis patterns use."""
    n = draw(st.integers(min_value=0, max_value=12))
    word = st.one_of(st.sampled_from(_WORDS), st.text(alphabet="ab", min_size=1, max_size=2))
    ark_tag = st.one_of(st.sampled_from(_FREQUENT_ARK), st.sampled_from(sorted(ARK_TAGS)))
    words = draw(st.lists(word, min_size=n, max_size=n))
    ark = draw(st.lists(ark_tag, min_size=n, max_size=n))
    ptb = draw(st.none() | st.lists(st.sampled_from(_PTB), min_size=n, max_size=n))
    chunk = draw(st.none() | st.lists(st.sampled_from(_CHUNK), min_size=n, max_size=n))
    return tweet_of(words, ark=ark, ptb=ptb, chunks=chunk)


# Any strings as words and tags: pattern tags, tags of more than one
# character, and characters that format strings and ids treat specially.
_ANY_TEXT = st.text(alphabet="NAP!DLRV%s/ {}:-", min_size=0, max_size=3)


@st.composite
def randomly_layered_tweets(draw):
    """Tweets with random ARK, PTB and chunk layers, each present or not."""
    n = draw(st.integers(min_value=0, max_value=10))

    def column(elements):
        return st.lists(elements, min_size=n, max_size=n)

    words = draw(column(st.sampled_from(["in", "there"]) | _ANY_TEXT))
    ark = draw(column(st.sampled_from(_FREQUENT_ARK) | _ANY_TEXT))
    ptb = draw(st.none() | column(st.sampled_from(["EX", "VB", "V"]) | _ANY_TEXT))
    chunk = draw(st.none() | column(st.sampled_from(_CHUNK) | _ANY_TEXT))
    return tweet_of(words, ark=ark, ptb=ptb, chunks=chunk)


class TestReferenceEquality:
    """Every extractor yields the ids, counts and insertion order of the
    reference extractors in oracles.py; predict_nb sums in that order."""

    @settings(max_examples=300, deadline=None)
    @given(tweet=tagged_tweets())
    def test_each_class_matches_reference_in_order(self, tweet):
        for cls in FeatureClass:
            if missing_classes(tweet, [cls]):
                with pytest.raises(MissingLayerError):
                    vectorize(tweet, [cls])
                continue
            assert list(vectorize(tweet, [cls]).items()) == list(
                reference_vector(tweet, cls.value).items()
            )

    @settings(max_examples=100, deadline=None)
    @given(tweet=tagged_tweets(), classes=st.permutations(list(FeatureClass)))
    def test_union_matches_references_in_class_order(self, tweet, classes):
        expected: dict[str, int] = {}
        for cls in classes:
            if not missing_classes(tweet, [cls]):
                expected.update(reference_vector(tweet, cls.value))
        got = vectorize(tweet, present_only(tweet, classes))
        assert list(got.items()) == list(expected.items())

    @settings(max_examples=300, deadline=None)
    @given(tweet=randomly_layered_tweets())
    def test_crisis_matches_reference_in_order_on_random_layers(self, tweet):
        assert list(extract_crisis_sensitive(tweet).items()) == list(
            reference_vector(tweet, "CRISIS_SENSITIVE").items()
        )

    @pytest.mark.parametrize(
        "words, ark, chunks",
        [
            (["in", "the", "city"], ["P", "D", "N"], ["B-NP", "I-NP", "I-NP"]),
            (["in", "boston"], ["P", "N"], ["B-VP", "B-NP"]),
            (["in", "boston"], ["P", "N"], ["B-PP", "I-PP"]),
            (["in", "the", "city"], ["P", "D", "N"], ["B-PP", "O", "O"]),
            (
                ["the", "city", "in", "boston"],
                ["D", "N", "P", "N"],
                ["B-NP", "I-NP", "B-PP", "I-PP"],
            ),
        ],
        ids=["in-np-chunk", "in-vp-chunk", "pp-is-last", "pp-then-outside", "np-then-last-pp"],
    )
    def test_in_outside_a_pp_before_an_np_has_no_pp_id(self, words, ark, chunks):
        tweet = tweet_of(words, ark=ark, chunks=chunks)
        got = extract_crisis_sensitive(tweet)
        assert list(got.items()) == list(reference_vector(tweet, "CRISIS_SENSITIVE").items())
        assert not any(key.startswith("PP:") for key in keys(got))

    def test_crisis_ids_keep_pattern_order(self):
        # "safe" matches A first, then A N P; pattern order puts N before A.
        tweet = tweet_of(["safe", "city", "in"], ark=["A", "N", "P"])
        ids = list(extract_crisis_sensitive(tweet))
        assert ids == list(reference_vector(tweet, "CRISIS_SENSITIVE"))
        assert [split_feature(fid)[1] for fid in ids[:4]] == [
            "PAT:N", "WT:city/N", "PAT:A", "WT:safe/A"
        ]
