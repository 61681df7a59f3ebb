"""Seeded synthetic corpora and run configs for the benchmark workloads.

The program under test only ever sees the files written here: one JSONL
corpus and one JSON config per workload. Everything is drawn from a
`random.Random(seed)`, so a seed names its inputs exactly.

A corpus has
- a Zipfian vocabulary of invented words per part of speech, with a block of
  in-region-leaning and a block of out-of-region-leaning words;
- clause templates that hit the crisis-sensitive patterns ("in the <noun>",
  "there is ...", "i'm <adjective> !", "<noun> here", ...);
- optionally aligned ARK, PTB and IOB chunk layers for every record;
- geotagged records in five city discs and elsewhere, placed inside the
  crisis window, the pre-crisis window, and the divergence day's hours;
- a known number of malformed lines, duplicate ids and blank lines.

The returned manifest holds the true partition counts, so the benchmark can
check the program's partition against them.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

UTC = timezone.utc
CRISIS_START = datetime(2013, 4, 15, 18, 48, tzinfo=UTC)
CRISIS_END = datetime(2013, 4, 16, 4, 0, tzinfo=UTC)
PRE_START = datetime(2013, 4, 9, 14, 0, tzinfo=UTC)
PRE_END = datetime(2013, 4, 9, 18, 48, tzinfo=UTC)
# Divergence day 2013-04-15, local hours 10..19 at UTC-4, is 14:00..23:59 UTC;
# its hours before the crisis start belong to no partition window.
DAY_START = datetime(2013, 4, 15, 14, 0, tzinfo=UTC)
UNASSIGNED_START = datetime(2013, 4, 12, 12, 0, tzinfo=UTC)
UNASSIGNED_END = datetime(2013, 4, 12, 20, 0, tzinfo=UTC)

REGIONS = {
    "boston": (42.35, -71.08, 19.0),
    "nyc": (40.75, -73.99, 20.0),
    "chicago": (41.88, -87.63, 20.0),
    "la": (34.05, -118.24, 20.0),
    "miami": (25.77, -80.19, 20.0),
}
OTHER_CITIES = ("nyc", "chicago", "la", "miami")

CONSONANTS = "bdfgkmnprstvz"
VOWELS = "aeiou"
# Endings the fallback tagger reads as a part of speech; nouns avoid them so
# that every invented noun tags as N.
_TAGGER_SUFFIXES = (
    "ly", "ing", "ed", "ous", "ful", "ive", "able", "ible", "less", "ish", "al", "ic",
)
DETERMINERS = ("the", "a", "my", "this", "our")
PREPOSITIONS = ("on", "at", "near", "from", "with", "for")
CONTRACTIONS = ("i'm", "we're", "it's", "they're")
BE_VERBS = ("is", "are", "was")
PUNCT = ("!", ".", ",")

# Chance that a word slot of a leaning record draws from its leaning block.
LEAN_P = 0.35
# Share of unlabeled records written in in-region language.
UNLABELED_IR_SHARE = 0.2

MALFORMED_KINDS = (
    lambda i: '{"id": "bad%d", "text": "cut off' % i,
    lambda i: json.dumps({"id": f"bad{i}", "created_at": "2013-04-15T20:00:00Z"}),
    lambda i: json.dumps({"id": f"bad{i}", "text": "late", "created_at": "yesterday"}),
    lambda i: json.dumps(
        {"id": f"bad{i}", "text": "far", "created_at": "2013-04-15T20:00:00Z",
         "geo": {"lat": 123.0, "lon": 0.0}}
    ),
    lambda i: "[1, 2, 3]",
    lambda i: json.dumps(
        {"id": f"bad{i}", "text": "odd tags", "created_at": "2013-04-15T20:00:00Z",
         "ark_tags": "N N"}
    ),
)


@dataclass(frozen=True)
class CorpusSpec:
    """Record counts and vocabulary shape of one workload's corpus."""

    ir: int
    or_: int
    pc_ir: int
    pc_or: int
    unassigned: int
    unlabeled: int
    malformed: int
    duplicates: int
    blank: int
    nouns: int
    verbs: int
    adjs: int
    advs: int
    leaning: int
    with_tags: bool
    # Boston records on the divergence day before the crisis (unassigned).
    day_before_crisis: int = 0


class Vocabulary:
    """Invented words per part of speech, each drawn from a Zipf law."""

    def __init__(self, rng: random.Random, spec: CorpusSpec):
        used: set[str] = set()

        def words(n: int, suffixes: tuple[str, ...]) -> list[str]:
            out = []
            while len(out) < n:
                stem = "".join(
                    rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(rng.randint(2, 3))
                )
                word = stem + rng.choice(suffixes) if suffixes else stem
                if word in used or (not suffixes and word.endswith(_TAGGER_SUFFIXES)):
                    continue
                used.add(word)
                out.append(word)
            return out

        self.pools = {
            "noun": words(spec.nouns, ()),
            "verb": words(spec.verbs, ("ed", "ing")),
            "adj": words(spec.adjs, ("ous", "ful")),
            "adv": words(spec.advs, ("ly",)),
        }
        self.cum = {pos: _zipf_cum(len(pool)) for pos, pool in self.pools.items()}
        # Leaning blocks come from the middle ranks, so they are neither the
        # commonest words nor hapaxes.
        nouns, adjs = self.pools["noun"], self.pools["adj"]
        n, a = spec.leaning, max(1, spec.leaning // 4)
        mid_n, mid_a = len(nouns) // 10, len(adjs) // 10
        self.leaning = {
            "IR": {"noun": nouns[mid_n : mid_n + n], "adj": adjs[mid_a : mid_a + a]},
            "OR": {
                "noun": nouns[mid_n + n : mid_n + 2 * n],
                "adj": adjs[mid_a + a : mid_a + 2 * a],
            },
        }

    def draw(self, rng: random.Random, pos: str, lean: str | None) -> str:
        """A word of one part of speech, from the lean's block with LEAN_P."""
        block = self.leaning[lean].get(pos) if lean is not None else None
        if block and rng.random() < LEAN_P:
            return rng.choice(block)
        return rng.choices(self.pools[pos], cum_weights=self.cum[pos])[0]


def _zipf_cum(n: int, s: float = 1.1) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank ** s) for rank in range(1, n + 1)))


Token = tuple[str, str, str, str]  # surface, ARK, PTB, chunk


def _noun_phrase(rng, vocab, lean) -> list[Token]:
    out: list[Token] = []
    if rng.random() < 0.7:
        out.append((rng.choice(DETERMINERS), "D", "DT", "B-NP"))
    if rng.random() < 0.4:
        out.append((vocab.draw(rng, "adj", lean), "A", "JJ", "I-NP" if out else "B-NP"))
    out.append((vocab.draw(rng, "noun", lean), "N", "NN", "I-NP" if out else "B-NP"))
    return out


def _clause(rng, vocab, lean) -> list[Token]:
    kind = rng.randrange(7)
    if kind == 0:  # NP VP
        subject = _noun_phrase(rng, vocab, lean)
        return subject + [(vocab.draw(rng, "verb", lean), "V", "VBD", "B-VP")]
    if kind == 1:  # existential: there is NP
        return [
            ("there", "R", "EX", "B-NP"), (rng.choice(BE_VERBS), "V", "VBZ", "B-VP"),
        ] + _noun_phrase(rng, vocab, lean)
    if kind == 2:  # in the <noun>
        return [("in", "P", "IN", "B-PP")] + _noun_phrase(rng, vocab, lean)
    if kind == 3:  # i'm <adj> !
        return [
            (rng.choice(CONTRACTIONS), "L", "PRP", "B-NP"),
            (vocab.draw(rng, "adj", lean), "A", "JJ", "B-ADJP"),
            ("!", "!", ".", "O"),
        ]
    if kind == 4:  # <noun> <adverb>
        return [
            (vocab.draw(rng, "noun", lean), "N", "NN", "B-NP"),
            (vocab.draw(rng, "adv", lean), "R", "RB", "B-ADVP"),
        ]
    if kind == 5:  # <adj> <noun> <prep> NP
        return [
            (vocab.draw(rng, "adj", lean), "A", "JJ", "B-NP"),
            (vocab.draw(rng, "noun", lean), "N", "NN", "I-NP"),
            (rng.choice(PREPOSITIONS), "P", "IN", "B-PP"),
        ] + _noun_phrase(rng, vocab, lean)
    # VP with an object
    return [(vocab.draw(rng, "verb", lean), "V", "VBD", "B-VP")] + _noun_phrase(rng, vocab, lean)


def _tweet_tokens(rng, vocab, lean) -> list[Token]:
    tokens: list[Token] = []
    for _ in range(rng.randint(2, 3)):
        tokens.extend(_clause(rng, vocab, lean))
        if rng.random() < 0.3:
            tokens.append((rng.choice(PUNCT), ",", ".", "O"))
    if rng.random() < 0.15:
        tokens.append(("#" + vocab.draw(rng, "noun", lean), "#", "NN", "O"))
    if rng.random() < 0.1:
        tokens.append((f"@user{rng.randrange(500)}", "@", "NNP", "O"))
    return tokens


def _point_in_disc(rng, lat, lon, radius_km) -> dict:
    # Inside 80% of the radius, so the disc edge is never in question.
    d = radius_km * 0.8 * math.sqrt(rng.random())
    theta = rng.random() * 2.0 * math.pi
    dlat = d * math.cos(theta) / 111.0
    dlon = d * math.sin(theta) / (111.0 * math.cos(math.radians(lat)))
    return {"lat": round(lat + dlat, 5), "lon": round(lon + dlon, 5)}


def _point_elsewhere(rng) -> dict:
    # Continental US, at least 60 km from every configured city.
    while True:
        lat, lon = rng.uniform(30.0, 47.0), rng.uniform(-120.0, -75.0)
        if all(
            math.hypot(lat - c_lat, (lon - c_lon) * math.cos(math.radians(lat))) * 111.0 > 60.0
            for c_lat, c_lon, _ in REGIONS.values()
        ):
            return {"lat": round(lat, 5), "lon": round(lon, 5)}


def _stamp(rng, start: datetime, end: datetime) -> str:
    # One minute clear of both window edges.
    span = (end - start).total_seconds() - 120.0
    instant = start + timedelta(seconds=60.0 + rng.random() * span)
    return instant.replace(microsecond=0).isoformat().replace("+00:00", "Z")


def build_corpus(spec: CorpusSpec, seed: int) -> tuple[list[str], dict]:
    """JSONL lines and the manifest of true counts for one seed."""
    rng = random.Random(seed)
    vocab = Vocabulary(rng, spec)
    records: list[dict] = []
    counter = itertools.count()

    def add(lean: str | None, geo: dict | None, created: str) -> None:
        tokens = _tweet_tokens(rng, vocab, lean)
        doc: dict = {
            "id": str(next(counter)),
            "text": " ".join(t[0] for t in tokens),
            "created_at": created,
        }
        if geo is not None:
            doc["geo"] = geo
        if spec.with_tags:
            doc["ark_tags"] = [t[1] for t in tokens]
            doc["ptb_tags"] = [t[2] for t in tokens]
            doc["chunk_tags"] = [t[3] for t in tokens]
        records.append(doc)

    boston = REGIONS["boston"]
    for _ in range(spec.ir):
        add("IR", _point_in_disc(rng, *boston), _stamp(rng, CRISIS_START, CRISIS_END))
    for i in range(spec.or_):
        if i % 5 == 4:
            geo = _point_elsewhere(rng)
        else:
            geo = _point_in_disc(rng, *REGIONS[OTHER_CITIES[i % 5]])
        add("OR", geo, _stamp(rng, CRISIS_START, CRISIS_END))
    for _ in range(spec.pc_ir):
        add(None, _point_in_disc(rng, *boston), _stamp(rng, PRE_START, PRE_END))
    for _ in range(spec.pc_or):
        add(None, _point_elsewhere(rng), _stamp(rng, PRE_START, PRE_END))
    for _ in range(spec.unassigned):
        add(None, _point_elsewhere(rng), _stamp(rng, UNASSIGNED_START, UNASSIGNED_END))
    for _ in range(spec.day_before_crisis):
        add(None, _point_in_disc(rng, *boston), _stamp(rng, DAY_START, CRISIS_START))
    for _ in range(spec.unlabeled):
        lean = "IR" if rng.random() < UNLABELED_IR_SHARE else "OR"
        add(lean, None, _stamp(rng, CRISIS_START, CRISIS_END))
    rng.shuffle(records)

    lines = [json.dumps(doc, sort_keys=True) for doc in records]
    half = len(lines) // 2
    # Each duplicate repeats a record from the first half somewhere in the
    # second half, so the original is always read first.
    for _ in range(spec.duplicates):
        src = lines[rng.randrange(half)]
        lines.insert(rng.randrange(half + 1, len(lines) + 1), src)
    for i in range(spec.malformed):
        lines.insert(rng.randrange(len(lines) + 1), MALFORMED_KINDS[i % len(MALFORMED_KINDS)](i))
    for _ in range(spec.blank):
        lines.insert(rng.randrange(1, len(lines)), "")

    manifest = {
        "IR": spec.ir,
        "OR": spec.or_,
        "PC_IR": spec.pc_ir,
        "PC_OR": spec.pc_or,
        "UNASSIGNED": spec.unassigned + spec.day_before_crisis,
        "unlabeled": spec.unlabeled,
        "skipped": spec.malformed + spec.duplicates,
        "duplicates": spec.duplicates,
        "lines": len(lines) - spec.blank,
    }
    return lines, manifest


def run_config(seed: int, feature_classes: list[str]) -> dict:
    """The crisislang config every workload runs under, paths relative."""
    return {
        "input": "corpus.jsonl",
        "output_dir": "out",
        "seed": seed,
        "timezone_offset_minutes": -240,
        "primary_region": "boston",
        "regions": {
            name: {"lat": lat, "lon": lon, "radius_km": radius}
            for name, (lat, lon, radius) in REGIONS.items()
        },
        "crisis_window": {"start": "2013-04-15T18:48:00Z", "end": "2013-04-16T04:00:00Z"},
        "pre_crisis_window": {"start": "2013-04-09T14:00:00Z", "end": "2013-04-09T18:48:00Z"},
        "feature_classes": feature_classes,
        "model": {"kind": "nb", "alpha": 1.0},
        "cv": {"repeats": 3, "folds": 5},
        "imbalance_ratios": [0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95],
        "balance": True,
        "fallback_tags": True,
        "divergence": {"day": "2013-04-15", "hours": [10, 19], "window": "crisis"},
    }
