import ast
import csv
import errno
import json
import math
import random
import re
import tempfile
from pathlib import Path
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crisislang import ingest
from crisislang.features import FeatureClass
from crisislang.ingest import (
    MAX_REPORTED_ERRORS,
    GeoPoint,
    PartitionLabel,
    RawTweet,
    RecordError,
    Region,
    Skips,
    TimeWindow,
    assign_partition,
    haversine_km,
    iter_corpus,
    iter_jsonl,
    json_value,
    load_corpus,
    parse_tweet_record,
    tweet_to_record,
    write_csv,
    write_json,
    write_jsonl,
)
from crisislang.model import IR, OR, save_model, train_naive_bayes
from oracles import spherical_law_km
from synthdata import JSON_VALUES

BOSTON = GeoPoint(42.35, -71.08)
NYC = GeoPoint(40.75, -73.99)
BOSTON_REGION = Region(BOSTON, 19.0)
CRISIS = TimeWindow(
    datetime(2013, 4, 15, 18, 48, tzinfo=timezone.utc),
    datetime(2013, 4, 16, 4, 0, tzinfo=timezone.utc),
)
PRE_CRISIS = TimeWindow(
    datetime(2013, 4, 9, 14, 0, tzinfo=timezone.utc),
    datetime(2013, 4, 9, 18, 48, tzinfo=timezone.utc),
)

VALID_RECORD = {
    "id": "1",
    "text": "in boston",
    "created_at": "2013-04-15T19:30:00Z",
    "geo": {"lat": 42.35, "lon": -71.08},
    "ark_tags": ["P", "^"],
    "ptb_tags": ["IN", "NNP"],
    "chunk_tags": ["B-PP", "B-NP"],
}
NOT_UTF8_RECORD = b'{"id": "e", "text": "caf\xe9", "created_at": "2013-04-15T19:30:00Z"}'


class TestParseTweetRecord:
    def test_geotagged_record(self):
        line = json.dumps(
            {
                "id": "1",
                "text": "in boston",
                "created_at": "2013-04-15T19:30:00Z",
                "geo": {"lat": 42.35, "lon": -71.08},
            }
        )
        tweet = parse_tweet_record(line)
        assert tweet.id == "1"
        assert tweet.geo == GeoPoint(42.35, -71.08)
        assert tweet.created_at == datetime(2013, 4, 15, 19, 30, tzinfo=timezone.utc)

    def test_geo_optional(self):
        tweet = parse_tweet_record(
            '{"id":"2","text":"storm warning","created_at":"2012-10-30T01:00:00Z"}'
        )
        assert tweet.geo is None

    def test_latitude_out_of_range(self):
        line = json.dumps(
            {"id": "3", "text": "x", "created_at": "2013-04-15T19:30:00Z",
             "geo": {"lat": 95.0, "lon": 0.0}}
        )
        with pytest.raises(RecordError, match="latitude"):
            parse_tweet_record(line)

    def test_malformed_json(self):
        with pytest.raises(RecordError, match="malformed"):
            parse_tweet_record("{not json")

    @pytest.mark.parametrize("missing", ["id", "text", "created_at"])
    def test_missing_required_field(self, missing):
        doc = {"id": "1", "text": "x", "created_at": "2013-04-15T19:30:00Z"}
        del doc[missing]
        with pytest.raises(RecordError, match=missing):
            parse_tweet_record(json.dumps(doc))

    def test_unknown_fields_ignored(self):
        tweet = parse_tweet_record(
            '{"id":"1","text":"x","created_at":"2013-04-15T19:30:00Z","lang":"en"}'
        )
        assert tweet.text == "x"

    def test_tag_layer_parsed_not_validated(self):
        # Length mismatch is deferred to tag attachment.
        tweet = parse_tweet_record(
            '{"id":"1","text":"a b c","created_at":"2013-04-15T19:30:00Z","ark_tags":["N"]}'
        )
        assert tweet.ark_tags == ("N",)

    def test_offset_timestamp_normalized_to_utc(self):
        tweet = parse_tweet_record(
            '{"id":"1","text":"x","created_at":"2013-04-15T15:30:00-04:00"}'
        )
        assert tweet.created_at == datetime(2013, 4, 15, 19, 30, tzinfo=timezone.utc)

    def test_timestamp_without_offset_is_read_as_utc(self):
        tweet = parse_tweet_record('{"id":"1","text":"x","created_at":"2013-04-15T19:30:00"}')
        assert tweet.created_at == datetime(2013, 4, 15, 19, 30, tzinfo=timezone.utc)
        assert tweet.created_at.tzinfo is timezone.utc

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("created_at", "9999-12-31T23:59:59-05:00", "timestamp out of range"),
            ("created_at", "0001-01-01T00:00:00+05:00", "timestamp out of range"),
            ("geo", {"lat": 10**400, "lon": 0}, "geo lat/lon out of range"),
            ("geo", {"lat": True, "lon": False}, "geo lat/lon must be numbers"),
            ("id", True, "id must be"),
        ],
        ids=["late-timestamp", "early-timestamp", "huge-lat", "boolean-geo", "boolean-id"],
    )
    def test_out_of_range_or_boolean_value_is_record_error(self, field, value, message):
        doc = dict(VALID_RECORD, **{field: value})
        with pytest.raises(RecordError, match=message):
            parse_tweet_record(json.dumps(doc))

    def test_integer_too_long_to_convert_is_record_error(self):
        line = '{"id": ' + "9" * 5000 + ', "text": "x", "created_at": "2013-04-15T19:30:00Z"}'
        with pytest.raises(RecordError, match="malformed JSON"):
            parse_tweet_record(line)


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from([*VALID_RECORD, "geo.lat", "geo.lon"]),
    value=JSON_VALUES,
)
@example(field="created_at", value="9999-12-31T23:59:59-05:00")
@example(field="created_at", value="0001-01-01T00:00:00+05:00")
@example(field="geo.lat", value=10**400)
@example(field="geo", value={"lat": True, "lon": False})
@example(field="id", value=True)
def test_any_json_value_in_any_field_parses_or_is_record_error(field, value):
    doc = json.loads(json.dumps(VALID_RECORD))
    if field.startswith("geo."):
        doc["geo"][field[4:]] = value
    else:
        doc[field] = value
    try:
        tweet = parse_tweet_record(json.dumps(doc))
    except RecordError:
        return
    assert isinstance(tweet.id, str) and tweet.id
    assert tweet.created_at.tzinfo is not None


class TestHaversine:
    def test_identical_points_exactly_zero(self):
        assert haversine_km(BOSTON, BOSTON) == 0.0

    def test_boston_to_nyc(self):
        # Frozen from the spherical-law oracle (mpmath cross-check: 300.4575).
        d = haversine_km(BOSTON, NYC)
        assert abs(d - 300.46) <= 1.0
        assert abs(d - spherical_law_km(42.35, -71.08, 40.75, -73.99)) <= 1.0

    def test_half_circumference(self):
        import math

        d = haversine_km(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
        assert abs(d - math.pi * 6371.0) <= 1.0

    def test_symmetric_and_nonnegative(self):
        rng = random.Random(7)
        for _ in range(50):
            a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert haversine_km(a, b) == haversine_km(b, a)
            assert haversine_km(a, b) >= 0.0

    def test_against_spherical_law_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            oracle = spherical_law_km(a.lat, a.lon, b.lat, b.lon)
            assert abs(haversine_km(a, b) - oracle) <= 1.0


def _tweet(geo, created_at):
    from crisislang.ingest import RawTweet

    return RawTweet(id="t", text="x", created_at=created_at, geo=geo)


class TestAssignPartition:
    def test_epicenter_during_crisis_is_ir(self):
        # 15:30 Eastern on April 15 is 19:30 UTC, inside the crisis window.
        ts = datetime(2013, 4, 15, 19, 30, tzinfo=timezone.utc)
        assert assign_partition(_tweet(BOSTON, ts), BOSTON_REGION, CRISIS, PRE_CRISIS) is PartitionLabel.IR

    def test_epicenter_pre_crisis_is_pc_ir(self):
        # Noon Eastern on April 9 is 16:00 UTC, inside the pre-crisis window.
        ts = datetime(2013, 4, 9, 16, 0, tzinfo=timezone.utc)
        assert assign_partition(_tweet(BOSTON, ts), BOSTON_REGION, CRISIS, PRE_CRISIS) is PartitionLabel.PC_IR

    def test_distant_point_during_crisis_is_or(self):
        ts = datetime(2013, 4, 15, 19, 30, tzinfo=timezone.utc)
        assert haversine_km(BOSTON, NYC) > BOSTON_REGION.radius_km
        assert assign_partition(_tweet(NYC, ts), BOSTON_REGION, CRISIS, PRE_CRISIS) is PartitionLabel.OR

    def test_outside_all_windows_is_unassigned(self):
        ts = datetime(2013, 4, 1, 0, 0, tzinfo=timezone.utc)
        assert assign_partition(_tweet(BOSTON, ts), BOSTON_REGION, CRISIS, PRE_CRISIS) is PartitionLabel.UNASSIGNED

    def test_boundary_distance_is_inside(self):
        # A disc whose radius equals the Boston-NYC distance: NYC is IR.
        distance = haversine_km(BOSTON, NYC)
        region = Region(BOSTON, distance)
        ts = datetime(2013, 4, 15, 19, 30, tzinfo=timezone.utc)
        assert assign_partition(_tweet(NYC, ts), region, CRISIS) is PartitionLabel.IR

    def test_missing_geo_is_unlabeled(self):
        ts = datetime(2013, 4, 15, 19, 30, tzinfo=timezone.utc)
        assert assign_partition(_tweet(None, ts), BOSTON_REGION, CRISIS) is PartitionLabel.UNLABELED

    def test_window_half_open(self):
        assert CRISIS.contains(CRISIS.start)
        assert not CRISIS.contains(CRISIS.end)


def _partition_files(root):
    """A path under root for each partition label."""
    return {label: root / f"{label.value}.jsonl" for label in PartitionLabel}


def _load(path, pre_crisis=None):
    """load_corpus(path), its partition files beside path in <stem>-parts/."""
    files = _partition_files(path.parent / f"{path.stem}-parts")
    return load_corpus(path, BOSTON_REGION, CRISIS, pre_crisis, files=files)


def _ids(path):
    return [json.loads(line)["id"] for line in path.read_text(encoding="utf-8").splitlines()]


class TestLoadCorpus:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_three_record_fixture(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "text": "x", "created_at": "2013-04-15T19:30:00Z",
                        "geo": {"lat": 42.35, "lon": -71.08}}),
            json.dumps({"id": "b", "text": "y", "created_at": "2013-04-15T19:30:00Z",
                        "geo": {"lat": 40.75, "lon": -73.99}}),
            json.dumps({"id": "c", "text": "z", "created_at": "2013-04-15T19:30:00Z"}),
        ]
        path = tmp_path / "corpus.jsonl"
        self._write(path, lines)
        corpus = _load(path, PRE_CRISIS)
        counts = corpus.counts()
        assert counts["IR"] == 1
        assert counts["OR"] == 1
        assert counts["unlabeled"] == 1
        assert counts["skipped"] == 0
        files = _partition_files(tmp_path / "corpus-parts")
        assert {label: _ids(f) for label, f in files.items()} == {
            PartitionLabel.IR: ["a"], PartitionLabel.OR: ["b"], PartitionLabel.PC_IR: [],
            PartitionLabel.PC_OR: [], PartitionLabel.UNASSIGNED: [], PartitionLabel.UNLABELED: ["c"],
        }

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        corpus = _load(path)
        assert all(v == 0 for v in corpus.counts().values())
        assert corpus.imbalance_ratio() is None
        files = _partition_files(tmp_path / "empty-parts").values()
        assert [f.read_bytes() for f in files] == [b""] * 6

    def test_duplicates_rejected_and_counted(self, tmp_path):
        record = json.dumps({"id": "a", "text": "x", "created_at": "2013-04-15T19:30:00Z"})
        path = tmp_path / "dup.jsonl"
        self._write(path, [record, record, record])
        corpus = _load(path)
        assert corpus.duplicates == 2
        assert corpus.skips.count == 2
        assert corpus.counts()["unlabeled"] == 1
        assert _ids(_partition_files(tmp_path / "dup-parts")[PartitionLabel.UNLABELED]) == ["a"]

    def test_malformed_records_skipped_not_fatal(self, tmp_path):
        lines = [
            "not json at all",
            json.dumps({"id": "a", "text": "x", "created_at": "2013-04-15T19:30:00Z"}),
            json.dumps({"id": "b", "text": "", "created_at": "2013-04-15T19:30:00Z"}),
        ]
        path = tmp_path / "dirty.jsonl"
        self._write(path, lines)
        corpus = _load(path)
        assert corpus.skips.count == 2
        assert len(corpus.skips.reasons) == 2
        assert corpus.counts()["lines"] == 3

    def test_counts_sum_to_line_count(self, tmp_path):
        rng = random.Random(3)
        lines = []
        for i in range(200):
            kind = rng.random()
            if kind < 0.1:
                lines.append("garbage")
                continue
            doc = {"id": f"t{i}", "text": "hello world",
                   "created_at": "2013-04-15T19:30:00Z" if kind < 0.8 else "2013-04-01T00:00:00Z"}
            if kind < 0.6:
                doc["geo"] = {"lat": rng.uniform(40, 44), "lon": rng.uniform(-74, -70)}
            lines.append(json.dumps(doc))
        path = tmp_path / "mix.jsonl"
        self._write(path, lines)
        corpus = _load(path, PRE_CRISIS)
        counts = corpus.counts()
        total = sum(counts[label.value] for label in PartitionLabel)
        assert total + counts["skipped"] == counts["lines"] == 200

    def test_order_independence(self, tmp_path):
        lines = [
            json.dumps({"id": f"t{i}", "text": "x", "created_at": "2013-04-15T19:30:00Z",
                        "geo": {"lat": 42.35, "lon": -71.08}})
            for i in range(10)
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write(a, lines)
        self._write(b, list(reversed(lines)))
        ca = _load(a)
        cb = _load(b)
        assert ca.counts() == cb.counts()

    def test_jsonl_round_trip(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "text": "in boston", "created_at": "2013-04-15T19:30:00Z",
                        "geo": {"lat": 42.35, "lon": -71.08}, "ark_tags": ["P", "N"]}),
        ]
        src = tmp_path / "src.jsonl"
        self._write(src, lines)
        tweets = [tweet for _, tweet in iter_jsonl(src, Skips())]
        dst = tmp_path / "dst.jsonl"
        write_jsonl([dst], ((dst, tweet_to_record(tweet)) for tweet in tweets))
        assert [tweet for _, tweet in iter_jsonl(dst, Skips())] == tweets

    def _records(self, *ids):
        return [
            json.dumps({"id": i, "text": "x", "created_at": "2013-04-15T19:30:00Z"}).encode()
            for i in ids
        ]

    def test_crlf_file_reads_as_its_lf_twin(self, tmp_path):
        lines = self._records("a", "b", "c")
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        lf.write_bytes(b"".join(line + b"\n" for line in lines))
        crlf.write_bytes(b"".join(line + b"\r\n" for line in lines))
        lf_skips, crlf_skips = Skips(), Skips()
        assert list(iter_jsonl(crlf, crlf_skips)) == list(iter_jsonl(lf, lf_skips))
        assert crlf_skips == lf_skips == Skips()
        assert _load(crlf).counts()["unlabeled"] == 3

    def test_lone_cr_does_not_end_a_line(self, tmp_path):
        a, b, c = self._records("a", "b", "c")
        path = tmp_path / "cr.jsonl"
        path.write_bytes(a + b"\n" + b + b"\r" + c + b"\n")
        skips = Skips()
        assert [(n, t.id) for n, t in iter_jsonl(path, skips)] == [(1, "a")]
        assert (skips.count, skips.reasons) == (1, ["line 2: malformed JSON: Extra data"])

    def test_non_utf8_line_is_one_skip(self, tmp_path):
        a, c = self._records("a", "c")
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(a + b"\n" + NOT_UTF8_RECORD + b"\n" + c + b"\n")
        skips = Skips()
        assert [(n, t.id) for n, t in iter_jsonl(path, skips)] == [(1, "a"), (3, "c")]
        at = NOT_UTF8_RECORD.index(b"\xe9")
        assert skips.reasons == [f"line 2: not UTF-8 (invalid continuation byte at byte {at})"]
        assert skips.count == 1

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b""], ids=["lf", "crlf", "none"])
    def test_not_utf8_reason_does_not_depend_on_the_line_ending(self, tmp_path, ending):
        """A character cut short at the end of a line reads the same whether
        the line ends in LF, in CRLF or, as a file's last line, in nothing."""
        path = tmp_path / "cut.jsonl"
        path.write_bytes(self._records("a")[0] + b"\n" + b'{"id": "\xc2' + ending)
        skips = Skips()
        assert [t.id for _, t in iter_jsonl(path, skips)] == ["a"]
        assert skips.reasons == ["line 2: not UTF-8 (unexpected end of data at byte 8)"]
        with pytest.raises(ValueError, match=r"^not UTF-8 \(unexpected end of data at byte 0\)$"):
            json_value(b"\xc2" + ending)


# One corpus line, as bytes without b"\n": a valid record (its id drawn from a
# pool small enough to repeat; 7 and "7" are the same id), a malformed line,
# any bytes at all, or a blank one.
RECORD_LINES = st.builds(
    lambda tweet_id, text, created_at, geo: json.dumps(
        {"id": tweet_id, "text": text, "created_at": created_at,
         **({"geo": geo} if geo is not None else {})}
    ).encode(),
    st.sampled_from(["a", "b", "c", 7, "7"]),
    st.sampled_from(["x", "safe in boston", "hello world"]),
    st.sampled_from(["2013-04-15T19:30:00Z", "2013-04-09T15:00:00Z", "2013-04-01T00:00:00Z"]),
    st.sampled_from([None, {"lat": 42.35, "lon": -71.08}, {"lat": 40.75, "lon": -73.99}]),
)
MALFORMED_LINES = st.sampled_from([
    b"not json",
    b"[1, 2]",
    b'{"id": "a", "created_at": "2013-04-15T19:30:00Z"}',
    b'{"id": true, "text": "x", "created_at": "2013-04-15T19:30:00Z"}',
    b'{"id": "b", "text": "x", "created_at": "2013-04-15T19:30:00Z", "geo": {"lat": 91, "lon": 0}}',
    b"[" * 200_000,
    NOT_UTF8_RECORD,
    "\u00a0".encode(),  # not ASCII whitespace, so not blank
])
CORPUS_LINES = st.lists(
    st.one_of(
        RECORD_LINES,
        MALFORMED_LINES,
        st.binary().map(lambda line: line.replace(b"\n", b"")),
        st.sampled_from([b"", b"   ", b"\t", b"\r"]),
    ),
    max_size=MAX_REPORTED_ERRORS,
)


@settings(max_examples=200, deadline=None)
@given(lines=CORPUS_LINES)
def test_corpus_record_rule(lines):
    valid, malformed, blank = [], [], []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            blank.append(number)
            continue
        try:  # each line as the reader hands it over, ending included
            valid.append((number, parse_tweet_record(line + b"\n")))
        except RecordError as exc:
            malformed.append((number, f"line {number}: {exc}"))
    firsts: dict[str, RawTweet] = {}
    for _, tweet in valid:
        firsts.setdefault(tweet.id, tweet)
    repeats = [(n, t.id) for n, t in valid if firsts[t.id] is not t]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        corpus = _load(path, PRE_CRISIS)
        skips = Skips()
        read = list(iter_corpus(path, skips))
        files = _partition_files(Path(tmp) / "corpus-parts")
        written = {label: f.read_text(encoding="utf-8").splitlines() for label, f in files.items()}

    counts = corpus.counts()
    partitioned = sum(counts[label.value] for label in PartitionLabel)
    assert partitioned + counts["skipped"] == len(lines) - len(blank)
    assert counts["duplicates"] == corpus.duplicates == len(valid) - len(firsts)
    assert counts["lines"] == len(lines) - len(blank)
    assert read == list(firsts.values())
    routed = {label: [] for label in files}  # each file holds its records in input order
    for tweet in read:
        label = assign_partition(tweet, BOSTON_REGION, CRISIS, PRE_CRISIS)
        routed[label].append(json.dumps(tweet_to_record(tweet), sort_keys=True))
    assert written == routed
    assert (skips.count, skips.duplicates) == (len(malformed) + len(repeats), len(repeats))
    duplicates = [(n, f"line {n}: duplicate id {tweet_id}") for n, tweet_id in repeats]
    assert skips.reasons == [reason for _, reason in sorted(malformed + duplicates)]
    assert corpus.skips == skips


def _json_loads_in(node) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr == "loads" and getattr(n.value, "id", "") == "json"
        for n in ast.walk(node)
    )


def test_json_is_decoded_only_in_ingest():
    """One function turns bytes into JSON (ingest.json_value), and every
    output byte is encoded in ingest: no other module imports json or csv or
    names atomic_open."""
    modules, functions, encoders = set(), set(), set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "crisislang").glob("*.py")):
        tree = ast.parse(path.read_bytes(), path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and _json_loads_in(node):
                functions.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Import) and any(a.name in ("json", "csv") for a in node.names):
                encoders.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module in ("json", "csv"):
                encoders.add(path.stem)
                modules.add(path.stem)
            elif "atomic_open" in (getattr(node, "id", None), getattr(node, "attr", None)) or (
                isinstance(node, ast.ImportFrom) and any(a.name == "atomic_open" for a in node.names)
            ):
                encoders.add(path.stem)
        if _json_loads_in(tree):
            modules.add(path.stem)
    assert modules == {"ingest"}
    assert functions == {"ingest.json_value"}
    assert encoders == {"ingest"}


def _imported_modules(path: Path) -> set[str]:
    """The top-level names of the modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_bytes(), path.name)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
    return names


def test_cli_never_imports_logging():
    """cli names no warning path of its own: it never imports logging."""
    path = Path(__file__).resolve().parents[1] / "src" / "crisislang" / "cli.py"
    assert "logging" not in _imported_modules(path)


def test_no_module_imports_dataclasses():
    """Importing dataclasses loads inspect, ast, dis and tokenize, about 13 ms
    of every stage process, so no crisislang module imports it."""
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "crisislang").glob("*.py"))
    assert len(paths) > 5
    assert [path.name for path in paths if "dataclasses" in _imported_modules(path)] == []


_CSV_CELLS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_CSV_CELLS, min_size=1, max_size=6), max_size=6))
@example(rows=[["", "Boston, MA", 'New "York"', "a\rb", "c\r\nd"], ["x", 1, 0.1, -0.0, ""]])
def test_csv_cells_read_back_as_their_str(rows):
    """write_csv's table read by csv.reader gives back str of each cell,
    which for a float is its repr, whatever commas, quotes or line breaks
    a text cell holds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(path, rows)
        with open(path, encoding="utf-8", newline="") as handle:
            read = list(csv.reader(handle))
    assert read == [[str(cell) for cell in row] for row in rows]


class TestTypeInvariants:
    def test_region_radius_positive(self):
        with pytest.raises(ValueError):
            Region(BOSTON, 0.0)

    def test_window_ordering(self):
        t = datetime(2013, 4, 15, tzinfo=timezone.utc)
        with pytest.raises(ValueError):
            TimeWindow(t, t)

    def test_longitude_range(self):
        with pytest.raises(RecordError):
            GeoPoint(0.0, 181.0)

    @pytest.mark.parametrize(
        "valid, change, error, message",
        [
            (BOSTON, {"lat": 90.5}, RecordError, "latitude out of range: 90.5"),
            (BOSTON, {"lon": -181.0}, RecordError, "longitude out of range: -181.0"),
            (BOSTON_REGION, {"radius_km": 0.0}, ValueError, "radius_km must be positive, got 0.0"),
            (BOSTON_REGION, {"radius_km": math.nan}, ValueError, "radius_km must be positive, got nan"),
            (CRISIS, {"start": datetime(2013, 4, 15)}, ValueError, "start must be timezone-aware"),
            (CRISIS, {"end": datetime(2013, 4, 16)}, ValueError, "end must be timezone-aware"),
            (CRISIS, {"end": CRISIS.start}, ValueError, "window start must precede end"),
        ],
    )
    def test_every_way_to_build_is_checked(self, valid, change, error, message):
        """A call, _make and _replace all check the values, with one message."""
        values = {**valid._asdict(), **change}
        builds = (
            lambda: type(valid)(**values),
            lambda: type(valid)(*values.values()),
            lambda: type(valid)._make(values.values()),
            lambda: valid._replace(**change),
        )
        for build in builds:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                build()
        assert type(valid)._make(valid) == valid


def _reference_record(tweet: RawTweet) -> dict:
    """tweet_to_record written out field by field."""
    record = {
        "id": tweet.id,
        "text": tweet.text,
        "created_at": tweet.created_at.isoformat().replace("+00:00", "Z"),
    }
    if tweet.geo is not None:
        record["geo"] = {"lat": tweet.geo.lat, "lon": tweet.geo.lon}
    for name in ("ark_tags", "ptb_tags", "chunk_tags"):
        if getattr(tweet, name) is not None:
            record[name] = list(getattr(tweet, name))
    return record


@pytest.mark.parametrize("geo", [None, BOSTON], ids=["no-geo", "geo"])
@pytest.mark.parametrize("ark", [None, ("P", "^")], ids=["no-ark", "ark"])
@pytest.mark.parametrize("ptb", [None, ("IN", "NNP")], ids=["no-ptb", "ptb"])
@pytest.mark.parametrize("chunk", [None, ("B-PP", "B-NP")], ids=["no-chunk", "chunk"])
def test_tweet_to_record_equals_the_field_by_field_reference(geo, ark, ptb, chunk):
    tweet = RawTweet("1", "in boston", CRISIS.start, geo, ark, ptb, chunk)
    record = tweet_to_record(tweet)
    assert list(record.items()) == list(_reference_record(tweet).items())
    assert all(type(record[name]) is list for name in ("ark_tags", "ptb_tags", "chunk_tags")
               if name in record)


# Strings write_jsonl must escape as json.dumps does: non-ASCII text, lone
# surrogates and control characters.
_ENCODED_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", "\u2028", "\u00e9", "\U0001f600"]),
    max_size=8,
)
_ENCODED_RECORDS = st.dictionaries(
    _ENCODED_TEXT,
    st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.integers(2**64, 2**200)
        | st.integers(-(2**200), -(2**64))
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([-0.0, 1e308, -1e308, 5e-324, -5e-324])
        | _ENCODED_TEXT,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_ENCODED_TEXT, inner, max_size=4),
        max_leaves=10,
    ),
    max_size=5,
)


def _one_file(path, records):
    """write_jsonl's pairs for writing records to path alone."""
    return [path], ((path, record) for record in records)


class TestWriteJsonl:
    """write_jsonl builds the stdlib's C encoder once per call; each line is
    still exactly what json.dumps gives, with or without the C encoder."""

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
    @settings(max_examples=100, deadline=None)
    # Each record twice, the same objects again, as the one encoder meets them.
    @given(records=st.lists(_ENCODED_RECORDS, max_size=4).map(lambda records: records * 2))
    def test_each_line_is_json_dumps_of_its_record(self, c_encoder, records):
        expected = "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            if not c_encoder:
                patch.setattr(json.encoder, "c_make_encoder", None)
            path = Path(tmp) / "records.jsonl"
            write_jsonl(*_one_file(path, records))
            assert path.read_bytes() == expected.encode("ascii")

    def test_circular_record_is_value_error(self, tmp_path):
        record: dict = {"id": "a"}
        record["self"] = [record]
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            write_jsonl(*_one_file(tmp_path / "records.jsonl", [{"id": "b"}, record]))
        assert list(tmp_path.iterdir()) == []

    def test_a_path_with_no_records_is_written_empty(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        b.write_bytes(b"previous contents\n")
        write_jsonl([a, b], [(a, {"id": "x"})])
        assert (a.read_bytes(), b.read_bytes()) == (b'{"id": "x"}\n', b"")
        assert sorted(tmp_path.iterdir()) == [a, b]

    def test_each_routed_path_keeps_input_order(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        routes = [a, b, b, a, a, b, a]
        write_jsonl([a, b], [(path, {"id": str(n)}) for n, path in enumerate(routes)])
        assert (_ids(a), _ids(b)) == (["0", "3", "4", "6"], ["1", "2", "5"])

    @pytest.mark.parametrize("failing", ["a.jsonl", "b.jsonl"])
    def test_a_failed_flush_leaves_every_path_as_it_was(self, tmp_path, monkeypatch, failing):
        """No path is replaced until every file has flushed, whichever file
        fails first as the paths are closed."""
        def full_at_flush(file, *args, **kwargs):
            handle = open(file, *args, **kwargs)
            if Path(file).name.startswith(f".{failing}."):
                def flush():
                    raise OSError(errno.ENOSPC, "No space left on device")

                handle.flush = flush
            return handle

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(b"previous a\n")
        b.write_bytes(b"previous b\n")
        monkeypatch.setattr(ingest, "open", full_at_flush, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_jsonl([a, b], [(a, {"id": "x"}), (b, {"id": "y"})])
        assert (a.read_bytes(), b.read_bytes()) == (b"previous a\n", b"previous b\n")
        assert sorted(tmp_path.iterdir()) == [a, b]


_WRITERS = {
    "write_jsonl": lambda path: write_jsonl(*_one_file(path, [{"id": "new", "n": 1}] * 3)),
    "_write_json": lambda path: write_json(path, {"new": [1, 2, 3]}),
    "write_csv": lambda path: write_csv(path, [["new", "text"], [1, 2.5]] * 3),
    "save_model": lambda path: save_model(
        path,
        train_naive_bayes([({"UNIGRAM:a": 1}, IR), ({"UNIGRAM:b": 1}, OR)]),
        [FeatureClass.UNIGRAM],
    ),
}


class TestAtomicWrites:
    """Every output file is written to a temporary file beside it and moved
    into place whole, so a failed write leaves the previous file as it was."""

    def _previous(self, tmp_path):
        path = tmp_path / "out" / "file"
        path.parent.mkdir()
        path.write_bytes(b"previous contents\n")
        return path

    def test_unencodable_record_mid_file(self, tmp_path):
        path = self._previous(tmp_path)
        records = [{"id": "a"}, {"id": "b"}, {"id": object()}]
        with pytest.raises(TypeError):
            write_jsonl(*_one_file(path, records))
        assert path.read_bytes() == b"previous contents\n"
        assert list(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "write",
        [
            lambda path, value: write_json(path, {"a": {"score": value}}),
            lambda path, value: write_jsonl(*_one_file(path, [{"score": 1.0}, {"score": value}])),
        ],
        ids=["write_json", "write_jsonl"],
    )
    def test_non_finite_number_is_never_written(self, tmp_path, write, value):
        path = self._previous(tmp_path)
        with pytest.raises(ValueError, match="not JSON compliant"):
            write(path, value)
        assert path.read_bytes() == b"previous contents\n"
        assert list(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_disk_full_mid_write(self, tmp_path, monkeypatch, writer):
        def half_then_full(*args, **kwargs):
            handle = open(*args, **kwargs)
            write = handle.write

            def write_half(text):
                write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            handle.write = write_half
            return handle

        path = self._previous(tmp_path)
        monkeypatch.setattr(ingest, "open", half_then_full, raising=False)
        with pytest.raises(OSError, match="No space left"):
            _WRITERS[writer](path)
        assert path.read_bytes() == b"previous contents\n"
        assert list(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_success_replaces_the_file_and_leaves_no_temp(self, tmp_path, writer):
        path = self._previous(tmp_path)
        _WRITERS[writer](path)
        assert path.read_bytes() != b"previous contents\n"
        assert list(path.parent.iterdir()) == [path]

