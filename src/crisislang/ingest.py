"""Corpus ingestion and geo/time partitioning, plus the one JSON decode rule
and every output encoder: JSON documents, JSON lines and CSV tables.

json_value decodes an object or array, such as a corpus line, with the C
scanner that json.loads ends in, skipping the Python frames around it. Any
text the scanner does not take whole goes through json.loads, so each value
and error message is json.loads's own. A record is built as a plain tuple
(tuple.__new__), skipping the NamedTuple's generated Python __new__.

One message per line: {"id", "text", "created_at", optional "geo" {lat, lon},
optional "ark_tags"/"ptb_tags"/"chunk_tags"}. Geotagged messages inside the
configured time windows are split into IR / OR / PC_IR / PC_OR; non-geotagged
messages are UNLABELED, the pool that classification later targets.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import ExitStack, contextmanager
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

EARTH_RADIUS_KM = 6371.0

MAX_REPORTED_ERRORS = 20  # skip reasons kept; every skip is still counted


class RecordError(ValueError):
    """A single corpus record failed parsing or validation."""


class GeoPoint(NamedTuple("GeoPoint", [("lat", float), ("lon", float)])):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, lat: float, lon: float) -> GeoPoint:
        if not -90.0 <= lat <= 90.0:
            raise RecordError(f"latitude out of range: {lat}")
        if not -180.0 <= lon <= 180.0:
            raise RecordError(f"longitude out of range: {lon}")
        return super().__new__(cls, lat, lon)


class Region(NamedTuple("Region", [("epicenter", GeoPoint), ("radius_km", float)])):
    """Geographic disc: epicenter plus radius in kilometers."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, epicenter: GeoPoint, radius_km: float) -> Region:
        if not radius_km > 0:  # NaN too
            raise ValueError(f"radius_km must be positive, got {radius_km}")
        return super().__new__(cls, epicenter, radius_km)

    def contains(self, point: GeoPoint) -> bool:
        # Boundary-inclusive: a point exactly on the disc edge counts as inside.
        return haversine_km(self.epicenter, point) <= self.radius_km


class TimeWindow(NamedTuple("TimeWindow", [("start", datetime), ("end", datetime)])):
    """Half-open UTC interval [start, end)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, start: datetime, end: datetime) -> TimeWindow:
        for name, value in (("start", start), ("end", end)):
            if value.tzinfo is None:
                raise ValueError(f"{name} must be timezone-aware")
        if not start < end:
            raise ValueError("window start must precede end")
        return super().__new__(cls, start, end)

    def contains(self, instant: datetime) -> bool:
        return self.start <= instant < self.end


class PartitionLabel(str, Enum):
    IR = "IR"
    OR = "OR"
    PC_IR = "PC_IR"
    PC_OR = "PC_OR"
    UNASSIGNED = "UNASSIGNED"
    UNLABELED = "unlabeled"  # no geo: the pool classification targets


class RawTweet(NamedTuple):
    id: str
    text: str
    created_at: datetime
    geo: GeoPoint | None = None
    ark_tags: tuple[str, ...] | None = None
    ptb_tags: tuple[str, ...] | None = None
    chunk_tags: tuple[str, ...] | None = None


def parse_timestamp(value: str) -> datetime:
    """Parse an RFC 3339 timestamp to UTC; naive values are assumed UTC."""
    if not isinstance(value, str):
        raise RecordError(f"created_at must be a string, got {type(value).__name__}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise RecordError(f"unparseable timestamp: {value!r}") from None
    if parsed.tzinfo is timezone.utc:  # astimezone would return parsed itself
        return parsed
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError:
        raise RecordError(f"timestamp out of range in UTC: {value!r}") from None


def _parse_tag_layer(obj: dict, name: str) -> tuple[str, ...] | None:
    raw = obj.get(name)
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
        raise RecordError(f"{name} must be a list of strings")
    return tuple(raw)


# json.loads's own scanner, without json.loads's Python frames around it.
_SCAN = json.scanner.make_scanner(json.JSONDecoder())


def json_value(data: bytes | str):
    """The JSON value data holds; bytes are read as strict UTF-8 (never
    guessed as UTF-16/32). Any failure is one ValueError whose text is the
    reason: "malformed JSON: …" or "not UTF-8 (… at byte N)", the latter
    read without trailing line breaks, so it is the same with or without.

    Text that starts with { or [ goes to the C scanner first; its value is
    taken when only JSON whitespace follows it. Any other text, and any the
    scanner raises on, goes to json.loads, which gives the value or error."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")  # rebound: bytes passed as a temporary go before parsing
        if data.startswith(("{", "[")):
            try:
                value, end = _SCAN(data, 0)
                if not data[end:].strip(" \t\n\r"):
                    return value
            except (StopIteration, ValueError, RecursionError):
                pass  # json.loads meets it too and says so in its own words
        return json.loads(data)
    except UnicodeDecodeError as exc:
        try:  # good lines never get here
            data.rstrip(b"\r\n").decode("utf-8")
        except UnicodeDecodeError as without_breaks:
            exc = without_breaks
        raise ValueError(f"not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except RecursionError:
        raise ValueError("malformed JSON: nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ValueError(f"malformed JSON: {getattr(exc, 'msg', exc)}") from None


def parse_tweet_record(line: bytes | str) -> RawTweet:
    """Parse one JSON Lines record into a validated RawTweet.

    Unknown fields are ignored. Tag layers are not checked against the
    tokenization here; alignment is validated when tags are attached.
    """
    try:
        obj = json_value(line)
    except ValueError as exc:
        raise RecordError(str(exc)) from None
    if not isinstance(obj, dict):
        raise RecordError("record is not a JSON object")
    for name in ("id", "text", "created_at"):
        if name not in obj or obj[name] is None:
            raise RecordError(f"missing required field: {name}")
    tweet_id = obj["id"]
    if type(tweet_id) is int:  # not a bool
        tweet_id = str(tweet_id)
    if not isinstance(tweet_id, str) or not tweet_id:
        raise RecordError("id must be a non-empty string")
    text = obj["text"]
    if not isinstance(text, str) or not text:
        raise RecordError("text must be a non-empty string")
    created_at = parse_timestamp(obj["created_at"])

    geo = None
    raw_geo = obj.get("geo")
    if raw_geo is not None:
        if not isinstance(raw_geo, dict) or "lat" not in raw_geo or "lon" not in raw_geo:
            raise RecordError("geo must be an object with lat and lon")
        lat, lon = raw_geo["lat"], raw_geo["lon"]
        if type(lat) not in (int, float) or type(lon) not in (int, float):
            raise RecordError("geo lat/lon must be numbers")
        try:
            geo = GeoPoint(float(lat), float(lon))
        except OverflowError:
            raise RecordError("geo lat/lon out of range") from None

    if "ark_tags" in obj or "ptb_tags" in obj or "chunk_tags" in obj:
        return RawTweet(
            tweet_id,
            text,
            created_at,
            geo,
            _parse_tag_layer(obj, "ark_tags"),
            _parse_tag_layer(obj, "ptb_tags"),
            _parse_tag_layer(obj, "chunk_tags"),
        )
    return tuple.__new__(RawTweet, (tweet_id, text, created_at, geo, None, None, None))


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometers (mean Earth radius 6371 km)."""
    lat1, lat2 = math.radians(a.lat), math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return EARTH_RADIUS_KM * 2.0 * math.asin(min(1.0, math.sqrt(h)))


def assign_partition(
    tweet: RawTweet,
    region: Region,
    crisis: TimeWindow,
    pre_crisis: TimeWindow | None = None,
) -> PartitionLabel:
    """A tweet's label: UNLABELED without geo, else by disc within the crisis windows."""
    if tweet.geo is None:
        return PartitionLabel.UNLABELED
    if crisis.contains(tweet.created_at):
        return PartitionLabel.IR if region.contains(tweet.geo) else PartitionLabel.OR
    if pre_crisis is not None and pre_crisis.contains(tweet.created_at):
        return PartitionLabel.PC_IR if region.contains(tweet.geo) else PartitionLabel.PC_OR
    return PartitionLabel.UNASSIGNED


class Skips:
    """Skip ledger: counts every skip and keeps the first MAX_REPORTED_ERRORS
    reasons, in order. duplicates counts the repeated ids among them."""

    def __init__(self) -> None:
        self.count = 0
        self.reasons: list[str] = []
        self.duplicates = 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Skips) and vars(self) == vars(other)

    def add(self, reason: str) -> None:
        self.count += 1
        if len(self.reasons) < MAX_REPORTED_ERRORS:
            self.reasons.append(reason)


class Corpus:
    """A partitioned corpus's record count per label and skip ledger."""

    def __init__(self) -> None:
        self.sizes: dict[PartitionLabel, int] = dict.fromkeys(PartitionLabel, 0)
        self.skips = Skips()

    @property
    def duplicates(self) -> int:
        return self.skips.duplicates

    def counts(self) -> dict[str, int]:
        summary = {label.value: size for label, size in self.sizes.items()}
        summary["skipped"] = self.skips.count
        summary["duplicates"] = self.duplicates
        summary["lines"] = sum(self.sizes.values()) + self.skips.count  # non-blank lines
        return summary

    def imbalance_ratio(self) -> float | None:
        """|IR| / (|IR| + |OR|), or None when both partitions are empty."""
        n_ir, n_or = self.sizes[PartitionLabel.IR], self.sizes[PartitionLabel.OR]
        if n_ir + n_or == 0:
            return None
        return n_ir / (n_ir + n_or)


def iter_jsonl(path: str | Path, skips: Skips) -> Iterator[tuple[int, RawTweet]]:
    """Parse a JSON Lines file one non-blank line at a time.

    A line ends at LF only (a CRLF ending still parses) and is blank when it
    holds only ASCII whitespace. Yields (line number, tweet) for each parsed
    record; a record that fails parsing goes into skips as "line N: reason".
    """
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                tweet = parse_tweet_record(line)
            except RecordError as exc:
                skips.add(f"line {lineno}: {exc}")
                continue
            yield lineno, tweet


def iter_corpus(path: str | Path, skips: Skips) -> Iterator[RawTweet]:
    """The records of a JSON Lines corpus in input order, lazily. A record
    whose id an earlier one had goes into skips as "line N: duplicate id X"."""
    seen: set[str] = set()
    for lineno, tweet in iter_jsonl(path, skips):
        if tweet.id in seen:
            skips.duplicates += 1
            skips.add(f"line {lineno}: duplicate id {tweet.id}")
            continue
        seen.add(tweet.id)
        yield tweet


def load_corpus(
    path: str | Path,
    region: Region,
    crisis: TimeWindow,
    pre_crisis: TimeWindow | None = None,
    *,
    files: Mapping[PartitionLabel, str | Path],
) -> Corpus:
    """Partition a JSON Lines corpus read through iter_corpus as it is read: each
    tweet goes to files[assign_partition(tweet, …)] through one write_jsonl call.

    Malformed records and duplicate ids are skipped and counted, never fatal; blank
    lines are ignored. The counts plus skips always sum to the non-blank input lines.
    """
    corpus = Corpus()

    def routed() -> Iterator[tuple[str | Path, dict]]:
        for tweet in iter_corpus(path, corpus.skips):
            label = assign_partition(tweet, region, crisis, pre_crisis)
            corpus.sizes[label] += 1
            yield files[label], tweet_to_record(tweet)

    write_jsonl(files.values(), routed())
    return corpus


def tweet_to_record(tweet: RawTweet) -> dict:
    """Canonical JSON-serializable form of a tweet (schema fields only)."""
    tweet_id, text, created_at, geo, ark_tags, ptb_tags, chunk_tags = tweet
    record: dict = {
        "id": tweet_id,
        "text": text,
        "created_at": created_at.isoformat().replace("+00:00", "Z"),
    }
    if geo is not None:
        record["geo"] = {"lat": geo.lat, "lon": geo.lon}
    if ark_tags is not None:
        record["ark_tags"] = list(ark_tags)
    if ptb_tags is not None:
        record["ptb_tags"] = list(ptb_tags)
    if chunk_tags is not None:
        record["chunk_tags"] = list(chunk_tags)
    return record


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A text file to write path through, creating the parent directory.

    The text goes to a temporary file in the same directory, which replaces
    path only when the block completes. If the block raises, the temporary
    file is removed and whatever path held before is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj: dict) -> str:
    """Write obj as JSON (keys sorted, indent 2) through atomic_open; returns the
    text. ValueError, and nothing written, if obj holds NaN or an infinity."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with atomic_open(path) as handle:
        handle.write(text)
    return text


def write_jsonl(paths: Iterable[str | Path], records: Iterable[tuple[str | Path, dict]]) -> None:
    """Write each (path, record) pair's record to path as a JSON line, keys sorted.
    Each of paths (distinct) is written through atomic_open, even with no record,
    and all are flushed before any replaces its file: a failed write, or NaN or
    an infinity in a record (ValueError), leaves every path as it was.
    JSONEncoder.encode builds its C encoder anew for each record: it is built
    once here, with the arguments encode passes, and encode runs only without it."""
    encoder = json.JSONEncoder(sort_keys=True, allow_nan=False)
    chunks = lambda record, _: (encoder.encode(record),)  # noqa: E731
    if (make := json.encoder.c_make_encoder) is not None:
        chunks = make({}, encoder.default, json.encoder.encode_basestring_ascii, encoder.indent,
                      encoder.key_separator, encoder.item_separator, encoder.sort_keys,
                      encoder.skipkeys, encoder.allow_nan)
    with ExitStack() as stack:
        handles = {path: stack.enter_context(atomic_open(path)) for path in paths}
        for path, record in records:
            handles[path].write("".join(chunks(record, 0)) + "\n")
        for handle in handles.values():
            handle.flush()


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write rows (header first) as CSV through atomic_open: LF line ends, a
    cell quoted only when it holds a comma, a quote or a line break (CR or
    LF), and a float cell as its repr."""
    import csv  # here, so the stages that write no table never load it

    with atomic_open(path) as handle:
        class Rows:  # csv quotes a lone CR only if rows end in one: end them in CRLF, keep LF
            def write(self, row: str) -> None:
                handle.write(row[:-2] + "\n")

        csv.writer(Rows(), lineterminator="\r\n").writerows(rows)
