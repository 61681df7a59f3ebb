"""Command-line surface for the full pipeline.

Subcommands: partition, divergence, train, evaluate, classify, top-features,
cloud, tag, vectors. A single JSON config file carries the corpus paths,
region/window constants, feature classes, model settings, and seed, and no
flag overrides it. Every command is deterministic given config, seed, and
inputs, and writes a JSON summary next to its outputs. The model, evaluation,
divergence and text modules are imported only inside the functions that use
them, so a stage process loads only what its stage runs.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import date, timedelta
from itertools import islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from crisislang.features import (
    ALPHA_RANGE,
    DEFAULT_IMBALANCE_RATIOS,
    FOLDS_RANGE,
    FeatureClass,
    K_RANGE,
    LogRegParams,
    REPEATS_RANGE,
    checked,
    count_ngrams,
    feature_classes,
    missing_classes,
    split_feature,
    vectorize,
)
from crisislang.ingest import (
    GeoPoint,
    PartitionLabel,
    RawTweet,
    Region,
    Skips,
    TimeWindow,
    iter_corpus,
    iter_jsonl,
    json_value,
    load_corpus,
    parse_timestamp,
    tweet_to_record,
    write_csv,
    write_json,
    write_jsonl,
)

if TYPE_CHECKING:
    from crisislang import model as mdl
    from crisislang.text import TaggedTweet

SCHEMA_VERSION = 1

PARTITION_FILES = {label: f"{label.value.lower()}.jsonl" for label in PartitionLabel}

# Tagged tweets that classify and cloud vectorize and predict at a time (see
# _predicted). Only one batch is held, so their memory is bounded by the model
# and the batch, not the input.
CLASSIFY_BATCH = 256


class ConfigError(ValueError):
    """The run configuration is missing or inconsistent."""


def _checks(kind: type, ok: Callable | None = None, rule: str | Callable = "") -> Callable:
    """The parser of a key that takes one value of kind, in ok's range (see checked)."""
    return lambda raw, key: checked(raw, kind, key, ok, rule)


def _named(prefix: str, make: Callable, *args, **kwargs):
    """make(*args, **kwargs), with prefix put before the message of a ValueError
    it raises."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


def _parse_path(raw, key: str) -> Path:
    return Path(checked(raw, str, key))


def _parse_regions(raw, key: str) -> dict[str, Region]:
    regions = {}
    for name, region in checked(raw, dict, key).items():
        where = f"{key}.{name}"
        region = checked(region, dict, where)
        lat, lon, radius_km = (
            checked(region.get(k), float, f"{where}.{k}") for k in ("lat", "lon", "radius_km")
        )
        regions[name] = _named(f"{where}: ", lambda: Region(GeoPoint(lat, lon), radius_km))
    return regions


def _parse_window(raw, key: str) -> TimeWindow:
    raw = checked(raw, dict, key)
    start, end = (checked(raw.get(k), str, f"{key}.{k}") for k in ("start", "end"))
    return _named(f"{key}: ", lambda: TimeWindow(parse_timestamp(start), parse_timestamp(end)))


def _parse_ratios(raw, key: str) -> list[float]:
    ratios = checked(raw, list, key, bool, "a non-empty list")
    return [checked(ratio, float, key, lambda r: 0 < r < 1, "in (0, 1)") for ratio in ratios]


def _parse_hours(raw, key: str) -> list[int]:
    checked(raw, list, key, lambda hours: len(hours) == 2, "a [first, last] pair")
    first, last = (checked(hour, int, key) for hour in raw)
    if not 0 <= first <= last <= 23:
        raise ValueError(f"{key} must be 0 <= first <= last <= 23, got {raw}")
    return list(range(first, last + 1))


_REQUIRED = object()  # the default of a key every config must give

# Every config key: its RunConfig field, its dotted key, the JSON value an absent
# key stands for (None: the setting is None), and its parser, which takes the
# raw value and the key and raises ValueError("<key> …") on a bad value. The
# logreg keys are LogRegParams' fields.
_SETTINGS = (
    ("input", "input", _REQUIRED, _parse_path),
    ("output_dir", "output_dir", "out", _parse_path),
    ("seed", "seed", 0, _checks(int)),
    (
        "timezone_offset_minutes", "timezone_offset_minutes", 0,
        _checks(int, lambda minutes: -1440 <= minutes <= 1440, "within ±1440"),
    ),
    ("regions", "regions", _REQUIRED, _parse_regions),
    ("primary_region", "primary_region", _REQUIRED, _checks(str)),
    ("crisis_window", "crisis_window", _REQUIRED, _parse_window),
    (
        "pre_crisis_window", "pre_crisis_window", None,
        lambda raw, key: None if raw is None else _parse_window(raw, key),
    ),
    ("feature_classes", "feature_classes", ["UNIGRAM", "BIGRAM"], feature_classes),
    (
        "model_kind", "model.kind", "nb",
        _checks(str, lambda kind: kind in ("nb", "logreg"), "nb or logreg"),
    ),
    ("alpha", "model.alpha", 1.0, _checks(float, *ALPHA_RANGE)),
    (
        "logreg", "logreg", {},
        lambda raw, key: _named(f"{key}.", LogRegParams, **checked(raw, dict, key)),
    ),
    ("cv_repeats", "cv.repeats", 3, _checks(int, *REPEATS_RANGE)),
    ("cv_folds", "cv.folds", 5, _checks(int, *FOLDS_RANGE)),
    ("imbalance_ratios", "imbalance_ratios", list(DEFAULT_IMBALANCE_RATIOS), _parse_ratios),
    ("balance", "balance", True, _checks(bool)),
    ("fallback_tags", "fallback_tags", True, _checks(bool)),
    (
        "divergence_day", "divergence.day", None,
        lambda raw, key: _named(f"{key}: ", date.fromisoformat, checked(raw, str, key)),
    ),
    ("divergence_hours", "divergence.hours", None, _parse_hours),
    (
        "divergence_window", "divergence.window", "crisis",
        _checks(str, lambda window: window in ("crisis", "pre_crisis"), "crisis or pre_crisis"),
    ),
)


class RunConfig:
    """A run's settings: one slot per _SETTINGS row."""

    __slots__ = tuple(field for field, *_ in _SETTINGS)

    def __init__(self, **settings) -> None:
        for name in self.__slots__:  # KeyError on a missing setting
            setattr(self, name, settings[name])

    @property
    def region(self) -> Region:
        return self.regions[self.primary_region]

    def partitions_dir(self) -> Path:
        return self.output_dir / "partitions"


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json_value(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    try:
        config = _run_config(doc)
    except ValueError as exc:  # each message starts with the key at fault
        raise ConfigError(str(exc)) from None
    try:
        same = config.input.resolve() == config.output_dir.resolve()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"input or output_dir: {exc}") from None
    if same:
        raise ConfigError("input path and output_dir must be distinct")
    return config


def _run_config(doc: dict) -> RunConfig:
    """The RunConfig a config document describes; ValueError on the first key
    that is unknown, missing, of the wrong type or out of its range."""
    sections = {"": doc}  # keyed by what precedes a dotted key's last dot
    for name in ("model", "logreg", "cv", "divergence"):
        sections[name] = checked(doc.get(name, {}), dict, name)
    known = {key.rpartition(".")[::2] for _, key, *_ in _SETTINGS}  # (section, name)
    known.update(("", name) for name in sections if name)
    known.update(("logreg", name) for name in LogRegParams._fields)
    for section, values in sections.items():
        for name in values:
            if (section, name) not in known:
                key = f"{section}.{name}" if section else name
                if not name.isidentifier():  # quoted, or it reads as another key
                    key = f"{section or 'top-level'} key {name!r}"
                raise ValueError(f"{key} is not a config key")
    settings = {}
    for field, key, default, parse in _SETTINGS:
        section, _, name = key.rpartition(".")
        if name in sections[section]:
            settings[field] = parse(sections[section][name], key)
        elif default is _REQUIRED:
            raise ValueError(f"config is missing required key: {key}")
        else:
            settings[field] = None if default is None else parse(default, key)
    primary, regions = settings["primary_region"], settings["regions"]
    checked(primary, str, "primary_region", regions.__contains__, "a configured region")
    return RunConfig(**settings)


def _write_tables(config: RunConfig, stem: str, report) -> dict[str, str]:
    """Write a report's rows() and to_dict() as stem.csv and stem.json in
    the output dir; returns their paths."""
    csv_path = config.output_dir / f"{stem}.csv"
    json_path = config.output_dir / f"{stem}.json"
    write_json(json_path, report.to_dict())
    write_csv(csv_path, report.rows())
    return {"csv": str(csv_path), "json": str(json_path)}


def _stream(source: Path, target: Path, tally: dict[str, int], records: Callable) -> dict:
    """Write the dicts records(tweets, skips) yields to target as JSON lines,
    where tweets are the tweets at source, each counted in tally["total"] as
    it is parsed. Returns the summary every streaming stage shares, with the
    stage's own counts from tally."""
    skips = Skips()
    tally["total"] = 0

    def tweets() -> Iterator[RawTweet]:
        for _, tweet in iter_jsonl(source, skips):
            tally["total"] += 1
            yield tweet

    output = str(target)  # a str key costs write_jsonl no Python-level hash per record
    write_jsonl([output], zip(repeat(output), records(tweets(), skips)))
    return {
        "warnings": skips.reasons,
        "input": str(source),
        "output": output,
        **tally,
        "skipped": skips.count,
    }


def _tagged(
    tweets: Iterable[RawTweet],
    skips: Skips,
    classes: Sequence[FeatureClass],
    fallback: bool = False,
) -> Iterator[tuple[RawTweet, TaggedTweet]]:
    """Each tweet with its tags, lazily; every stage tags through here. With
    fallback, a tweet without ARK tags gets fallback ones if one of classes
    reads the ARK layer, or if classes is empty (the caller picks its classes
    after tagging). A tweet whose tag layers are misaligned, that has no tokens,
    or that lacks a layer one of classes needs goes into skips instead. Raises
    ConfigError at the end when some tweets lacked layers and none was usable.
    Each tweet is tested only for the distinct layers classes read, found once;
    missing_classes names the absent classes of a tweet skipped for them."""
    from crisislang import text as txt

    layers = [layer for layer in dict.fromkeys(c.layer for c in classes) if layer is not None]
    fallback = fallback and (not classes or "ark" in layers)
    lacking = usable = False
    for tweet in tweets:
        try:
            tagged = txt.tag_raw_tweet(tweet, use_fallback=fallback)
        except txt.AlignmentError as exc:
            skips.add(str(exc))
            continue
        if not tagged.words:
            skips.add(f"tweet {tweet.id}: no tokens")
            continue
        for layer in layers:
            if getattr(tagged, layer) is None:
                lacking = True
                absent = ",".join(c.value for c in missing_classes(tagged, classes))
                skips.add(f"tweet {tweet.id}: missing layers for {absent}")
                break
        else:
            usable = True
            yield tweet, tagged
    if lacking and not usable:
        names = ", ".join(c.value for c in classes)
        raise ConfigError(f"no input tweet carries the tag layers the model needs ({names})")


def _predicted(
    tagged: Iterator[tuple[RawTweet, TaggedTweet]],
    model: mdl.NaiveBayesModel | mdl.LogisticRegressionModel,
    classes: Sequence[FeatureClass],
) -> Iterator[tuple[tuple[RawTweet, TaggedTweet], mdl.Prediction]]:
    """Each (tweet, tagged) pair with the model's prediction, lazily.
    Vectorizes and predicts CLASSIFY_BATCH tagged tweets at a time and holds
    only that batch. The predictor of the model's kind is read once per call."""
    from crisislang import model as mdl

    predict = mdl.predict_nb if isinstance(model, mdl.NaiveBayesModel) else mdl.predict_lr
    while batch := list(islice(tagged, CLASSIFY_BATCH)):
        yield from zip(batch, [predict(model, vectorize(t, classes)) for _, t in batch])
        del batch  # or it would live on while the next batch is read


def _partition_path(config: RunConfig, label: PartitionLabel) -> Path:
    path = config.partitions_dir() / PARTITION_FILES[label]
    if not path.exists():
        raise ConfigError(f"partition file {path} not found; run the partition command first")
    return path


def _partition_tweets(config: RunConfig, label: PartitionLabel, skips: Skips) -> Iterator[RawTweet]:
    """The tweets of a partition file, lazily; ConfigError at once if it is missing."""
    path = _partition_path(config, label)
    return (tweet for _, tweet in iter_jsonl(path, skips))


def _tagged_partition(
    config: RunConfig, label: PartitionLabel, skips: Skips, classes: Sequence[FeatureClass]
) -> list[TaggedTweet]:
    tweets = _partition_tweets(config, label, skips)
    return [tagged for _, tagged in _tagged(tweets, skips, classes, config.fallback_tags)]


def _labeled_data(
    config: RunConfig, balance: bool, skips: Skips, classes: Sequence[FeatureClass]
) -> list[tuple[TaggedTweet, str]]:
    from crisislang import evaluation as ev
    from crisislang import model as mdl

    ir = _tagged_partition(config, PartitionLabel.IR, skips, classes)
    or_pool = _tagged_partition(config, PartitionLabel.OR, skips, classes)
    if not ir:
        raise ConfigError("IR partition is empty; cannot build a labeled set")
    if balance:
        return ev.balanced_sample(ir, or_pool, config.seed)
    return [(t, mdl.IR) for t in ir] + [(t, mdl.OR) for t in or_pool]


def cmd_partition(config: RunConfig) -> dict:
    outdir = config.partitions_dir()
    files = {label: str(outdir / filename) for label, filename in PARTITION_FILES.items()}
    corpus = load_corpus(config.input, config.region, config.crisis_window,
                         config.pre_crisis_window, files=files)
    return {
        "warnings": corpus.skips.reasons,
        "counts": corpus.counts(),
        "imbalance_ratio": corpus.imbalance_ratio(),
        "files": {label.value: f for label, f in files.items()},
    }


def cmd_divergence(config: RunConfig, mode: str) -> dict:
    """Read the corpus once, tokenize each tweet that groups_of(tweet) puts in
    some group, count its words into each of those groups' word counts, and
    build the mode's matrix from the counts. No tweet is held once counted."""
    from crisislang import divergence as div

    if mode == "hourly":
        day, region = config.divergence_day, config.region
        if day is None or not config.divergence_hours:
            raise ConfigError("hourly mode needs divergence.day and divergence.hours in the config")
        offset = timedelta(minutes=config.timezone_offset_minutes)
        groups: dict = {hour: {} for hour in config.divergence_hours}
        build = div.hourly_divergence_matrix

        def groups_of(tweet: RawTweet) -> list:
            try:
                local = tweet.created_at + offset
            except OverflowError:  # past an end of the calendar, so not on the day
                return []
            if local.date() != day or local.hour not in groups:
                return []
            return [local.hour] if tweet.geo is not None and region.contains(tweet.geo) else []

    elif mode == "regional":
        window = (
            config.crisis_window
            if config.divergence_window == "crisis"
            else config.pre_crisis_window
        )
        if window is None:
            raise ConfigError("divergence window 'pre_crisis' requires pre_crisis_window")
        groups = {name: {} for name in config.regions}
        build = div.regional_divergence_matrix

        def groups_of(tweet: RawTweet) -> list:
            if tweet.geo is None or not window.contains(tweet.created_at):
                return []
            return [name for name, r in config.regions.items() if r.contains(tweet.geo)]

    else:
        raise ConfigError(f"unknown divergence mode: {mode!r}")
    skips = Skips()
    for tweet in iter_corpus(config.input, skips):
        if names := groups_of(tweet):
            for _, tagged in _tagged((tweet,), skips, ()):
                for name in names:
                    count_ngrams(groups[name], "", tagged.words, 1)
    matrix, warnings = build(groups)
    return {
        "warnings": list(warnings) + skips.reasons,
        "mode": mode,
        "labels": matrix.labels,
        "skipped_records": skips.count,
        "files": _write_tables(config, f"divergence_{mode}", matrix),
    }


def cmd_train(config: RunConfig) -> dict:
    from crisislang import model as mdl

    skips = Skips()
    data = _labeled_data(config, config.balance, skips, config.feature_classes)
    vectors = [(vectorize(t, config.feature_classes), label) for t, label in data]
    if config.model_kind == "nb":
        model: mdl.NaiveBayesModel | mdl.LogisticRegressionModel = mdl.train_naive_bayes(
            vectors, alpha=config.alpha
        )
        vocab_size = len(model.vocabulary)
    else:
        model = mdl.train_logreg(vectors, config.logreg)
        vocab_size = len(model.weights)
    model_path = config.output_dir / "model.json"
    mdl.save_model(model_path, model, feature_classes=config.feature_classes)
    labels = [label for _, label in data]
    return {
        "warnings": skips.reasons,
        "model": str(model_path),
        "kind": config.model_kind,
        "seed": config.seed,
        "balanced": config.balance,
        "class_counts": {mdl.IR: labels.count(mdl.IR), mdl.OR: labels.count(mdl.OR)},
        "vocabulary_size": vocab_size,
        "feature_classes": [c.value for c in config.feature_classes],
    }


def cmd_evaluate(config: RunConfig, mode: str) -> dict:
    from crisislang import evaluation as ev

    skips = Skips()
    if mode == "single":
        data = _labeled_data(config, True, skips, config.feature_classes)
        report = ev.cross_validate(
            data,
            config.feature_classes,
            repeats=config.cv_repeats,
            folds=config.cv_folds,
            seed=config.seed,
            alpha=config.alpha,
        )
        files = _write_tables(config, "cv_report", report)
        payload: dict = {"readings": len(report.readings), "mean_f1": report.mean.f1}
    elif mode == "combos":
        data = _labeled_data(config, True, skips, ())
        combo = ev.enumerate_combinations(
            data,
            seed=config.seed,
            repeats=config.cv_repeats,
            folds=config.cv_folds,
            alpha=config.alpha,
        )
        files = _write_tables(config, "combinations", combo)
        payload = {
            "entries": len(combo.entries),
            "excluded_classes": [c.value for c in combo.excluded_classes],
        }
    elif mode == "imbalance":
        classes = config.feature_classes
        sweep = ev.imbalance_sweep(
            _tagged_partition(config, PartitionLabel.IR, skips, classes),
            _tagged_partition(config, PartitionLabel.OR, skips, classes),
            classes,
            ratios=config.imbalance_ratios,
            seed=config.seed,
            alpha=config.alpha,
        )
        files = _write_tables(config, "imbalance", sweep)
        payload = {"summary_auc": sweep.summary_auc}
    else:
        raise ConfigError(f"unknown evaluate mode: {mode!r}")
    return {"warnings": skips.reasons, "mode": mode, "files": files, **payload}


def cmd_classify(config: RunConfig, model_path: Path, input_path: Path | None) -> dict:
    from crisislang import model as mdl

    model, classes = mdl.load_model(model_path)
    if (source := input_path) is None:
        source = _partition_path(config, PartitionLabel.UNLABELED)
    tally = dict.fromkeys(("classified", "classified_ir"), 0)

    def records(tweets: Iterator[RawTweet], skips: Skips) -> Iterator[dict]:
        tagged = _tagged(tweets, skips, classes, config.fallback_tags)
        for (tweet, _), p in _predicted(tagged, model, classes):
            if not math.isfinite(p.score):  # JSON has no such number
                raise ValueError(f"tweet {tweet.id}: score {p.score} is not finite")
            tally["classified"] += 1
            tally["classified_ir"] += p.label == mdl.IR
            record = tweet_to_record(tweet)
            record["label"], record["score"] = p.label, p.score
            yield record

    summary = _stream(source, config.output_dir / "classified.jsonl", tally, records)
    return {"model": str(model_path), **summary}


def cmd_top_features(config: RunConfig, k: int) -> dict:
    k = checked(k, int, "k", *K_RANGE)
    from crisislang import model as mdl

    skips = Skips()
    data = _labeled_data(config, config.balance, skips, config.feature_classes)
    vectors = [(vectorize(t, config.feature_classes), label) for t, label in data]
    model = mdl.train_logreg(vectors, config.logreg)
    rows: list[list] = [["class", "rank", "feature", "weight"]]
    classes = config.feature_classes
    for cls, ranked in zip(classes, mdl.rank_features(model, k, classes)):
        for rank, (fid, weight) in enumerate(ranked, start=1):
            rows.append([cls.value, rank, split_feature(fid)[1], weight])
    csv_path = config.output_dir / "top_features.csv"
    write_csv(csv_path, rows)
    return {
        "warnings": skips.reasons,
        "k": k,
        "classes": [c.value for c in config.feature_classes],
        "files": {"csv": str(csv_path)},
    }


def cmd_cloud(config: RunConfig, model_path: Path, k: int) -> dict:
    k = checked(k, int, "k", *K_RANGE)
    from crisislang import evaluation as ev
    from crisislang import model as mdl

    skips = Skips()
    counts: dict[str, int] = {}  # the IR bigrams, then the model's additions' too
    tally = dict.fromkeys(("geotagged_ir", "model_additions"), 0)
    ir = _partition_tweets(config, PartitionLabel.IR, skips)
    for _, tagged in _tagged(ir, skips, ()):
        tally["geotagged_ir"] += 1
        count_ngrams(counts, "", tagged.words, 2)
    geotagged_cloud = ev.bigram_cloud(counts, k)

    model, classes = mdl.load_model(model_path)
    pool = _tagged(_partition_tweets(config, PartitionLabel.UNLABELED, skips),
                   skips, classes, config.fallback_tags)
    for (_, tagged), p in _predicted(pool, model, classes):
        if p.label == mdl.IR:
            tally["model_additions"] += 1
            count_ngrams(counts, "", tagged.words, 2)
    combined_cloud = ev.bigram_cloud(counts, k)
    files: dict[str, str] = {}
    for name, cloud in (("geotagged", geotagged_cloud), ("combined", combined_cloud)):
        path = config.output_dir / f"cloud_{name}.json"
        bigrams = [{"bigram": bigram, "count": count} for bigram, count in cloud]
        write_json(path, {"schema_version": SCHEMA_VERSION, "bigrams": bigrams})
        files[name] = str(path)
    return {"warnings": skips.reasons, "k": k, **tally, "files": files}


def cmd_tag(config: RunConfig, input_path: Path | None, output_path: Path | None) -> dict:
    source = input_path if input_path is not None else config.input
    target = output_path if output_path is not None else config.output_dir / "tagged.jsonl"
    tally = {"newly_tagged": 0}

    def filled(tweets: Iterator[RawTweet], skips: Skips) -> Iterator[dict]:
        for tweet, tagged in _tagged(tweets, skips, (), True):
            if tweet.ark_tags is None:
                tally["newly_tagged"] += 1
                tweet = tweet._replace(ark_tags=tagged.ark)
            yield tweet_to_record(tweet)

    return _stream(source, target, tally, filled)


def cmd_vectors(config: RunConfig, input_path: Path | None) -> dict:
    source = input_path if input_path is not None else config.input
    coverage = {cls.value: 0 for cls in config.feature_classes}

    def docs(tweets: Iterator[RawTweet], skips: Skips) -> Iterator[dict]:
        for tweet, tagged in _tagged(tweets, skips, (), config.fallback_tags):
            absent = missing_classes(tagged, config.feature_classes)
            present = [cls for cls in config.feature_classes if cls not in absent]
            for cls in present:
                coverage[cls.value] += 1
            vector = vectorize(tagged, present) if present else {}
            yield {"id": tweet.id, "features": vector}

    summary = _stream(source, config.output_dir / "vectors.jsonl", {}, docs)
    return {**summary, "class_coverage": coverage}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser. Each subcommand sets run(config, args) to call its
    cmd_* function, which returns the summary payload."""
    parser = argparse.ArgumentParser(
        prog="crisislang",
        description="Locate crisis-region tweets from their language alone.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("partition", help="split the corpus into IR/OR/PC-IR/PC-OR/unlabeled")
    p.set_defaults(run=lambda config, args: cmd_partition(config))

    p = sub.add_parser("divergence", help="emit J-S divergence matrices")
    p.add_argument("--mode", choices=["hourly", "regional"], required=True)
    p.set_defaults(run=lambda config, args: cmd_divergence(config, args.mode))

    p = sub.add_parser("train", help="train a classifier on the labeled partitions")
    p.set_defaults(run=lambda config, args: cmd_train(config))

    p = sub.add_parser("evaluate", help="run the evaluation protocol")
    p.add_argument("--mode", choices=["single", "combos", "imbalance"], required=True)
    p.set_defaults(run=lambda config, args: cmd_evaluate(config, args.mode))

    p = sub.add_parser("classify", help="label non-geotagged tweets with a trained model")
    p.add_argument("--model", type=Path, required=True, help="path to a model.json")
    p.add_argument(
        "--input", type=Path, default=None, help="JSONL to classify (default: unlabeled partition)"
    )
    p.set_defaults(run=lambda config, args: cmd_classify(config, args.model, args.input))

    p = sub.add_parser("top-features", help="rank features per class by LR weight")
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(run=lambda config, args: cmd_top_features(config, args.k))

    p = sub.add_parser("cloud", help="bigram clouds before/after adding model-recovered tweets")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(run=lambda config, args: cmd_cloud(config, args.model, args.k))

    p = sub.add_parser("tag", help="fill missing ARK tags with the fallback tagger")
    p.add_argument("--input", type=Path, default=None)
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(run=lambda config, args: cmd_tag(config, args.input, args.output))

    p = sub.add_parser("vectors", help="emit per-tweet feature vectors as JSON lines")
    p.add_argument("--input", type=Path, default=None)
    p.set_defaults(run=lambda config, args: cmd_vectors(config, args.input))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; its summary goes to {command}_summary.json in the
    output dir and to stdout. Returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        summary = {"schema_version": SCHEMA_VERSION, "command": args.command}
        summary.update(args.run(config, args))
        stem = args.command.replace("-", "_")
        text = write_json(config.output_dir / f"{stem}_summary.json", summary)
    except (ValueError, OSError) as exc:  # ConfigError and TrainingDiverged among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
