"""Command-line surface for the full pipeline.

Subcommands: partition, divergence, train, evaluate, classify, top-features,
cloud, tag, vectors. A single JSON config file carries the corpus paths,
region/window constants, feature classes, model settings, and seed; a few
global flags override it. Every command is deterministic given config, seed,
and inputs, and writes a JSON summary next to its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterator, Sequence

from crisislang import divergence as div
from crisislang import evaluation as ev
from crisislang import model as mdl
from crisislang.features import (
    FeatureClass,
    MissingLayerError,
    missing_classes,
    split_feature,
    vector_to_json,
    vectorize,
)
from crisislang.ingest import (
    MAX_REPORTED_ERRORS,
    GeoPoint,
    PartitionLabel,
    RawTweet,
    RecordError,
    Region,
    TimeWindow,
    iter_jsonl,
    load_corpus,
    parse_timestamp,
    tweet_to_record,
    write_jsonl,
)
from crisislang.text import AlignmentError, TaggedTweet, fallback_ark_tags, tag_raw_tweet, tokenize

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

PARTITION_FILES = {
    PartitionLabel.IR: "ir.jsonl",
    PartitionLabel.OR: "or.jsonl",
    PartitionLabel.PC_IR: "pc_ir.jsonl",
    PartitionLabel.PC_OR: "pc_or.jsonl",
    PartitionLabel.UNASSIGNED: "unassigned.jsonl",
}
UNLABELED_FILE = "unlabeled.jsonl"


class ConfigError(ValueError):
    """The run configuration is missing or inconsistent."""


@dataclass
class RunConfig:
    input: Path
    output_dir: Path
    regions: dict[str, Region]
    primary_region: str
    crisis_window: TimeWindow
    pre_crisis_window: TimeWindow | None = None
    timezone_offset_minutes: int = 0
    feature_classes: list[FeatureClass] = field(
        default_factory=lambda: [FeatureClass.UNIGRAM, FeatureClass.BIGRAM]
    )
    model_kind: str = "nb"
    alpha: float = 1.0
    logreg: mdl.LogRegParams = field(default_factory=mdl.LogRegParams)
    cv_repeats: int = 3
    cv_folds: int = 5
    imbalance_ratios: list[float] = field(
        default_factory=lambda: list(ev.DEFAULT_IMBALANCE_RATIOS)
    )
    balance: bool = True
    fallback_tags: bool = True
    seed: int = 0
    divergence_day: date | None = None
    divergence_hours: list[int] = field(default_factory=list)
    divergence_window: str = "crisis"

    @property
    def region(self) -> Region:
        return self.regions[self.primary_region]

    def partitions_dir(self) -> Path:
        return self.output_dir / "partitions"


def _parse_window(raw: dict, name: str) -> TimeWindow:
    if not isinstance(raw, dict) or "start" not in raw or "end" not in raw:
        raise ConfigError(f"{name} must be an object with start and end")
    return TimeWindow(parse_timestamp(raw["start"]), parse_timestamp(raw["end"]))


def _parse_region(raw: dict, name: str) -> Region:
    try:
        return Region(GeoPoint(float(raw["lat"]), float(raw["lon"])), float(raw["radius_km"]))
    except (KeyError, TypeError, ValueError, RecordError) as exc:
        raise ConfigError(f"region {name!r} is invalid: {exc}") from None


def _section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object, got {section!r}")
    return section


def _list(doc: dict, key: str, default: list) -> list:
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _typed(convert, value, name: str):
    """convert(value), or a ConfigError naming the key when the value has the
    wrong type or form."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def load_config(
    path: str | Path,
    seed: int | None = None,
    output_dir: str | None = None,
) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")

    for key in ("input", "regions", "primary_region", "crisis_window"):
        if key not in doc:
            raise ConfigError(f"config is missing required key: {key}")

    if not isinstance(doc["regions"], dict):
        raise ConfigError("regions must be an object mapping names to regions")
    regions = {name: _parse_region(raw, name) for name, raw in doc["regions"].items()}
    primary = doc["primary_region"]
    if not isinstance(primary, str) or primary not in regions:
        raise ConfigError(f"primary_region {primary!r} is not a configured region")

    crisis = _parse_window(doc["crisis_window"], "crisis_window")
    pre = None
    if doc.get("pre_crisis_window") is not None:
        pre = _parse_window(doc["pre_crisis_window"], "pre_crisis_window")

    raw_classes = _list(doc, "feature_classes", ["UNIGRAM", "BIGRAM"])
    try:
        classes = [FeatureClass(c) for c in raw_classes]
    except ValueError as exc:
        raise ConfigError(f"unknown feature class: {exc}") from None
    if not classes:
        raise ConfigError("feature_classes must not be empty")

    model_doc = _section(doc, "model")
    kind = model_doc.get("kind", "nb")
    if kind not in ("nb", "logreg"):
        raise ConfigError(f"model kind must be nb or logreg, got {kind!r}")

    lr_doc = _section(doc, "logreg")
    logreg = mdl.LogRegParams(
        learning_rate=_typed(float, lr_doc.get("learning_rate", 0.1), "logreg.learning_rate"),
        l2=_typed(float, lr_doc.get("l2", 1e-4), "logreg.l2"),
        max_epochs=_typed(int, lr_doc.get("max_epochs", 500), "logreg.max_epochs"),
        tolerance=_typed(float, lr_doc.get("tolerance", 1e-6), "logreg.tolerance"),
    )

    raw_ratios = _list(doc, "imbalance_ratios", list(ev.DEFAULT_IMBALANCE_RATIOS))
    ratios = [_typed(float, r, "imbalance_ratios") for r in raw_ratios]
    for r in ratios:
        if not 0.0 < r < 1.0:
            raise ConfigError(f"imbalance ratio must be in (0, 1), got {r}")

    div_doc = _section(doc, "divergence")
    div_day = None
    if "day" in div_doc:
        div_day = _typed(date.fromisoformat, div_doc["day"], "divergence.day")
    div_hours: list[int] = []
    if "hours" in div_doc:
        hours = div_doc["hours"]
        pair = isinstance(hours, list) and len(hours) == 2
        if not (pair and all(isinstance(h, (int, float)) for h in hours)):
            raise ConfigError(f"divergence hours must be a [first, last] pair, got {hours!r}")
        first, last = hours
        if not 0 <= first <= last <= 23:
            raise ConfigError("divergence hours must satisfy 0 <= first <= last <= 23")
        div_hours = list(range(int(first), int(last) + 1))
    div_window = div_doc.get("window", "crisis")
    if div_window not in ("crisis", "pre_crisis"):
        raise ConfigError(f"divergence window must be crisis or pre_crisis, got {div_window!r}")

    cv_doc = _section(doc, "cv")
    cv_repeats = _typed(int, cv_doc.get("repeats", 3), "cv.repeats")
    cv_folds = _typed(int, cv_doc.get("folds", 5), "cv.folds")
    if cv_repeats < 1 or cv_folds < 2:
        raise ConfigError(f"cv needs repeats >= 1 and folds >= 2, got {cv_repeats} and {cv_folds}")
    config = RunConfig(
        input=_typed(Path, doc["input"], "input"),
        output_dir=_typed(
            Path,
            output_dir if output_dir is not None else doc.get("output_dir", "out"),
            "output_dir",
        ),
        regions=regions,
        primary_region=primary,
        crisis_window=crisis,
        pre_crisis_window=pre,
        timezone_offset_minutes=_typed(
            int, doc.get("timezone_offset_minutes", 0), "timezone_offset_minutes"
        ),
        feature_classes=classes,
        model_kind=kind,
        alpha=_typed(float, model_doc.get("alpha", 1.0), "model.alpha"),
        logreg=logreg,
        cv_repeats=cv_repeats,
        cv_folds=cv_folds,
        imbalance_ratios=ratios,
        balance=bool(doc.get("balance", True)),
        fallback_tags=bool(doc.get("fallback_tags", True)),
        seed=_typed(int, seed if seed is not None else doc.get("seed", 0), "seed"),
        divergence_day=div_day,
        divergence_hours=div_hours,
        divergence_window=div_window,
    )
    if config.input.resolve() == config.output_dir.resolve():
        raise ConfigError("input path and output_dir must be distinct")
    return config


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_tables(config: RunConfig, stem: str, report) -> dict[str, str]:
    """Write a report's to_csv() and to_dict() as stem.csv and stem.json in
    the output dir; returns their paths."""
    csv_path = config.output_dir / f"{stem}.csv"
    json_path = config.output_dir / f"{stem}.json"
    _write_text(csv_path, report.to_csv())
    _write_json(json_path, report.to_dict())
    return {"csv": str(csv_path), "json": str(json_path)}


def _summary(command: str, warnings: list[str], **payload) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "warnings": warnings}
    doc.update(payload)
    return doc


def _read_tweets(path: Path) -> tuple[list[RawTweet], int, list[str]]:
    """Parsed tweets, the skip count and the first skip reasons of a file."""
    tweets: list[RawTweet] = []
    skipped = 0
    reasons: list[str] = []
    for lineno, tweet in iter_jsonl(path):
        if isinstance(tweet, RecordError):
            skipped += 1
            if len(reasons) < MAX_REPORTED_ERRORS:
                reasons.append(f"line {lineno}: {tweet}")
        else:
            tweets.append(tweet)
    return tweets, skipped, reasons


def _tag(config: RunConfig, tweet: RawTweet, skipped: list[str]) -> TaggedTweet | None:
    """The tagged tweet, or None with the reason in skipped when its tag
    layers are misaligned."""
    try:
        return tag_raw_tweet(tweet, use_fallback=config.fallback_tags)
    except AlignmentError as exc:
        skipped.append(str(exc))
        return None


def _tag_all(
    config: RunConfig, tweets: Sequence[RawTweet], skipped: list[str]
) -> list[TaggedTweet]:
    tagged = (_tag(config, t, skipped) for t in tweets)
    return [t for t in tagged if t is not None]


def _partition_path(config: RunConfig, filename: str) -> Path:
    path = config.partitions_dir() / filename
    if not path.exists():
        raise ConfigError(f"partition file {path} not found; run the partition command first")
    return path


def _read_partition(config: RunConfig, filename: str) -> list[RawTweet]:
    tweets, _, _ = _read_tweets(_partition_path(config, filename))
    return tweets


def _tagged_pools(
    config: RunConfig, skipped: list[str]
) -> tuple[list[TaggedTweet], list[TaggedTweet]]:
    """The tagged IR and OR partitions."""
    ir, or_pool = (
        _tag_all(config, _read_partition(config, PARTITION_FILES[label]), skipped)
        for label in (PartitionLabel.IR, PartitionLabel.OR)
    )
    return ir, or_pool


def _labeled_data(
    config: RunConfig, balance: bool, skipped: list[str]
) -> list[ev.LabeledTweet]:
    ir, or_pool = _tagged_pools(config, skipped)
    if not ir:
        raise ConfigError("IR partition is empty; cannot build a labeled set")
    if balance:
        return ev.balanced_sample(ir, or_pool, config.seed)
    return [(t, mdl.IR) for t in ir] + [(t, mdl.OR) for t in or_pool]


def cmd_partition(config: RunConfig) -> dict:
    corpus = load_corpus(
        config.input, config.region, config.crisis_window, config.pre_crisis_window
    )
    outdir = config.partitions_dir()
    outdir.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    for label, filename in PARTITION_FILES.items():
        write_jsonl(outdir / filename, corpus.groups[label])
        files[label.value] = str(outdir / filename)
    write_jsonl(outdir / UNLABELED_FILE, corpus.unlabeled)
    files["unlabeled"] = str(outdir / UNLABELED_FILE)
    summary = _summary(
        "partition",
        warnings=list(corpus.skip_reasons),
        counts=corpus.counts(),
        imbalance_ratio=corpus.imbalance_ratio(),
        files=files,
    )
    _write_json(config.output_dir / "partition_summary.json", summary)
    return summary


def cmd_divergence(config: RunConfig, mode: str) -> dict:
    tweets, skipped, reasons = _read_tweets(config.input)
    skipped_layers: list[str] = []
    if mode == "hourly":
        if config.divergence_day is None or not config.divergence_hours:
            raise ConfigError("hourly mode needs divergence.day and divergence.hours in the config")
        matrix, warnings = div.hourly_divergence_matrix(
            tweets,
            config.region,
            config.divergence_day,
            config.divergence_hours,
            config.timezone_offset_minutes,
        )
    elif mode == "regional":
        window = (
            config.crisis_window
            if config.divergence_window == "crisis"
            else config.pre_crisis_window
        )
        if window is None:
            raise ConfigError("divergence window 'pre_crisis' requires pre_crisis_window")
        groups: dict[str, list[TaggedTweet]] = {}
        for name, region in config.regions.items():
            members = [
                t
                for t in tweets
                if t.geo is not None
                and window.contains(t.created_at)
                and region.contains(t.geo)
            ]
            groups[name] = _tag_all(config, members, skipped_layers)
        matrix, warnings = div.regional_divergence_matrix(groups)
    else:
        raise ConfigError(f"unknown divergence mode: {mode!r}")

    summary = _summary(
        "divergence",
        warnings=list(warnings) + reasons + skipped_layers,
        mode=mode,
        labels=matrix.labels,
        skipped_records=skipped,
        files=_write_tables(config, f"divergence_{mode}", matrix),
    )
    _write_json(config.output_dir / "divergence_summary.json", summary)
    return summary


def cmd_train(config: RunConfig, balance: bool | None = None) -> dict:
    do_balance = config.balance if balance is None else balance
    skipped: list[str] = []
    data = _labeled_data(config, do_balance, skipped)
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
    config.output_dir.mkdir(parents=True, exist_ok=True)
    mdl.save_model(model_path, model, feature_classes=config.feature_classes)
    labels = [label for _, label in data]
    summary = _summary(
        "train",
        warnings=skipped,
        model=str(model_path),
        kind=config.model_kind,
        seed=config.seed,
        balanced=do_balance,
        class_counts={mdl.IR: labels.count(mdl.IR), mdl.OR: labels.count(mdl.OR)},
        vocabulary_size=vocab_size,
        feature_classes=[c.value for c in config.feature_classes],
    )
    _write_json(config.output_dir / "train_summary.json", summary)
    return summary


def cmd_evaluate(config: RunConfig, mode: str) -> dict:
    skipped: list[str] = []
    if mode == "single":
        data = _labeled_data(config, True, skipped)
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
        data = _labeled_data(config, True, skipped)
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
        ir, or_pool = _tagged_pools(config, skipped)
        sweep = ev.imbalance_sweep(
            ir,
            or_pool,
            config.feature_classes,
            ratios=config.imbalance_ratios,
            seed=config.seed,
            alpha=config.alpha,
        )
        files = _write_tables(config, "imbalance", sweep)
        payload = {"summary_auc": sweep.summary_auc}
    else:
        raise ConfigError(f"unknown evaluate mode: {mode!r}")

    summary = _summary("evaluate", warnings=skipped, mode=mode, files=files, **payload)
    _write_json(config.output_dir / "evaluate_summary.json", summary)
    return summary


def _classify_tweets(
    config: RunConfig,
    model: mdl.NaiveBayesModel | mdl.LogisticRegressionModel,
    classes: list[FeatureClass],
    tweets: Sequence[RawTweet],
    skipped: list[str],
) -> Iterator[tuple[RawTweet, TaggedTweet, mdl.Prediction | None]]:
    """Tag, vectorize and label each tweet, lazily, so callers keep only what
    they need. A tweet with no tokens, or whose tag layers are misaligned, is
    reported in skipped. So is a tweet that lacks a layer the model needs,
    which is also yielded with no prediction."""
    for tweet in tweets:
        tagged = _tag(config, tweet, skipped)
        if tagged is None:
            continue
        if not tagged.words:
            skipped.append(f"tweet {tweet.id}: no tokens")
            continue
        try:
            vector = vectorize(tagged, classes)
        except MissingLayerError as exc:
            names = ",".join(c.value for c in exc.classes)
            skipped.append(f"tweet {tweet.id}: missing layers for {names}")
            yield tweet, tagged, None
            continue
        yield tweet, tagged, mdl.predict(model, vector)


def cmd_classify(config: RunConfig, model_path: Path, input_path: Path | None) -> dict:
    model, classes = mdl.load_model(model_path)
    if classes is None:
        logger.warning("model file lacks feature_classes; falling back to config")
        classes = config.feature_classes
    source = input_path if input_path is not None else _partition_path(config, UNLABELED_FILE)
    tweets, skipped_parse, reasons = _read_tweets(source)
    skipped_layers: list[str] = []
    results: list[tuple[RawTweet, mdl.Prediction]] = []
    lacking_layers = False
    for tweet, _, prediction in _classify_tweets(config, model, classes, tweets, skipped_layers):
        if prediction is None:
            lacking_layers = True
        else:
            results.append((tweet, prediction))
    if lacking_layers and not results:
        names = ", ".join(c.value for c in classes)
        raise ConfigError(
            f"no input tweet carries the tag layers the model needs ({names})"
        )

    out_path = config.output_dir / "classified.jsonl"
    config.output_dir.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        for tweet, prediction in results:
            record = tweet_to_record(tweet)
            record["label"] = prediction.label
            record["score"] = prediction.score
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    classified_ir = sum(1 for _, p in results if p.label == mdl.IR)
    summary = _summary(
        "classify",
        warnings=reasons + skipped_layers,
        model=str(model_path),
        input=str(source),
        output=str(out_path),
        total=len(tweets),
        classified=len(results),
        classified_ir=classified_ir,
        skipped=skipped_parse + len(skipped_layers),
    )
    _write_json(config.output_dir / "classify_summary.json", summary)
    return summary


def cmd_top_features(config: RunConfig, k: int) -> dict:
    if k <= 0:
        raise ConfigError(f"k must be positive, got {k}")
    skipped: list[str] = []
    data = _labeled_data(config, config.balance, skipped)
    vectors = [(vectorize(t, config.feature_classes), label) for t, label in data]
    model = mdl.train_logreg(vectors, config.logreg)
    lines = ["class,rank,feature,weight"]
    for cls in config.feature_classes:
        ranked = mdl.top_features(model, k, cls)
        for rank, (fid, weight) in enumerate(ranked, start=1):
            key = split_feature(fid)[1].replace('"', '""')
            lines.append(f'{cls.value},{rank},"{key}",{weight!r}')
    csv_path = config.output_dir / "top_features.csv"
    _write_text(csv_path, "\n".join(lines) + "\n")
    summary = _summary(
        "top-features",
        warnings=skipped,
        k=k,
        classes=[c.value for c in config.feature_classes],
        files={"csv": str(csv_path)},
    )
    _write_json(config.output_dir / "top_features_summary.json", summary)
    return summary


def cmd_cloud(config: RunConfig, model_path: Path, k: int) -> dict:
    if k <= 0:
        raise ConfigError(f"k must be positive, got {k}")
    skipped: list[str] = []
    ir_tagged = _tag_all(
        config, _read_partition(config, PARTITION_FILES[PartitionLabel.IR]), skipped
    )
    geotagged_cloud = ev.bigram_cloud(ir_tagged, k)

    model, classes = mdl.load_model(model_path)
    if classes is None:
        classes = config.feature_classes
    unlabeled = _read_partition(config, UNLABELED_FILE)
    additions = [
        tagged
        for _, tagged, prediction in _classify_tweets(config, model, classes, unlabeled, skipped)
        if prediction is not None and prediction.label == mdl.IR
    ]
    combined_cloud = ev.bigram_cloud(list(ir_tagged) + additions, k)

    def cloud_doc(cloud: list[tuple[str, int]]) -> list[dict]:
        return [{"bigram": bigram, "count": count} for bigram, count in cloud]

    path_a = config.output_dir / "cloud_geotagged.json"
    path_b = config.output_dir / "cloud_combined.json"
    _write_json(path_a, {"schema_version": SCHEMA_VERSION, "bigrams": cloud_doc(geotagged_cloud)})
    _write_json(path_b, {"schema_version": SCHEMA_VERSION, "bigrams": cloud_doc(combined_cloud)})
    summary = _summary(
        "cloud",
        warnings=skipped,
        k=k,
        geotagged_ir=len(ir_tagged),
        model_additions=len(additions),
        files={"geotagged": str(path_a), "combined": str(path_b)},
    )
    _write_json(config.output_dir / "cloud_summary.json", summary)
    return summary


def cmd_tag(config: RunConfig, input_path: Path | None, output_path: Path | None) -> dict:
    source = input_path if input_path is not None else config.input
    target = output_path if output_path is not None else config.output_dir / "tagged.jsonl"
    tweets, skipped, reasons = _read_tweets(source)
    target.parent.mkdir(parents=True, exist_ok=True)
    newly_tagged = 0
    with open(target, "w", encoding="utf-8") as handle:
        for tweet in tweets:
            if tweet.ark_tags is None:
                tags = tuple(fallback_ark_tags(tokenize(tweet.text)))
                tweet = dataclasses.replace(tweet, ark_tags=tags)
                newly_tagged += 1
            handle.write(json.dumps(tweet_to_record(tweet), sort_keys=True) + "\n")
    summary = _summary(
        "tag",
        warnings=reasons,
        input=str(source),
        output=str(target),
        total=len(tweets),
        newly_tagged=newly_tagged,
        skipped=skipped,
    )
    _write_json(config.output_dir / "tag_summary.json", summary)
    return summary


def cmd_vectors(config: RunConfig, input_path: Path | None) -> dict:
    source = input_path if input_path is not None else config.input
    tweets, skipped, reasons = _read_tweets(source)
    skipped_layers: list[str] = []
    out_path = config.output_dir / "vectors.jsonl"
    config.output_dir.mkdir(parents=True, exist_ok=True)
    coverage = {cls.value: 0 for cls in config.feature_classes}
    with open(out_path, "w", encoding="utf-8") as handle:
        for tweet in tweets:
            tagged = _tag(config, tweet, skipped_layers)
            if tagged is None:
                continue
            if not tagged.words:
                skipped_layers.append(f"tweet {tweet.id}: no tokens")
                continue
            absent = missing_classes(tagged, config.feature_classes)
            present = [cls for cls in config.feature_classes if cls not in absent]
            for cls in present:
                coverage[cls.value] += 1
            vector = vectorize(tagged, present) if present else {}
            doc = {"id": tweet.id, "features": vector_to_json(vector)}
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
    summary = _summary(
        "vectors",
        warnings=reasons + skipped_layers,
        input=str(source),
        output=str(out_path),
        total=len(tweets),
        skipped=skipped + len(skipped_layers),
        class_coverage=coverage,
    )
    _write_json(config.output_dir / "vectors_summary.json", summary)
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisislang",
        description="Locate crisis-region tweets from their language alone.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--output-dir", default=None, help="override the config output dir")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("partition", help="split the corpus into IR/OR/PC-IR/PC-OR/unlabeled")

    p = sub.add_parser("divergence", help="emit J-S divergence matrices")
    p.add_argument("--mode", choices=["hourly", "regional"], required=True)

    p = sub.add_parser("train", help="train a classifier on the labeled partitions")
    p.add_argument("--no-balance", action="store_true", help="skip 50/50 balanced sampling")

    p = sub.add_parser("evaluate", help="run the evaluation protocol")
    p.add_argument("--mode", choices=["single", "combos", "imbalance"], required=True)

    p = sub.add_parser("classify", help="label non-geotagged tweets with a trained model")
    p.add_argument("--model", required=True, help="path to a model.json")
    p.add_argument("--input", default=None, help="JSONL to classify (default: unlabeled partition)")

    p = sub.add_parser("top-features", help="rank features per class by LR weight")
    p.add_argument("--k", type=int, default=3)

    p = sub.add_parser("cloud", help="bigram clouds before/after adding model-recovered tweets")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=10)

    p = sub.add_parser("tag", help="fill missing ARK tags with the fallback tagger")
    p.add_argument("--input", default=None)
    p.add_argument("--output", default=None)

    p = sub.add_parser("vectors", help="emit per-tweet feature vectors as JSON lines")
    p.add_argument("--input", default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, output_dir=args.output_dir)
        if args.command == "partition":
            summary = cmd_partition(config)
        elif args.command == "divergence":
            summary = cmd_divergence(config, args.mode)
        elif args.command == "train":
            summary = cmd_train(config, balance=False if args.no_balance else None)
        elif args.command == "evaluate":
            summary = cmd_evaluate(config, args.mode)
        elif args.command == "classify":
            summary = cmd_classify(
                config, Path(args.model), Path(args.input) if args.input else None
            )
        elif args.command == "top-features":
            summary = cmd_top_features(config, args.k)
        elif args.command == "cloud":
            summary = cmd_cloud(config, Path(args.model), args.k)
        elif args.command == "tag":
            summary = cmd_tag(
                config,
                Path(args.input) if args.input else None,
                Path(args.output) if args.output else None,
            )
        else:
            summary = cmd_vectors(config, Path(args.input) if args.input else None)
    except (ConfigError, ValueError, OSError, mdl.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
