"""Output checks run after every stage of a benchmark workload.

Each check reads the files a stage wrote under the run's output directory
and returns a list of problems; an empty list means the stage's outputs are
correct. The cross-validation checks recompute folds through the plain
per-fold path (stratified_fold_indices, train_naive_bayes, predict_nb,
compute_metrics), which stays the reference for any faster CV path.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
from pathlib import Path

FEATURE_CLASSES = (
    "UNIGRAM", "BIGRAM", "ARK_POS", "PTB_POS", "SHALLOW_PARSE", "CRISIS_SENSITIVE",
)
# The subset whose combination row is recomputed fold by fold.
REFERENCE_SUBSET = ("UNIGRAM", "SHALLOW_PARSE", "CRISIS_SENSITIVE")
PARTITION_KEYS = ("IR", "OR", "PC_IR", "PC_OR", "UNASSIGNED", "unlabeled", "skipped")
METRIC_FIELDS = ("accuracy", "precision", "recall", "f1")


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _in_unit(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def reference_cv_readings(out: Path, config: dict, classes: list[str]) -> list[dict]:
    """The balanced set's CV readings, computed fold by fold with no CV helper."""
    from crisislang.evaluation import balanced_sample, compute_metrics, stratified_fold_indices
    from crisislang.features import FeatureClass, vectorize
    from crisislang.ingest import parse_tweet_record
    from crisislang.model import predict_nb, train_naive_bayes
    from crisislang.text import tag_raw_tweet

    def tagged(name: str):
        with open(out / "partitions" / name, encoding="utf-8") as handle:
            return [
                tag_raw_tweet(parse_tweet_record(line), use_fallback=config["fallback_tags"])
                for line in handle
                if line.strip()
            ]

    seed = config["seed"]
    data = balanced_sample(tagged("ir.jsonl"), tagged("or.jsonl"), seed)
    wanted = [FeatureClass(name) for name in classes]
    vectors = [vectorize(tweet, wanted) for tweet, _ in data]
    labels = [label for _, label in data]
    readings = []
    for repeat in range(config["cv"]["repeats"]):
        rng = random.Random(seed + repeat)
        for held_out in stratified_fold_indices(labels, config["cv"]["folds"], rng):
            held = set(held_out)
            train = [(vectors[i], labels[i]) for i in range(len(data)) if i not in held]
            model = train_naive_bayes(train, alpha=config["model"]["alpha"])
            predicted = [predict_nb(model, vectors[i]).label for i in held_out]
            readings.append(compute_metrics(predicted, [labels[i] for i in held_out]).to_dict())
    return readings


def _mean_reading(readings: list[dict]) -> dict:
    n = len(readings)
    return {name: sum(r[name] for r in readings) / n for name in METRIC_FIELDS}


class Checker:
    """Per-stage output checks for one workload run."""

    def __init__(self, work: Path, manifest: dict, config: dict):
        self.out = work / "out"
        self.manifest = manifest
        self.config = config
        self._reference: dict[tuple[str, ...], list[dict]] = {}

    def check(self, argv: tuple[str, ...]) -> list[str]:
        stage = argv[0]
        mode = argv[argv.index("--mode") + 1] if "--mode" in argv else None
        k = int(argv[argv.index("--k") + 1]) if "--k" in argv else None
        try:
            if stage == "partition":
                return self.partition()
            if stage == "train":
                return self.train()
            if stage == "classify":
                return self.classify()
            if stage == "evaluate":
                return {"single": self.cv_single, "combos": self.combos,
                        "imbalance": self.imbalance}[mode]()
            if stage == "top-features":
                return self.top_features(k)
            if stage == "divergence":
                return self.divergence(mode)
            if stage == "cloud":
                return self.cloud(k)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{stage}: unreadable output ({type(exc).__name__}: {exc})"]
        return [f"no check for stage {stage}"]

    def _reference_readings(self, classes: tuple[str, ...]) -> list[dict]:
        if classes not in self._reference:
            self._reference[classes] = reference_cv_readings(self.out, self.config, list(classes))
        return self._reference[classes]

    def partition(self) -> list[str]:
        counts = _load(self.out / "partition_summary.json")["counts"]
        problems = [
            f"partition: {key} is {counts.get(key)}, corpus has {want}"
            for key, want in self.manifest.items()
            if counts.get(key) != want
        ]
        if sum(counts[key] for key in PARTITION_KEYS) != counts["lines"]:
            problems.append("partition: counts plus skips differ from the non-blank lines")
        files = {"IR": "ir", "OR": "or", "PC_IR": "pc_ir", "PC_OR": "pc_or",
                 "UNASSIGNED": "unassigned", "unlabeled": "unlabeled"}
        for key, name in files.items():
            n = len(_jsonl(self.out / "partitions" / f"{name}.jsonl"))
            if n != counts[key]:
                problems.append(
                    f"partition: {name}.jsonl has {n} records, summary says {counts[key]}"
                )
        return problems

    def train(self) -> list[str]:
        summary = _load(self.out / "train_summary.json")
        model = _load(self.out / "model.json")
        n_ir = self.manifest["IR"]
        problems = []
        if summary["class_counts"] != {"IR": n_ir, "OR": n_ir}:
            problems.append(f"train: class counts {summary['class_counts']} are not {n_ir}/{n_ir}")
        if summary["vocabulary_size"] <= 0:
            problems.append("train: empty vocabulary")
        if model.get("kind") != self.config["model"]["kind"]:
            problems.append(f"train: model kind {model.get('kind')!r}")
        return problems

    def classify(self) -> list[str]:
        rows = _jsonl(self.out / "classified.jsonl")
        pool = [r["id"] for r in _jsonl(self.out / "partitions" / "unlabeled.jsonl")]
        problems = []
        if [r["id"] for r in rows] != pool:
            problems.append(
                f"classify: {len(rows)} rows do not match the {len(pool)} unlabeled tweets"
            )
        bad = [r["id"] for r in rows if r.get("label") not in ("IR", "OR")
               or not math.isfinite(r.get("score", math.nan))]
        if bad:
            problems.append(f"classify: {len(bad)} rows lack an IR/OR label or a finite score")
        return problems

    def combos(self) -> list[str]:
        doc = _load(self.out / "combinations.json")
        problems = []
        if doc["excluded_classes"]:
            problems.append(f"combos: classes excluded: {doc['excluded_classes']}")
        subsets = {
            "+".join(c)
            for size in range(1, len(FEATURE_CLASSES) + 1)
            for c in itertools.combinations(FEATURE_CLASSES, size)
        }
        rows = {e["classes"]: e["mean"] for e in doc["entries"]}
        if len(doc["entries"]) != 63 or set(rows) != subsets:
            problems.append(f"combos: {len(doc['entries'])} rows, not the 63 class subsets")
            return problems
        if not all(_in_unit(m[f]) for m in rows.values() for f in METRIC_FIELDS):
            problems.append("combos: a mean metric lies outside [0, 1]")
        want = _mean_reading(self._reference_readings(REFERENCE_SUBSET))
        got = rows["+".join(REFERENCE_SUBSET)]
        if any(got[f] != want[f] for f in METRIC_FIELDS):
            problems.append(f"combos: {'+'.join(REFERENCE_SUBSET)} mean {got} != per-fold {want}")
        return problems

    def cv_single(self) -> list[str]:
        readings = _load(self.out / "cv_report.json")["readings"]
        want = self._reference_readings(tuple(self.config["feature_classes"]))
        if readings != want:
            return [f"evaluate single: {len(readings)} readings differ from the per-fold "
                    "recomputation"]
        return []

    def imbalance(self) -> list[str]:
        doc = _load(self.out / "imbalance.json")
        aucs = doc["auc_per_ratio"]
        problems = []
        if len(aucs) != len(self.config["imbalance_ratios"]):
            problems.append(
                f"imbalance: {len(aucs)} AUCs for {len(self.config['imbalance_ratios'])} ratios"
            )
        if not all(_in_unit(a) for a in aucs):
            problems.append("imbalance: an AUC lies outside [0, 1]")
        if aucs and not math.isclose(doc["summary_auc"], sum(aucs) / len(aucs), rel_tol=1e-12):
            problems.append("imbalance: summary AUC is not the mean AUC")
        return problems

    def top_features(self, k: int) -> list[str]:
        with open(self.out / "top_features.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        problems = []
        for cls in self.config["feature_classes"]:
            weights = [float(r["weight"]) for r in rows if r["class"] == cls]
            if len(weights) != k:
                problems.append(f"top-features: {cls} has {len(weights)} rows, not {k}")
            if weights != sorted(weights, reverse=True):
                problems.append(f"top-features: {cls} weights are not descending")
        return problems

    def divergence(self, mode: str) -> list[str]:
        doc = _load(self.out / f"divergence_{mode}.json")
        labels, values = doc["labels"], doc["values"]
        if mode == "hourly":
            first, last = self.config["divergence"]["hours"]
            want = [f"{h:02d}:00" for h in range(first, last + 1)]
        else:
            want = list(self.config["regions"])
        problems = []
        if labels != want:
            problems.append(f"divergence {mode}: axis {labels}, expected {want}")
        n = len(labels)
        if len(values) != n or any(len(row) != n for row in values):
            return problems + [f"divergence {mode}: matrix is not {n} x {n}"]
        if any(values[i][i] != 0.0 for i in range(n)):
            problems.append(f"divergence {mode}: nonzero diagonal")
        if any(values[i][j] != values[j][i] for i in range(n) for j in range(n)):
            problems.append(f"divergence {mode}: matrix is not symmetric")
        if not all(_in_unit(v) for row in values for v in row):
            problems.append(f"divergence {mode}: an entry lies outside [0, 1]")
        if not all(_in_unit(v) for row in doc["normalized_values"] for v in row):
            problems.append(f"divergence {mode}: a normalized entry lies outside [0, 1]")
        return problems

    def cloud(self, k: int) -> list[str]:
        problems = []
        for name in ("cloud_geotagged.json", "cloud_combined.json"):
            counts = [b["count"] for b in _load(self.out / name)["bigrams"]]
            if len(counts) != k:
                problems.append(f"cloud: {name} has {len(counts)} bigrams, not {k}")
            if counts != sorted(counts, reverse=True):
                problems.append(f"cloud: {name} counts are not descending")
        summary = _load(self.out / "cloud_summary.json")
        if summary["geotagged_ir"] != self.manifest["IR"]:
            problems.append(f"cloud: {summary['geotagged_ir']} geotagged IR tweets")
        if not 0 < summary["model_additions"] <= self.manifest["unlabeled"]:
            problems.append(f"cloud: {summary['model_additions']} model additions")
        return problems
