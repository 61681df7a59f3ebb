"""Outside-in tracing of crisislang for the benchmark's per-layer metrics.

The tracer replaces public functions of each crisislang module with wrappers
that record a span per call: name, start, end, parent span and run id (one
run id per CLI stage invocation). A function imported by name into another
module (cli and evaluation import vectorize, train_naive_bayes and
predict_nb that way) is replaced there too, so no call escapes. Nothing in
the program changes; the wrappers exist only while a traced stage runs.

Spans stay in memory and are written once, after the run. Self time is a
span's duration minus its children's durations and minus the time the
tracer's own counting hooks spent inside it.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _vocab_size(model) -> int:
    return len(model.vocabulary) if hasattr(model, "vocabulary") else len(model.weights)


def _on_load_corpus(tracer, args, kwargs, corpus):
    tracer.counts["ingest.duplicates"] += corpus.duplicates


def _on_tag(tracer, args, kwargs, tagged):
    tracer.tagged.add((tracer.run_id, tagged.tweet_id))


def _on_vectorize(tracer, args, kwargs, vector):
    tracer.counts["features.features"] += len(vector)


def _on_predict_nb(tracer, args, kwargs, prediction):
    model, vector = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "vector")
    tracer.counts["model.predict_nb.features"] += len(vector)
    tracer.counts["model.predict_nb.in_vocab"] += len(model.vocabulary.intersection(vector))


def _on_save_model(tracer, args, kwargs, _):
    tracer.gauges["model.json_bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))
    tracer.gauges["model.vocabulary_size"] = _vocab_size(_arg(args, kwargs, 1, "model"))


def _on_load_model(tracer, args, kwargs, result):
    tracer.gauges["model.vocabulary_size"] = _vocab_size(result[0])


def _on_design_matrix(tracer, args, kwargs, result):
    tracer.gauges["model.design_matrix.bytes"] = max(
        tracer.gauges["model.design_matrix.bytes"], result[0].nbytes
    )


# (module, function, hook run after a successful call)
TRACED = (
    ("ingest", "parse_tweet_record", None),
    ("ingest", "tweet_to_record", None),
    ("ingest", "load_corpus", _on_load_corpus),
    ("ingest", "write_jsonl", None),
    ("text", "tokenize", None),
    ("text", "fallback_ark_tags", None),
    ("text", "attach_tags", None),
    ("text", "tag_raw_tweet", _on_tag),
    ("features", "vectorize", _on_vectorize),
    ("model", "train_naive_bayes", None),
    ("model", "predict_nb", _on_predict_nb),
    ("model", "train_logreg", None),
    ("model", "design_matrix", _on_design_matrix),
    ("model", "top_features", None),
    ("model", "save_model", _on_save_model),
    ("model", "load_model", _on_load_model),
    ("evaluation", "balanced_sample", None),
    ("evaluation", "stratified_fold_indices", None),
    ("evaluation", "compute_metrics", None),
    ("evaluation", "cross_validate", None),
    ("evaluation", "enumerate_combinations", None),
    ("evaluation", "imbalance_sweep", None),
    ("evaluation", "roc_auc", None),
    ("evaluation", "bigram_cloud", None),
    ("divergence", "word_distribution", None),
    ("divergence", "js_divergence", None),
    ("divergence", "pairwise_matrix", None),
    ("divergence", "hourly_divergence_matrix", None),
    ("divergence", "regional_divergence_matrix", None),
    ("cli", "main", None),
    ("cli", "cmd_partition", None),
    ("cli", "cmd_divergence", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_evaluate", None),
    ("cli", "cmd_classify", None),
    ("cli", "cmd_top_features", None),
    ("cli", "cmd_cloud", None),
)


class Tracer:
    """Span recorder plus the patches that route calls through it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.hook_s: defaultdict[int, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.gauges: Counter[str] = Counter()
        self.tagged: set[tuple[int, str]] = set()
        self.run_id = 0
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, object]] = []  # (original, wrapper)
        self._patched: list[tuple[object, str, object]] = []
        for module_name, func_name, hook in TRACED:
            module = importlib.import_module(f"crisislang.{module_name}")
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, hook)
            self._wrappers.append((original, wrapper))

    def _wrap(self, name, fn, hook):
        spans, stack, hook_s = self.spans, self._stack, self.hook_s
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                tracer.counts[name + ".raised"] += 1
                raise
            span[2] = clock()
            stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
                hook_s[parent] += clock() - span[2]
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self) -> None:
        """Bind every wrapper wherever a crisislang module bound its original."""
        replacements = {id(original): (original, wrapper) for original, wrapper in self._wrappers}
        for module_name, module in list(sys.modules.items()):
            if module_name != "crisislang" and not module_name.startswith("crisislang."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        """Drop recorded spans and counters; the wrappers keep working."""
        self.spans.clear()
        self.hook_s.clear()
        self.counts.clear()
        self.gauges.clear()
        self.tagged.clear()



def write_spans(path: Path, spans: list[list]) -> None:
    """One JSON array per line: name, start, end, parent index, run id."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


class SpanStats:
    """Per-name call counts, inclusive durations and self times."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.run_self_s: defaultdict[int, float] = defaultdict(float)
        self.run_hook_s: defaultdict[int, float] = defaultdict(float)
        for index, (name, start, end, parent, run) in enumerate(spans):
            own = end - start - child_s[index] - tracer.hook_s.get(index, 0.0)
            self.durations[name].append(end - start)
            self.self_s[name] += own
            self.run_self_s[run] += own
            self.run_hook_s[run] += tracer.hook_s.get(index, 0.0)

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def median(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0

    def p99(self, name: str) -> float:
        values = sorted(self.durations.get(name, ()))
        return values[math.ceil(0.99 * len(values)) - 1] if values else 0.0


def layer_metrics(tracer: Tracer, stats: SpanStats, names: list[str]) -> dict[str, float]:
    """Value of every per-layer metric named in BENCHMARK.json.

    trace.overhead_share needs untraced rounds too; the caller fills it in.
    """
    counts, gauges = tracer.counts, tracer.gauges

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    special = {
        "ingest.records_skipped": counts["ingest.parse_tweet_record.raised"]
        + counts["ingest.duplicates"],
        "text.tag_raw_tweet.calls_per_input_tweet": ratio(
            stats.calls("text.tag_raw_tweet"), len(tracer.tagged)
        ),
        "features.features_per_tweet": ratio(
            counts["features.features"], stats.calls("features.vectorize")
        ),
        "model.predict_nb.in_vocab_share": ratio(
            counts["model.predict_nb.in_vocab"], counts["model.predict_nb.features"]
        ),
        "model.vocabulary_size": gauges["model.vocabulary_size"],
        "model.json_bytes": gauges["model.json_bytes"],
        "model.design_matrix.bytes": gauges["model.design_matrix.bytes"],
        "trace.overhead_share": 0.0,
    }
    derived = {
        "us_per_call": lambda fn: stats.median(fn) * 1e6,
        "ms_per_call": lambda fn: stats.median(fn) * 1e3,
        "p99_us": lambda fn: stats.p99(fn) * 1e6,
        "calls": stats.calls,
        "self_s": lambda fn: stats.self_s.get(fn, 0.0),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        else:
            function, _, stat = name.rpartition(".")
            values[name] = derived[stat](function)
    return values
