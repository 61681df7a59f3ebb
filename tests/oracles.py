"""Independent brute-force reference implementations used to check the package.

Everything here is deliberately written from first principles (different
formulas, different accumulation order) so agreement with the package is a
meaningful check rather than a tautology.
"""

from __future__ import annotations

import json
import math
import re
import unicodedata
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from crisislang.features import FeatureId
from crisislang.model import (
    IR,
    LABELS,
    LabeledVector,
    LogisticRegressionModel,
    LogRegParams,
    NaiveBayesModel,
    TrainingDiverged,
    _check_labels,
    _sigmoid,
)
from crisislang.text import (
    ADJECTIVE_LEXICON,
    ADVERB_LEXICON,
    CONTRACTIONS,
    DETERMINERS,
    PREPOSITIONS,
    VERB_LEXICON,
)

if TYPE_CHECKING:
    import numpy as np


def spherical_law_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance via the spherical law of cosines, R = 6371 km."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    # Clamp against rounding drift outside [-1, 1] for near-identical points.
    cos_c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    cos_c = max(-1.0, min(1.0, cos_c))
    return 6371.0 * math.acos(cos_c)


def jsd_brute(p: dict[str, float], q: dict[str, float]) -> float:
    """Jensen-Shannon divergence, base 2, via the pointwise mixture form.

    Uses sum over 2*p/(p+q) terms instead of the two-KL decomposition.
    """
    total = 0.0
    for token in set(p) | set(q):
        pi = p.get(token, 0.0)
        qi = q.get(token, 0.0)
        if pi > 0.0:
            total += 0.5 * pi * math.log2(2.0 * pi / (pi + qi))
        if qi > 0.0:
            total += 0.5 * qi * math.log2(2.0 * qi / (pi + qi))
    return total


def auc_pairwise(scores: list[float], truth: list[str], positive: str = "IR") -> float:
    """Rank-free AUC: compare every positive/negative pair, ties count half."""
    pos = [s for s, t in zip(scores, truth) if t == positive]
    neg = [s for s, t in zip(scores, truth) if t != positive]
    if not pos or not neg:
        raise ValueError("both classes required")
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def nb_posterior_margin(
    train: list[tuple[dict, str]],
    vector: dict,
    alpha: float,
) -> float:
    """Log-posterior margin log P(IR|x) - log P(OR|x) by direct enumeration.

    Recomputes the multinomial model in probability space from raw counts and
    takes a single log at the end, so it shares no code path with the package.
    """
    labels = ["IR", "OR"]
    n = len(train)
    vocab = set()
    for vec, _ in train:
        vocab.update(vec)
    post = {}
    for label in labels:
        rows = [vec for vec, lab in train if lab == label]
        prior = len(rows) / n
        feat_total = sum(sum(vec.values()) for vec in rows)
        prob = prior
        for fid, count in vector.items():
            if fid not in vocab:
                continue
            in_class = sum(vec.get(fid, 0) for vec in rows)
            likelihood = (in_class + alpha) / (feat_total + alpha * len(vocab))
            prob *= likelihood**count
        post[label] = prob
    return math.log(post["IR"]) - math.log(post["OR"])


def reference_train_naive_bayes(
    data: Sequence[LabeledVector], alpha: float = 1.0
) -> NaiveBayesModel:
    """Multinomial NB counted label by label: one count dict, one total and
    one instance count per label and the vocabulary as a set, so it shares no
    counting code with model.nb_counts. Each likelihood is
    (n_fc + alpha) / (n_c + alpha |V|), computed per label."""
    _check_labels(label for _, label in data)
    class_counts = {label: 0 for label in LABELS}
    feature_counts: dict[str, dict[FeatureId, int]] = {label: {} for label in LABELS}
    totals = {label: 0 for label in LABELS}
    vocabulary: set[FeatureId] = set()
    for vector, label in data:
        class_counts[label] += 1
        bucket = feature_counts[label]
        for fid, count in vector.items():
            vocabulary.add(fid)
            bucket[fid] = bucket.get(fid, 0) + count
            totals[label] += count

    n = len(data)
    class_log_prior = {label: math.log(class_counts[label] / n) for label in LABELS}
    v = len(vocabulary)
    loglik: dict[str, dict[FeatureId, float]] = {}
    for label in LABELS:
        denom = totals[label] + alpha * v
        loglik[label] = {
            fid: math.log((feature_counts[label].get(fid, 0) + alpha) / denom)
            for fid in vocabulary
        }
    return NaiveBayesModel(
        class_log_prior=class_log_prior,
        feature_log_likelihood=loglik,
        vocabulary=frozenset(vocabulary),
        alpha=alpha,
    )


def reference_nb_score(model, vector: dict) -> float:
    """predict_nb's score as it was summed before the log-ratio table: the
    prior margin, then count * (ll_IR[f] - ll_OR[f]) for each in-vocabulary
    feature in vector order, both likelihoods looked up per feature."""
    score = model.class_log_prior["IR"] - model.class_log_prior["OR"]
    ll_ir = model.feature_log_likelihood["IR"]
    ll_or = model.feature_log_likelihood["OR"]
    for fid, count in vector.items():
        if fid in model.vocabulary:
            score += count * (ll_ir[fid] - ll_or[fid])
    return score


def confusion_metrics(predicted: list[str], truth: list[str]) -> tuple[float, float, float, float]:
    """Accuracy/precision/recall/F1 from explicit confusion cells, IR positive."""
    tp = sum(1 for p, t in zip(predicted, truth) if p == "IR" and t == "IR")
    fp = sum(1 for p, t in zip(predicted, truth) if p == "IR" and t != "IR")
    fn = sum(1 for p, t in zip(predicted, truth) if p != "IR" and t == "IR")
    tn = sum(1 for p, t in zip(predicted, truth) if p != "IR" and t != "IR")
    acc = (tp + tn) / len(truth)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return acc, prec, rec, f1


def scan_tag_patterns(tags: list[str], pattern: list[str]) -> int:
    """Count contiguous occurrences of a tag pattern, stride 1, overlaps allowed."""
    hits = 0
    for i in range(len(tags) - len(pattern) + 1):
        if tags[i : i + len(pattern)] == pattern:
            hits += 1
    return hits


def fd_gradient(loss_fn, params: list[float], h: float = 1e-5) -> list[float]:
    """Central finite-difference gradient of a scalar loss over a flat vector."""
    grad = []
    for i in range(len(params)):
        hi = list(params)
        lo = list(params)
        hi[i] += h
        lo[i] -= h
        grad.append((loss_fn(hi) - loss_fn(lo)) / (2.0 * h))
    return grad


# Reference feature extractors: the plain per-class algorithms the package's
# fast extractors replace, reading the same columnar tagged tweet. Counts go
# into a Counter, the crisis patterns are found by one slicing scan each, and
# ids are inserted in the order those loops first reach them.

REFERENCE_CRISIS_PATTERNS = (
    ("N",), ("A",), ("!",), ("N", "R"), ("L", "A"), ("N", "P"),
    ("P", "D", "N"), ("L", "A", "!"), ("A", "N", "P"),
)


def _reference_ngrams(seq, n: int, prefix: str) -> dict[str, int]:
    counts: Counter[str] = Counter()
    for i in range(len(seq) - n + 1):
        counts[prefix + " ".join(seq[i : i + n])] += 1
    return dict(counts)


def reference_chunk_spans(words, chunk) -> list[tuple[str, int, int]]:
    spans: list[tuple[str, int, int]] = []
    current = None
    for i in range(len(words)):
        tag = chunk[i] or "O"
        if tag == "O":
            if current is not None:
                spans.append((current[0], current[1], i))
                current = None
            continue
        head, _, label = tag.partition("-")
        if head == "I" and current is not None and current[0] == label:
            continue
        if current is not None:
            spans.append((current[0], current[1], i))
        current = (label, i)
    if current is not None:
        spans.append((current[0], current[1], len(words)))
    return spans


def reference_shallow_parse(words, chunk) -> dict[str, int]:
    prefix = "SHALLOW_PARSE:"
    spans = reference_chunk_spans(words, chunk)
    labels = [label for label, _, _ in spans]
    counts: Counter[str] = Counter()
    for n in (1, 2, 3):
        for i in range(len(labels) - n + 1):
            counts[prefix + " ".join(labels[i : i + n])] += 1
    for label, _, end in spans:
        counts[f"{prefix}{label}:{words[end - 1]}"] += 1
    return dict(counts)


def _reference_pp_match(spans, i: int, j: int) -> bool:
    for idx, (label, start, end) in enumerate(spans):
        if start <= i < end:
            if label != "PP" or idx + 1 >= len(spans):
                return False
            nxt_label, nxt_start, nxt_end = spans[idx + 1]
            return nxt_label == "NP" and nxt_start == end and nxt_start <= j < nxt_end
    return False


def reference_crisis_sensitive(words, ark, ptb, chunk) -> dict[str, int]:
    prefix = "CRISIS_SENSITIVE:"
    tags = list(ark)
    counts: Counter[str] = Counter()
    for pattern in REFERENCE_CRISIS_PATTERNS:
        width = len(pattern)
        for i in range(len(tags) - width + 1):
            if tuple(tags[i : i + width]) != pattern:
                continue
            counts[prefix + "PAT:" + " ".join(pattern)] += 1
            wt = " ".join(f"{words[i + k]}/{pattern[k]}" for k in range(width))
            counts[prefix + "WT:" + wt] += 1

    spans = reference_chunk_spans(words, chunk) if chunk is not None else None
    for i, word in enumerate(words):
        if word != "in" or tags[i] != "P":
            continue
        j = i + 1
        while j < len(words) and tags[j] in ("D", "A"):
            j += 1
        if j < len(words) and tags[j] == "N":
            if spans is not None and not _reference_pp_match(spans, i, j):
                continue
            counts[f"{prefix}PP:in:{words[j]}"] += 1

    if ptb is not None:
        for i in range(len(words)):
            if ptb[i] != "EX":
                continue
            for j in (i + 1, i + 2):
                if j < len(words) and (ptb[j] or "").startswith("V"):
                    counts[f"{prefix}EX:{words[j]}"] += 1
                    break
    else:
        for i, word in enumerate(words):
            if word != "there" or (i > 0 and tags[i - 1] == "P"):
                continue
            for j in (i + 1, i + 2):
                if j < len(words) and tags[j] == "V":
                    counts[f"{prefix}EX:{words[j]}"] += 1
                    break
    return dict(counts)


def reference_vector(tweet, class_name: str) -> dict[str, int]:
    """One feature class's vector of a tagged tweet whose layers that class
    needs are present, by the reference extractors above."""
    words = tweet.words
    prefix = class_name + ":"
    if class_name == "UNIGRAM":
        return _reference_ngrams(words, 1, prefix)
    if class_name == "BIGRAM":
        return _reference_ngrams(words, 2, prefix)
    if class_name in ("ARK_POS", "PTB_POS"):
        tags = list(tweet.ark if class_name == "ARK_POS" else tweet.ptb)
        merged: Counter[str] = Counter()
        for n in (1, 2, 3):
            merged.update(_reference_ngrams(tags, n, prefix))
        return dict(merged)
    if class_name == "SHALLOW_PARSE":
        return reference_shallow_parse(words, tweet.chunk)
    return reference_crisis_sensitive(words, tweet.ark, tweet.ptb, tweet.chunk)


# Reference tokenizer and fallback tagger: the plain rule chains the package's
# fast paths short-cut, kept as they were before those paths existed. Every
# piece goes through the URL, sigil and edge-punctuation rules, and every
# token through the tag rules in order.

_URL_RE = re.compile(r"^(https?://|www\.)", re.IGNORECASE)
_SIGIL_RE = re.compile(r"^[@#][a-z0-9_]", re.IGNORECASE)
_NUMERIC_RE = re.compile(r"^[0-9]+([.,:/-][0-9]+)*%?$")
_ADJ_SUFFIXES = ("ous", "ful", "ive", "able", "ible", "less", "ish", "al", "ic")


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


def reference_tokenize(text: str) -> list[str]:
    """Deterministic, lowercasing tokenization of one message."""
    tokens: list[str] = []
    for piece in text.split():
        if _URL_RE.match(piece):
            tokens.append(piece)  # URLs verbatim, case preserved
            continue
        piece = piece.lower()
        if _SIGIL_RE.match(piece):
            # Keep the @/# sigil attached; peel only trailing punctuation.
            j = len(piece) - 1
            trailing: list[str] = []
            while j > 1 and _is_punct(piece[j]):
                trailing.append(piece[j])
                j -= 1
            tokens.append(piece[: j + 1])
            tokens.extend(reversed(trailing))
            continue
        tokens.extend(_split_piece(piece))
    return tokens


def _open_class_tag(token: str) -> str:
    # Heuristic fallback for open-class words; noun is the default.
    if token in ADVERB_LEXICON:
        return "R"
    if token in VERB_LEXICON:
        return "V"
    if token in ADJECTIVE_LEXICON:
        return "A"
    if token.endswith("ly"):
        return "R"
    if token.endswith(("ing", "ed")):
        return "V"
    if token.endswith(_ADJ_SUFFIXES):
        return "A"
    return "N"


def reference_fallback_ark_tags(tokens: list[str]) -> list[str]:
    """Rule-based ARK-style tag per token; deterministic, list-driven."""
    tags = []
    for token in tokens:
        if token.startswith("@") and len(token) > 1:
            tags.append("@")
        elif token.startswith("#") and len(token) > 1:
            tags.append("#")
        elif _URL_RE.match(token):
            tags.append("U")
        elif all(_is_punct(ch) for ch in token):
            tags.append("!")
        elif token in PREPOSITIONS:
            tags.append("P")
        elif token in DETERMINERS:
            tags.append("D")
        elif token in CONTRACTIONS:
            tags.append("L")
        elif _NUMERIC_RE.match(token):
            tags.append("$")
        else:
            tags.append(_open_class_tag(token))
    return tags


# Reference logistic regression: the dense design matrix the package's sparse
# (row, col, value) form replaced, with X @ w and X.T @ r computed by BLAS over
# every cell, zeros included, and a copy of the package's training loop.

def reference_logistic_loss_and_gradient(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray, bias: float, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean negative log-likelihood plus (l2/2)||w||^2; bias unregularized."""
    import numpy as np

    with np.errstate(over="ignore"):  # inf loss is caught by the trainer
        z = x @ weights + bias
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * float(weights @ weights))
        residual = _sigmoid(z) - y
        grad_w = x.T @ residual / len(y) + l2 * weights
        grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


def reference_design_matrix(
    data: Sequence[LabeledVector],
) -> tuple[np.ndarray, np.ndarray, list[FeatureId]]:
    """Dense design matrix with a deterministic feature ordering."""
    import numpy as np

    vocab = sorted({fid for vector, _ in data for fid in vector})
    index = {fid: i for i, fid in enumerate(vocab)}
    x = np.zeros((len(data), len(vocab)))
    y = np.zeros(len(data))
    for row, (vector, label) in enumerate(data):
        y[row] = 1.0 if label == IR else 0.0
        for fid, count in vector.items():
            x[row, index[fid]] = float(count)
    return x, y, vocab


def reference_train_logreg(
    data: Sequence[LabeledVector], params: LogRegParams = LogRegParams()
) -> LogisticRegressionModel:
    """Batch gradient descent from zero init until the update stalls."""
    import numpy as np

    _check_labels(label for _, label in data)
    x, y, vocab = reference_design_matrix(data)
    weights = np.zeros(len(vocab))
    bias = 0.0
    for epoch in range(params.max_epochs):
        loss, grad_w, grad_b = reference_logistic_loss_and_gradient(x, y, weights, bias, params.l2)
        if not math.isfinite(loss):
            raise TrainingDiverged(epoch)
        step_w = params.learning_rate * grad_w
        step_b = params.learning_rate * grad_b
        weights -= step_w
        bias -= step_b
        largest = max(float(np.max(np.abs(step_w))) if len(vocab) else 0.0, abs(step_b))
        if largest < params.tolerance:
            break
    if not (np.all(np.isfinite(weights)) and math.isfinite(bias)):
        raise TrainingDiverged(params.max_epochs)
    return LogisticRegressionModel(
        weights={fid: float(w) for fid, w in zip(vocab, weights)},
        bias=float(bias),
        params=params,
    )


def reference_json_value(data: bytes | str):
    """ingest.json_value through json.loads alone, with its error texts: the
    plain path its scanner fast path short-cuts."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as exc:
        try:
            data.rstrip(b"\r\n").decode("utf-8")
        except UnicodeDecodeError as without_breaks:
            exc = without_breaks
        raise ValueError(f"not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except RecursionError:
        raise ValueError("malformed JSON: nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"malformed JSON: {getattr(exc, 'msg', exc)}") from None
