"""Word-distribution divergence between tweet groups.

Jensen-Shannon divergence with base-2 logarithms, so values live in [0, 1].
The mixture distribution covers the union support, so no smoothing is needed.
A word distribution is a plain dict of token to relative frequency, made from
a group's word counts. Matrices come in two flavors: hour-by-hour within a
region on one local day, and group-by-group across named regions. Either way
the caller selects the tweets and counts each one's words into its groups as
it is read; this module only turns the groups' counts into matrices.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence


class DivergenceMatrix:
    def __init__(self, labels, values, normalized_values) -> None:
        self.labels: list[str] = labels
        self.values: list[list[float]] = values
        self.normalized_values: list[list[float]] = normalized_values

    def to_dict(self) -> dict:
        return dict(vars(self))

    def rows(self) -> list[list]:
        table = zip(self.labels, self.values)
        return [["", *self.labels]] + [[label, *row] for label, row in table]


def word_distribution(counts: Mapping[str, int]) -> dict[str, float]:
    """Relative frequencies of word counts, in the counts' order."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("cannot build a distribution from zero tokens")
    return {token: count / total for token, count in counts.items()}


def js_divergence(p: dict[str, float], q: dict[str, float]) -> float:
    """JSD(p, q) = KL(p||m)/2 + KL(q||m)/2 with m the even mixture, base 2.

    Tokens are visited in sorted order and each token's two half-terms are
    added together, so swapping the arguments gives the bit-identical result.
    The sum is clamped to [0, 1], which rounding can leave by an ulp: disjoint
    supports may otherwise sum to 1.0000000000000002.
    """
    total = 0.0
    for token in sorted(p.keys() | q.keys()):
        pi = p.get(token, 0.0)
        qi = q.get(token, 0.0)
        m = 0.5 * (pi + qi)
        term_p = 0.5 * pi * math.log2(pi / m) if pi > 0.0 else 0.0
        term_q = 0.5 * qi * math.log2(qi / m) if qi > 0.0 else 0.0
        total += term_p + term_q
    return min(max(total, 0.0), 1.0)


def _min_max_normalize(values: list[list[float]]) -> list[list[float]]:
    flat = [v for row in values for v in row]
    lo, hi = min(flat), max(flat)
    if hi <= lo:
        return [[0.0 for _ in row] for row in values]
    return [[(v - lo) / (hi - lo) for v in row] for row in values]


def pairwise_matrix(
    labels: Sequence[str], distributions: Sequence[dict[str, float]]
) -> DivergenceMatrix:
    """Symmetric JSD matrix with zero diagonal; entries in [0, 1]."""
    n = len(labels)
    values = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = js_divergence(distributions[i], distributions[j])
            values[i][j] = d
            values[j][i] = d
    return DivergenceMatrix(list(labels), values, _min_max_normalize(values))


def _matrix(
    groups: Iterable[tuple[str, Mapping[str, int]]], name: str, empty: str
) -> tuple[DivergenceMatrix, list[str]]:
    """Pairwise JSD between (label, word counts) groups. A group with no tokens
    is dropped with a warning that names it by name.format(label)."""
    labels: list[str] = []
    distributions: list[dict[str, float]] = []
    warnings: list[str] = []
    for label, counts in groups:
        try:
            distributions.append(word_distribution(counts))
        except ValueError:
            warnings.append(f"{name.format(label)} has no tokens; dropped from the axis")
            continue
        labels.append(label)
    if not labels:
        raise ValueError(empty)
    return pairwise_matrix(labels, distributions), warnings


def hourly_divergence_matrix(
    buckets: Mapping[int, Mapping[str, int]],
) -> tuple[DivergenceMatrix, list[str]]:
    """Pairwise JSD between hourly word distributions, one bucket of word
    counts per clock hour, in the mapping's order. Hours with no tokens are
    dropped from the axis; the drop reasons come back as warnings."""
    labelled = ((f"{hour:02d}:00", counts) for hour, counts in buckets.items())
    return _matrix(labelled, "hour {}", "no hour in the range has any tokens")


def regional_divergence_matrix(
    groups: Mapping[str, Mapping[str, int]],
) -> tuple[DivergenceMatrix, list[str]]:
    """Pairwise JSD between named groups' word counts (for example, cities)."""
    return _matrix(groups.items(), "group {!r}", "no group has any tokens")
