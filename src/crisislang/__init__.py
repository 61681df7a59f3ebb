"""Locate crisis-region social-media messages from their language alone.

The pipeline: partition a corpus by geography and time, measure word-level
divergence between groups, extract linguistic features, train and evaluate
classifiers, and classify the non-geotagged remainder.

Exports are lazy (PEP 562): importing the package loads no submodule; each
name loads its home module on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the crisislang module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("divergence", "js_divergence word_distribution"),
        ("evaluation", "balanced_sample bigram_cloud compute_metrics cross_validate"
         " enumerate_combinations imbalance_sweep roc_auc"),
        ("features", "FeatureClass FeatureId extract_crisis_sensitive vectorize"),
        ("ingest", "GeoPoint PartitionLabel RawTweet Region TimeWindow assign_partition"
         " haversine_km load_corpus parse_tweet_record"),
        ("model", "predict_nb select_all_baseline top_features train_logreg train_naive_bayes"),
        ("text", "attach_tags fallback_ark_tags tag_raw_tweet tokenize"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
