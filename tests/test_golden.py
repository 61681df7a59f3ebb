"""Byte-for-byte golden outputs of the CLI on the synthetic pipeline corpus.

The files under tests/data/golden/ hold the outputs of the pipeline below.
A change to feature ids, their order, model serialization or the float
summation order of training and evaluation shows up as a diff here.
Logistic-regression outputs are left out, because BLAS summation order can
differ across machines.

Regenerate only when an output change is intended:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_golden()"
"""

from __future__ import annotations

import json
import tempfile
from itertools import cycle, islice
from pathlib import Path

import pytest

from crisislang.cli import main
from crisislang.features import FeatureClass
from synthdata import pipeline_corpus_lines, write_config

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

GOLDEN_FILES = (
    "model.json",
    "vectors.jsonl",
    "classified.jsonl",
    "cv_report.json",
    "cv_report.csv",
    "combinations.json",
    "combinations.csv",
    "imbalance.json",
    "imbalance.csv",
    "divergence_hourly.csv",
    "divergence_hourly.json",
    "divergence_regional.csv",
    "divergence_regional.json",
    "cloud_geotagged.json",
    "cloud_combined.json",
)

ALL_CLASSES = [c.value for c in FeatureClass]
PTB_CYCLE = ("EX", "VBZ", "DT", "NN", "IN")
CHUNK_CYCLE = ("B-NP", "B-VP", "B-PP", "B-NP", "I-NP", "O")
# The synthetic vocabulary never says "in"; this record adds the PP:in pattern.
PP_RECORD = {
    "id": "pp1",
    "text": "there is flooding in the city",
    "created_at": "2013-04-15T19:30:00Z",
    "ark_tags": ["X", "V", "N", "P", "D", "N"],
    "ptb_tags": ["EX", "VBZ", "NN", "IN", "DT", "NN"],
    "chunk_tags": ["B-NP", "B-VP", "B-NP", "B-PP", "B-NP", "I-NP"],
}


def _fully_tagged(line: str) -> str:
    # Synthetic texts are single-word tokens, so whitespace splitting matches
    # the tokenizer and the cycled layers align one per token.
    doc = json.loads(line)
    n = len(doc["text"].split())
    doc["ptb_tags"] = list(islice(cycle(PTB_CYCLE), n))
    doc["chunk_tags"] = list(islice(cycle(CHUNK_CYCLE), n))
    return json.dumps(doc, sort_keys=True)


def _write_inputs(root: Path) -> tuple[Path, Path, Path]:
    """Corpus and configs under root; returns (config, all-classes config, tagged input)."""
    lines = pipeline_corpus_lines(seed=0)
    corpus = root / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tagged = root / "tagged.jsonl"
    tagged_lines = [_fully_tagged(l) for l in lines[::10]] + [json.dumps(PP_RECORD)]
    tagged.write_text("\n".join(tagged_lines) + "\n", encoding="utf-8")
    config = root / "config.json"
    write_config(
        config, corpus, root / "out",
        feature_classes=["UNIGRAM", "BIGRAM", "ARK_POS", "CRISIS_SENSITIVE"],
    )
    all_classes = root / "all_classes.json"
    write_config(all_classes, corpus, root / "out", feature_classes=ALL_CLASSES)
    return config, all_classes, tagged


def produce_outputs(root: Path) -> dict[str, bytes]:
    """Run the NB pipeline stages, both divergences and the clouds under root
    and return the golden files."""
    config, all_classes, tagged = _write_inputs(root)
    out = root / "out"
    for cfg, argv in (
        (config, ["partition"]),
        (config, ["train"]),
        (config, ["classify", "--model", str(out / "model.json")]),
        (config, ["evaluate", "--mode", "single"]),
        (config, ["evaluate", "--mode", "combos"]),
        (config, ["evaluate", "--mode", "imbalance"]),
        (config, ["divergence", "--mode", "hourly"]),
        (config, ["divergence", "--mode", "regional"]),
        (config, ["cloud", "--model", str(out / "model.json"), "--k", "10"]),
        (all_classes, ["vectors", "--input", str(tagged)]),
    ):
        assert main(["--config", str(cfg), *argv]) == 0, argv
    return {name: (out / name).read_bytes() for name in GOLDEN_FILES}


def write_golden() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in produce_outputs(Path(tmp)).items():
            (GOLDEN_DIR / name).write_bytes(data)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN_DIR / name).read_bytes(), name


def test_committed_model_classifies_identically(tmp_path):
    # The committed model.json is read, not retrained: the schema-1 file
    # format must keep loading and labelling exactly as it did.
    config, _, _ = _write_inputs(tmp_path)
    assert main(["--config", str(config), "partition"]) == 0
    argv = ["classify", "--model", str(GOLDEN_DIR / "model.json")]
    assert main(["--config", str(config), *argv]) == 0
    classified = (tmp_path / "out" / "classified.jsonl").read_bytes()
    assert classified == (GOLDEN_DIR / "classified.jsonl").read_bytes()
