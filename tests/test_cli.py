import ast
import csv
import errno
import gc
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crisislang import cli
from crisislang.cli import ConfigError, load_config, main
from crisislang.features import LogRegParams
from crisislang.text import tokenize
from synthdata import JSON_VALUES, logreg_params_in_range, pipeline_corpus_lines, write_config


@pytest.fixture()
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(pipeline_corpus_lines(seed=0)) + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    write_config(config, corpus, out)
    return {"config": config, "corpus": corpus, "out": out, "root": tmp_path}


def run(workspace, *argv):
    return main(["--config", str(workspace["config"]), *argv])


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_lines(path):
    return [l for l in Path(path).read_text(encoding="utf-8").splitlines() if l]


class TestConfig:
    def test_missing_required_key(self, workspace):
        doc = read_json(workspace["config"])
        del doc["primary_region"]
        bad = workspace["root"] / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match="primary_region"):
            load_config(bad)

    def test_primary_region_must_exist(self, workspace):
        doc = read_json(workspace["config"])
        doc["primary_region"] = "atlantis"
        bad = workspace["root"] / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match="atlantis"):
            load_config(bad)

    def test_input_output_must_differ(self, workspace):
        doc = read_json(workspace["config"])
        doc["output_dir"] = doc["input"]
        bad = workspace["root"] / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match="distinct"):
            load_config(bad)

    def test_whole_numbers_load_as_the_setting_type(self, workspace):
        """alpha 1 and learning_rate 1 load as floats and max_epochs 500.0 as an
        int, so a logreg model.json is byte-identical to the canonical spelling's."""
        written = []
        for alpha, rate, epochs in ((1, 1, 500.0), (1.0, 1.0, 500)):
            doc = read_json(workspace["config"])
            doc["model"] = {"kind": "logreg", "alpha": alpha}
            doc["logreg"] = {"learning_rate": rate, "max_epochs": epochs}
            workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
            config = load_config(workspace["config"])
            loaded = (config.alpha, config.logreg.learning_rate, config.logreg.max_epochs)
            assert loaded == (1.0, 1.0, 500)
            assert [type(value) for value in loaded] == [float, float, int]
            assert run(workspace, "partition") == 0 and run(workspace, "train") == 0
            written.append((workspace["out"] / "model.json").read_bytes())
        assert written[0] == written[1]
        hyperparameters = read_json(workspace["out"] / "model.json")["hyperparameters"]
        assert json.dumps(hyperparameters, sort_keys=True) == (
            '{"l2": 0.0001, "learning_rate": 1.0, "max_epochs": 500, "tolerance": 1e-06}'
        )

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("cv.repeat", lambda doc: doc["cv"].update(repeat=10)),
            ("model.alpa", lambda doc: doc["model"].update(alpa=0.5)),
            ("logreg.rate", lambda doc: doc.update(logreg={"rate": 0.5})),
            ("fallback_tag", lambda doc: doc.update(fallback_tag=False)),
        ],
        ids=["cv", "model", "logreg", "top-level"],
    )
    def test_unknown_key_is_one_error_line(self, workspace, capsys, key, edit):
        doc = read_json(workspace["config"])
        edit(doc)
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        assert run(workspace, "partition") == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {key} is not a config key"]
        assert not workspace["out"].exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda doc: doc.update({"cv.repeats": 4}), "top-level key 'cv.repeats'"),
            (lambda doc: doc.update({"": 4}), "top-level key ''"),
            (lambda doc: doc["cv"].update({"re.peats": 4}), "cv key 're.peats'"),
        ],
        ids=["dotted", "empty", "dotted-in-section"],
    )
    def test_unknown_key_that_reads_as_another_is_quoted(self, workspace, capsys, edit, key):
        doc = read_json(workspace["config"])
        edit(doc)
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        assert run(workspace, "partition") == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {key} is not a config key"]
        assert not workspace["out"].exists()

    @pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--output-dir", "{root}/elsewhere")])
    def test_no_flag_overrides_the_config(self, workspace, capsys, flag, value):
        value = value.format(root=workspace["root"])
        with pytest.raises(SystemExit) as exited:
            main(["--config", str(workspace["config"]), flag, value, "partition"])
        assert exited.value.code == 2
        assert capsys.readouterr().err.startswith("usage: crisislang")
        assert not workspace["out"].exists() and not (workspace["root"] / "elsewhere").exists()

    def test_required_keys_alone_load_the_readme_defaults(self, workspace):
        """A config of the four required keys loads, and writing any README
        default into it changes no setting; a "none" default loads as None."""
        doc = read_json(workspace["config"])
        minimal = {key: doc[key] for key in REQUIRED_KEYS}
        workspace["config"].write_text(json.dumps(minimal), encoding="utf-8")
        defaults = load_config(workspace["config"])
        settings = {key: field for field, key, *_ in cli._SETTINGS}
        required = {key for _, key, default, _ in cli._SETTINGS if default is cli._REQUIRED}
        assert required == set(REQUIRED_KEYS)
        for key, default in _readme_defaults():
            if default == "required":
                assert key in REQUIRED_KEYS
            elif default == "none":
                assert getattr(defaults, settings[key]) is None
            else:
                section, _, name = key.rpartition(".")
                given = json.loads(json.dumps(minimal))
                (given.setdefault(section, {}) if section else given)[name] = json.loads(default)
                workspace["config"].write_text(json.dumps(given), encoding="utf-8")
                config = load_config(workspace["config"])
                for slot in cli.RunConfig.__slots__:
                    assert getattr(config, slot) == getattr(defaults, slot), (key, slot)

    def test_no_default_is_shared_between_loads(self, workspace):
        first = load_config(workspace["config"])
        first.feature_classes.clear()
        first.imbalance_ratios.clear()
        second = load_config(workspace["config"])
        assert second.feature_classes and second.imbalance_ratios

    def test_readme_settings_table_names_every_config_key(self):
        keys = [key for key, _ in _readme_defaults()]
        logreg = [key.partition(".")[2] for key in keys if key.startswith("logreg.")]
        assert sorted(logreg) == sorted(LogRegParams._fields)
        table = {"logreg" if key.startswith("logreg.") else key for key in keys}
        assert sorted(table) == sorted(key for _, key, *_ in cli._SETTINGS)

    def test_bad_exit_code(self, workspace, capsys):
        assert main(["--config", str(workspace["root"] / "nope.json"), "partition"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, command",
        [
            ("regions", [1, 2], ["partition"]),
            ("cv", {"repeats": 0}, ["evaluate", "--mode", "single"]),
            ("cv", {"folds": 0}, ["evaluate", "--mode", "single"]),
            ("divergence", {"day": "2013-04-15", "hours": 5}, ["divergence", "--mode", "hourly"]),
            ("cv", {"repeats": [1]}, ["partition"]),
            ("model", {"alpha": None}, ["partition"]),
            ("logreg", {"learning_rate": [0.1]}, ["partition"]),
            ("timezone_offset_minutes", [1], ["partition"]),
            ("divergence", {"day": 5}, ["partition"]),
            ("input", 5, ["partition"]),
            ("primary_region", [1], ["partition"]),
            ("cv", {"repeats": float("inf")}, ["partition"]),
            ("balance", "false", ["partition"]),
            ("fallback_tags", "no", ["partition"]),
            ("cv", {"folds": 2.5}, ["partition"]),
            ("cv", {"repeats": True}, ["partition"]),
            ("seed", 1.9, ["partition"]),
            ("model", {"alpha": True}, ["partition"]),
            ("divergence", {"day": "2013-04-15", "hours": [True, 3]}, ["partition"]),
            ("crisis_window", {"start": 5, "end": "2013-04-16T04:00:00Z"}, ["partition"]),
            ("pre_crisis_window", {"start": "2013-04-09T14:00:00Z", "end": 7}, ["partition"]),
            (
                "crisis_window",
                {"start": "0001-01-01T00:00:00+05:00", "end": "2013-04-16T04:00:00Z"},
                ["partition"],
            ),
            ("regions", {"boston": {"lat": True, "lon": -71.08, "radius_km": 19.0}}, ["partition"]),
            ("regions", {"boston": {"lat": 42.35, "lon": -71.08, "radius_km": "19"}}, ["partition"]),
            ("regions", {"boston": {"lat": 10**400, "lon": -71.08, "radius_km": 19.0}}, ["partition"]),
            ("timezone_offset_minutes", 10**12, ["divergence", "--mode", "hourly"]),
            ("feature_classes", ["UNIGRAM", "UNIGRAM"], ["partition"]),
            ("imbalance_ratios", [], ["evaluate", "--mode", "imbalance"]),
            ("model", {"alpha": float("nan")}, ["train"]),
            ("model", {"alpha": float("inf")}, ["train"]),
            ("logreg", {"learning_rate": float("nan")}, ["top-features", "--k", "2"]),
            (
                "regions",
                {"boston": {"lat": 42.35, "lon": -71.08, "radius_km": float("inf")}},
                ["partition"],
            ),
            ("logreg", {"learning_rate": -0.1}, ["partition"]),
            ("logreg", {"l2": -1.0}, ["partition"]),
            ("logreg", {"max_epochs": 0}, ["partition"]),
            ("logreg", {"tolerance": -1.0}, ["partition"]),
            ("model", {"alpha": 0}, ["partition"]),
            ("cv", {"repeats": 1e18}, ["partition"]),
            ("logreg", {"max_epochs": 1e18}, ["partition"]),
            ("divergence", {"day": "2013-04-15", "hours": [20, 3]}, ["partition"]),
        ],
    )
    def test_malformed_value_is_one_error_line(self, workspace, capsys, key, value, command):
        run(workspace, "partition")
        doc = read_json(workspace["config"])
        doc[key] = value
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(workspace, *command) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: {**doc, "cv": 5},
            lambda doc: {**doc, "model": "nb"},
            lambda doc: {**doc, "logreg": [0.1]},
            lambda doc: {**doc, "divergence": None},
            lambda doc: [doc],
        ],
        ids=["cv", "model", "logreg", "divergence", "top-level"],
    )
    def test_non_object_section_is_one_error_line(self, workspace, capsys, corrupt):
        doc = corrupt(read_json(workspace["config"]))
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match="must be"):
            load_config(workspace["config"])
        assert run(workspace, "partition") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("feature_classes", 5),
            ("imbalance_ratios", 0.5),
            ("feature_classes", "UNIGRAM"),
            ("imbalance_ratios", [None]),
        ],
        ids=["classes-number", "ratios-number", "classes-string", "ratios-null-item"],
    )
    def test_list_key_of_wrong_type_is_one_error_line(self, workspace, capsys, key, value):
        doc = read_json(workspace["config"])
        doc[key] = value
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            load_config(workspace["config"])
        assert run(workspace, "partition") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}")


REQUIRED_KEYS = ("input", "regions", "primary_region", "crisis_window")


def _readme_defaults():
    """(key, default) per key of the README's settings table, the default as
    its cell gives it with backticks dropped; a cell of two keys has one
    default per key. regions.<name> reads as regions."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | type | default | range |\n")[1].split("\n\n")[0]
    for line in table.splitlines()[1:]:
        cells = [cell.strip().replace("`", "") for cell in line.strip(" |").split(" | ")]
        keys = cells[0].replace(".<name>", "").split(", ")
        defaults = cells[2].split("; ")
        yield from zip(keys, defaults if len(keys) > 1 else defaults[:1])


CONFIG_FIELDS = [
    "input", "output_dir", "seed", "timezone_offset_minutes", "primary_region", "regions",
    "regions.boston", "regions.boston.lat", "regions.boston.radius_km", "crisis_window",
    "crisis_window.start", "pre_crisis_window", "pre_crisis_window.end", "feature_classes",
    "model", "model.kind", "model.alpha", "cv", "cv.repeats", "cv.folds", "balance",
    "fallback_tags", "imbalance_ratios", "logreg", "logreg.learning_rate", "logreg.max_epochs",
    "divergence", "divergence.day", "divergence.hours", "divergence.window",
]


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(CONFIG_FIELDS), value=JSON_VALUES)
@example(field="crisis_window.start", value="0001-01-01T00:00:00+05:00")
@example(field="regions.boston", value={"lat": True, "lon": -71.08, "radius_km": "19"})
@example(field="regions.boston.lat", value=10**400)
@example(field="timezone_offset_minutes", value=10**12)
@example(field="input", value="corpus\x00.jsonl")
@example(field="regions.boston.radius_km", value=float("nan"))
@example(field="model.alpha", value=float("nan"))
def test_any_json_value_in_any_config_field_loads_or_is_config_error(field, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        write_config(path, "corpus.jsonl", "out")
        doc = read_json(path)
        *parents, key = field.split(".")
        section = doc
        for name in parents:
            section = section.setdefault(name, {})
        section[key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            config = load_config(path)
        except ConfigError:
            return
    assert -1440 <= config.timezone_offset_minutes <= 1440
    assert config.region.radius_km > 0
    assert all(math.isfinite(number) for number in _floats(config))
    assert config.alpha > 0 and 1 <= config.cv_repeats <= 1000 and config.cv_folds >= 2
    assert all(0 < ratio < 1 for ratio in config.imbalance_ratios)
    assert logreg_params_in_range(config.logreg)
    assert all(type(n) is int for n in (config.seed, config.cv_repeats, config.cv_folds))


def _floats(value):
    """Every float held in value, through a RunConfig's slots, named tuples
    (Region, GeoPoint, LogRegParams), dicts and lists."""
    if isinstance(value, cli.RunConfig):
        value = [getattr(value, name) for name in cli.RunConfig.__slots__]
    elif isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, float):
        yield value


def test_floats_reaches_every_float_of_a_run_config(workspace):
    doc = read_json(workspace["config"])
    doc["regions"]["elsewhere"] = {"lat": 1.5, "lon": -2.5, "radius_km": 3.5}
    doc["logreg"] = {"learning_rate": 0.25, "l2": 0.125, "tolerance": 0.0625}
    doc["imbalance_ratios"] = [0.375]
    workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
    config = load_config(workspace["config"])
    regions = [(*r.epicenter, r.radius_km) for r in config.regions.values()]
    expected = [config.alpha, 0.25, 0.125, 0.0625, 0.375, *(x for r in regions for x in r)]
    assert sorted(_floats(config)) == sorted(expected)
    assert {1.5, -2.5, 3.5} <= set(expected)


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).parents[1] / "configs").glob("*.json")),
    ids=lambda path: path.name,
)
def test_shipped_config_loads(path):
    load_config(path)


class TestPartitionFirst:
    @pytest.mark.parametrize("command", ["classify", "cloud"])
    def test_stage_before_partition_is_one_error_line(self, workspace, capsys, command):
        from crisislang.features import FeatureClass
        from crisislang.model import save_model, train_naive_bayes

        model = train_naive_bayes([({"UNIGRAM:a": 1}, "IR"), ({"UNIGRAM:b": 1}, "OR")])
        model_path = workspace["root"] / "model.json"
        save_model(model_path, model, feature_classes=[FeatureClass.UNIGRAM])
        assert run(workspace, command, "--model", str(model_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: partition file ")
        assert err[0].endswith("not found; run the partition command first")


class TestPartition:
    def test_files_and_counts(self, workspace):
        assert run(workspace, "partition") == 0
        summary = read_json(workspace["out"] / "partition_summary.json")
        assert summary["counts"]["IR"] == 80
        assert summary["counts"]["OR"] == 120
        assert summary["counts"]["PC_IR"] == 5
        assert summary["counts"]["PC_OR"] == 5
        assert summary["counts"]["unlabeled"] == 60
        assert summary["imbalance_ratio"] == pytest.approx(80 / 200)
        parts = workspace["out"] / "partitions"
        assert len(read_lines(parts / "ir.jsonl")) == 80
        assert len(read_lines(parts / "unlabeled.jsonl")) == 60

    def test_rerun_is_byte_identical(self, workspace):
        run(workspace, "partition")
        first = {
            p.name: p.read_bytes()
            for p in sorted((workspace["out"] / "partitions").iterdir())
        }
        run(workspace, "partition")
        second = {
            p.name: p.read_bytes()
            for p in sorted((workspace["out"] / "partitions").iterdir())
        }
        assert first == second

    def test_three_record_fixture(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "text": "x", "created_at": "2013-04-15T19:30:00Z",
                        "geo": {"lat": 42.35, "lon": -71.08}}),
            json.dumps({"id": "b", "text": "y", "created_at": "2013-04-15T19:30:00Z",
                        "geo": {"lat": 40.75, "lon": -73.99}}),
            json.dumps({"id": "c", "text": "z", "created_at": "2013-04-15T19:30:00Z"}),
        ]
        corpus = tmp_path / "tiny.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = tmp_path / "c.json"
        write_config(config, corpus, tmp_path / "o")
        assert main(["--config", str(config), "partition"]) == 0
        summary = read_json(tmp_path / "o" / "partition_summary.json")
        assert summary["counts"]["IR"] == 1
        assert summary["counts"]["OR"] == 1
        assert summary["counts"]["unlabeled"] == 1
        assert summary["counts"]["PC_IR"] == 0

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"created_at": "9999-12-31T23:59:59-05:00"}, "timestamp out of range"),
            ({"geo": {"lat": 10**400, "lon": -71.08}}, "geo lat/lon out of range"),
            ({"geo": {"lat": True, "lon": False}}, "geo lat/lon must be numbers"),
            ({"id": True}, "id must be a non-empty string"),
        ],
        ids=["late-timestamp", "huge-lat", "boolean-geo", "boolean-id"],
    )
    def test_out_of_range_record_is_one_warning(self, workspace, fields, reason):
        doc = {"id": "late", "text": "qz1 w1", "created_at": "2013-04-15T20:00:00Z", **fields}
        n_lines = len(read_lines(workspace["corpus"]))
        with open(workspace["corpus"], "a", encoding="utf-8") as handle:
            handle.write(json.dumps(doc) + "\n")
        assert run(workspace, "partition") == 0
        summary = read_json(workspace["out"] / "partition_summary.json")
        assert summary["counts"]["skipped"] == 1
        assert len(summary["warnings"]) == 1
        assert summary["warnings"][0].startswith(f"line {n_lines + 1}: {reason}")

    def test_disk_full_on_the_unlabeled_file_leaves_every_partition_file(
        self, workspace, monkeypatch, capsys
    ):
        from crisislang import ingest

        def full_on_unlabeled(file, *args, **kwargs):
            handle = open(file, *args, **kwargs)
            if Path(file).name.startswith(f".{cli.PARTITION_FILES[cli.PartitionLabel.UNLABELED]}."):
                write = handle.write

                def write_half(text):
                    write(text[: len(text) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")

                handle.write = write_half
            return handle

        assert run(workspace, "partition") == 0
        parts = workspace["out"] / "partitions"
        previous = {p.name: p.read_bytes() for p in parts.iterdir()}
        assert len(previous) == 6
        lines = read_lines(workspace["corpus"])
        workspace["corpus"].write_text("\n".join(lines[::2]) + "\n", encoding="utf-8")
        monkeypatch.setattr(ingest, "open", full_on_unlabeled, raising=False)
        assert run(workspace, "partition") == 1
        assert "No space left" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in parts.iterdir()} == previous

    def test_empty_input(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("", encoding="utf-8")
        config = tmp_path / "c.json"
        write_config(config, corpus, tmp_path / "o")
        assert main(["--config", str(config), "partition"]) == 0
        summary = read_json(tmp_path / "o" / "partition_summary.json")
        assert all(v == 0 for v in summary["counts"].values())


def _divergence(root, name, records, mode, **overrides):
    """Run divergence on records (dicts written as JSON, strs as they are)
    under the test config, check that it exits 0, and return its matrix and
    summary."""
    corpus = _write_records(root / f"{name}.jsonl", records)
    config = root / f"{name}.json"
    write_config(config, corpus, root / name, **overrides)
    assert main(["--config", str(config), "divergence", "--mode", mode]) == 0
    out = root / name
    return read_json(out / f"divergence_{mode}.json"), read_json(out / "divergence_summary.json")


HOUR_TEN = {"divergence": {"day": "2013-04-15", "hours": [10, 10]}}


def _geo_record(tweet_id, text, created_at, geo=None):
    return {"id": tweet_id, "text": text, "created_at": created_at,
            "geo": geo or {"lat": 42.35, "lon": -71.08}}


class TestDivergence:
    @pytest.mark.parametrize(
        "edit, mode, message",
        [
            (
                lambda doc: doc["divergence"].pop("day"),
                "hourly",
                "hourly mode needs divergence.day and divergence.hours in the config",
            ),
            (
                lambda doc: (
                    doc.pop("pre_crisis_window"), doc["divergence"].update(window="pre_crisis")
                ),
                "regional",
                "divergence window 'pre_crisis' requires pre_crisis_window",
            ),
        ],
        ids=["hourly-without-day", "pre-crisis-without-window"],
    )
    def test_mode_without_its_setting_is_one_error_line(
        self, workspace, capsys, edit, mode, message
    ):
        doc = read_json(workspace["config"])
        edit(doc)
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        assert run(workspace, "divergence", "--mode", mode) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_regional_matrix(self, workspace):
        assert run(workspace, "divergence", "--mode", "regional") == 0
        doc = read_json(workspace["out"] / "divergence_regional.json")
        assert doc["labels"] == ["boston", "nyc"]
        assert doc["values"][0][0] == 0.0
        assert doc["values"][0][1] == doc["values"][1][0] > 0.0
        csv_text = (workspace["out"] / "divergence_regional.csv").read_text()
        assert csv_text.splitlines()[0] == ",boston,nyc"

    def test_regional_names_with_commas_quotes_and_line_breaks_read_back(self, workspace):
        doc = read_json(workspace["config"])
        boston, nyc = doc["regions"]["boston"], doc["regions"]["nyc"]
        names = ["Boston, MA", 'New "York"', "Down\rtown"]
        doc["regions"] = dict(zip(names, [boston, nyc, dict(boston, radius_km=5.0)]))
        doc["primary_region"] = names[0]
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        assert run(workspace, "divergence", "--mode", "regional") == 0
        matrix = read_json(workspace["out"] / "divergence_regional.json")
        assert matrix["labels"] == names
        with open(workspace["out"] / "divergence_regional.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["", *matrix["labels"]]
        assert [row[0] for row in rows[1:]] == matrix["labels"]
        assert [[float(v) for v in row[1:]] for row in rows[1:]] == matrix["values"]

    def test_hourly_matrix(self, tmp_path):
        from synthdata import hourly_shift_tweets

        corpus = tmp_path / "hourly.jsonl"
        corpus.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in hourly_shift_tweets(seed=1)) + "\n",
            encoding="utf-8",
        )
        config = tmp_path / "c.json"
        write_config(config, corpus, tmp_path / "o")
        assert main(["--config", str(config), "divergence", "--mode", "hourly"]) == 0
        doc = read_json(tmp_path / "o" / "divergence_hourly.json")
        assert doc["labels"] == [f"{h:02d}:00" for h in range(10, 20)]

    def test_regional_misaligned_record_is_counted_skip(self, workspace):
        lines = read_lines(workspace["corpus"])
        bad = json.loads(lines[0])
        assert bad.get("geo") is not None
        bad["chunk_tags"] = ["O"]
        workspace["corpus"].write_text(
            "".join(line + "\n" for line in [json.dumps(bad), *lines[1:]]), encoding="utf-8"
        )
        assert run(workspace, "divergence", "--mode", "regional") == 0
        summary = read_json(workspace["out"] / "divergence_summary.json")
        assert [w for w in summary["warnings"] if "chunk_tags" in w] == [
            f"tweet {bad['id']!r}: chunk_tags has 1 tags for {len(tokenize(bad['text']))} tokens"
        ]

    def test_regional_misaligned_record_counts_in_skipped_records(self, workspace):
        lines = read_lines(workspace["corpus"])
        bad = json.loads(lines[0])
        bad["chunk_tags"] = ["O"]
        workspace["corpus"].write_text(
            "".join(line + "\n" for line in [json.dumps(bad), *lines[1:]]), encoding="utf-8"
        )
        assert run(workspace, "divergence", "--mode", "regional") == 0
        summary = read_json(workspace["out"] / "divergence_summary.json")
        assert summary["skipped_records"] == 1

    def test_regional_tweet_in_two_regions_is_gated_once(self, workspace):
        doc = read_json(workspace["config"])
        doc["regions"]["downtown"] = dict(doc["regions"]["boston"], radius_km=5.0)
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        lines = read_lines(workspace["corpus"])
        bad = json.loads(lines[0])
        assert bad["geo"] == {"lat": doc["regions"]["boston"]["lat"],
                              "lon": doc["regions"]["boston"]["lon"]}
        bad["chunk_tags"] = ["O"]
        workspace["corpus"].write_text(
            "".join(line + "\n" for line in [json.dumps(bad), *lines[1:]]), encoding="utf-8"
        )
        assert run(workspace, "divergence", "--mode", "regional") == 0
        summary = read_json(workspace["out"] / "divergence_summary.json")
        assert summary["warnings"] == [
            f"tweet {bad['id']!r}: chunk_tags has 1 tags for {len(tokenize(bad['text']))} tokens"
        ]
        assert summary["skipped_records"] == 1
        matrix = read_json(workspace["out"] / "divergence_regional.json")
        assert matrix["labels"] == ["boston", "nyc", "downtown"]
        assert matrix["values"][0][2] == 0.0  # both discs hold every Boston tweet

    @pytest.mark.parametrize("mode", ["regional", "hourly"])
    def test_repeated_id_leaves_the_matrix_unchanged(self, tmp_path, mode):
        from synthdata import hourly_shift_tweets

        if mode == "regional":
            lines = pipeline_corpus_lines(seed=0)
        else:
            tweets = hourly_shift_tweets(seed=1, tweets_per_hour=20)
            lines = [json.dumps(r, sort_keys=True) for r in tweets]
        repeat = json.loads(lines[0])
        assert repeat["geo"] is not None

        def divergence(name, corpus_lines):
            corpus = tmp_path / f"{name}.jsonl"
            corpus.write_text("".join(line + "\n" for line in corpus_lines), encoding="utf-8")
            config = tmp_path / f"{name}.json"
            write_config(config, corpus, tmp_path / name)
            assert main(["--config", str(config), "divergence", "--mode", mode]) == 0
            matrix = read_json(tmp_path / name / f"divergence_{mode}.json")
            return matrix, read_json(tmp_path / name / "divergence_summary.json")

        plain, plain_summary = divergence("plain", lines)
        repeated, summary = divergence("repeated", [*lines[:5], lines[0], *lines[5:]])
        assert repeated == plain
        assert summary["skipped_records"] == plain_summary["skipped_records"] + 1 == 1
        assert summary["warnings"] == [f"line 6: duplicate id {repeat['id']}"]

    def test_identical_groups_zero_matrix(self, tmp_path):
        # One tweet duplicated at both epicenters: off-diagonal exactly zero.
        lines = [
            json.dumps({"id": "a", "text": "same words", "created_at": "2013-04-15T19:30:00Z",
                        "geo": {"lat": 42.35, "lon": -71.08}}),
            json.dumps({"id": "b", "text": "same words", "created_at": "2013-04-15T19:30:00Z",
                        "geo": {"lat": 40.75, "lon": -73.99}}),
        ]
        corpus = tmp_path / "two.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = tmp_path / "c.json"
        write_config(config, corpus, tmp_path / "o")
        assert main(["--config", str(config), "divergence", "--mode", "regional"]) == 0
        doc = read_json(tmp_path / "o" / "divergence_regional.json")
        assert doc["values"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_hourly_out_of_region_and_wrong_day_excluded(self, tmp_path):
        records = [
            _geo_record("1", "inside", "2013-04-15T14:00:00Z"),
            _geo_record("2", "faraway", "2013-04-15T14:00:00Z", {"lat": 40.75, "lon": -73.99}),
            _geo_record("3", "wrongday", "2013-04-14T14:00:00Z"),
        ]
        matrix, _ = _divergence(tmp_path, "o", records, "hourly", **HOUR_TEN)
        # Only the in-region, on-day tweet contributes.
        assert matrix["labels"] == ["10:00"]

    def test_hourly_local_time_past_the_calendar_is_off_the_day(self, tmp_path):
        records = [
            _geo_record("1", "inside", "2013-04-15T14:00:00Z"),
            _geo_record("2", "too early", "0001-01-01T01:00:00Z"),
        ]
        matrix, _ = _divergence(tmp_path, "o", records, "hourly", **HOUR_TEN)
        assert matrix["labels"] == ["10:00"]

    def test_hourly_misaligned_and_tokenless_records_are_counted_skips(self, tmp_path):
        from synthdata import hourly_shift_tweets

        records = hourly_shift_tweets(seed=1, tweets_per_hour=20)
        misaligned = dict(records[0], id="m1", chunk_tags=["O"])
        tokenless = dict(records[0], id="e1", text="   ")
        plain, _ = _divergence(tmp_path, "plain", records, "hourly")
        matrix, summary = _divergence(
            tmp_path, "gated", [*records[:3], misaligned, tokenless, *records[3:]], "hourly"
        )
        assert matrix == plain
        assert summary["skipped_records"] == 2
        n_tokens = len(tokenize(misaligned["text"]))
        assert summary["warnings"] == [
            f"tweet 'm1': chunk_tags has 1 tags for {n_tokens} tokens",
            "tweet e1: no tokens",
        ]

    def test_regional_skips_listed_in_input_order(self, workspace):
        lines = read_lines(workspace["corpus"])
        bad = dict(json.loads(lines[0]), chunk_tags=["O"])
        _write_records(workspace["corpus"], [bad, *lines[1:4], "not json", *lines[4:]])
        assert run(workspace, "divergence", "--mode", "regional") == 0
        summary = read_json(workspace["out"] / "divergence_summary.json")
        assert summary["warnings"] == [
            f"tweet {bad['id']!r}: chunk_tags has 1 tags for {len(tokenize(bad['text']))} tokens",
            "line 5: malformed JSON: Expecting value",
        ]

    # On the day and in the crisis window of the test config, or off both.
    ON_DAY, OFF_DAY = "2013-04-15T{:02d}:30:00Z", "2013-04-10T{:02d}:30:00Z"
    FAR = {"lat": 0.0, "lon": 0.0}
    KINDS = ["good", "far", "off-day", "misaligned", "misaligned-far", "tokenless",
             "tokenless-off-day", "malformed", "blank", "duplicate"]

    @settings(max_examples=40, deadline=None)
    @given(
        kinds=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(19, 23)), max_size=15),
        words=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=2, max_size=5),
    )
    def test_skips_are_the_bad_lines_in_input_order(self, kinds, words):
        text = " ".join(words)
        records, bad_lines, line_of = [], [], {}  # line_of: id -> line of its first record
        for lineno, (kind, hour) in enumerate([*kinds, ("good", 20)], start=1):
            if kind in ("malformed", "blank"):
                records.append("not json" if kind == "malformed" else "")
                bad_lines += [lineno] if kind == "malformed" else []
                continue
            if kind == "duplicate" and line_of:
                record = records[next(iter(line_of.values())) - 1]
            else:
                when = (self.OFF_DAY if "off-day" in kind else self.ON_DAY).format(hour)
                geo = self.FAR if "far" in kind else None
                record = _geo_record(f"r{lineno}", "   " if "tokenless" in kind else text, when, geo)
                if "misaligned" in kind:
                    record["chunk_tags"] = ["O"]
            records.append(record)
            # A repeated id, or a tweet both modes select whose tagging fails.
            if record["id"] in line_of or kind in ("misaligned", "tokenless"):
                bad_lines.append(lineno)
            line_of.setdefault(record["id"], lineno)
        with tempfile.TemporaryDirectory() as tmp:
            for mode in ("hourly", "regional"):
                _, summary = _divergence(Path(tmp), mode, records, mode)
                assert summary["skipped_records"] == len(bad_lines)
                skips = [w for w in summary["warnings"] if not w.endswith("dropped from the axis")]
                listed = [
                    int(w.split()[1][:-1]) if w.startswith("line ") else
                    line_of[w.split()[1].strip("':")]
                    for w in skips
                ]
                assert listed == bad_lines


def _first_id(model_doc):
    return next(iter(model_doc["feature_log_likelihood"]["IR"]))


def _as_logreg(model_doc, **fields):
    """Turn an NB model document into a valid logreg one, then set fields."""
    model_doc.update(
        kind="logreg",
        bias=0.0,
        weights={_first_id(model_doc): 1.0},
        hyperparameters={"learning_rate": 0.1, "l2": 0.0, "max_epochs": 1, "tolerance": 0.0},
    )
    model_doc.update(fields)


class TestTrainClassify:
    def test_train_writes_model_and_summary(self, workspace):
        run(workspace, "partition")
        assert run(workspace, "train") == 0
        model_doc = read_json(workspace["out"] / "model.json")
        assert model_doc["kind"] == "nb"
        assert model_doc["feature_classes"] == ["UNIGRAM", "BIGRAM"]
        summary = read_json(workspace["out"] / "train_summary.json")
        assert summary["balanced"] is True
        assert summary["class_counts"]["IR"] == summary["class_counts"]["OR"] == 80

    def test_train_on_empty_ir_partition_is_one_error_line(self, workspace, capsys):
        run(workspace, "partition")
        (workspace["out"] / "partitions" / "ir.jsonl").write_text("", encoding="utf-8")
        capsys.readouterr()
        assert run(workspace, "train") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: IR partition is empty; cannot build a labeled set"
        ]

    def test_no_balance_flag(self, workspace, capsys):
        """The balance config key is the one switch: train --no-balance is a
        usage error, and "balance": false trains on the natural ratio."""
        run(workspace, "partition")
        with pytest.raises(SystemExit) as exit_info:
            run(workspace, "train", "--no-balance")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-balance" in capsys.readouterr().err
        doc = read_json(workspace["config"])
        doc["balance"] = False
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        assert run(workspace, "train") == 0
        summary = read_json(workspace["out"] / "train_summary.json")
        assert summary["balanced"] is False
        assert summary["class_counts"]["OR"] == 120

    def test_train_rerun_identical_model(self, workspace):
        run(workspace, "partition")
        run(workspace, "train")
        first = (workspace["out"] / "model.json").read_bytes()
        run(workspace, "train")
        assert (workspace["out"] / "model.json").read_bytes() == first

    def test_classify_unlabeled(self, workspace):
        run(workspace, "partition")
        run(workspace, "train")
        assert run(workspace, "classify", "--model", str(workspace["out"] / "model.json")) == 0
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert summary["total"] == 60
        assert summary["classified"] == 60
        # Markers split the unlabeled pool evenly; separability recovers them.
        assert summary["classified_ir"] == 30
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "classified.jsonl")]
        assert all("label" in r and "score" in r for r in rows)

    def test_classify_empty_input(self, workspace, tmp_path):
        run(workspace, "partition")
        run(workspace, "train")
        empty = tmp_path / "none.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run(
            workspace, "classify", "--model", str(workspace["out"] / "model.json"),
            "--input", str(empty),
        ) == 0
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert summary["total"] == 0 and summary["classified_ir"] == 0
        assert read_lines(workspace["out"] / "classified.jsonl") == []

    def test_classify_layer_mismatch_is_fatal(self, workspace, capsys):
        # Model trained on a class whose layer the input cannot supply.
        doc = read_json(workspace["config"])
        doc["feature_classes"] = ["PTB_POS"]
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        run(workspace, "partition")
        from crisislang.features import FeatureClass
        from crisislang.model import save_model, train_naive_bayes

        model = train_naive_bayes([({"PTB_POS:NN": 1}, "IR"), ({}, "OR")])
        model_path = workspace["root"] / "ptb_model.json"
        save_model(model_path, model, feature_classes=[FeatureClass.PTB_POS])
        assert run(workspace, "classify", "--model", str(model_path)) == 1
        assert "PTB_POS" in capsys.readouterr().err

    def test_classify_misaligned_record_is_counted_skip(self, workspace, tmp_path):
        run(workspace, "partition")
        run(workspace, "train")
        records = [
            {"id": "a1", "text": "qz1 w1 w2 w3 w4", "created_at": "2013-04-15T20:00:00Z"},
            {"id": "a2", "text": "qz2 w5 w6 w7 w8", "created_at": "2013-04-15T20:01:00Z",
             "ark_tags": ["N"]},
            {"id": "a3", "text": "qz2 w9 w1 w2 w3", "created_at": "2013-04-15T20:02:00Z"},
        ]
        source = tmp_path / "three.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert run(
            workspace, "classify", "--model", str(workspace["out"] / "model.json"),
            "--input", str(source),
        ) == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "classified.jsonl")]
        assert [r["id"] for r in rows] == ["a1", "a3"]
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert (summary["total"], summary["classified"], summary["skipped"]) == (3, 2, 1)
        assert summary["warnings"] == ["tweet 'a2': ark_tags has 1 tags for 5 tokens"]

    def test_classify_missing_layers_are_counted_skips(self, workspace, tmp_path):
        from crisislang.features import FeatureClass
        from crisislang.model import save_model, train_naive_bayes

        model = train_naive_bayes([({"UNIGRAM:a": 1}, "IR"), ({"UNIGRAM:b": 1}, "OR")])
        model_path = tmp_path / "layered_model.json"
        classes = [FeatureClass.UNIGRAM, FeatureClass.PTB_POS, FeatureClass.SHALLOW_PARSE]
        save_model(model_path, model, feature_classes=classes)
        at = "2013-04-15T20:00:00Z"
        records = [
            {"id": "b1", "text": "a b", "created_at": at,
             "ptb_tags": ["NN", "NN"], "chunk_tags": ["B-NP", "I-NP"]},
            {"id": "b2", "text": "a b", "created_at": at},
            {"id": "b3", "text": "a b", "created_at": at, "ptb_tags": ["NN", "NN"]},
        ]
        source = tmp_path / "layers.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert run(workspace, "classify", "--model", str(model_path), "--input", str(source)) == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "classified.jsonl")]
        assert [r["id"] for r in rows] == ["b1"]
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert (summary["total"], summary["classified"], summary["skipped"]) == (3, 1, 2)
        assert summary["warnings"] == [
            "tweet b2: missing layers for PTB_POS,SHALLOW_PARSE",
            "tweet b3: missing layers for SHALLOW_PARSE",
        ]

    @pytest.mark.parametrize(
        "classes",
        [["UNIGRAM"], ["UNIGRAM", "BIGRAM"], ["CRISIS_SENSITIVE"]],
        ids=["unigram", "unigram-bigram", "crisis-sensitive"],
    )
    def test_classify_zero_token_message_is_counted_skip(self, workspace, tmp_path, classes):
        from crisislang.features import FeatureClass
        from crisislang.model import save_model, train_naive_bayes

        ids = [f"{classes[0]}:a", f"{classes[0]}:b"]  # the model's ids are of its classes
        model = train_naive_bayes([({ids[0]: 1}, "IR"), ({ids[1]: 1}, "OR")])
        model_path = tmp_path / "model.json"
        save_model(model_path, model, feature_classes=[FeatureClass(c) for c in classes])
        at = "2013-04-15T20:00:00Z"
        records = [
            {"id": "z1", "text": "a b", "created_at": at},
            {"id": "z2", "text": " \t ", "created_at": at},
            {"id": "z3", "text": "b a", "created_at": at},
        ]
        source = tmp_path / "blank.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert run(workspace, "classify", "--model", str(model_path), "--input", str(source)) == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "classified.jsonl")]
        assert [r["id"] for r in rows] == ["z1", "z3"]
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert (summary["total"], summary["classified"], summary["skipped"]) == (3, 2, 1)
        assert summary["warnings"] == ["tweet z2: no tokens"]

    @pytest.mark.parametrize(
        "record, warning",
        [
            ({"text": "  "}, "tweet only: no tokens"),
            ({"text": "a b", "ark_tags": ["N"]}, "tweet 'only': ark_tags has 1 tags for 2 tokens"),
        ],
        ids=["whitespace-only", "misaligned"],
    )
    def test_classify_all_skipped_for_other_causes_exits_zero(
        self, workspace, tmp_path, record, warning
    ):
        # The "no input tweet carries the tag layers" error is for missing
        # layers only; a UNIGRAM model needs none.
        from crisislang.features import FeatureClass
        from crisislang.model import save_model, train_naive_bayes

        model = train_naive_bayes([({"UNIGRAM:a": 1}, "IR"), ({"UNIGRAM:b": 1}, "OR")])
        model_path = tmp_path / "model.json"
        save_model(model_path, model, feature_classes=[FeatureClass.UNIGRAM])
        source = tmp_path / "one.jsonl"
        doc = {"id": "only", "created_at": "2013-04-15T20:00:00Z", **record}
        source.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        assert run(workspace, "classify", "--model", str(model_path), "--input", str(source)) == 0
        assert read_lines(workspace["out"] / "classified.jsonl") == []
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert (summary["total"], summary["classified"], summary["skipped"]) == (1, 0, 1)
        assert summary["warnings"] == [warning]

    def test_classify_skip_reasons_are_capped_and_all_counted(self, workspace, tmp_path):
        from crisislang.features import FeatureClass
        from crisislang.model import save_model, train_naive_bayes

        model = train_naive_bayes([({"UNIGRAM:a": 1}, "IR"), ({"UNIGRAM:b": 1}, "OR")])
        model_path = tmp_path / "model.json"
        save_model(model_path, model, feature_classes=[FeatureClass.UNIGRAM])
        at = "2013-04-15T20:00:00Z"
        records = [
            {"id": f"m{i}", "text": "a b", "created_at": at, "ark_tags": ["N"]} for i in range(25)
        ]
        source = tmp_path / "misaligned.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert run(workspace, "classify", "--model", str(model_path), "--input", str(source)) == 0
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert (summary["total"], summary["classified"], summary["skipped"]) == (25, 0, 25)
        assert summary["warnings"] == [
            f"tweet 'm{i}': ark_tags has 1 tags for 2 tokens" for i in range(20)
        ]

    def test_train_reports_unparseable_partition_line(self, workspace):
        run(workspace, "partition")
        ir_path = workspace["out"] / "partitions" / "ir.jsonl"
        n_lines = len(read_lines(ir_path))
        with open(ir_path, "a", encoding="utf-8") as handle:
            handle.write("this is not json\n")
        assert run(workspace, "train") == 0
        summary = read_json(workspace["out"] / "train_summary.json")
        assert summary["warnings"] == [f"line {n_lines + 1}: malformed JSON: Expecting value"]
        assert summary["class_counts"]["IR"] == n_lines

    @pytest.mark.parametrize("command", ["classify", "cloud"])
    def test_model_without_feature_classes_is_one_error_line(self, workspace, capsys, command):
        """The model file is the one source of the classes a model applies:
        the config's are never taken in their place."""
        run(workspace, "partition")
        run(workspace, "train")
        model_path = workspace["out"] / "model.json"
        doc = read_json(model_path)
        del doc["feature_classes"]
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(workspace, command, "--model", str(model_path)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: model document lacks field 'feature_classes'"
        ]
        assert not (workspace["out"] / f"{command}_summary.json").exists()

    @pytest.mark.parametrize("command", ["classify", "cloud"])
    def test_model_whose_classes_miss_its_ids_is_one_error_line(self, workspace, capsys, command):
        """A model file listing fewer classes than its feature ids use would
        score every tweet from the prior alone, so it is refused."""
        run(workspace, "partition")
        run(workspace, "train")
        model_path = workspace["out"] / "model.json"
        doc = read_json(model_path)
        assert doc["feature_classes"] == ["UNIGRAM", "BIGRAM"]
        doc["feature_classes"] = ["UNIGRAM"]
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(workspace, command, "--model", str(model_path)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: model field feature_classes lacks BIGRAM, which its feature ids use"
        ]
        assert not (workspace["out"] / f"{command}_summary.json").exists()
        assert not (workspace["out"] / "classified.jsonl").exists()
        assert not (workspace["out"] / "cloud_combined.json").exists()

    def test_train_misaligned_record_is_counted_skip(self, workspace):
        run(workspace, "partition")
        ir_path = workspace["out"] / "partitions" / "ir.jsonl"
        first, *rest = read_lines(ir_path)
        ir_path.write_text("".join(line + "\n" for line in rest), encoding="utf-8")
        assert run(workspace, "train") == 0
        without_record = (workspace["out"] / "model.json").read_bytes()

        bad = json.loads(first)
        bad["ark_tags"] = ["N"]
        ir_path.write_text(
            "".join(line + "\n" for line in [json.dumps(bad), *rest]), encoding="utf-8"
        )
        assert run(workspace, "train") == 0
        assert (workspace["out"] / "model.json").read_bytes() == without_record
        n_tokens = len(tokenize(bad["text"]))
        summary = read_json(workspace["out"] / "train_summary.json")
        assert summary["warnings"] == [
            f"tweet {bad['id']!r}: ark_tags has 1 tags for {n_tokens} tokens"
        ]
        assert summary["class_counts"]["IR"] == len(rest)

    @pytest.mark.parametrize(
        "command",
        [
            ["evaluate", "--mode", "single"],
            ["evaluate", "--mode", "combos"],
            ["evaluate", "--mode", "imbalance"],
            ["top-features", "--k", "2"],
            ["cloud", "--model", "MODEL", "--k", "3"],
        ],
        ids=["single", "combos", "imbalance", "top-features", "cloud"],
    )
    def test_misaligned_partition_record_is_skipped_by(self, workspace, command):
        run(workspace, "partition")
        run(workspace, "train")
        ir_path = workspace["out"] / "partitions" / "ir.jsonl"
        first, *rest = read_lines(ir_path)
        bad = json.loads(first)
        bad["ptb_tags"] = ["NN"]
        ir_path.write_text(
            "".join(line + "\n" for line in [json.dumps(bad), *rest]), encoding="utf-8"
        )
        model = str(workspace["out"] / "model.json")
        assert run(workspace, *[model if arg == "MODEL" else arg for arg in command]) == 0
        name = {"evaluate": "evaluate", "top-features": "top_features", "cloud": "cloud"}
        summary = read_json(workspace["out"] / f"{name[command[0]]}_summary.json")
        assert summary["warnings"][0].startswith(f"tweet {bad['id']!r}: ptb_tags has 1 tags")

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda doc: doc.pop("feature_log_likelihood"), "feature_log_likelihood"),
            (lambda doc: doc["feature_log_likelihood"]["OR"].update({"NOPE:x": -1.0}), "NOPE"),
            pytest.param(
                lambda doc: doc.update(feature_classes=5), "feature_classes", id="classes-number"
            ),
            pytest.param(
                lambda doc: doc.pop("feature_classes"),
                "model document lacks field 'feature_classes'",
                id="classes-missing",
            ),
            pytest.param(
                lambda doc: doc.update(feature_log_likelihood=[]),
                "feature_log_likelihood must be an object",
                id="likelihood-list",
            ),
            pytest.param(
                lambda doc: doc.update(class_log_prior=5), "class_log_prior", id="prior-number"
            ),
            pytest.param(
                lambda doc: doc["class_log_prior"].pop("OR"), "class_log_prior", id="prior-no-or"
            ),
            pytest.param(
                lambda doc: doc["feature_log_likelihood"]["OR"].pop(_first_id(doc)),
                "different ids",
                id="or-lacks-id",
            ),
            pytest.param(
                lambda doc: doc["feature_log_likelihood"]["IR"].update({_first_id(doc): "x"}),
                "must be a number",
                id="likelihood-string",
            ),
            pytest.param(
                lambda doc: _as_logreg(doc, weights=[1.0]), "weights", id="weights-list"
            ),
            pytest.param(
                lambda doc: _as_logreg(doc, hyperparameters=[0.1]),
                "hyperparameters",
                id="hyperparameters-list",
            ),
            pytest.param(
                lambda doc: doc["class_log_prior"].update(IR=float("inf")),
                "class_log_prior.IR must be finite",
                id="prior-infinity",
            ),
            pytest.param(
                lambda doc: doc["class_log_prior"].update(OR=float("-inf")),
                "class_log_prior.OR must be finite",
                id="prior-minus-infinity",
            ),
            pytest.param(
                lambda doc: doc["feature_log_likelihood"]["OR"].update({_first_id(doc): float("nan")}),
                "must be finite",
                id="likelihood-nan",
            ),
            pytest.param(
                lambda doc: _as_logreg(doc, weights={_first_id(doc): float("inf")}),
                "weights",
                id="weights-infinity",
            ),
            pytest.param(
                lambda doc: _as_logreg(doc, bias=float("nan")), "bias must be finite", id="bias-nan"
            ),
            pytest.param(
                lambda doc: doc.update(feature_classes=["PTB_POS", "PTB_POS"]),
                "model field feature_classes lists PTB_POS more than once",
                id="classes-repeated",
            ),
            pytest.param(
                lambda doc: doc.update(alpha=-1.0),
                "model field alpha must be positive and finite",
                id="alpha-negative",
            ),
        ],
    )
    def test_corrupt_model_is_one_error_line(self, workspace, capsys, corrupt, message):
        run(workspace, "partition")
        run(workspace, "train")
        model_path = workspace["out"] / "model.json"
        doc = read_json(model_path)
        corrupt(doc)
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(workspace, "classify", "--model", str(model_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]

    def test_non_finite_score_is_one_error_line(self, workspace, capsys, tmp_path):
        """Finite but extreme log-likelihoods sum to NaN; classify then fails
        with one error line naming the tweet and writes no classified.jsonl."""
        run(workspace, "partition")
        run(workspace, "train")
        model_path = workspace["out"] / "model.json"
        doc = read_json(model_path)
        tables = doc["feature_log_likelihood"]
        tables["IR"].update({"UNIGRAM:big": 1e308, "UNIGRAM:small": -1e308})
        tables["OR"].update({"UNIGRAM:big": -1e308, "UNIGRAM:small": 1e308})
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        tweets = tmp_path / "tweets.jsonl"
        record = {"id": "x", "text": "big small", "created_at": "2013-04-15T19:30:00Z"}
        tweets.write_text(json.dumps(record) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(workspace, "classify", "--model", str(model_path), "--input", str(tweets)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: tweet x: score nan is not finite"]
        assert not (workspace["out"] / "classified.jsonl").exists()
        assert not (workspace["out"] / "classify_summary.json").exists()

    def test_partition_warns_on_malformed_lines(self, workspace):
        with open(workspace["corpus"], "a", encoding="utf-8") as handle:
            handle.write("this is not json\n")
        assert run(workspace, "partition") == 0
        summary = read_json(workspace["out"] / "partition_summary.json")
        assert summary["counts"]["skipped"] == 1
        assert summary["warnings"]

    def test_classify_self_consistency(self, workspace):
        # Re-classifying the IR training tweets recovers them all (separable).
        run(workspace, "partition")
        run(workspace, "train")
        ir_file = workspace["out"] / "partitions" / "ir.jsonl"
        assert run(
            workspace, "classify", "--model", str(workspace["out"] / "model.json"),
            "--input", str(ir_file),
        ) == 0
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert summary["classified_ir"] == summary["total"] == 80

    def test_diverging_logreg_is_one_error_line(self, workspace, capsys):
        doc = read_json(workspace["config"])
        doc["model"] = {"kind": "logreg"}
        doc["logreg"] = {"learning_rate": 1e9}
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        run(workspace, "partition")
        capsys.readouterr()
        assert run(workspace, "train") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite loss at epoch ")

    def test_overflowing_logreg_step_prints_only_the_error_line(self, workspace):
        # In a stage process numpy's warnings reach stderr: the first step
        # overflows, and no warning may precede the one error line.
        records = [
            {"created_at": "2013-04-15T19:00:00Z", "geo": geo, "id": f"{name}{i}", "text": text}
            for i in range(20)
            for name, geo, text in (
                ("ir", {"lat": 42.35, "lon": -71.08}, " ".join(["help"] * 8)),
                ("or", {"lat": 40.75, "lon": -73.99}, "calm day here"),
            )
        ]
        workspace["corpus"].write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        doc = read_json(workspace["config"])
        doc["feature_classes"] = ["UNIGRAM"]
        doc["logreg"] = {"learning_rate": 1e308, "max_epochs": 1}
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        assert run(workspace, "partition") == 0
        result = stage_process(workspace, "top-features", "--k", "2")
        assert result.returncode == 1
        assert result.stderr == "error: non-finite loss at epoch 1; lower the learning rate\n"

    def test_train_logreg_kind(self, workspace):
        doc = read_json(workspace["config"])
        doc["model"] = {"kind": "logreg"}
        doc["feature_classes"] = ["UNIGRAM"]
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        run(workspace, "partition")
        assert run(workspace, "train") == 0
        model_doc = read_json(workspace["out"] / "model.json")
        assert model_doc["kind"] == "logreg"


def _save_unigram_model(path, classes):
    """A two-word NB model saved with the given feature classes."""
    from crisislang.features import FeatureClass
    from crisislang.model import save_model, train_naive_bayes

    model = train_naive_bayes([({"UNIGRAM:a": 1}, "IR"), ({"UNIGRAM:b": 1}, "OR")])
    save_model(path, model, feature_classes=[FeatureClass(c) for c in classes])
    return path


def _write_records(path, records):
    """One line per record: a dict is written as JSON, a str as it is."""
    lines = (r if isinstance(r, str) else json.dumps(r) for r in records)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


AT = "2013-04-15T20:00:00Z"


class TestStreamingClassify:
    """classify streams its input and predicts CLASSIFY_BATCH tagged tweets
    at a time."""

    def test_batch_size_changes_no_output_byte(self, workspace, tmp_path, monkeypatch):
        run(workspace, "partition")
        run(workspace, "train")
        pool = read_lines(workspace["out"] / "partitions" / "unlabeled.jsonl")
        misaligned = {"id": "m1", "text": "qz1 w1", "created_at": AT, "ark_tags": ["N"]}
        source = _write_records(
            tmp_path / "mixed.jsonl", [*pool[:7], "not json", misaligned, *pool[7:]]
        )
        outputs = []
        for size in (1, 2, len(pool) + 10):
            monkeypatch.setattr(cli, "CLASSIFY_BATCH", size)
            assert run(
                workspace, "classify", "--model", str(workspace["out"] / "model.json"),
                "--input", str(source),
            ) == 0
            outputs.append(
                tuple((workspace["out"] / name).read_bytes()
                      for name in ("classified.jsonl", "classify_summary.json"))
            )
        assert outputs[0] == outputs[1] == outputs[2]
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert (summary["total"], summary["classified"], summary["skipped"]) == (61, 60, 2)

    def test_unusable_first_batch_then_usable_tweet_exits_zero(
        self, workspace, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "CLASSIFY_BATCH", 2)
        model_path = _save_unigram_model(tmp_path / "model.json", ["UNIGRAM", "PTB_POS"])
        records = [{"id": f"n{i}", "text": "a b", "created_at": AT} for i in range(4)]
        records.append({"id": "y", "text": "a b", "created_at": AT, "ptb_tags": ["NN", "NN"]})
        source = _write_records(tmp_path / "late.jsonl", records)
        assert run(workspace, "classify", "--model", str(model_path), "--input", str(source)) == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "classified.jsonl")]
        assert [r["id"] for r in rows] == ["y"]
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert (summary["total"], summary["classified"], summary["skipped"]) == (5, 1, 4)
        assert summary["warnings"] == [f"tweet n{i}: missing layers for PTB_POS" for i in range(4)]

    @pytest.mark.parametrize("older", [None, "an older run\n"], ids=["no-older", "older"])
    @pytest.mark.parametrize("cause", ["no-usable-tweet", "missing-input"])
    def test_failed_run_leaves_no_output(
        self, workspace, tmp_path, monkeypatch, capsys, older, cause
    ):
        monkeypatch.setattr(cli, "CLASSIFY_BATCH", 2)
        model_path = _save_unigram_model(tmp_path / "model.json", ["UNIGRAM", "PTB_POS"])
        source = tmp_path / "input.jsonl"
        if cause == "no-usable-tweet":
            _write_records(
                source, [{"id": f"n{i}", "text": "a b", "created_at": AT} for i in range(5)]
            )
        out = workspace["out"]
        out.mkdir()
        if older is not None:
            (out / "classified.jsonl").write_text(older, encoding="utf-8")
        assert run(workspace, "classify", "--model", str(model_path), "--input", str(source)) == 1
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1
        assert ("PTB_POS" if cause == "no-usable-tweet" else str(source)) in errors[0]
        assert not list(out.glob(".classified.jsonl.*.tmp"))
        if older is None:
            assert not (out / "classified.jsonl").exists()
        else:
            assert (out / "classified.jsonl").read_text(encoding="utf-8") == older

    def test_parse_and_tag_skips_listed_in_input_order(self, workspace, tmp_path):
        model_path = _save_unigram_model(tmp_path / "model.json", ["UNIGRAM"])
        source = _write_records(tmp_path / "mixed.jsonl", [
            {"id": "g1", "text": "a b", "created_at": AT},
            {"id": "m1", "text": "a b", "created_at": AT, "ark_tags": ["N"]},
            "not json",
            {"id": "e1", "text": " ", "created_at": AT},
            {"id": "late", "text": "a b", "created_at": "yesterday"},
            {"id": "g2", "text": "b a", "created_at": AT},
        ])
        assert run(workspace, "classify", "--model", str(model_path), "--input", str(source)) == 0
        summary = read_json(workspace["out"] / "classify_summary.json")
        assert (summary["total"], summary["classified"], summary["skipped"]) == (4, 2, 4)
        assert summary["warnings"] == [
            "tweet 'm1': ark_tags has 1 tags for 2 tokens",
            "line 3: malformed JSON: Expecting value",
            "tweet e1: no tokens",
            "line 5: unparseable timestamp: 'yesterday'",
        ]


def _synthetic_tweets(path, n, seed):
    """n untagged tweets of 12 words drawn from a 3,000-word vocabulary."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(3000)]
    _write_records(path, [
        {"id": f"t{i}", "text": " ".join(rng.choices(vocab, k=12)), "created_at": AT}
        for i in range(n)
    ])
    return path


class TestClassifyMemory:
    # A classify run holds one batch at a time, so 8x the input may add only
    # this much to its tracemalloc peak. The difference read -2 to 8 KB in 15
    # runs of this test alone and about 3 KB in each of three full tier-1
    # runs, while holding every tweet's RawTweet and Prediction added about
    # 1.6 MB. The peak also counts CPython's tuple free lists: when a full
    # garbage collection has just emptied them, the large run refills them
    # with traced blocks, and the difference reads about 180 KB. So each
    # measured run starts right after a full collection.
    SLACK_BYTES = 256 * 1024

    def test_peak_does_not_grow_with_the_input(self, workspace, tmp_path):
        from crisislang.features import FeatureClass
        from crisislang.model import save_model, train_naive_bayes

        rng = random.Random(3)
        data = [
            ({f"UNIGRAM:w{rng.randrange(3000)}": 1 for _ in range(12)}, label)
            for label in ("IR", "OR") for _ in range(200)
        ]
        model_path = tmp_path / "model.json"
        classes = [FeatureClass.UNIGRAM, FeatureClass.BIGRAM, FeatureClass.CRISIS_SENSITIVE]
        save_model(model_path, train_naive_bayes(data), feature_classes=classes)
        config = load_config(workspace["config"])
        n = 2 * cli.CLASSIFY_BATCH

        def peak(source):
            gc.collect()  # the free lists in the same state for both runs
            tracemalloc.start()
            try:
                cli.cmd_classify(config, model_path, source)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small_input = _synthetic_tweets(tmp_path / "small.jsonl", n, 1)
        cli.cmd_classify(config, model_path, small_input)  # one-off allocations
        small = peak(small_input)
        large = peak(_synthetic_tweets(tmp_path / "large.jsonl", 8 * n, 2))
        assert large <= small + self.SLACK_BYTES, (small, large)


class TestCloudMemory:
    # cloud counts the model's additions as they are predicted, so 8x the
    # unlabeled pool may add only this much to its tracemalloc peak: under
    # 1 KB was measured here, while holding every addition added about 1.3 MB.
    SLACK_BYTES = 256 * 1024

    def test_peak_does_not_grow_with_the_unlabeled_pool(self, workspace):
        run(workspace, "partition")
        run(workspace, "train")
        config = load_config(workspace["config"])
        model_path = config.output_dir / "model.json"
        unlabeled = config.partitions_dir() / cli.PARTITION_FILES[cli.PartitionLabel.UNLABELED]
        pool = [json.loads(line) for line in read_lines(unlabeled)]
        n = 8 * len(pool)

        def peak(size):
            # The pool repeated under fresh ids, so the bigram counts stay put.
            _write_records(unlabeled, [dict(pool[i % len(pool)], id=f"u{i}") for i in range(size)])
            tracemalloc.start()
            try:
                summary = cli.cmd_cloud(config, model_path, 10)
                return tracemalloc.get_traced_memory()[1], summary["model_additions"]
            finally:
                tracemalloc.stop()

        cli.cmd_cloud(config, model_path, 10)  # one-off allocations
        small, small_additions = peak(n)
        large, large_additions = peak(8 * n)
        assert large_additions == 8 * small_additions > 0
        assert large <= small + self.SLACK_BYTES, (small, large)


def _peak_bytes(call) -> int:
    """The tracemalloc peak of call(), after a full collection, so every
    measured run starts with CPython's free lists in the same state."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCountingStagesMemory:
    # divergence and cloud count each tagged tweet's words as it is read, and
    # partition writes each record to its file as it is read; none keeps a
    # tweet. So growing their input 8x under fresh ids (the texts, and so the
    # counts, stay put) may add only this much to the tracemalloc peak, beyond
    # what the duplicate-id set of divergence and partition needs. The
    # difference read -62 to +115 KB, the most in cloud, where CPython's tuple
    # free lists refill; holding every selected tweet added 3.4 to 4.8 MB.
    SLACK_BYTES = 256 * 1024

    @pytest.mark.parametrize("mode", ["hourly", "regional", "regional-misaligned"])
    def test_divergence_peak_grows_only_by_the_id_set(self, workspace, mode):
        from synthdata import hourly_shift_tweets

        if mode == "hourly":
            base = hourly_shift_tweets(seed=1, tweets_per_hour=10)
        else:
            base = [json.loads(line) for line in read_lines(workspace["corpus"])]
        if mode == "regional-misaligned":
            # Nine records in ten carry one ARK tag for their several words, so
            # tagging skips them after they were selected, and nothing counts them.
            base = [dict(r, ark_tags=["N"]) if i % 10 else r for i, r in enumerate(base)]
            mode = "regional"
        config = load_config(workspace["config"])
        self._assert_peak_grows_only_by_the_id_set(config, base, lambda: cli.cmd_divergence(config, mode))

    def test_partition_peak_grows_only_by_the_id_set(self, workspace):
        base = [json.loads(line) for line in read_lines(workspace["corpus"])]
        config = load_config(workspace["config"])
        lines = []
        self._assert_peak_grows_only_by_the_id_set(
            config, base, lambda: lines.append(cli.cmd_partition(config)["counts"]["lines"])
        )
        assert lines[-2:] == [1000, 8000]

    def _assert_peak_grows_only_by_the_id_set(self, config, base, stage):
        """stage()'s peak grows from 1,000 to 8,000 input records, cycled from
        base under fresh ids, by no more than their id set plus the slack."""
        n = 1000

        def peak(size):
            _write_records(config.input, [dict(base[i % len(base)], id=f"r{i}") for i in range(size)])
            return _peak_bytes(stage)

        def id_set(size):
            return _peak_bytes(lambda: {f"r{i}" for i in range(size)})

        stage()  # one-off allocations
        small, large = peak(n), peak(8 * n)
        ids_growth = id_set(8 * n) - id_set(n)
        assert large <= small + ids_growth + self.SLACK_BYTES, (small, large, ids_growth)

    def test_cloud_peak_does_not_grow_with_the_ir_partition(self, workspace):
        run(workspace, "partition")
        run(workspace, "train")
        config = load_config(workspace["config"])
        model_path = config.output_dir / "model.json"
        ir_path = config.partitions_dir() / cli.PARTITION_FILES[cli.PartitionLabel.IR]
        ir = [json.loads(line) for line in read_lines(ir_path)]
        n = 8 * len(ir)

        def peak(size):
            _write_records(ir_path, [dict(ir[i % len(ir)], id=f"g{i}") for i in range(size)])
            summary = {}
            top = _peak_bytes(lambda: summary.update(cli.cmd_cloud(config, model_path, 10)))
            assert summary["geotagged_ir"] == size
            return top

        cli.cmd_cloud(config, model_path, 10)  # one-off allocations
        small, large = peak(n), peak(8 * n)
        assert large <= small + self.SLACK_BYTES, (small, large)


class TestEvaluate:
    def test_single_mode_fifteen_readings(self, workspace):
        run(workspace, "partition")
        assert run(workspace, "evaluate", "--mode", "single") == 0
        doc = read_json(workspace["out"] / "cv_report.json")
        assert len(doc["readings"]) == 15
        csv_lines = read_lines(workspace["out"] / "cv_report.csv")
        assert len(csv_lines) == 17

    def test_combos_mode_word_only(self, workspace):
        doc = json.loads(workspace["config"].read_text())
        doc["fallback_tags"] = False
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        run(workspace, "partition")
        assert run(workspace, "evaluate", "--mode", "combos") == 0
        combos = read_json(workspace["out"] / "combinations.json")
        assert len(combos["entries"]) == 3
        assert "ARK_POS" in combos["excluded_classes"]

    def test_combos_mode_with_fallback_tags(self, workspace):
        # Fallback ARK tags make UNIGRAM/BIGRAM/ARK_POS/CRISIS_SENSITIVE
        # extractable: 2^4 - 1 = 15 combinations.
        run(workspace, "partition")
        assert run(workspace, "evaluate", "--mode", "combos") == 0
        combos = read_json(workspace["out"] / "combinations.json")
        assert len(combos["entries"]) == 15
        assert set(combos["excluded_classes"]) == {"PTB_POS", "SHALLOW_PARSE"}

    def test_imbalance_mode(self, workspace):
        doc = json.loads(workspace["config"].read_text())
        doc["imbalance_ratios"] = [0.2, 0.5, 0.8]
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        run(workspace, "partition")
        assert run(workspace, "evaluate", "--mode", "imbalance") == 0
        sweep = read_json(workspace["out"] / "imbalance.json")
        assert len(sweep["auc_per_ratio"]) == 3
        assert all(a >= 0.9 for a in sweep["auc_per_ratio"])

    @pytest.mark.parametrize("mode", ["single", "combos"])
    def test_folds_beyond_each_label_count_are_one_error_line(self, workspace, capsys, mode):
        # Three IR tweets balance to six instances: enough for five folds in
        # all, but not for a tweet of the larger label in each of them.
        run(workspace, "partition")
        ir = workspace["out"] / "partitions" / "ir.jsonl"
        ir.write_text("".join(line + "\n" for line in read_lines(ir)[:3]), encoding="utf-8")
        capsys.readouterr()
        assert run(workspace, "evaluate", "--mode", mode) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: 6 instances (3 IR, 3 OR) cannot fill 5 folds"
        ]
        assert not (workspace["out"] / "evaluate_summary.json").exists()


@pytest.mark.parametrize("alpha", [5e-324, 1e308])
@pytest.mark.parametrize(
    "argv",
    [
        ["train"],
        ["evaluate", "--mode", "single"],
        ["evaluate", "--mode", "combos"],
        ["evaluate", "--mode", "imbalance"],
    ],
    ids=["train", "single", "combos", "imbalance"],
)
def test_alpha_that_rounds_a_likelihood_to_zero_is_one_error_line(workspace, capsys, argv, alpha):
    # Both are positive and finite, so the config loads; with these counts
    # a smoothed likelihood rounds to 0, which only the NB fit can see.
    doc = json.loads(workspace["config"].read_text())
    doc["model"] = {"alpha": alpha}
    doc["imbalance_ratios"] = [0.5]
    workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
    assert run(workspace, "partition") == 0
    capsys.readouterr()
    assert run(workspace, *argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: alpha {alpha!r} rounds a smoothed likelihood to 0"]


class TestTopFeatures:
    def test_marker_ranks_first(self, workspace):
        run(workspace, "partition")
        assert run(workspace, "top-features", "--k", "3") == 0
        lines = read_lines(workspace["out"] / "top_features.csv")
        assert lines[0] == "class,rank,feature,weight"
        first_unigram = next(l for l in lines[1:] if l.startswith("UNIGRAM,1,"))
        assert next(csv.reader([first_unigram]))[2] == "qz1"


@pytest.mark.parametrize(
    "argv",
    [["top-features", "--k", "0"], ["cloud", "--model", "no_model.json", "--k", "0"]],
    ids=["top-features", "cloud"],
)
def test_k_zero_is_one_error_before_any_file_is_read(workspace, capsys, argv):
    # No partition, no model file: only the k check can name the fault.
    assert run(workspace, *argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: k must be positive, got 0"]
    assert not workspace["out"].exists()


class TestCloud:
    def test_clouds_written(self, workspace):
        run(workspace, "partition")
        run(workspace, "train")
        assert run(workspace, "cloud", "--model", str(workspace["out"] / "model.json"), "--k", "10") == 0
        a = read_json(workspace["out"] / "cloud_geotagged.json")
        b = read_json(workspace["out"] / "cloud_combined.json")
        assert len(a["bigrams"]) == 10 and len(b["bigrams"]) == 10
        summary = read_json(workspace["out"] / "cloud_summary.json")
        assert summary["model_additions"] == 30

    def test_no_additions_identical_files(self, workspace, tmp_path):
        run(workspace, "partition")
        run(workspace, "train")
        # Empty the unlabeled partition: no model additions, identical clouds.
        (workspace["out"] / "partitions" / "unlabeled.jsonl").write_text("", encoding="utf-8")
        run(workspace, "cloud", "--model", str(workspace["out"] / "model.json"), "--k", "5")
        a = (workspace["out"] / "cloud_geotagged.json").read_bytes()
        b = (workspace["out"] / "cloud_combined.json").read_bytes()
        assert a.replace(b"geotagged", b"") == b.replace(b"combined", b"") or a == b

    def test_novel_bigram_only_in_combined(self, workspace):
        run(workspace, "partition")
        run(workspace, "train")
        # Plant an unlabeled tweet with a novel dominant bigram and marker qz1.
        novel = {
            "id": "novel1",
            "text": "qz1 hoboken flooding hoboken flooding hoboken flooding",
            "created_at": "2013-04-15T19:30:00Z",
        }
        unlabeled = workspace["out"] / "partitions" / "unlabeled.jsonl"
        unlabeled.write_text(json.dumps(novel, sort_keys=True) + "\n", encoding="utf-8")
        run(workspace, "cloud", "--model", str(workspace["out"] / "model.json"), "--k", "10")
        a = read_json(workspace["out"] / "cloud_geotagged.json")
        b = read_json(workspace["out"] / "cloud_combined.json")
        a_bigrams = {e["bigram"] for e in a["bigrams"]}
        b_bigrams = {e["bigram"] for e in b["bigrams"]}
        assert "hoboken flooding" not in a_bigrams
        assert "hoboken flooding" in b_bigrams


    def test_zero_token_unlabeled_message_is_counted_skip(self, workspace):
        run(workspace, "partition")
        run(workspace, "train")
        blank = {"id": "blank1", "text": "   ", "created_at": "2013-04-15T19:30:00Z"}
        unlabeled = workspace["out"] / "partitions" / "unlabeled.jsonl"
        lines = read_lines(unlabeled)
        unlabeled.write_text(
            "".join(line + "\n" for line in [json.dumps(blank)] + lines), encoding="utf-8"
        )
        assert run(workspace, "cloud", "--model", str(workspace["out"] / "model.json")) == 0
        summary = read_json(workspace["out"] / "cloud_summary.json")
        assert summary["warnings"] == ["tweet blank1: no tokens"]
        assert summary["model_additions"] == 30

    def test_batch_size_changes_no_output_byte(self, workspace, monkeypatch):
        run(workspace, "partition")
        run(workspace, "train")
        unlabeled = workspace["out"] / "partitions" / "unlabeled.jsonl"
        pool = read_lines(unlabeled)
        misaligned = {"id": "m1", "text": "qz1 w1", "created_at": AT, "ark_tags": ["N"]}
        _write_records(unlabeled, [*pool[:7], "not json", misaligned, *pool[7:]])
        outputs = []
        for size in (1, 2, len(pool) + 10):
            monkeypatch.setattr(cli, "CLASSIFY_BATCH", size)
            assert run(workspace, "cloud", "--model", str(workspace["out"] / "model.json")) == 0
            outputs.append(
                tuple((workspace["out"] / name).read_bytes()
                      for name in ("cloud_geotagged.json", "cloud_combined.json",
                                   "cloud_summary.json"))
            )
        assert outputs[0] == outputs[1] == outputs[2]
        summary = read_json(workspace["out"] / "cloud_summary.json")
        assert summary["model_additions"] == 30
        assert len(summary["warnings"]) == 2


GATED_STAGES = {
    "train": ["train"],
    "single": ["evaluate", "--mode", "single"],
    "combos": ["evaluate", "--mode", "combos"],
    "imbalance": ["evaluate", "--mode", "imbalance"],
    "top-features": ["top-features", "--k", "2"],
    "cloud": ["cloud", "--model", "MODEL", "--k", "3"],
}
# The stages that need the configured classes' layers.
CONFIGURED_CLASS_STAGES = ["train", "single", "imbalance", "top-features"]


def _set_classes(workspace, classes):
    doc = read_json(workspace["config"])
    doc["feature_classes"] = classes
    workspace["config"].write_text(json.dumps(doc), encoding="utf-8")


def _run_stage(workspace, stage):
    model = str(workspace["out"] / "model.json")
    return run(workspace, *[model if arg == "MODEL" else arg for arg in GATED_STAGES[stage]])


def _stage_summary(workspace, stage):
    name = GATED_STAGES[stage][0].replace("-", "_")
    return read_json(workspace["out"] / f"{name}_summary.json")


def _rewrite_partition(workspace, filename, edit):
    path = workspace["out"] / "partitions" / filename
    docs = [edit(i, json.loads(line)) for i, line in enumerate(read_lines(path))]
    path.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")


class TestTaggingGate:
    """Every stage sends its tweets through one gate: a misaligned, tokenless
    or layer-lacking tweet is a counted skip, and a stage fails only when no
    tweet carries the layers it needs."""

    @pytest.mark.parametrize("stage", GATED_STAGES)
    def test_tokenless_partition_tweet_is_counted_skip(self, workspace, stage):
        _set_classes(workspace, ["UNIGRAM", "BIGRAM", "CRISIS_SENSITIVE"])
        blank = {"id": "blank", "text": " \t ", "created_at": "2013-04-15T20:00:00Z",
                 "geo": {"lat": 42.35, "lon": -71.08}}
        with open(workspace["corpus"], "a", encoding="utf-8") as handle:
            handle.write(json.dumps(blank) + "\n")
        assert run(workspace, "partition") == 0
        assert read_json(workspace["out"] / "partition_summary.json")["counts"]["IR"] == 81
        if stage != "train":
            assert run(workspace, "train") == 0
        assert _run_stage(workspace, stage) == 0
        assert "tweet blank: no tokens" in _stage_summary(workspace, stage)["warnings"]
        if stage == "combos":
            excluded = read_json(workspace["out"] / "combinations.json")["excluded_classes"]
            assert set(excluded) == {"PTB_POS", "SHALLOW_PARSE"}

    @pytest.mark.parametrize("stage", CONFIGURED_CLASS_STAGES)
    def test_partition_tweet_lacking_configured_layer_is_counted_skip(self, workspace, stage):
        _set_classes(workspace, ["UNIGRAM", "PTB_POS"])
        assert run(workspace, "partition") == 0

        def add_ptb(i, doc):
            return {**doc, "ptb_tags": ["NN"] * len(tokenize(doc["text"]))}

        _rewrite_partition(workspace, "or.jsonl", add_ptb)
        _rewrite_partition(workspace, "ir.jsonl", lambda i, doc: doc if i == 0 else add_ptb(i, doc))
        first_id = json.loads(read_lines(workspace["out"] / "partitions" / "ir.jsonl")[0])["id"]
        assert _run_stage(workspace, stage) == 0
        summary = _stage_summary(workspace, stage)
        assert summary["warnings"] == [f"tweet {first_id}: missing layers for PTB_POS"]
        if stage == "train":
            assert summary["class_counts"] == {"IR": 79, "OR": 79}

    @pytest.mark.parametrize("stage", CONFIGURED_CLASS_STAGES)
    def test_no_partition_tweet_carrying_configured_layer_is_one_error_line(
        self, workspace, capsys, stage
    ):
        _set_classes(workspace, ["UNIGRAM", "PTB_POS"])
        assert run(workspace, "partition") == 0
        capsys.readouterr()
        assert _run_stage(workspace, stage) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: no input tweet carries the tag layers the model needs (UNIGRAM, PTB_POS)"
        ]


# The stages that tag through the gate with the classes they vectorize.
CLASS_GATED_STAGES = ["train", "single", "imbalance", "top-features", "classify", "cloud"]


class TestFallbackTags:
    """A stage that gates on its classes applies fallback ARK tags only when
    one of them reads the ARK layer; no output byte depends on it."""

    @staticmethod
    def _outputs(workspace):
        out = workspace["out"]
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    @pytest.mark.parametrize(
        "classes", [["UNIGRAM", "BIGRAM"], ["UNIGRAM", "CRISIS_SENSITIVE"]], ids=["words", "ark"]
    )
    @pytest.mark.parametrize("stage", CLASS_GATED_STAGES)
    def test_fallback_only_for_classes_that_read_ark(self, workspace, monkeypatch, stage, classes):
        from crisislang import text

        _set_classes(workspace, classes)
        assert run(workspace, "partition") == 0
        if stage in ("classify", "cloud"):
            assert run(workspace, "train") == 0
        argv = ["classify", "--model", "MODEL"] if stage == "classify" else GATED_STAGES[stage]
        model = str(workspace["out"] / "model.json")
        argv = [model if arg == "MODEL" else arg for arg in argv]
        fallback_ark_tags, tag_raw_tweet = text.fallback_ark_tags, text.tag_raw_tweet
        calls = []

        def counted(tokens):
            calls.append(tokens)
            return fallback_ark_tags(tokens)

        monkeypatch.setattr(text, "fallback_ark_tags", counted)
        assert run(workspace, *argv) == 0
        assert bool(calls) == ("CRISIS_SENSITIVE" in classes)
        outputs = self._outputs(workspace)

        def forced(tweet, use_fallback=False):
            return tag_raw_tweet(tweet, use_fallback=True)

        monkeypatch.setattr(text, "tag_raw_tweet", forced)
        assert run(workspace, *argv) == 0
        assert self._outputs(workspace) == outputs


def test_cli_tags_only_through_the_gate():
    """In cli only _tagged names tag_raw_tweet, and nothing names tokenize
    or fallback_ark_tags: every stage tags a tweet through the one gate."""
    path = Path(__file__).resolve().parents[1] / "src" / "crisislang" / "cli.py"
    namers: dict[str, set[str]] = {}
    for top in ast.parse(path.read_bytes(), path.name).body:
        where = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name.rpartition(".")[2] for alias in node.names]
            for name in names:
                if name in ("tag_raw_tweet", "tokenize", "fallback_ark_tags"):
                    namers.setdefault(name, set()).add(where)
    assert namers == {"tag_raw_tweet": {"_tagged"}}


def _reference_tagged(tweets, skips, classes, fallback=False):
    """What cli._tagged yields, as a list: its rule written out with
    missing_classes deciding every tweet's layers."""
    from crisislang import text
    from crisislang.features import missing_classes

    fallback = fallback and (not classes or any(c.layer == "ark" for c in classes))
    lacking = usable = False
    kept = []
    for tweet in tweets:
        try:
            tagged = text.tag_raw_tweet(tweet, use_fallback=fallback)
        except text.AlignmentError as exc:
            skips.add(str(exc))
            continue
        if not tagged.words:
            skips.add(f"tweet {tweet.id}: no tokens")
        elif absent := missing_classes(tagged, classes):
            lacking = True
            skips.add(f"tweet {tweet.id}: missing layers for {','.join(c.value for c in absent)}")
        else:
            usable = True
            kept.append((tweet, tagged))
    if lacking and not usable:
        names = ", ".join(c.value for c in classes)
        raise ConfigError(f"no input tweet carries the tag layers the model needs ({names})")
    return kept


@st.composite
def _gate_tweets(draw):
    """A raw tweet, tokenless now and then, whose ark, ptb and chunk layers
    are each absent, aligned with its tokens or one tag too long."""
    from datetime import datetime, timezone

    from crisislang.ingest import RawTweet

    words = draw(st.lists(st.sampled_from(["in", "boston", "there", "is", "fire", "!"]), max_size=5))
    text = " ".join(words) or draw(st.sampled_from([" ", "\t\n"]))
    n_tokens = len(tokenize(text))
    layers = []
    for tags in (["N", "P", "V", "!"], ["NN", "IN", "EX", "VBZ"], ["B-NP", "I-NP", "B-PP", "O"]):
        shape = draw(st.sampled_from(["absent", "aligned", "aligned", "long"]))
        size = n_tokens + (shape == "long")
        layer = draw(st.lists(st.sampled_from(tags), min_size=size, max_size=size))
        layers.append(None if shape == "absent" else tuple(layer))
    tweet_id = f"t{draw(st.integers(0, 10**6))}"
    return RawTweet(tweet_id, text, datetime(2013, 4, 15, 20, tzinfo=timezone.utc), None, *layers)


class TestTaggedFastPath:
    """_tagged tests each tweet only for the distinct layers its classes read;
    it yields and skips exactly what missing_classes decides, in the same
    words, and raises the same ConfigError."""

    @settings(max_examples=300, deadline=None)
    @given(
        tweets=st.lists(_gate_tweets(), max_size=6),
        classes=st.lists(st.sampled_from(list(cli.FeatureClass)), max_size=5),
        fallback=st.booleans(),
    )
    @example(tweets=[], classes=[cli.FeatureClass.UNIGRAM, cli.FeatureClass.BIGRAM], fallback=True)
    def test_yields_and_skips_what_missing_classes_decides(self, tweets, classes, fallback):
        got_skips, want_skips = cli.Skips(), cli.Skips()
        try:
            want = _reference_tagged(tweets, want_skips, classes, fallback)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
                list(cli._tagged(tweets, got_skips, classes, fallback))
        else:
            assert list(cli._tagged(tweets, got_skips, classes, fallback)) == want
        assert got_skips == want_skips

    def test_repeated_classes_and_each_missing_layer(self):
        """Each of ark, ptb and chunk missing, under repeated classes and
        under classes that read no tag layer."""
        from datetime import datetime, timezone

        from crisislang.ingest import RawTweet

        at = datetime(2013, 4, 15, 20, tzinfo=timezone.utc)
        full = dict(ark_tags=("P", "N"), ptb_tags=("IN", "NN"), chunk_tags=("B-PP", "B-NP"))
        tweets = [RawTweet("full", "in boston", at, None, **full)] + [
            RawTweet(f"no-{name}", "in boston", at, None, **{**full, name: None}) for name in full
        ]
        FC = cli.FeatureClass
        for classes in (
            [FC.UNIGRAM, FC.BIGRAM, FC.UNIGRAM],
            [FC.ARK_POS, FC.CRISIS_SENSITIVE, FC.ARK_POS],
            [FC.PTB_POS, FC.SHALLOW_PARSE, FC.PTB_POS, FC.CRISIS_SENSITIVE],
            list(FC) + list(FC),
        ):
            got_skips, want_skips = cli.Skips(), cli.Skips()
            got = list(cli._tagged(tweets, got_skips, classes))
            assert got == _reference_tagged(tweets, want_skips, classes)
            assert got_skips == want_skips
        assert got_skips.reasons == [
            f"tweet no-{layer}: missing layers for {names}"
            for layer, names in (
                ("ark_tags", "ARK_POS,CRISIS_SENSITIVE,ARK_POS,CRISIS_SENSITIVE"),
                ("ptb_tags", "PTB_POS,PTB_POS"),
                ("chunk_tags", "SHALLOW_PARSE,SHALLOW_PARSE"),
            )
        ]


class TestTagAndVectors:
    def test_tag_fills_missing_ark(self, workspace):
        assert run(workspace, "tag") == 0
        summary = read_json(workspace["out"] / "tag_summary.json")
        assert summary["newly_tagged"] == summary["total"] > 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "tagged.jsonl")]
        assert all("ark_tags" in r for r in rows)
        first = rows[0]
        assert len(first["ark_tags"]) == len(first["text"].split())

    def test_tag_preserves_existing_tags(self, workspace, tmp_path):
        line = json.dumps({"id": "x", "text": "in boston", "created_at": "2013-04-15T19:30:00Z",
                           "ark_tags": ["P", "^"]})
        src = tmp_path / "pre.jsonl"
        src.write_text(line + "\n", encoding="utf-8")
        assert run(workspace, "tag", "--input", str(src)) == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "tagged.jsonl")]
        assert rows[0]["ark_tags"] == ["P", "^"]

    def test_tag_skips_the_records_every_stage_skips(self, workspace, tmp_path):
        records = [
            {"id": "a1", "text": "safe at home", "created_at": AT, "ptb_tags": ["NN"]},
            {"id": "a2", "text": " \t ", "created_at": AT},
            {"id": "a3", "text": "stay safe", "created_at": AT},
        ]
        source = _write_records(tmp_path / "three.jsonl", records)
        assert run(workspace, "tag", "--input", str(source)) == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "tagged.jsonl")]
        assert [(r["id"], r["ark_tags"]) for r in rows] == [("a3", ["V", "A"])]
        summary = read_json(workspace["out"] / "tag_summary.json")
        assert (summary["total"], summary["skipped"], summary["newly_tagged"]) == (3, 2, 1)
        assert summary["warnings"] == [
            "tweet 'a1': ptb_tags has 1 tags for 3 tokens", "tweet a2: no tokens"
        ]
        assert run(workspace, "vectors", "--input", str(source)) == 0
        assert read_json(workspace["out"] / "vectors_summary.json")["warnings"] == summary["warnings"]

    def test_vectors_emitted(self, workspace):
        assert run(workspace, "vectors") == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "vectors.jsonl")]
        assert rows and all(set(r) == {"id", "features"} for r in rows)
        some = rows[0]["features"]
        assert any(key.startswith("UNIGRAM:") for key in some)
        summary = read_json(workspace["out"] / "vectors_summary.json")
        assert summary["class_coverage"]["UNIGRAM"] == summary["total"]


    def test_vectors_misaligned_record_is_counted_skip(self, workspace, tmp_path):
        at = "2013-04-15T20:00:00Z"
        records = [
            {"id": "a1", "text": "in boston now", "created_at": at},
            {"id": "a2", "text": "safe at home", "created_at": at, "ark_tags": ["N"]},
            {"id": "a3", "text": "stay safe", "created_at": at},
        ]
        source = tmp_path / "three.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert run(workspace, "vectors", "--input", str(source)) == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "vectors.jsonl")]
        assert [r["id"] for r in rows] == ["a1", "a3"]
        summary = read_json(workspace["out"] / "vectors_summary.json")
        assert (summary["total"], summary["skipped"]) == (3, 1)
        assert summary["warnings"] == ["tweet 'a2': ark_tags has 1 tags for 3 tokens"]
        assert summary["class_coverage"]["UNIGRAM"] == 2

    def test_vectors_zero_token_message_is_counted_skip(self, workspace, tmp_path):
        at = "2013-04-15T20:00:00Z"
        records = [
            {"id": "a1", "text": "in boston now", "created_at": at},
            {"id": "a2", "text": "  ", "created_at": at},
        ]
        source = tmp_path / "two.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert run(workspace, "vectors", "--input", str(source)) == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "vectors.jsonl")]
        assert [r["id"] for r in rows] == ["a1"]
        summary = read_json(workspace["out"] / "vectors_summary.json")
        assert (summary["total"], summary["skipped"]) == (2, 1)
        assert summary["warnings"] == ["tweet a2: no tokens"]
        assert summary["class_coverage"] == {"UNIGRAM": 1, "BIGRAM": 1}

    def test_vectors_every_class_absent_writes_empty_features(self, workspace, tmp_path):
        doc = read_json(workspace["config"])
        doc["feature_classes"] = ["PTB_POS", "SHALLOW_PARSE"]
        workspace["config"].write_text(json.dumps(doc), encoding="utf-8")
        at = "2013-04-15T20:00:00Z"
        records = [
            {"id": "p1", "text": "in boston", "created_at": at, "ptb_tags": ["IN", "NNP"]},
            {"id": "p2", "text": "stay safe", "created_at": at},
        ]
        source = tmp_path / "two.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert run(workspace, "vectors", "--input", str(source)) == 0
        rows = [json.loads(l) for l in read_lines(workspace["out"] / "vectors.jsonl")]
        assert rows[0]["id"] == "p1" and set(rows[0]["features"]) == {
            "PTB_POS:IN", "PTB_POS:NNP", "PTB_POS:IN NNP"
        }
        assert rows[1] == {"id": "p2", "features": {}}
        summary = read_json(workspace["out"] / "vectors_summary.json")
        assert summary["skipped"] == 0
        assert summary["class_coverage"] == {"PTB_POS": 1, "SHALLOW_PARSE": 0}

SUMMARY_COMMANDS = [
    ["partition"],
    ["divergence", "--mode", "regional"],
    ["train"],
    ["evaluate", "--mode", "single"],
    ["classify", "--model", "MODEL"],
    ["top-features", "--k", "2"],
    ["cloud", "--model", "MODEL", "--k", "3"],
    ["tag"],
    ["vectors"],
]


@pytest.mark.parametrize("command", SUMMARY_COMMANDS, ids=[c[0] for c in SUMMARY_COMMANDS])
def test_summary_file_equals_printed_summary(workspace, capsys, command):
    run(workspace, "partition")
    run(workspace, "train")
    capsys.readouterr()
    model = str(workspace["out"] / "model.json")
    assert run(workspace, *[model if arg == "MODEL" else arg for arg in command]) == 0
    printed = json.loads(capsys.readouterr().out)
    name = command[0].replace("-", "_")
    assert read_json(workspace["out"] / f"{name}_summary.json") == printed
    assert printed["schema_version"] == 1 and printed["command"] == command[0]


class TestEndToEndDeterminism:
    def _run_pipeline(self, config, out):
        for argv in (
            ["partition"],
            ["train"],
            ["evaluate", "--mode", "single"],
            ["classify", "--model", str(out / "model.json")],
        ):
            assert main(["--config", str(config), *argv]) == 0
        return {
            str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()
        }

    def test_identical_outputs_on_rerun(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(pipeline_corpus_lines(seed=5)) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        write_config(config, corpus, out)
        first = self._run_pipeline(config, out)
        second = self._run_pipeline(config, out)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name


class TestHashSeedDeterminism:
    """No set or frozenset order reaches an output: partition, train,
    classify, both divergences and cloud, each its own process, write the
    same bytes under two hash seeds, with classes that read the words and
    the ARK layer."""

    def test_outputs_do_not_depend_on_the_hash_seed(self, workspace):
        _set_classes(workspace, ["UNIGRAM", "ARK_POS", "CRISIS_SENSITIVE"])
        out, model = workspace["out"], str(workspace["out"] / "model.json")
        outputs = []
        for hash_seed in ("0", "1"):
            if out.exists():
                shutil.rmtree(out)
            for argv in (
                ["partition"], ["train"], ["classify", "--model", model],
                ["divergence", "--mode", "hourly"], ["divergence", "--mode", "regional"],
                ["cloud", "--model", model],
            ):
                result = stage_process(workspace, *argv, env={"PYTHONHASHSEED": hash_seed})
                assert result.returncode == 0, result.stderr
            outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert read_json(out / "classify_summary.json")["classified"] > 0
        assert len(outputs[0]) >= 10
        tables = ("divergence_hourly.csv", "divergence_regional.csv", "cloud_combined.json")
        assert {Path(name) for name in tables} <= outputs[0].keys()
        assert outputs[0] == outputs[1]


_NUMPY_PROBE = """
import sys
from crisislang.cli import main

config, model = sys.argv[1], sys.argv[2]
for argv in (
    ["partition"],
    ["train"],
    ["classify", "--model", model],
    ["evaluate", "--mode", "single"],
    ["divergence", "--mode", "regional"],
    ["cloud", "--model", model],
):
    assert main(["--config", config, *argv]) == 0, argv
    assert "numpy" not in sys.modules, argv
assert main(["--config", config, "top-features", "--k", "2"]) == 0
assert "numpy" in sys.modules, "top-features"
"""


class TestNumpyOnlyForLogisticRegression:
    def test_nb_stages_leave_numpy_unloaded(self, workspace):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, str(workspace["config"]),
             str(workspace["out"] / "model.json")],
            capture_output=True, text=True, env=env, cwd=workspace["root"],
        )
        assert result.returncode == 0, result.stderr

    def test_classify_through_the_module_entry_point_never_imports_numpy(self, workspace):
        run(workspace, "partition")
        run(workspace, "train")
        imported, _ = run_stage_process(
            workspace, "classify", "--model", str(workspace["out"] / "model.json")
        )
        assert read_json(workspace["out"] / "classify_summary.json")["classified"] > 0
        assert "crisislang.cli" in imported
        assert not [name for name in imported if name.split(".")[0] == "numpy"]


def stage_process(workspace, *argv, flags=(), env=()):
    """Run one stage as `python [flags] -m crisislang`, with the variables
    env on top of this process's, and return the finished process, its
    output as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **dict(env)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "crisislang", "--config", str(workspace["config"]), *argv],
        capture_output=True, text=True, env=env, cwd=workspace["root"],
    )


def run_stage_process(workspace, *argv):
    """Run one stage as `python -X importtime -m crisislang` and check that it
    exits 0. Returns the names of the modules the process imported, in
    order, and its other stderr lines."""
    result = stage_process(workspace, *argv, flags=("-X", "importtime"))
    assert result.returncode == 0, result.stderr
    lines = result.stderr.splitlines()
    # -X importtime lists every module the process imports, on stderr.
    imported = [line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")]
    return imported, [line for line in lines if not line.startswith("import time:")]


DEEP = b"[" * 200_000  # nested far past the recursion limit
NOT_UTF8 = json.dumps(
    {"id": "latin1", "text": "caf\u00e9 in boston", "created_at": "2013-04-15T19:30:00Z"},
    ensure_ascii=False,
).encode("latin-1")
NOT_UTF8_REASON = f"not UTF-8 (invalid continuation byte at byte {NOT_UTF8.index(0xE9)})"


class TestBadBytesInAStageProcess:
    """Bytes nested too deeply or not UTF-8 are one counted skip in a corpus
    and one error line in a config or model file, never a traceback."""

    def _partition_with(self, workspace, line):
        good = workspace["corpus"].read_bytes()
        workspace["corpus"].write_bytes(good + line + b"\n")
        result = stage_process(workspace, "partition")
        assert "Traceback" not in result.stderr
        assert result.returncode == 0, result.stderr
        summary = read_json(workspace["out"] / "partition_summary.json")
        counts = {k: summary["counts"][k] for k in ("IR", "OR", "PC_IR", "PC_OR", "unlabeled")}
        assert counts == {"IR": 80, "OR": 120, "PC_IR": 5, "PC_OR": 5, "unlabeled": 60}
        assert summary["counts"]["skipped"] == 1
        return good.count(b"\n") + 1, summary["warnings"]

    def test_deeply_nested_corpus_line_is_one_skip(self, workspace):
        n, warnings = self._partition_with(workspace, DEEP)
        assert warnings == [f"line {n}: malformed JSON: nested too deeply"]

    def test_non_utf8_corpus_record_is_one_skip(self, workspace):
        n, warnings = self._partition_with(workspace, NOT_UTF8)
        assert warnings == [f"line {n}: {NOT_UTF8_REASON}"]

    @pytest.mark.parametrize(
        "content, reason",
        [(DEEP, "malformed JSON: nested too deeply"), (NOT_UTF8, NOT_UTF8_REASON)],
        ids=["nested", "not-utf8"],
    )
    def test_bad_config_is_one_error_line(self, workspace, content, reason):
        workspace["config"].write_bytes(content)
        result = stage_process(workspace, "partition")
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: config {workspace['config']}: {reason}"]

    @pytest.mark.parametrize(
        "content, reason",
        [(DEEP, "malformed JSON: nested too deeply"), (NOT_UTF8, NOT_UTF8_REASON)],
        ids=["nested", "not-utf8"],
    )
    def test_bad_model_file_is_one_error_line(self, workspace, content, reason):
        assert run(workspace, "partition") == 0
        model = workspace["root"] / "model.json"
        model.write_bytes(content)
        result = stage_process(workspace, "classify", "--model", str(model))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: {reason}"]


# The crisislang modules each stage process loads, beyond the package itself,
# cli, ingest and features, which every stage loads to read its config.
STAGE_MODULES = [
    (["partition"], []),
    (["classify", "--model", "MODEL"], ["text", "model"]),
    (["divergence", "--mode", "regional"], ["text", "divergence"]),
    (["evaluate", "--mode", "single"], ["text", "model", "evaluation"]),
    (["evaluate", "--mode", "combos"], ["text", "model", "evaluation"]),
    (["evaluate", "--mode", "imbalance"], ["text", "model", "evaluation"]),
    (["divergence", "--mode", "hourly"], ["text", "divergence"]),
    (["tag"], ["text"]),
    (["vectors"], ["text"]),
    (["train"], ["text", "model", "evaluation"]),
    (["top-features"], ["text", "model", "evaluation"]),
    (["cloud", "--model", "MODEL"], ["text", "model", "evaluation"]),
]
STAGE_IDS = [
    "-".join([a[0], *(mode for mode in ("hourly", "combos", "imbalance") if mode in a)])
    for a, _ in STAGE_MODULES
]

# Every name crisislang exports, by the module that defines it.
PACKAGE_EXPORTS = {
    "divergence": ["js_divergence", "word_distribution"],
    "evaluation": [
        "balanced_sample", "bigram_cloud", "compute_metrics", "cross_validate",
        "enumerate_combinations", "imbalance_sweep", "roc_auc",
    ],
    "features": ["FeatureClass", "FeatureId", "extract_crisis_sensitive", "vectorize"],
    "ingest": [
        "GeoPoint", "PartitionLabel", "RawTweet", "Region", "TimeWindow", "assign_partition",
        "haversine_km", "load_corpus", "parse_tweet_record",
    ],
    "model": [
        "predict_nb", "select_all_baseline", "top_features", "train_logreg", "train_naive_bayes",
    ],
    "text": ["attach_tags", "fallback_ark_tags", "tag_raw_tweet", "tokenize"],
}


class TestImportBudget:
    """A stage process loads only the modules its stage runs, logging only
    when it warns, and neither dataclasses nor (but for numpy's) inspect."""

    @pytest.mark.parametrize("argv, modules", STAGE_MODULES, ids=STAGE_IDS)
    def test_stage_loads_only_the_modules_it_runs(self, workspace, argv, modules):
        run(workspace, "partition")
        if "MODEL" in argv:
            run(workspace, "train")
        model = str(workspace["out"] / "model.json")
        imported, _ = run_stage_process(workspace, *[model if a == "MODEL" else a for a in argv])
        own = {name for name in imported if name.split(".")[0] == "crisislang"}
        base = ["crisislang", "crisislang.cli", "crisislang.ingest", "crisislang.features"]
        assert own == {*base, *(f"crisislang.{m}" for m in modules)}
        assert "logging" not in imported
        # dataclasses loads inspect, ast, dis and tokenize, about 13 ms of a
        # process; numpy loads inspect itself, and only top-features imports it.
        assert "dataclasses" not in imported
        assert ("inspect" in imported) == ("numpy" in imported) == (argv[0] == "top-features")

    def test_downsampling_warning_reaches_stderr(self, workspace):
        """train with an OR pool smaller than IR warns as the bare message."""
        run(workspace, "partition")
        or_path = workspace["out"] / "partitions" / "or.jsonl"
        or_path.write_text("".join(l + "\n" for l in read_lines(or_path)[:50]), encoding="utf-8")
        imported, err = run_stage_process(workspace, "train")
        assert err == ["OR pool (50) smaller than IR (80); downsampling IR"]
        assert "logging" in imported
        assert "dataclasses" not in imported and "inspect" not in imported
        counts = read_json(workspace["out"] / "train_summary.json")["class_counts"]
        assert counts == {"IR": 50, "OR": 50}

    def test_every_export_is_its_home_module_object(self):
        import importlib

        import crisislang

        assert crisislang.__all__ == sorted(n for names in PACKAGE_EXPORTS.values() for n in names)
        for module, names in PACKAGE_EXPORTS.items():
            home = importlib.import_module(f"crisislang.{module}")
            for name in names:
                assert getattr(crisislang, name) is getattr(home, name), name
                assert name in dir(crisislang), name

    def test_unknown_name_raises_attribute_error(self):
        import crisislang

        with pytest.raises(AttributeError, match="no_such_name"):
            crisislang.no_such_name

