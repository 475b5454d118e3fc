"""Config schema validation: strict keys, axes, and TOML loading."""

from __future__ import annotations

import pytest

from repro.eval import ConfigError, load_config, parse_config


def _doc(**overrides) -> dict:
    doc = {
        "experiment": {"id": "t"},
        "run": {"scale": "tiny"},
        "matrix": {"driver": ["fig1"]},
    }
    doc.update(overrides)
    return doc


class TestStrictValidation:
    def test_minimal_config_parses(self):
        cfg = parse_config(_doc())
        assert cfg.experiment_id == "t"
        assert cfg.drivers == ("fig1",)
        assert cfg.scale == "tiny"

    def test_unknown_section_rejected_with_pointed_error(self):
        with pytest.raises(ConfigError, match=r"unknown section \[experimnet\]"):
            parse_config(_doc(experimnet={"id": "typo"}))

    def test_unknown_run_key_names_offender_and_allowed_set(self):
        with pytest.raises(
            ConfigError, match=r"unknown key 'sclae' in \[run\].*scale, seed, jobs"
        ):
            parse_config(_doc(run={"sclae": "tiny"}))

    def test_unknown_report_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown key 'log_x' in \[report\]"):
            parse_config(_doc(report={"log_x": True}))

    def test_missing_experiment_id(self):
        with pytest.raises(ConfigError, match=r"\[experiment\] must declare an 'id'"):
            parse_config({"matrix": {"driver": ["fig1"]}})

    def test_missing_driver_axis(self):
        with pytest.raises(ConfigError, match=r"\[matrix\] must declare a 'driver'"):
            parse_config({"experiment": {"id": "t"}, "matrix": {}})

    def test_unknown_driver_lists_known_ids(self):
        with pytest.raises(ConfigError, match=r"unknown experiment driver 'fig99'"):
            parse_config(_doc(matrix={"driver": ["fig99"]}))

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigError, match=r"\[run\] scale 'huge'"):
            parse_config(_doc(run={"scale": "huge"}))

    def test_axis_not_declared_by_driver_rejected(self):
        with pytest.raises(
            ConfigError, match=r"axis 'scenario' is not a sweepable parameter"
        ):
            parse_config(_doc(matrix={"driver": ["fig1"], "scenario": ["chaos"]}))

    def test_unknown_report_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section 'plots'"):
            parse_config(_doc(report={"sections": ["plots"]}))

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ConfigError, match="duplicate values"):
            parse_config(_doc(matrix={"driver": ["fig1", "fig1"]}))

    def test_retired_bench_keys_are_accepted_and_ignored(self):
        # any value, even one the retired micro-benchmark dashboard rejected
        retired = {"bench_profile": "gone", "bench_threshold": 1.5}
        assert parse_config(_doc(report=retired)) == parse_config(_doc())

    def test_bench_baseline_must_be_a_string(self):
        with pytest.raises(ConfigError, match="bench_baseline must be a path"):
            parse_config(_doc(report={"bench_baseline": 3}))


class TestAxisExpansion:
    def test_cell_count_is_product_of_axes(self):
        cfg = parse_config(
            _doc(
                matrix={
                    "driver": ["ext-fault-tolerance", "ext-fault-breakdown"],
                    "scale": ["tiny", "quick"],
                    "scenario": ["chaos", "lossy-link", "straggler-only"],
                }
            )
        )
        assert cfg.n_cells() == 2 * 2 * 3

    def test_scalar_promoted_to_one_item_axis(self):
        cfg = parse_config(_doc(matrix={"driver": "fig1"}))
        assert cfg.drivers == ("fig1",)
        assert cfg.n_cells() == 1

    def test_scale_axis_defaults_to_run_scale(self):
        cfg = parse_config(_doc())
        assert dict(cfg.axes)["scale"] == ("tiny",)


_SAMPLE_TOML = """\
# comment
[experiment]
id = "sample"
title = "A title with = signs"

[run]
scale = "tiny"
seed = 3
jobs = 2

[matrix]
driver = ["ext-fault-tolerance"]
scenario = ["chaos", "lossy-link"]

[report]
sections = ["figures", "ledger"]
bench_threshold = 0.3
log_y = true
"""


def test_load_config_from_file(tmp_path):
    path = tmp_path / "exp.toml"
    path.write_text(_SAMPLE_TOML, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.experiment_id == "sample"
    assert cfg.seed == 3
    assert dict(cfg.axes)["scenario"] == ("chaos", "lossy-link")
    assert cfg.source == str(path)


def test_load_config_invalid_toml(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text("[a]\nx = 1\nx = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid TOML"):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("no/such/config.toml")


def test_shipped_configs_validate():
    from pathlib import Path

    for path in sorted(Path("configs").glob("*.toml")):
        cfg = load_config(path)
        assert cfg.n_cells() >= 1, path
