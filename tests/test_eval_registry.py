"""The shared driver registry that repro.eval and the CLI both consume."""

from __future__ import annotations

import pytest

from repro.experiments import convergence
from repro.experiments.registry import (
    REGISTRY,
    driver,
    driver_ids,
    get_driver,
    run_driver,
)


def test_known_figures_registered():
    for driver_id in ("fig1", "fig9", "fig10-outofcore", "headline", "serving"):
        assert driver_id in REGISTRY


def test_kinds_partition_the_registry():
    kinds = {spec.kind for spec in REGISTRY.values()}
    assert kinds == {"figure", "ablation", "extension", "scenario"}
    assert len(driver_ids("ablation")) == 5
    assert len(driver_ids()) == len(REGISTRY)


def test_get_driver_unknown_id_lists_known_drivers():
    with pytest.raises(KeyError, match="unknown experiment driver 'nope'"):
        get_driver("nope")


def test_driver_returns_bare_callable():
    assert driver("fig1") is REGISTRY["fig1"].fn


def test_undeclared_param_rejected_before_running():
    with pytest.raises(TypeError, match="does not accept parameter"):
        get_driver("fig1").run(wave=4)


def test_sweepable_params_declared_on_sweep_drivers():
    assert get_driver("ext-fault-tolerance").params == ("scenario",)
    assert get_driver("serving").params == ("solver", "seed")


def test_run_driver_end_to_end():
    from repro.experiments.config import SCALES

    fig = run_driver("ext-fault-breakdown", SCALES["tiny"], scenario="chaos")
    assert fig.series


def test_lookup_is_cached():
    assert REGISTRY["fig1"] is REGISTRY["fig1"]
    assert driver_ids("figure")[:2] == ["fig1", "fig2"]


@pytest.fixture
def fresh_registry(monkeypatch):
    """The registry with no spec loaded yet, restored afterwards."""
    monkeypatch.setattr(REGISTRY, "_specs", {})
    return REGISTRY


def test_stray_claims_key_is_an_error(fresh_registry, monkeypatch):
    stray = dict(convergence.CLAIMS, **{"fig1-typo": convergence.CLAIMS["fig1"]})
    monkeypatch.setattr(convergence, "CLAIMS", stray)
    with pytest.raises(RuntimeError, match=r"unknown drivers in .*convergence: \['fig1-typo'\]"):
        get_driver("fig2")


def test_driver_without_claims_is_an_error(fresh_registry, monkeypatch):
    claims = {k: v for k, v in convergence.CLAIMS.items() if k != "fig1"}
    monkeypatch.setattr(convergence, "CLAIMS", claims)
    with pytest.raises(RuntimeError, match="declares no claims for 'fig1'"):
        get_driver("fig1")
    assert get_driver("fig2").claims


def test_full_registry_builds_with_claims_everywhere(fresh_registry):
    """Building every spec runs both claims checks on every driver module."""
    specs = list(fresh_registry.values())
    assert len(specs) == len(fresh_registry) and all(s.claims for s in specs)
