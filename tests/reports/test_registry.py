"""The figure registry: resolution, grouping and ``--only`` selection."""

import sys

import pytest

import repro.reports
from repro.reports import (
    UnknownFigureError,
    available_figures,
    figure_groups,
    resolve_figure,
    select_figures,
)
from repro.reports import registry
from repro.reports.registry import register_figure


def test_registry_is_populated_and_name_sorted():
    figures = available_figures()
    assert len(figures) >= 15
    assert list(figures) == sorted(figures)
    for name, spec in figures.items():
        assert spec.name == name
        assert spec.title
        assert callable(spec.generator)


def test_every_group_is_represented():
    assert set(figure_groups()) == {"paper", "ablation", "growth", "trajectory"}


def test_resolve_known_figure():
    spec = resolve_figure("fig8")
    assert spec.group == "growth"


def test_resolve_unknown_figure_lists_the_registry():
    with pytest.raises(UnknownFigureError) as excinfo:
        resolve_figure("fig99")
    message = str(excinfo.value)
    assert "fig99" in message
    assert "fig8" in message  # the error teaches the valid names


def test_select_all_by_default():
    assert {spec.name for spec in select_figures(None)} == set(available_figures())


def test_select_by_group():
    selected = select_figures(["growth"])
    assert {spec.name for spec in selected} == {"fig8", "fig9", "fig10", "fig11", "fig13"}


def test_select_by_name_and_group_combined():
    selected = select_figures(["fig5a", "trajectory"])
    assert {spec.name for spec in selected} == {"fig5a", "perf-trajectory"}


def test_select_unknown_token_raises_instead_of_selecting_nothing():
    with pytest.raises(UnknownFigureError) as excinfo:
        select_figures(["growht"])  # typo
    assert "growht" in str(excinfo.value)


def test_duplicate_registration_is_an_error():
    available_figures()  # make sure the built-ins are registered
    with pytest.raises(ValueError):
        register_figure("fig8", "growth", "duplicate")(lambda ctx: [])


def test_registration_before_first_lookup_keeps_the_builtins(monkeypatch):
    # Simulate a fresh process: empty registry, built-in figures not imported.
    monkeypatch.setattr(registry, "_REGISTRY", {})
    monkeypatch.delitem(sys.modules, "repro.reports.figures", raising=False)
    monkeypatch.delattr(repro.reports, "figures", raising=False)
    register_figure("custom", "growth", "a user figure")(lambda ctx: [])
    figures = available_figures()
    assert "custom" in figures
    assert {"fig5a", "fig8", "perf-trajectory"} <= set(figures)
