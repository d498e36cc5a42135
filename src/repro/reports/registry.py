"""The figure registry: name → (group, generator), one command regenerates all.

A *figure generator* is a callable ``(ReportContext) -> list[FigureData]``
registered under a unique name and a presentation group.  The CLI, the
docs emitter and the CI reports job all enumerate this registry — adding
a figure here is the single step that makes it appear in
``python -m repro.reports list``, in ``all`` runs, and in the staleness
check over the committed renders.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro.reports.context import ReportContext
from repro.reports.model import FigureData, UnknownFigureError

__all__ = [
    "FigureSpec",
    "register_figure",
    "available_figures",
    "figure_groups",
    "resolve_figure",
    "select_figures",
]

Generator = Callable[[ReportContext], "list[FigureData]"]


@dataclass(frozen=True)
class FigureSpec:
    """One registry entry."""

    name: str
    group: str
    title: str
    generator: Generator


_REGISTRY: dict[str, FigureSpec] = {}


def register_figure(name: str, group: str, title: str) -> Callable[[Generator], Generator]:
    """Class the decorated generator under ``name`` in the registry."""

    def decorate(generator: Generator) -> Generator:
        if name in _REGISTRY:
            raise ValueError(f"figure {name!r} is already registered")
        _REGISTRY[name] = FigureSpec(name=name, group=group, title=title, generator=generator)
        return generator

    return decorate


def _ensure_loaded() -> None:
    # The built-in generators live in repro.reports.figures and register
    # themselves on import; defer the import so registry and generators
    # can reference each other without a cycle.  Import on every lookup (a
    # no-op once loaded): a figure registered before the first lookup must
    # not hide the built-ins.
    from repro.reports import figures  # noqa: F401, PLC0415


def available_figures() -> dict[str, FigureSpec]:
    """All registered figures, name-sorted."""
    _ensure_loaded()
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def figure_groups() -> list[str]:
    """The distinct groups, in first-registration order."""
    _ensure_loaded()
    groups: list[str] = []
    for spec in _REGISTRY.values():
        if spec.group not in groups:
            groups.append(spec.group)
    return groups


def resolve_figure(name: str) -> FigureSpec:
    """The registry entry for ``name``; raises with the known names otherwise."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownFigureError(
            f"unknown figure {name!r}; registered figures: {known} "
            f"(groups: {', '.join(figure_groups())})"
        ) from None


def select_figures(only: Iterable[str] | None = None) -> list[FigureSpec]:
    """The figures matching an ``--only`` filter (all of them by default).

    Each filter token selects by exact figure name or by group name;
    unknown tokens raise — a typo must not silently regenerate nothing.
    """
    _ensure_loaded()
    specs = list(available_figures().values())
    if not only:
        return specs
    tokens = list(only)
    groups = set(figure_groups())
    names = {spec.name for spec in specs}
    selected: list[FigureSpec] = []
    for token in tokens:
        if token not in names and token not in groups:
            raise UnknownFigureError(
                f"--only token {token!r} matches no figure or group; "
                f"figures: {', '.join(sorted(names))}; groups: {', '.join(sorted(groups))}"
            )
    for spec in specs:
        if spec.name in tokens or spec.group in tokens:
            selected.append(spec)
    return selected
