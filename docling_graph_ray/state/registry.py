"""Typed stage-function registry: the user-extension surface.

The reference composes pipelines from ``PipelineStage`` objects
(``name()``/``execute(ctx)`` ABC, docling_graph/pipeline/stages.py:47-80,
orchestrator.py:62-77) and accepts duck-typed backends/exporters
(protocols.py).  Ray-side, the extension surface is (a) a registry of
named ``Dataset → Dataset`` transforms composable into pipelines and
(b) parser-plugin classes for the actor stage (SURVEY.md §2.11 mapping).

Stages are plain callables ``fn(ds, **config) -> ds``; registration is
explicit (no import-time magic), lookups raise with the known-names list
(the reference's early-error stance)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass
class StageRegistry:
    _stages: dict[str, Callable] = field(default_factory=dict)

    def register(self, name: str, fn: Callable | None = None):
        """``registry.register("clean", fn)`` or decorator form."""
        if fn is None:
            def deco(f: Callable) -> Callable:
                self.register(name, f)
                return f
            return deco
        if name in self._stages:
            raise ValueError(f"stage {name!r} already registered")
        self._stages[name] = fn
        return fn

    def get(self, name: str) -> Callable:
        try:
            return self._stages[name]
        except KeyError:
            known = ", ".join(sorted(self._stages)) or "<none>"
            raise KeyError(f"unknown stage {name!r}; registered: {known}") from None

    def names(self) -> list[str]:
        return sorted(self._stages)

    def compose(self, plan: list[str | tuple[str, dict]]):
        """['a', ('b', {'k': 1})] → one Dataset→Dataset callable."""
        steps: list[tuple[Callable, dict]] = []
        for item in plan:
            if isinstance(item, str):
                steps.append((self.get(item), {}))
            else:
                name, cfg = item
                steps.append((self.get(name), dict(cfg)))

        def run(ds):
            for fn, cfg in steps:
                ds = fn(ds, **cfg)
            return ds

        return run


def builtin_registry() -> StageRegistry:
    """Registry pre-loaded with the engine's dataset-level operators."""
    reg = StageRegistry()
    from docling_graph_ray.stages.chunking import chunk_batch
    from docling_graph_ray.stages.graph import phantom_filter
    from docling_graph_ray.stages.sniff import detect_content_kind

    reg.register(
        "detect_content_kind",
        lambda ds, **cfg: ds.map_batches(
            detect_content_kind(**cfg), batch_format="pyarrow"
        ),
    )
    reg.register(
        "chunk",
        lambda ds, **cfg: ds.map_batches(chunk_batch(**cfg), batch_format="pyarrow"),
    )
    reg.register(
        "phantom_filter",
        lambda ds, attr_cols=(), **_: phantom_filter(ds, list(attr_cols)),
    )
    return reg
