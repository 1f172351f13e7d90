"""The monitor registry: observability probe kinds and named presets.

Monitor kinds (classes) register under kebab-case names with
``@MONITORS.register``; presets pre-parameterise them, and
``MONITORS.resolve(spec, **params)`` builds either with keyword overrides.

Monitors are a fixed per-run set, not a sweep axis: a sweep attaches the
same monitors to every cell via ``Scenario.monitors``.
"""

from __future__ import annotations

from typing import Type

from repro.monitors.base import Monitor
from repro.registry import Registry

MONITORS: Registry[Type[Monitor]] = Registry("monitor", name_attr="monitor_name")

__all__ = ["MONITORS"]
