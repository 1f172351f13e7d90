"""The workload registry: traffic kinds and named workload presets.

The harness refers to workloads by name and resolves them here, so adding
a traffic model is a registry entry rather than a change to the runner.
Kinds map a name (``"cbr"``, ``"safety-beacon"``, ...) to a
:class:`~repro.workloads.base.Workload` subclass; presets such as
``safety-beacon-10hz`` are registered by the workload modules themselves,
next to the class they configure.  ``WORKLOADS.resolve(spec, **params)``
instantiates either, a preset's ``params`` overriding its own.
"""

from __future__ import annotations

from typing import Type

from repro.registry import Registry
from repro.workloads.base import Workload

WORKLOADS: Registry[Type[Workload]] = Registry("workload", name_attr="workload_name")

__all__ = ["WORKLOADS"]
