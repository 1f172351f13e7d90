"""The workload registry: traffic kinds and named workload presets.

The harness refers to workloads by name and resolves them here, so adding
a traffic model is a registry entry rather than a change to the runner.
Kinds map a name (``"cbr"``, ``"safety-beacon"``, ...) to a
:class:`~repro.workloads.base.Workload` subclass; presets such as
``safety-beacon-10hz`` are registered by the workload modules themselves,
next to the class they configure.  ``WORKLOADS.resolve(spec, **params)``
instantiates either, a preset's ``params`` overriding its own; the shared
traffic settings (:attr:`Workload.traffic_keywords`) rank below both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Type

from repro.registry import Registry
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.scenario import Scenario

WORKLOADS: Registry[Type[Workload]] = Registry("workload", name_attr="workload_name")


def with_traffic(scenario: "Scenario", traffic: Mapping[str, object]) -> "Scenario":
    """``scenario`` with each ``traffic`` setting its workload reads added to
    ``workload_params``, unless the preset's or its own params fix it or
    make it a no-op (:attr:`~repro.workloads.base.Workload.traffic_overrides`);
    the same object when no setting applies."""
    preset = WORKLOADS.presets.get(scenario.workload)
    kind = WORKLOADS[preset.kind if preset else scenario.workload]
    keywords = kind.traffic_keywords
    given = {**(preset.defaults if preset else {}), **scenario.workload_params}
    fixed = set(given).union(
        ignored for keyword, ignored in kind.traffic_overrides.items() if given.get(keyword)
    )
    params = {
        keywords[setting]: value
        for setting, value in traffic.items()
        if setting in keywords and keywords[setting] not in fixed
    }
    if not params:
        return scenario
    return scenario.with_overrides(workload_params={**scenario.workload_params, **params})


__all__ = ["WORKLOADS", "with_traffic"]
