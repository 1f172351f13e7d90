"""One generic string-keyed registry behind every pluggable component.

Routing protocols, scenario kinds, workloads, radio stacks and monitors
are all named things the harness resolves from a string, so they share
one :class:`Registry` type:

* **Kinds** are the registered implementations (a class or a builder
  function), added with the :meth:`Registry.register` decorator.
* **Presets** are named, ready-made parameterisations of a kind
  (:class:`Preset`), added with :meth:`Registry.register_preset`.  Preset
  names follow the kebab-case convention (``city-grid-2km-sparse``,
  ``dsrc-urban-nlos``); a name that breaks it is rejected at registration.
* :meth:`Registry.resolve` turns a spec string into a product -- presets
  first, then kinds -- and :meth:`Registry.kind_rows` /
  :meth:`Registry.preset_rows` render the catalogue tables that
  ``repro-vanet list <kind>`` prints.

Each domain module owns its instance (``PROTOCOLS`` in
:mod:`repro.core.taxonomy`, ``SCENARIOS`` in :mod:`repro.harness.scenarios`,
``WORKLOADS``, ``RADIOS`` and ``MONITORS`` in the matching ``registry``
modules) and supplies its extra catalogue columns.  What each registry
expects of its kinds (base class, builder signature) is checked over the
live classes by ``tests/test_registry_contract.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generic, List, Mapping, Optional, TypeVar

T = TypeVar("T")

#: One catalogue table row: column name -> rendered cell.
Row = Dict[str, str]

#: The preset naming convention (``dsrc-urban-nlos``, ``highway-10km-congested``).
KEBAB_CASE = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")


@dataclass(frozen=True)
class Preset:
    """A named, ready-made parameterisation of a registered kind.

    ``build(*args, **overrides)`` calls ``factory(*args, **defaults,
    **overrides)``; ``kind`` names the underlying kind for catalogue
    listings, so they never need to instantiate the preset to find it.
    """

    name: str
    factory: Callable[..., Any]
    description: str
    kind: str = ""
    defaults: Mapping[str, Any] = field(default_factory=dict)

    def build(self, *args: Any, **overrides: Any) -> Any:
        """Instantiate the preset (a fresh product each call)."""
        return self.factory(*args, **{**self.defaults, **overrides})


def _call_kind(name: str, kind: Any, *args: Any, **params: Any) -> Any:
    return kind(*args, **params)


def _describe_kind(kind: Any) -> Row:
    doc: str = getattr(kind, "__doc__", None) or ""
    lines = doc.strip().splitlines()
    return {"description": lines[0] if lines else ""}


class Registry(Generic[T]):
    """Kinds and presets of one component type, resolvable by name.

    Args:
        label: What one entry is called in messages (``"workload"``).
        column: Header of the name column in :meth:`kind_rows`; defaults
            to ``label``.
        name_attr: Attribute :meth:`register` stamps with the registered
            name (``workload_name``, ``monitor_name``, ...), if any.
        instantiate: How :meth:`resolve` turns a kind into a product,
            called as ``instantiate(name, kind, *args, **params)``; the
            default calls ``kind(*args, **params)``.
        kind_columns: Extra :meth:`kind_rows` columns for one kind; the
            default is its first docstring line as ``description``.
        preset_columns: Extra :meth:`preset_rows` columns for one preset;
            the default is its ``kind`` under the ``column`` header.
    """

    def __init__(
        self,
        label: str,
        *,
        column: str = "",
        name_attr: Optional[str] = None,
        instantiate: Callable[..., Any] = _call_kind,
        kind_columns: Callable[[T], Row] = _describe_kind,
        preset_columns: Optional[Callable[[Preset], Row]] = None,
    ) -> None:
        self.label = label
        self.column = column or label
        self.name_attr = name_attr
        self.kinds: Dict[str, T] = {}
        self.presets: Dict[str, Preset] = {}
        self._instantiate = instantiate
        self._kind_columns = kind_columns
        self._preset_columns: Callable[[Preset], Row] = preset_columns or (
            lambda preset: {self.column: preset.kind}
        )

    # --------------------------------------------------------------- kinds
    def register(self, name: str) -> Callable[[T], T]:
        """Decorator registering a kind under ``name`` (duplicates raise)."""

        def decorator(kind: T) -> T:
            if name in self.kinds:
                raise ValueError(f"{self.label} kind {name!r} is already registered")
            if self.name_attr is not None:
                setattr(kind, self.name_attr, name)
            self.kinds[name] = kind
            return kind

        return decorator

    def unregister(self, name: str) -> None:
        """Remove a kind (plug-in teardown / tests); unknown names are ignored."""
        self.kinds.pop(name, None)

    def names(self) -> List[str]:
        """Names of all registered kinds, sorted."""
        return sorted(self.kinds)

    def __getitem__(self, name: str) -> T:
        """The kind registered under ``name``; unknown names raise ``KeyError``."""
        try:
            return self.kinds[name]
        except KeyError:
            raise KeyError(self.unknown(name)) from None

    def __contains__(self, spec: object) -> bool:
        """True when :meth:`resolve` knows ``spec`` (as a preset or a kind)."""
        return spec in self.presets or spec in self.kinds

    # ------------------------------------------------------------- presets
    def register_preset(
        self,
        name: str,
        factory: Callable[..., Any],
        description: str,
        kind: str = "",
        **defaults: Any,
    ) -> Preset:
        """Register a named preset built by ``factory(*args, **defaults, **overrides)``."""
        if KEBAB_CASE.match(name) is None:
            raise ValueError(
                f"{self.label} preset name {name!r} breaks the kebab-case "
                "convention ('city-grid-2km-sparse', 'dsrc-urban-nlos', ...)"
            )
        if name in self.presets:
            raise ValueError(f"{self.label} preset {name!r} is already registered")
        preset = Preset(name, factory, description, kind, dict(defaults))
        self.presets[name] = preset
        return preset

    def unregister_preset(self, name: str) -> None:
        """Remove a preset (plug-in teardown / tests); unknown names are ignored."""
        self.presets.pop(name, None)

    def preset_names(self) -> List[str]:
        """Names of all registered presets, sorted."""
        return sorted(self.presets)

    # ---------------------------------------------------------- resolution
    def resolve(self, spec: str, *args: Any, **params: Any) -> Any:
        """Build the product ``spec`` names: a preset first, else a kind.

        ``args`` and ``params`` go to the preset's factory (``params``
        overriding its defaults) or to the kind's constructor/builder.
        """
        preset = self.presets.get(spec)
        if preset is not None:
            return preset.build(*args, **params)
        if spec in self.kinds:
            return self._instantiate(spec, self.kinds[spec], *args, **params)
        raise KeyError(self.unknown(spec))

    def unknown(self, spec: str) -> str:
        """The error message for a spec neither catalogue knows."""
        return (
            f"unknown {self.label} {spec!r}; "
            f"registered kinds: {', '.join(self.names()) or '(none)'}; "
            f"presets: {', '.join(self.preset_names()) or '(none)'}"
        )

    # ----------------------------------------------------------- catalogue
    def kind_rows(self) -> List[Row]:
        """One catalogue row per kind, sorted by name."""
        return [
            {self.column: name, **self._kind_columns(self.kinds[name])}
            for name in self.names()
        ]

    def preset_rows(self) -> List[Row]:
        """One catalogue row per preset, sorted by name."""
        return [
            {
                "preset": name,
                **self._preset_columns(self.presets[name]),
                "description": self.presets[name].description,
            }
            for name in self.preset_names()
        ]


__all__ = ["KEBAB_CASE", "Preset", "Registry", "Row"]
