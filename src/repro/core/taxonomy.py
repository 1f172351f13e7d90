"""The five-category taxonomy of VANET routing protocols (paper Fig. 1).

Every protocol implementation in :mod:`repro.protocols` registers itself in
:data:`PROTOCOLS` with its category via :func:`register_protocol`, so the
registry can regenerate Fig. 1 (which protocol belongs to which category)
and the benchmarks can iterate "one representative per category" without
hard-coding class lists.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, List, TypeVar

from repro.registry import Registry, Row


class Category(Enum):
    """The five routing-metric categories of Fig. 1."""

    CONNECTIVITY = "connectivity"
    MOBILITY = "mobility"
    INFRASTRUCTURE = "infrastructure"
    GEOGRAPHIC = "geographic"
    PROBABILITY = "probability"

    @property
    def description(self) -> str:
        """One-line description of the category, paraphrasing Sec. II."""
        return {
            Category.CONNECTIVITY: (
                "Flooding-based route discovery over the connectivity graph "
                "(AODV, DSR, DSDV, Biswas)."
            ),
            Category.MOBILITY: (
                "Link lifetime / direction prediction from relative mobility "
                "(PBR, Taleb, Abedi, Wedde, NiuDe)."
            ),
            Category.INFRASTRUCTURE: (
                "Fixed road-side units or bus ferries relay and buffer packets "
                "(DRR, SARC, Bus)."
            ),
            Category.GEOGRAPHIC: (
                "Positions partition the road into zones/grids and packets move "
                "greedily toward the destination (CarNet, Zone, Greedy, ROVER, LORA-DCBF)."
            ),
            Category.PROBABILITY: (
                "A probability model of link existence/duration drives selective "
                "probing and path selection (Yan, GVGrid, CAR, REAR, NiuDe)."
            ),
        }[self]


def _taxonomy_columns(cls: type) -> Row:
    return {
        "category": cls.category.value,
        "reference": cls.paper_reference,
        "description": cls.description,
    }


#: Protocol name -> implementing class, filled by ``@register_protocol``
#: when :mod:`repro.protocols` is imported.
PROTOCOLS: Registry[type] = Registry(
    "protocol", name_attr="protocol_name", kind_columns=_taxonomy_columns
)

C = TypeVar("C", bound=type)


def register_protocol(
    name: str, category: Category, description: str, paper_reference: str = ""
) -> Callable[[C], C]:
    """Class decorator registering a protocol implementation in the taxonomy.

    Stamps ``category``, ``description`` and ``paper_reference`` on the
    class and registers it in :data:`PROTOCOLS` under ``name``.  Usage::

        @register_protocol("AODV", Category.CONNECTIVITY, "on-demand distance vector", "[6]")
        class AodvProtocol(RoutingProtocol):
            ...
    """

    def decorator(cls: C) -> C:
        cls.category = category
        cls.description = description
        cls.paper_reference = paper_reference
        return PROTOCOLS.register(name)(cls)

    return decorator


def protocols_in(category: Category) -> List[str]:
    """Names of the registered protocols in ``category``, sorted."""
    return [name for name in PROTOCOLS.names() if PROTOCOLS[name].category is category]
