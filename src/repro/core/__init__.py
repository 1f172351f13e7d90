"""The paper's analytical core.

This package implements the material the paper develops in its own right
(as opposed to surveying): the communication-link lifetime model of
Sec. IV.A.1 (Eqns. 1-4, Fig. 3), the direction-of-mobility decomposition of
Sec. IV.A.2 (Fig. 4), the probabilistic link-stability models of Sec. VII.A,
the composition of link metrics into path metrics, and the five-category
taxonomy of Fig. 1.
"""

from repro.core.direction import (
    DirectionGroup,
    direction_group,
    heading_alignment,
    same_direction,
    velocity_projections,
)
from repro.core.link_lifetime import (
    LinkLifetimePredictor,
    link_breakage_indicator,
    link_lifetime_1d,
    link_lifetime_2d,
    relative_motion_1d,
)
from repro.core.metrics import LinkMetrics, PAPER_TABLE_I, CategoryProfile
from repro.core.path_reliability import (
    most_reliable_path,
    path_lifetime,
    path_reliability,
    widest_lifetime_path,
)
from repro.core.stability import (
    GammaHeadwayModel,
    LinkStabilityModel,
    LogNormalHeadwayModel,
    NormalHeadwayModel,
    link_alive_probability,
)
from repro.core.taxonomy import (
    PROTOCOLS,
    Category,
    protocols_in,
    register_protocol,
)

__all__ = [
    "DirectionGroup",
    "direction_group",
    "heading_alignment",
    "same_direction",
    "velocity_projections",
    "LinkLifetimePredictor",
    "link_breakage_indicator",
    "link_lifetime_1d",
    "link_lifetime_2d",
    "relative_motion_1d",
    "LinkMetrics",
    "PAPER_TABLE_I",
    "CategoryProfile",
    "most_reliable_path",
    "path_lifetime",
    "path_reliability",
    "widest_lifetime_path",
    "GammaHeadwayModel",
    "LinkStabilityModel",
    "LogNormalHeadwayModel",
    "NormalHeadwayModel",
    "link_alive_probability",
    "Category",
    "PROTOCOLS",
    "protocols_in",
    "register_protocol",
]
