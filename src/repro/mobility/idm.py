"""The Intelligent Driver Model (IDM) car-following law.

IDM produces realistic headway and relative-speed distributions -- the inputs
the paper's link-lifetime model (Sec. IV.A.1) depends on -- from a handful of
interpretable parameters.  It is the standard microscopic model used by SUMO
and most vehicular-networking studies, which is why we use it as the
substitute for SUMO traces (recorded traces replay through the ``trace``
scenario kind; see the README's "Scenario registry").
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IdmParameters:
    """IDM parameters.

    Attributes:
        max_acceleration: Maximum acceleration ``a`` (m/s^2).
        comfortable_deceleration: Comfortable braking ``b`` (m/s^2).
        time_headway: Desired time headway ``T`` (s).
        minimum_gap: Jam distance ``s0`` (m).
        delta: Free-flow acceleration exponent.
    """

    max_acceleration: float = 1.4
    comfortable_deceleration: float = 2.0
    time_headway: float = 1.5
    minimum_gap: float = 2.0
    delta: float = 4.0


def desired_gap(
    speed: float, approach_rate: float, params: IdmParameters
) -> float:
    """IDM desired (dynamic) gap ``s*`` for the given speed and approach rate."""
    dynamic_term = (speed * approach_rate) / (
        2.0 * math.sqrt(params.max_acceleration * params.comfortable_deceleration)
    )
    return params.minimum_gap + max(0.0, speed * params.time_headway + dynamic_term)


def idm_acceleration(
    speed: float,
    desired_speed: float,
    gap: float,
    approach_rate: float,
    params: IdmParameters = IdmParameters(),
) -> float:
    """IDM acceleration for a vehicle.

    Args:
        speed: Current speed of the follower (m/s).
        desired_speed: Free-flow target speed (m/s).
        gap: Bumper-to-bumper gap to the leader (m); ``math.inf`` when the
            road ahead is free.
        approach_rate: Speed difference ``v_follower - v_leader`` (m/s).
        params: Model parameters.

    Returns:
        Longitudinal acceleration in m/s^2 (negative when braking).
    """
    if desired_speed <= 0:
        return -params.comfortable_deceleration
    free_flow = 1.0 - (max(0.0, speed) / desired_speed) ** params.delta
    if math.isinf(gap) or gap <= 0 and speed <= 0:
        interaction = 0.0
    else:
        effective_gap = max(gap, 0.1)
        interaction = (desired_gap(speed, approach_rate, params) / effective_gap) ** 2
    acceleration = params.max_acceleration * (free_flow - interaction)
    # Physical braking limit: roughly 2.5x the comfortable deceleration.
    return max(-2.5 * params.comfortable_deceleration, acceleration)


def free_flow_acceleration(
    speed: float, desired_speed: float, params: IdmParameters = IdmParameters()
) -> float:
    """IDM acceleration with no leader ahead."""
    return idm_acceleration(speed, desired_speed, math.inf, 0.0, params)
