"""Power-unit helpers and interference combination.

Received powers are expressed in dBm throughout the radio package; summing
interference contributions requires a round trip through milliwatts.

How concurrent transmissions combine at a receiver is itself a pluggable
model (:class:`InterferenceModel`): the physical default is additive power
(:class:`AdditiveInterference`), while :class:`NoInterference` gives an
idealised collision-free channel for protocol-logic experiments.  The model
is one of the four components a :class:`~repro.radio.stack.RadioStack`
bundles.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

#: Received power used to represent "no signal at all" (effectively -inf dBm).
NO_SIGNAL_DBM = -1000.0


def dbm_to_mw(power_dbm: float) -> float:
    """Convert a power from dBm to milliwatts."""
    if power_dbm <= NO_SIGNAL_DBM:
        return 0.0
    return 10.0 ** (power_dbm / 10.0)


def mw_to_dbm(power_mw: float) -> float:
    """Convert a power from milliwatts to dBm (zero maps to ``NO_SIGNAL_DBM``)."""
    if power_mw <= 0.0:
        return NO_SIGNAL_DBM
    return 10.0 * math.log10(power_mw)


def combine_dbm(powers_dbm: Iterable[float]) -> float:
    """Sum several received powers expressed in dBm.

    Interference from concurrent transmissions is additive in linear units,
    so the values are converted to mW, summed, and converted back.
    """
    total_mw = sum(dbm_to_mw(p) for p in powers_dbm)
    return mw_to_dbm(total_mw)


class InterferenceModel(ABC):
    """How the powers of concurrent transmissions combine at a receiver.

    The wireless medium hands :meth:`combine` the received power (dBm) of
    every overlapping foreign transmission at a receiver and uses the result
    as the interference term of the reception decision's SINR.
    """

    #: Whether :meth:`combine` actually consumes its contributions.  Models
    #: that ignore them (:class:`NoInterference`) set this False so the
    #: medium can skip computing per-interferer received powers entirely --
    #: that loop is one of the per-frame hot paths.
    uses_contributions: bool = True

    @abstractmethod
    def combine(self, powers_dbm: Sequence[float]) -> float:
        """Aggregate interference power in dBm (``NO_SIGNAL_DBM`` for none)."""


class AdditiveInterference(InterferenceModel):
    """Physically additive co-channel interference (the default)."""

    def combine(self, powers_dbm: Sequence[float]) -> float:
        """Linear-domain power sum (see :func:`combine_dbm`)."""
        if not powers_dbm:
            return NO_SIGNAL_DBM
        return combine_dbm(powers_dbm)


class NoInterference(InterferenceModel):
    """Idealised interference-free channel.

    Concurrent transmissions never collide at the PHY; only carrier sensing
    and the sensitivity threshold limit reception.  Useful for isolating
    routing-logic effects from MAC-contention effects.
    """

    uses_contributions = False

    def combine(self, powers_dbm: Sequence[float]) -> float:
        """Always reports a silent channel."""
        return NO_SIGNAL_DBM
