"""Reception models: decide whether a frame is successfully received."""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.radio.interference import (
    NO_SIGNAL_DBM,
    combine_dbm,
    dbm_to_mw,
    mw_to_dbm,
)

#: Thermal noise floor for a 10 MHz DSRC channel plus a typical noise figure.
DEFAULT_NOISE_FLOOR_DBM = -99.0

#: Typical receiver sensitivity for IEEE 802.11p at low data rates.
DEFAULT_SENSITIVITY_DBM = -92.0


class ReceptionDecision(Enum):
    """Outcome of a reception attempt, used for loss accounting."""

    RECEIVED = "received"
    WEAK_SIGNAL = "weak_signal"
    COLLISION = "collision"


@dataclass
class ReceptionOutcome:
    """Decision plus the SINR that produced it (for tracing/analysis)."""

    decision: ReceptionDecision
    sinr_db: float

    @property
    def ok(self) -> bool:
        """True when the frame was received."""
        return self.decision is ReceptionDecision.RECEIVED


def _require_finite(name: str, value: float) -> None:
    """Reject a NaN or infinite dB/dBm parameter with a named error."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


class ReceptionModel(ABC):
    """Base class for reception decisions."""

    #: True when :meth:`decide` is a pure function of its signal and
    #: interference arguments (no RNG draws, no state): the medium then
    #: reuses one frame's outcome for every receiver with equal inputs.
    #: Mirrors ``PropagationModel.deterministic``.
    deterministic = False

    def __init__(
        self,
        sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
        noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
    ) -> None:
        _require_finite("sensitivity_dbm", sensitivity_dbm)
        _require_finite("noise_floor_dbm", noise_floor_dbm)
        self.sensitivity_dbm = sensitivity_dbm
        self.noise_floor_dbm = noise_floor_dbm
        #: (noise_floor_dbm, quiet-channel dBm): the derived noise constant,
        #: recomputed only if the noise floor is reassigned.
        self._noise_cache = None

    def _noise_terms(self):
        """``(noise dBm, quiet-channel noise-plus-interference dBm)``.

        The quiet-channel term is ``combine_dbm([noise, NO_SIGNAL_DBM])``
        evaluated once per noise floor: the same scalar chain on the same
        input, so it carries the same bits as evaluating it per call.
        """
        cache = self._noise_cache
        if cache is None or cache[0] != self.noise_floor_dbm:
            noise = self.noise_floor_dbm
            cache = (noise, combine_dbm([noise, NO_SIGNAL_DBM]))
            self._noise_cache = cache
        return cache

    def sinr_db(self, rx_power_dbm: float, interference_dbm: float) -> float:
        """Signal-to-interference-plus-noise ratio in dB."""
        if rx_power_dbm <= NO_SIGNAL_DBM:
            return -math.inf
        if interference_dbm == NO_SIGNAL_DBM:
            # The common case: no concurrent frame reaches the receiver.
            return rx_power_dbm - self._noise_terms()[1]
        noise_plus_interference = combine_dbm([self.noise_floor_dbm, interference_dbm])
        return rx_power_dbm - noise_plus_interference

    @abstractmethod
    def decide(
        self,
        rx_power_dbm: float,
        interference_dbm: float,
        rng: Optional[random.Random] = None,
    ) -> ReceptionOutcome:
        """Decide whether a frame with the given signal/interference is received."""


class SnrThresholdReception(ReceptionModel):
    """Deterministic SINR-threshold reception.

    A frame is received iff the signal exceeds the sensitivity *and* the SINR
    exceeds the capture threshold.  Losing to interference is reported as a
    collision, losing to weak signal as a range failure -- the statistics
    collector keeps those separate because the broadcast-storm analysis
    (Fig. 2 / Table I) needs the collision count.
    """

    deterministic = True

    def __init__(
        self,
        snr_threshold_db: float = 10.0,
        sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
        noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
    ) -> None:
        super().__init__(sensitivity_dbm, noise_floor_dbm)
        _require_finite("snr_threshold_db", snr_threshold_db)
        self.snr_threshold_db = snr_threshold_db

    def decide(
        self,
        rx_power_dbm: float,
        interference_dbm: float,
        rng: Optional[random.Random] = None,
    ) -> ReceptionOutcome:
        """Threshold test on sensitivity and SINR."""
        if rx_power_dbm < self.sensitivity_dbm:
            return ReceptionOutcome(ReceptionDecision.WEAK_SIGNAL, -math.inf)
        sinr = self.sinr_db(rx_power_dbm, interference_dbm)
        if sinr < self.snr_threshold_db:
            return ReceptionOutcome(ReceptionDecision.COLLISION, sinr)
        return ReceptionOutcome(ReceptionDecision.RECEIVED, sinr)


class ProbabilisticReception(ReceptionModel):
    """SINR-dependent probabilistic reception.

    The packet-success probability follows a logistic curve centred on the
    SINR threshold; this is a smooth stand-in for the BER-derived curves of a
    real modem and gives the REAR protocol (Sec. VII.B) a well-defined
    "receipt probability" to estimate from signal strength.
    """

    def __init__(
        self,
        snr_threshold_db: float = 10.0,
        steepness_db: float = 2.0,
        sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM,
        noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM,
    ) -> None:
        super().__init__(sensitivity_dbm, noise_floor_dbm)
        _require_finite("snr_threshold_db", snr_threshold_db)
        if not 0.0 < steepness_db < math.inf:
            raise ValueError(
                f"steepness_db must be a finite positive number, got {steepness_db!r}"
            )
        self.snr_threshold_db = snr_threshold_db
        self.steepness_db = steepness_db

    def success_probability(self, rx_power_dbm: float, interference_dbm: float) -> float:
        """Packet success probability for the given signal and interference."""
        if rx_power_dbm < self.sensitivity_dbm:
            return 0.0
        return self._probability_at(self.sinr_db(rx_power_dbm, interference_dbm))

    def _probability_at(self, sinr_db: float) -> float:
        """The logistic success curve evaluated at ``sinr_db``."""
        return 1.0 / (1.0 + math.exp(-(sinr_db - self.snr_threshold_db) / self.steepness_db))

    def decide(
        self,
        rx_power_dbm: float,
        interference_dbm: float,
        rng: Optional[random.Random] = None,
    ) -> ReceptionOutcome:
        """Bernoulli draw against the logistic success probability."""
        if rx_power_dbm < self.sensitivity_dbm:
            return ReceptionOutcome(ReceptionDecision.WEAK_SIGNAL, -math.inf)
        sinr = self.sinr_db(rx_power_dbm, interference_dbm)
        probability = self._probability_at(sinr)
        draw = rng.random() if rng is not None else 0.5
        if draw <= probability:
            return ReceptionOutcome(ReceptionDecision.RECEIVED, sinr)
        # Attribute probabilistic losses to interference when interference is
        # the dominant impairment, otherwise to weak signal.
        interference_mw = dbm_to_mw(interference_dbm)
        noise_mw = dbm_to_mw(self.noise_floor_dbm)
        decision = (
            ReceptionDecision.COLLISION
            if interference_mw > noise_mw
            else ReceptionDecision.WEAK_SIGNAL
        )
        return ReceptionOutcome(decision, sinr)


__all__ = [
    "ReceptionDecision",
    "ReceptionOutcome",
    "ReceptionModel",
    "SnrThresholdReception",
    "ProbabilisticReception",
    "DEFAULT_NOISE_FLOOR_DBM",
    "DEFAULT_SENSITIVITY_DBM",
    "mw_to_dbm",
]
