"""Radio propagation models.

All models answer one question: given a transmit power and the positions of
transmitter and receiver, what power arrives at the receiver?  Five standard
models are provided:

* :class:`UnitDiskPropagation` -- the idealised fixed-range model used by the
  paper's analytical link-lifetime derivation (a link exists iff the distance
  is below the communication range *r*, Eqn. 4).
* :class:`FreeSpacePropagation` -- Friis path loss.
* :class:`TwoRayGroundPropagation` -- ground-reflection model, the standard
  choice for vehicular simulations at DSRC ranges.
* :class:`LogNormalShadowing` -- path-loss exponent plus Gaussian shadowing in
  dB, the "log-normally distributed received signal" the paper's probability
  category builds on (Sec. VII.A).
* :class:`NakagamiFading` -- m-parameterised fast fading on top of a mean
  path-loss model, the standard VANET fading choice (Rayleigh at m=1).

Random models draw from the ``rng`` handed to their constructor; the harness
(the radio registry) always wires the simulator's seeded ``"radio"`` stream
so runs are reproducible per scenario seed.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Optional

from repro.geometry import Vec2
from repro.radio.interference import NO_SIGNAL_DBM, dbm_to_mw, mw_to_dbm

#: Speed of light (m/s), used to derive the carrier wavelength.
SPEED_OF_LIGHT = 299_792_458.0

#: Default DSRC carrier frequency (5.9 GHz).
DEFAULT_FREQUENCY_HZ = 5.9e9


class PropagationModel(ABC):
    """Base class for propagation models."""

    #: True when :meth:`rx_power_dbm` is a pure function of distance (no RNG
    #: draws); a stochastic model consumes the ``"radio"`` stream once per
    #: evaluation, in receiver order.
    deterministic: bool = False

    @abstractmethod
    def rx_power_dbm(self, tx_power_dbm: float, tx_pos: Vec2, rx_pos: Vec2) -> float:
        """Received power in dBm for a transmission from ``tx_pos`` to ``rx_pos``."""

    def rx_power_dbm_from_distance(self, tx_power_dbm: float, distance: float) -> float:
        """Scalar distance-form of :meth:`rx_power_dbm`.

        Every bundled model's received power depends on geometry only through
        the transmitter-receiver distance; this entry point lets callers that
        already computed the distance (the medium's in-range tables) skip
        rebuilding positions.  The default synthesizes positions ``distance``
        apart; subclasses override it with the direct formula.
        """
        return self.rx_power_dbm(tx_power_dbm, Vec2(0.0, 0.0), Vec2(distance, 0.0))

    def constant_rx_profile(self, tx_power_dbm: float):
        """``(rx_power_dbm, cutoff_m)`` when reception is one constant level
        inside a disk and ``NO_SIGNAL_DBM`` outside, else ``None``.

        ``rx_power_dbm`` is the value :meth:`rx_power_dbm` returns anywhere
        inside the disk.  The medium uses the profile to cut reception and
        carrier sensing exactly at the disk, and to fold the interference of
        k same-power transmitters into ``combine([rx_power_dbm] * k)``: only
        a receiver's in-range interferer *count* matters.  Models with any
        distance dependence inside the disk must return ``None``.
        """
        return None

    def nominal_range(self, tx_power_dbm: float, sensitivity_dbm: float) -> float:
        """Distance at which the *mean* received power equals the sensitivity.

        Solved numerically by bisection so every subclass gets it for free;
        random models (shadowing, fading) use their mean path loss.
        """

        def mean_power(distance: float) -> float:
            return self.mean_rx_power_dbm(tx_power_dbm, distance)

        low, high = 1.0, 10_000.0
        if mean_power(high) > sensitivity_dbm:
            return high
        if mean_power(low) < sensitivity_dbm:
            return 0.0
        for _ in range(60):
            mid = (low + high) / 2.0
            if mean_power(mid) >= sensitivity_dbm:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def mean_rx_power_dbm(self, tx_power_dbm: float, distance: float) -> float:
        """Mean received power at ``distance`` metres (no fading)."""
        return self.rx_power_dbm(tx_power_dbm, Vec2(0.0, 0.0), Vec2(distance, 0.0))


class UnitDiskPropagation(PropagationModel):
    """Idealised fixed-range channel.

    Within ``communication_range`` the received power equals the transmit
    power (no loss); beyond it there is no signal.  This is the model behind
    the paper's Eqn. 4 (``d_t = r * I(i, j)`` at link breakage).
    """

    deterministic = True

    def __init__(self, communication_range: float = 250.0) -> None:
        if not 0.0 < communication_range < math.inf:
            raise ValueError(
                "communication_range must be a finite positive distance in metres, "
                f"got {communication_range!r}"
            )
        self.communication_range = communication_range

    def rx_power_dbm(self, tx_power_dbm: float, tx_pos: Vec2, rx_pos: Vec2) -> float:
        """Transmit power inside the disk, no signal outside."""
        if tx_pos.distance_to(rx_pos) <= self.communication_range:
            return tx_power_dbm
        return NO_SIGNAL_DBM

    def rx_power_dbm_from_distance(self, tx_power_dbm: float, distance: float) -> float:
        """Transmit power inside the disk, no signal outside."""
        if distance <= self.communication_range:
            return tx_power_dbm
        return NO_SIGNAL_DBM

    def constant_rx_profile(self, tx_power_dbm: float):
        """The transmit power inside the disk: exactly what the count-fold needs."""
        return (tx_power_dbm, self.communication_range)

    def mean_rx_power_dbm(self, tx_power_dbm: float, distance: float) -> float:
        """Transmit power inside the disk, no signal outside."""
        if distance <= self.communication_range:
            return tx_power_dbm
        return NO_SIGNAL_DBM

    def nominal_range(self, tx_power_dbm: float, sensitivity_dbm: float) -> float:
        """The configured communication range (independent of power)."""
        return self.communication_range


class FreeSpacePropagation(PropagationModel):
    """Friis free-space path loss."""

    deterministic = True

    def __init__(self, frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> None:
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        self.frequency_hz = frequency_hz
        self.wavelength = SPEED_OF_LIGHT / frequency_hz

    def path_loss_db(self, distance: float) -> float:
        """Free-space path loss in dB at ``distance`` metres."""
        distance = max(distance, 1.0)
        return 20.0 * math.log10(4.0 * math.pi * distance / self.wavelength)

    def rx_power_dbm(self, tx_power_dbm: float, tx_pos: Vec2, rx_pos: Vec2) -> float:
        """Transmit power minus Friis path loss."""
        return tx_power_dbm - self.path_loss_db(tx_pos.distance_to(rx_pos))

    def rx_power_dbm_from_distance(self, tx_power_dbm: float, distance: float) -> float:
        """Transmit power minus Friis path loss."""
        return tx_power_dbm - self.path_loss_db(distance)

    def mean_rx_power_dbm(self, tx_power_dbm: float, distance: float) -> float:
        """Transmit power minus Friis path loss."""
        return tx_power_dbm - self.path_loss_db(distance)


class TwoRayGroundPropagation(PropagationModel):
    """Two-ray ground-reflection model with free-space crossover.

    Below the crossover distance the model behaves like free space; beyond it
    the received power falls off with the fourth power of distance, which is
    the standard approximation for vehicle-to-vehicle links.
    """

    deterministic = True

    def __init__(
        self,
        frequency_hz: float = DEFAULT_FREQUENCY_HZ,
        antenna_height_m: float = 1.5,
    ) -> None:
        if antenna_height_m <= 0:
            raise ValueError("antenna height must be positive")
        self.free_space = FreeSpacePropagation(frequency_hz)
        self.antenna_height_m = antenna_height_m
        self.crossover_distance = (
            4.0 * math.pi * antenna_height_m * antenna_height_m / self.free_space.wavelength
        )

    def path_loss_db(self, distance: float) -> float:
        """Path loss in dB (free space below crossover, fourth power beyond)."""
        distance = max(distance, 1.0)
        if distance <= self.crossover_distance:
            return self.free_space.path_loss_db(distance)
        h = self.antenna_height_m
        # Pr = Pt * (h_t^2 h_r^2) / d^4  ->  loss = 40 log10(d) - 20 log10(h_t h_r)
        return 40.0 * math.log10(distance) - 20.0 * math.log10(h * h)

    def rx_power_dbm(self, tx_power_dbm: float, tx_pos: Vec2, rx_pos: Vec2) -> float:
        """Transmit power minus two-ray path loss."""
        return tx_power_dbm - self.path_loss_db(tx_pos.distance_to(rx_pos))

    def rx_power_dbm_from_distance(self, tx_power_dbm: float, distance: float) -> float:
        """Transmit power minus two-ray path loss."""
        return tx_power_dbm - self.path_loss_db(distance)

    def mean_rx_power_dbm(self, tx_power_dbm: float, distance: float) -> float:
        """Transmit power minus two-ray path loss."""
        return tx_power_dbm - self.path_loss_db(distance)


class LogNormalShadowing(PropagationModel):
    """Log-distance path loss with log-normal shadowing.

    ``PL(d) = PL(d0) + 10 n log10(d/d0) + X`` where ``X ~ N(0, sigma^2)`` dB.
    This is the model the probability-based category (Sec. VII) assumes when
    it says the received signal is log-normally distributed.
    """

    def __init__(
        self,
        path_loss_exponent: float = 2.8,
        sigma_db: float = 4.0,
        reference_distance: float = 1.0,
        frequency_hz: float = DEFAULT_FREQUENCY_HZ,
        rng: Optional[random.Random] = None,
    ) -> None:
        if path_loss_exponent <= 0:
            raise ValueError("path loss exponent must be positive")
        if sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")
        self.path_loss_exponent = path_loss_exponent
        self.sigma_db = sigma_db
        self.reference_distance = reference_distance
        self._free_space = FreeSpacePropagation(frequency_hz)
        self.reference_loss_db = self._free_space.path_loss_db(reference_distance)
        # No fixed-seed fallback: analytic uses (mean_rx_power_dbm,
        # link_probability) never draw, and a shadowing *draw* without the
        # simulator's seeded "radio" stream would silently ignore
        # scenario.seed -- _draw_rng refuses instead.
        self._rng = rng

    def _draw_rng(self) -> random.Random:
        if self._rng is None:
            raise ValueError(
                "LogNormalShadowing draw without a seeded rng: pass the "
                "simulator's 'radio' stream (rng=sim.rng.stream('radio')) so "
                "shadowing samples derive from scenario.seed"
            )
        return self._rng

    @property
    def deterministic(self) -> bool:
        """Pure path loss when the shadowing component is disabled."""
        return self.sigma_db == 0

    def mean_path_loss_db(self, distance: float) -> float:
        """Mean (non-shadowed) path loss at ``distance`` metres."""
        distance = max(distance, self.reference_distance)
        return self.reference_loss_db + 10.0 * self.path_loss_exponent * math.log10(
            distance / self.reference_distance
        )

    def rx_power_dbm(self, tx_power_dbm: float, tx_pos: Vec2, rx_pos: Vec2) -> float:
        """Transmit power minus mean path loss minus a Gaussian shadowing draw."""
        distance = tx_pos.distance_to(rx_pos)
        shadowing = self._draw_rng().gauss(0.0, self.sigma_db) if self.sigma_db > 0 else 0.0
        return tx_power_dbm - self.mean_path_loss_db(distance) - shadowing

    def rx_power_dbm_from_distance(self, tx_power_dbm: float, distance: float) -> float:
        """Transmit power minus mean path loss minus a Gaussian shadowing draw."""
        shadowing = self._draw_rng().gauss(0.0, self.sigma_db) if self.sigma_db > 0 else 0.0
        return tx_power_dbm - self.mean_path_loss_db(distance) - shadowing

    def mean_rx_power_dbm(self, tx_power_dbm: float, distance: float) -> float:
        """Transmit power minus mean path loss (no shadowing draw)."""
        return tx_power_dbm - self.mean_path_loss_db(distance)

    def link_probability(
        self, tx_power_dbm: float, sensitivity_dbm: float, distance: float
    ) -> float:
        """Probability that the received power exceeds the sensitivity.

        ``P[Prx > S] = Q((S - mean) / sigma)``; with ``sigma = 0`` this
        degenerates to a step function at the nominal range.  The REAR
        protocol (Sec. VII.B) uses exactly this quantity as its receipt
        probability.
        """
        mean = self.mean_rx_power_dbm(tx_power_dbm, distance)
        if self.sigma_db == 0:
            return 1.0 if mean >= sensitivity_dbm else 0.0
        z = (sensitivity_dbm - mean) / self.sigma_db
        return 0.5 * math.erfc(z / math.sqrt(2.0))


class NakagamiFading(PropagationModel):
    """Nakagami-m fast fading on top of a deterministic mean path-loss model.

    The received *power* of a Nakagami-m faded signal is Gamma-distributed
    with shape ``m`` and mean equal to the (path-loss-only) mean received
    power: ``P_rx ~ Gamma(m, mean/m)``.  ``m`` controls the fading depth --
    ``m = 1`` is Rayleigh fading (exponential power, the worst-case NLOS
    channel), larger ``m`` approaches the deterministic mean (a strong LOS
    component).  This is the standard fast-fading model for vehicular
    channels (802.11p measurement campaigns report m between about 1 and 3
    depending on distance and environment).

    Args:
        m: Nakagami shape parameter (>= 0.5 for a proper distribution).
        mean_model: Deterministic model supplying the distance-dependent
            mean received power; defaults to :class:`TwoRayGroundPropagation`
            (the usual VANET pairing).
        rng: Random stream for the fading draws; the radio registry passes
            the simulator's seeded ``"radio"`` stream.
    """

    def __init__(
        self,
        m: float = 3.0,
        mean_model: Optional[PropagationModel] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if m < 0.5:
            raise ValueError(f"Nakagami m must be >= 0.5 (got {m})")
        self.m = m
        self.mean_model = mean_model if mean_model is not None else TwoRayGroundPropagation()
        # Nakagami fading is always stochastic; refusing to draw unseeded
        # (rather than falling back to a fixed Random(0)) is what keeps
        # scenario.seed authoritative.  See _draw_rng.
        self._rng = rng

    def _draw_rng(self) -> random.Random:
        if self._rng is None:
            raise ValueError(
                "NakagamiFading draw without a seeded rng: pass the "
                "simulator's 'radio' stream (rng=sim.rng.stream('radio')) so "
                "fading samples derive from scenario.seed"
            )
        return self._rng

    def rx_power_dbm(self, tx_power_dbm: float, tx_pos: Vec2, rx_pos: Vec2) -> float:
        """A Gamma(m, mean/m) power draw around the mean received power."""
        mean_dbm = self.mean_model.rx_power_dbm(tx_power_dbm, tx_pos, rx_pos)
        if mean_dbm <= NO_SIGNAL_DBM:
            return NO_SIGNAL_DBM
        mean_mw = dbm_to_mw(mean_dbm)
        return mw_to_dbm(self._draw_rng().gammavariate(self.m, mean_mw / self.m))

    def rx_power_dbm_from_distance(self, tx_power_dbm: float, distance: float) -> float:
        """A Gamma(m, mean/m) power draw around the mean received power."""
        mean_dbm = self.mean_model.rx_power_dbm_from_distance(tx_power_dbm, distance)
        if mean_dbm <= NO_SIGNAL_DBM:
            return NO_SIGNAL_DBM
        mean_mw = dbm_to_mw(mean_dbm)
        return mw_to_dbm(self._draw_rng().gammavariate(self.m, mean_mw / self.m))

    def mean_rx_power_dbm(self, tx_power_dbm: float, distance: float) -> float:
        """The underlying model's mean power (the fading draw has this mean)."""
        return self.mean_model.mean_rx_power_dbm(tx_power_dbm, distance)
