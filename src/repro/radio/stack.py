"""The radio stack: one named bundle of channel models.

A :class:`RadioStack` is the radio-side counterpart of a
:class:`~repro.harness.scenario.Scenario`: it bundles the four pluggable
channel components -- propagation, reception, interference combination and
the MAC/PHY framing parameters -- into a single named profile the harness
can pass around as one object.  Stacks are resolved by name through
:data:`~repro.radio.registry.RADIOS` and form the fourth sweep axis
(scenario x protocol x workload x **radio** x seed).

A stack instance is *live*: random models inside it (shadowing, Nakagami
fading, probabilistic reception) hold the run's seeded random stream, so a
fresh stack is built per run by the registry rather than shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.radio.interference import AdditiveInterference, InterferenceModel
from repro.radio.mac import MacConfig
from repro.radio.propagation import PropagationModel, UnitDiskPropagation
from repro.radio.reception import ReceptionModel, SnrThresholdReception


@dataclass
class RadioStack:
    """A complete, named radio/channel profile.

    Attributes:
        name: Registry label the stack was resolved from (set by
            ``radio_from_name``); recorded in run records and sweep
            artifacts so results are attributable to a channel profile.
            Hand-assembled stacks default to ``"custom"`` so they never
            masquerade as a registered preset.
        propagation: Distance/fading model mapping transmit power to
            received power.
        reception: Frame-level reception decision (threshold or
            probabilistic).
        interference: How concurrent transmissions combine at a receiver.
        mac: CSMA/CA and PHY framing parameters.
        tx_power_dbm: Transmit power assigned to every node built under
            this stack.
        description: One-line human description (``list radios``).
    """

    name: str = "custom"
    propagation: PropagationModel = field(default_factory=UnitDiskPropagation)
    reception: ReceptionModel = field(default_factory=SnrThresholdReception)
    interference: InterferenceModel = field(default_factory=AdditiveInterference)
    mac: MacConfig = field(default_factory=MacConfig)
    tx_power_dbm: float = 20.0
    description: str = ""

    def nominal_range_m(self, tx_power_dbm: Optional[float] = None) -> float:
        """Distance at which the mean received power hits the sensitivity."""
        power = tx_power_dbm if tx_power_dbm is not None else self.tx_power_dbm
        return self.propagation.nominal_range(power, self.reception.sensitivity_dbm)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"RadioStack({self.name!r}, propagation={type(self.propagation).__name__}, "
            f"reception={type(self.reception).__name__}, "
            f"interference={type(self.interference).__name__}, "
            f"tx={self.tx_power_dbm:g} dBm)"
        )


__all__ = ["RadioStack"]
