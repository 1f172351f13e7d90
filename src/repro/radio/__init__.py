"""Wireless channel models: propagation, reception, interference and MAC.

The paper repeatedly appeals to two physical facts about DSRC radios:

* communication range is short (FCC-mandated power limits, Sec. I), and
* the received signal is random -- "normally or log-normally distributed"
  (Sec. VII.A) -- so links exist only probabilistically.

This package supplies those facts to the simulator: deterministic, shadowed
and fading propagation models, SNR-based and probabilistic reception
decisions, pluggable interference combination, and a CSMA/CA-flavoured MAC
with carrier sensing, random backoff and collisions (the mechanism behind
the broadcast-storm problem).

The four channel components compose into a named
:class:`~repro.radio.stack.RadioStack` resolved through
:data:`~repro.radio.registry.RADIOS` -- the fourth sweep axis next to
scenarios, protocols and workloads.
"""

from repro.radio.interference import (
    AdditiveInterference,
    InterferenceModel,
    NoInterference,
    combine_dbm,
    dbm_to_mw,
    mw_to_dbm,
)
from repro.radio.mac import CsmaCaMac, MacConfig
from repro.radio.propagation import (
    FreeSpacePropagation,
    LogNormalShadowing,
    NakagamiFading,
    PropagationModel,
    TwoRayGroundPropagation,
    UnitDiskPropagation,
)
from repro.radio.reception import (
    ProbabilisticReception,
    ReceptionDecision,
    ReceptionModel,
    SnrThresholdReception,
)
from repro.radio.registry import (
    DEFAULT_RADIO,
    RADIOS,
    radio_from_name,
    stack_for_scenario,
)
from repro.radio.stack import RadioStack

__all__ = [
    "combine_dbm",
    "dbm_to_mw",
    "mw_to_dbm",
    "InterferenceModel",
    "AdditiveInterference",
    "NoInterference",
    "CsmaCaMac",
    "MacConfig",
    "PropagationModel",
    "FreeSpacePropagation",
    "TwoRayGroundPropagation",
    "LogNormalShadowing",
    "NakagamiFading",
    "UnitDiskPropagation",
    "ReceptionModel",
    "ReceptionDecision",
    "SnrThresholdReception",
    "ProbabilisticReception",
    "RadioStack",
    "DEFAULT_RADIO",
    "RADIOS",
    "radio_from_name",
    "stack_for_scenario",
]
