"""The radio registry: channel kinds and named radio-stack presets.

The harness refers to radio stacks by name and resolves them here, so
adding a channel model is a registry entry rather than a change to the
runner.  The radio is the fourth sweep axis (scenario x protocol x
workload x **radio** x seed).  Kinds (``"unit_disk"``, ``"shadowing"``,
``"nakagami"``, ...) are builders producing a
:class:`~repro.radio.stack.RadioStack` from the simulator's seeded
``"radio"`` stream plus scalar parameters; presets such as
``dsrc-urban-nlos`` parameterise propagation + reception + interference +
MAC together.

Stacks are *built per run*: random channel models (shadowing, Nakagami
fading, probabilistic reception) hold the run's random stream, so a shared
instance would leak draws between runs.  :func:`radio_from_name` therefore
returns a fresh stack each call.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, TYPE_CHECKING

from repro.radio.interference import (
    AdditiveInterference,
    InterferenceModel,
    NoInterference,
)
from repro.radio.mac import MacConfig
from repro.radio.propagation import (
    FreeSpacePropagation,
    LogNormalShadowing,
    NakagamiFading,
    TwoRayGroundPropagation,
    UnitDiskPropagation,
)
from repro.radio.reception import (
    ProbabilisticReception,
    ReceptionModel,
    SnrThresholdReception,
)
from repro.radio.stack import RadioStack
from repro.registry import Preset, Registry, Row

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a harness cycle)
    from repro.harness.scenario import Scenario

#: The registry name of the stack every scenario uses unless it asks for
#: another: the idealised 250 m unit disk behind the paper's Eqn. 4,
#: trace-equivalent to the pre-registry hardwired radio.
DEFAULT_RADIO = "ideal-disk-250m"

#: A builder takes the simulator's seeded ``"radio"`` stream plus scalar
#: parameters and returns a fresh :class:`RadioStack`.
RadioBuilder = Callable[..., RadioStack]


def _preset_columns(preset: Preset) -> Row:
    """Radio preset rows show the kind and the built stack's nominal range."""
    stack = preset.build(random.Random(0))  # repro-lint: ok RNG-001 -- probing preset shape for a listing table, never simulated
    return {"kind": preset.kind, "nominal_range_m": f"{stack.nominal_range_m():.0f}"}


RADIOS: Registry[RadioBuilder] = Registry("radio", preset_columns=_preset_columns)


def radio_from_name(
    spec: str, rng: Optional[random.Random] = None, **params
) -> RadioStack:
    """Resolve a radio stack by string, the way the CLI's ``--radio`` does.

    ``spec`` is a preset (``params`` override its own parameters) or a kind
    (built with ``params`` as builder keywords); the stack is named after
    ``spec``.  ``rng`` must be the simulator's ``"radio"`` stream for
    reproducible runs; a fixed ``Random(0)`` is substituted for catalogue
    listings and ad-hoc inspection.
    """
    if rng is None:
        rng = random.Random(0)  # repro-lint: ok RNG-001 -- catalogue/ad-hoc inspection only; runs pass the sim's 'radio' stream
    stack = RADIOS.resolve(spec, rng, **params)
    stack.name = spec
    return stack


def stack_for_scenario(scenario: "Scenario", rng: random.Random) -> RadioStack:
    """Build the radio stack a scenario asks for.

    ``scenario.radio_stack`` (a kind or preset name) is resolved with
    ``scenario.radio_params`` as overrides; an unset stack resolves to
    :data:`DEFAULT_RADIO` with the same overrides.
    """
    return radio_from_name(
        scenario.radio_stack or DEFAULT_RADIO, rng=rng, **dict(scenario.radio_params)
    )


# ------------------------------------------------------------ built-in kinds
def _components(
    mac: Optional[MacConfig],
    reception: Optional[ReceptionModel],
    interference: Optional[InterferenceModel],
):
    """Shared component defaulting for the kind builders."""
    return (
        mac if mac is not None else MacConfig(),
        reception if reception is not None else SnrThresholdReception(),
        interference if interference is not None else AdditiveInterference(),
    )


@RADIOS.register("unit_disk")
def _build_unit_disk(
    rng: random.Random,
    communication_range_m: float = 250.0,
    tx_power_dbm: float = 20.0,
    mac: Optional[MacConfig] = None,
    reception: Optional[ReceptionModel] = None,
    interference: Optional[InterferenceModel] = None,
) -> RadioStack:
    """Idealised fixed-range disk (the paper's Eqn. 4 channel)."""
    mac, reception, interference = _components(mac, reception, interference)
    return RadioStack(
        propagation=UnitDiskPropagation(communication_range_m),
        reception=reception,
        interference=interference,
        mac=mac,
        tx_power_dbm=tx_power_dbm,
    )


@RADIOS.register("free_space")
def _build_free_space(
    rng: random.Random,
    tx_power_dbm: float = 20.0,
    mac: Optional[MacConfig] = None,
    reception: Optional[ReceptionModel] = None,
    interference: Optional[InterferenceModel] = None,
) -> RadioStack:
    """Friis free-space path loss with SNR-threshold reception."""
    mac, reception, interference = _components(mac, reception, interference)
    return RadioStack(
        propagation=FreeSpacePropagation(),
        reception=reception,
        interference=interference,
        mac=mac,
        tx_power_dbm=tx_power_dbm,
    )


@RADIOS.register("two_ray")
def _build_two_ray(
    rng: random.Random,
    antenna_height_m: float = 1.5,
    tx_power_dbm: float = 20.0,
    mac: Optional[MacConfig] = None,
    reception: Optional[ReceptionModel] = None,
    interference: Optional[InterferenceModel] = None,
) -> RadioStack:
    """Two-ray ground reflection (the standard DSRC highway channel)."""
    mac, reception, interference = _components(mac, reception, interference)
    return RadioStack(
        propagation=TwoRayGroundPropagation(antenna_height_m=antenna_height_m),
        reception=reception,
        interference=interference,
        mac=mac,
        tx_power_dbm=tx_power_dbm,
    )


@RADIOS.register("shadowing")
def _build_shadowing(
    rng: random.Random,
    path_loss_exponent: float = 2.8,
    sigma_db: float = 4.0,
    tx_power_dbm: float = 20.0,
    mac: Optional[MacConfig] = None,
    reception: Optional[ReceptionModel] = None,
    interference: Optional[InterferenceModel] = None,
) -> RadioStack:
    """Log-normal shadowing (the paper's Sec. VII.A signal model)."""
    mac, reception, interference = _components(mac, reception, interference)
    return RadioStack(
        propagation=LogNormalShadowing(
            path_loss_exponent=path_loss_exponent, sigma_db=sigma_db, rng=rng
        ),
        reception=reception,
        interference=interference,
        mac=mac,
        tx_power_dbm=tx_power_dbm,
    )


@RADIOS.register("nakagami")
def _build_nakagami(
    rng: random.Random,
    m: float = 3.0,
    tx_power_dbm: float = 20.0,
    mac: Optional[MacConfig] = None,
    reception: Optional[ReceptionModel] = None,
    interference: Optional[InterferenceModel] = None,
) -> RadioStack:
    """Nakagami-m fast fading over two-ray mean loss (Rayleigh at m=1)."""
    mac, reception, interference = _components(mac, reception, interference)
    return RadioStack(
        propagation=NakagamiFading(m=m, rng=rng),
        reception=reception,
        interference=interference,
        mac=mac,
        tx_power_dbm=tx_power_dbm,
    )


# -------------------------------------------------------------- presets
RADIOS.register_preset(
    DEFAULT_RADIO,
    _build_unit_disk,
    "idealised 250 m unit disk, deterministic SINR reception (the default)",
    kind="unit_disk",
    communication_range_m=250.0,
)
RADIOS.register_preset(
    "dsrc-highway-los",
    _build_two_ray,
    "line-of-sight highway DSRC: two-ray ground loss, SNR-threshold reception",
    kind="two_ray",
)
# Component objects are built per call, never shared through preset
# defaults: reception models memoise per-run noise state.
RADIOS.register_preset(
    "dsrc-urban-nlos",
    lambda rng, **overrides: _build_shadowing(
        rng,
        **{
            "path_loss_exponent": 3.0,
            "sigma_db": 6.0,
            "reception": ProbabilisticReception(),
            **overrides,
        },
    ),
    "urban non-line-of-sight DSRC: heavy log-normal shadowing, probabilistic reception",
    kind="shadowing",
)
RADIOS.register_preset(
    "dsrc-congested",
    lambda rng, **overrides: _build_unit_disk(
        rng,
        **{
            "communication_range_m": 250.0,
            "mac": MacConfig(cw_min=7, cw_max=255),
            "reception": SnrThresholdReception(noise_floor_dbm=-90.0),
            **overrides,
        },
    ),
    "channel-congestion stress: 250 m disk, shortened contention window, raised noise floor",
    kind="unit_disk",
)


__all__ = [
    "DEFAULT_RADIO",
    "RADIOS",
    "RadioBuilder",
    "radio_from_name",
    "stack_for_scenario",
]
