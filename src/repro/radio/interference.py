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


#: Unique-value compression pays only past this length; below it the sort
#: and scatter cost more than the saved per-element conversions.
_UNIQUE_COMPRESS_MIN = 32

#: Above this length ``np.unique``'s inverse-index machinery beats the
#: sort + ``searchsorted`` route (binary search is O(n log k) per call).
_UNIQUE_SEARCHSORTED_MAX = 1500


def dbm_to_mw_batch(powers_dbm):
    """Elementwise :func:`dbm_to_mw` over a numpy array.

    The vectorized medium backend needs its interference sums bit-identical
    to the grid backend's, which rules out ``np.power``: its SIMD path
    differs from libm ``pow`` (what ``10.0 ** x`` calls) in the last ulp on
    this class of input.  ``np.float_power`` evaluates libm ``pow`` per
    element, so it reproduces the scalar conversion bit for bit at array
    speed (guarded by the batch-equality property suite).  Inputs repeat
    heavily on the hot path (the reception decision re-converts interference
    sums that collapse to a handful of distinct levels), so the same
    unique-value compression as :func:`mw_to_dbm_batch` applies: distinct
    values are converted once each with the scalar formula and scattered
    back -- bit-identical by construction, falling through to the plain
    ufunc when the input turns out mostly distinct.
    """
    from repro.sim.position_store import require_numpy

    np = require_numpy("dbm_to_mw_batch")
    arr = np.asarray(powers_dbm, dtype=np.float64)
    size = arr.size
    if size >= _UNIQUE_COMPRESS_MIN:
        if size <= _UNIQUE_SEARCHSORTED_MAX:
            ordered = np.sort(arr)
            distinct = np.empty(size, dtype=bool)
            distinct[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
            unique = ordered[distinct]
            inverse = None
        else:
            unique, inverse = np.unique(arr, return_inverse=True)
        if unique.size * 2 <= size:
            converted = np.array(
                [
                    0.0 if p <= NO_SIGNAL_DBM else 10.0 ** (p / 10.0)
                    for p in unique.tolist()
                ],
                dtype=np.float64,
            )
            if inverse is None:
                return converted[np.searchsorted(unique, arr)]
            return converted[inverse].reshape(arr.shape)
    return np.where(
        arr <= NO_SIGNAL_DBM, 0.0, np.float_power(10.0, arr / 10.0)
    )


def mw_to_dbm_batch(powers_mw):
    """Elementwise :func:`mw_to_dbm` over a numpy array.

    ``np.log10`` takes a SIMD path whose last ulp differs from libm
    ``math.log10``, so the conversion itself stays a per-element Python
    loop for bit-identity with the scalar helper.  That loop dominated the
    beacon-storm profile, and its inputs repeat heavily (a unit-disk
    channel produces one rx power per transmit power, and interference
    sums over k equal contributions collapse to a handful of values) -- so
    distinct values are found first and converted once each, then
    scattered back.  Applying the *same* scalar function to the same value
    is bit-identical by construction, whatever the duplication pattern;
    when the input turns out mostly distinct, the plain loop runs instead
    and only the cheap C sort was wasted.
    """
    from repro.sim.position_store import require_numpy

    np = require_numpy("mw_to_dbm_batch")
    arr = np.asarray(powers_mw, dtype=np.float64)
    log10 = math.log10
    size = arr.size
    if size >= _UNIQUE_COMPRESS_MIN:
        if size <= _UNIQUE_SEARCHSORTED_MAX:
            ordered = np.sort(arr)
            distinct = np.empty(size, dtype=bool)
            distinct[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
            unique = ordered[distinct]
            inverse = None
        else:
            unique, inverse = np.unique(arr, return_inverse=True)
        if unique.size * 2 <= size:
            converted = np.array(
                [
                    NO_SIGNAL_DBM if m <= 0.0 else 10.0 * log10(m)
                    for m in unique.tolist()
                ],
                dtype=np.float64,
            )
            if inverse is None:
                return converted[np.searchsorted(unique, arr)]
            return converted[inverse].reshape(arr.shape)
    return np.array(
        [NO_SIGNAL_DBM if m <= 0.0 else 10.0 * log10(m) for m in arr.tolist()],
        dtype=np.float64,
    )


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

    #: Whether :meth:`combine` is exactly "sum the contributions in mW".
    #: The vectorized medium backend relies on this to accumulate
    #: per-interferer power arrays instead of per-receiver lists; models with
    #: any other combination rule leave it False and fall back to the scalar
    #: delivery path.
    additive_mw: bool = False

    @abstractmethod
    def combine(self, powers_dbm: Sequence[float]) -> float:
        """Aggregate interference power in dBm (``NO_SIGNAL_DBM`` for none)."""


class AdditiveInterference(InterferenceModel):
    """Physically additive co-channel interference (the default)."""

    additive_mw = True

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
