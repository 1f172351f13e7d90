"""Reproducible named random-number streams.

Every stochastic component of the simulator (mobility, radio fading, MAC
backoff, traffic generation, ...) draws from its own named stream.  Streams
are derived deterministically from a single master seed, so adding a new
consumer of randomness never perturbs the draws seen by existing components.
This is the standard discipline for reproducible network simulation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of named, independently seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        """The master seed all streams are derived from."""
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same ``(master_seed, name)`` pair always yields an identical
        sequence of draws, independently of the order in which streams are
        requested.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        derived_seed = self._derive_seed(name)
        stream = random.Random(derived_seed)
        self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child :class:`RandomStreams` keyed by ``name``.

        Useful to give a sub-system (e.g. one protocol instance per node) its
        own namespace of streams.
        """
        return RandomStreams(self._derive_seed(name))

    def _derive_seed(self, name: str) -> int:
        material = f"{self._master_seed}:{name}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big")
