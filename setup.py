"""Package metadata and dependency declaration.

``numpy`` powers the vectorized spatial backend of the wireless medium
(``spatial_backend="vectorized"``); the scalar ``grid`` backend
runs without it, but it is cheap and the struct-of-arrays fast path is the
recommended configuration at scale, so it is a hard dependency of the
installed package.  The import-time gate for environments that run from a
bare checkout without numpy lives in
:func:`repro.sim.position_store.require_numpy`.
"""

from setuptools import find_packages, setup

setup(
    name="repro-vanet",
    version="0.6.0",
    description=(
        "Discrete-event VANET routing testbed reproducing the taxonomy and "
        "experiments of Yan, Mitton & Li (ICDCS Workshops 2010)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "networkx",
        "numpy",
    ],
    entry_points={
        "console_scripts": [
            "repro-vanet = repro.cli:main",
        ],
    },
)
