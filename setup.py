"""Package metadata and dependency declaration.

The simulator is pure Python; ``networkx`` (road graphs) is its one
runtime dependency.  The test suite additionally uses ``pytest`` and
``hypothesis`` (and ``numpy`` as a reference in one property test).
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
    ],
    entry_points={
        "console_scripts": [
            "repro-vanet = repro.cli:main",
        ],
    },
)
