"""Package metadata and dependency declaration.

The simulator needs only the Python standard library.  The test suite
uses ``pytest`` and ``hypothesis``, with ``networkx`` (road-graph path
searches) and ``numpy`` (quantile sketch) as reference implementations.
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
    install_requires=[],
    entry_points={
        "console_scripts": [
            "repro-vanet = repro.cli:main",
        ],
    },
)
