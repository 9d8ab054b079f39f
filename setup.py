"""Packaging for the xSFQ reproduction (src layout, numpy + scipy).

Kept as a plain ``setup.py`` so editable installs work in offline
environments that lack the ``wheel`` package (``python setup.py develop``
as a fallback for ``pip install -e .``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).resolve().parent


def _version() -> str:
    text = (_HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if not match:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-xsfq",
    version=_version(),
    description=(
        "Reproduction of 'Synthesis of Resource-Efficient Superconducting "
        "Circuits with Clock-Free Alternating Logic' (DAC 2024)"
    ),
    long_description=(_HERE / "README.md").read_text(encoding="utf-8")
    if (_HERE / "README.md").exists()
    else "",
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    # numpy backs the word-parallel AIG sweep and the SoA pulse kernel
    # (repro.aig.simulate / repro.sim.pulse.soa).  The scalar kernels keep
    # working without it — see repro._compat.load_numpy for the fallback.
    # scipy backs the analog RCSJ integrator (repro.sim.analog.rcsj imports
    # solve_ivp at module top); ROADMAP item 3 replaces it with a batched
    # numpy RK4 and removes this dependency.
    install_requires=["numpy>=1.21", "scipy>=1.5"],
    entry_points={
        "console_scripts": [
            "repro=repro.eval.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
        "License :: OSI Approved :: MIT License",
    ],
)
