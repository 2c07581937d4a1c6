"""Setup script for the ``repro`` package, which lives under ``src/``.

The evaluation environment is offline and has no `wheel` package, so
PEP 660 editable installs cannot build; keeping a setup.py lets
``pip install -e .`` fall back to the classic ``setup.py develop`` path.
All metadata lives here: the repository has no pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description="Proof-of-Execution consensus: a simulated reproduction",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
