"""Setuptools entry point and the project's only packaging metadata.

There is no ``pyproject.toml``: with the metadata here,
``pip install --no-build-isolation .`` (and ``-e .``) builds with the
``setuptools`` and ``wheel`` already installed and downloads nothing.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Package queries (PaQL) over relational tables: DIRECT and SKETCHREFINE",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
