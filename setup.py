"""Setup shim: the only packaging metadata for the ``repro`` package.

The offline environment ships setuptools but not the ``wheel`` package,
so PEP 517/660 editable installs (which build a wheel) cannot run.  This
file keeps the legacy ``pip install -e .`` / ``setup.py develop`` path
working.  It installs the ``src`` layout, and takes the version from
``src/repro/version.py`` without importing the package.
"""

from pathlib import Path

from setuptools import find_packages, setup

version: dict = {}
exec((Path(__file__).resolve().parent / "src" / "repro" / "version.py")
     .read_text(), version)

setup(
    name="repro",
    version=version["__version__"],
    package_dir={"": "src"},
    packages=find_packages("src"),
)
