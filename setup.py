"""Legacy setup shim: lets ``pip install -e .`` work with old setuptools
that cannot build PEP 517 editable wheels.  All metadata lives in
setup.cfg."""

from setuptools import setup

setup()
