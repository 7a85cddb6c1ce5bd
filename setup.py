"""Build script: compiles the optional piling kernel src/raag/_speedups.c.

The package works without the extension (raag._kernel then selects the
pure-Python kernel at import time), so the build is marked optional and a
compiler failure leaves a working install.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("raag._speedups", ["src/raag/_speedups.c"], optional=True)])
