"""Build script: compiles the optional C search kernel ``_kernel_c.c``.

The package works without the extension (the pure-Python twin
``_kernel_py`` is used as a fallback), so a failure to compile it is
non-fatal: ``optional=True`` turns it into a warning.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("ipfkit._kernel_c", ["src/ipfkit/_kernel_c.c"],
                             optional=True)])
