import os

from setuptools import Extension, setup

# The compiled kernels build from the committed Cython output, so a C
# compiler is all they need.  optional=True lets a machine without one
# still install: the kernels package falls back to the pure backend at
# import time.  After editing _fastpath.pyx, regenerate the .c with
# `cython src/submine/kernels/_fastpath.pyx` (its header sets the
# compiler directives); tests/test_kernels.py fails while they disagree.
ext_modules = []
if os.environ.get("SUBMINE_NO_EXT") != "1":
    ext_modules = [
        Extension(
            "submine.kernels._fastpath",
            ["src/submine/kernels/_fastpath.c"],
            optional=True,
        )
    ]

setup(ext_modules=ext_modules)
