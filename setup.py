import os

from setuptools import Extension, setup

# The compiled kernels are three C files, so a C compiler is all they
# need: _fastpath.c is committed Cython output, and _pairs.c (the two
# kernels that read adjacency lists, count_closing_pairs and
# edges_symmetric) and _hash.c are written by hand against the CPython
# API.  optional=True lets a
# machine without a compiler still install: the kernels package uses the
# pure backend unless all three modules import.  After editing
# _fastpath.pyx, regenerate its .c with
# `cython src/submine/kernels/_fastpath.pyx` (its header sets the
# compiler directives); tests/test_kernels.py fails while they disagree.
ext_modules = []
if os.environ.get("SUBMINE_NO_EXT") != "1":
    ext_modules = [
        Extension(f"submine.kernels.{name}",
                   [f"src/submine/kernels/{name}.c"], optional=True)
        for name in ("_fastpath", "_pairs", "_hash")
    ]

setup(ext_modules=ext_modules)
