from setuptools import Extension, setup

# The compiled kernels are one C file written by hand against the CPython
# API, _compiled.c, so a C compiler is all they need.
# optional=True lets a machine without a compiler still install: the
# kernels package then uses the pure backend, and tests/test_kernels.py
# compiles the file with -Wall -Werror so a broken one does not pass
# unnoticed.
setup(ext_modules=[
    Extension("submine.kernels._compiled",
              ["src/submine/kernels/_compiled.c"], optional=True)
])
