from setuptools import Extension, setup

# The compiled kernels are three C files written by hand against the
# CPython API, so a C compiler is all they need: _cliques.c (the clique
# searches), _pairs.c (the kernels that read or build adjacency lists:
# count_closing_pairs, edges_symmetric and read_graph's bulk parse
# parse_id_lines) and _hash.c (the id hashes).
# optional=True lets a machine without a compiler still install: the
# kernels package uses the pure backend unless all three modules import,
# and tests/test_kernels.py compiles each file with -Wall -Werror so a
# broken one does not pass unnoticed.
setup(ext_modules=[
    Extension(f"submine.kernels.{name}",
              [f"src/submine/kernels/{name}.c"], optional=True)
    for name in ("_cliques", "_pairs", "_hash")
])
