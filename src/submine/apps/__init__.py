"""The bundled mining apps."""

from .cliques import max_clique_app, maximal_cliques_app
from .gmatch import QueryGraph, fig4_query, gmatch_app, parse_query_file
from .quasiclique import quasi_clique_app
from .triangles import triangle_app

APP_NAMES = ("triangle", "maxclique", "maximalcliques", "quasiclique", "gmatch")


def make_app(name, *, gamma=None, min_size=None, query=None,
             emit_triangles=False):
    """Build an AppSpec by name, validating that the needed params came
    along.  `query` is a QueryGraph (parse_query_file reads one)."""
    if name == "triangle":
        return triangle_app(emit_triangles=emit_triangles)
    if name == "maxclique":
        return max_clique_app()
    if name == "maximalcliques":
        return maximal_cliques_app()
    if name == "quasiclique":
        if gamma is None or min_size is None:
            raise ValueError("quasiclique needs gamma and min_size")
        return quasi_clique_app(gamma, min_size)
    if name == "gmatch":
        if query is None:
            raise ValueError("gmatch needs a query graph")
        return gmatch_app(query)
    raise ValueError(f"unknown app {name!r}; expected one of {', '.join(APP_NAMES)}")


__all__ = [
    "APP_NAMES",
    "QueryGraph",
    "fig4_query",
    "gmatch_app",
    "make_app",
    "max_clique_app",
    "maximal_cliques_app",
    "parse_query_file",
    "quasi_clique_app",
    "triangle_app",
]
