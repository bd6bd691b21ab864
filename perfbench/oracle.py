"""Answer checks that do not trust the engine's apps or kernels."""

import hashlib
from fractions import Fraction


def triangle_count(g):
    """Triangles by set intersection: sum over edges u < v of
    |N+(u) & N+(v)|, where N+ holds the larger neighbours."""
    higher = {v.id: {a.nb for a in v.adj if a.nb > v.id} for v in g}
    return sum(len(hu & higher[v]) for hu in higher.values() for v in hu)


def adjacency_sets(g):
    return {v.id: {a.nb for a in v.adj} for v in g}


def canonical(lines):
    """Result lines as sorted, space-joined, ascending-id vertex sets."""
    return sorted(" ".join(map(str, sorted(map(int, ln.split())))) for ln in lines)


def digest(lines):
    return hashlib.sha256("\n".join(canonical(lines)).encode()).hexdigest()


def quasi_clique_errors(adj, lines, gamma, min_size):
    """Why the emitted sets are not distinct gamma-quasi-cliques of at
    least `min_size` vertices (empty when they are)."""
    gamma = Fraction(str(gamma))
    errors = []
    seen = set()
    for line in lines:
        ids = [int(t) for t in line.split()]
        s = frozenset(ids)
        if len(s) != len(ids) or len(s) < min_size:
            errors.append(f"bad set {line!r}")
            continue
        need = gamma * (len(s) - 1)
        weak = [v for v in s if len(adj[v] & s) < need]
        if weak:
            errors.append(f"{line!r}: vertex {weak[0]} has too few neighbours")
        if s in seen:
            errors.append(f"{line!r} emitted twice")
        seen.add(s)
    return errors
