"""Deterministic test-data generators.

Every generator takes an explicit seed and uses its own Random instance,
so the same arguments always produce byte-identical graphs.  Labeled
variants write each neighbor's label as the adjacency attribute, which
the matching app requires.
"""

import random

from .graph import Graph, Vertex

LABEL_ALPHABET = "abcdefg"


def graph_from_edges(ids, edge_set, labels=None):
    """Build a Graph from an edge set (pairs, either order); each
    neighbor's label is its adjacency attribute."""
    adj = {vid: [] for vid in ids}
    for a, b in edge_set:
        adj[a].append(b)
        adj[b].append(a)
    g = Graph()
    for vid in ids:
        nbrs = sorted(adj[vid])
        if labels:
            g.add(Vertex.from_ids(vid, labels.get(vid), nbrs,
                                  [labels.get(w) for w in nbrs]))
        else:
            g.add(Vertex.from_ids(vid, None, nbrs))
    return g


def complete_graph(n, start_id=1):
    ids = list(range(start_id, start_id + n))
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    return graph_from_edges(ids, edges)


def gnp_graph(n, p, seed, labels=False, alphabet=LABEL_ALPHABET):
    """Erdos-Renyi G(n, p) on ids 0..n-1; optionally labeled."""
    rng = random.Random(seed)
    ids = list(range(n))
    label_map = None
    if labels:
        label_map = {vid: rng.choice(alphabet) for vid in ids}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return graph_from_edges(ids, edges, label_map)


def labeled_gnp_graph(n, p, seed, alphabet=LABEL_ALPHABET):
    return gnp_graph(n, p, seed, labels=True, alphabet=alphabet)


def star_graph(leaves, center=0):
    """A star: center plus `leaves` spokes, ids center..center+leaves."""
    ids = [center] + [center + 1 + i for i in range(leaves)]
    edges = [(center, v) for v in ids[1:]]
    return graph_from_edges(ids, edges)


def path_graph(n, start_id=0):
    ids = list(range(start_id, start_id + n))
    edges = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    return graph_from_edges(ids, edges)


def hub_cluster_graph(clusters, members, hubs, seed):
    """Clusters of low-id members attached to high-id hub sets.

    Member ids (0 .. clusters*members-1) are shuffled across clusters so
    a FIFO sweep over seeds interleaves clusters, while the pull set of
    every member in a cluster is that cluster's hub block: tasks from
    the same cluster want the same remote vertices, tasks from different
    clusters share nothing.  Hubs within a cluster form a clique so the
    workload actually contains triangles.
    """
    rng = random.Random(seed)
    member_ids = list(range(clusters * members))
    rng.shuffle(member_ids)
    base = clusters * members
    ids = list(range(base + clusters * hubs))
    edges = []
    for c in range(clusters):
        hub_ids = [base + c * hubs + i for i in range(hubs)]
        for i in range(hubs):
            for j in range(i + 1, hubs):
                edges.append((hub_ids[i], hub_ids[j]))
        for m in member_ids[c * members:(c + 1) * members]:
            for h in hub_ids:
                edges.append((m, h))
    return graph_from_edges(ids, edges)


def fig4_data_graph():
    """The small labeled data graph used by the matching examples."""
    labels = {1: "b", 2: "a", 4: "b", 5: "c", 7: "b", 8: "d"}
    edges = [(1, 2), (2, 4), (2, 5), (4, 5), (5, 7), (7, 8)]
    return graph_from_edges(sorted(labels), edges, labels)
