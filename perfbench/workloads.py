"""The benchmark's workloads: a seeded graph, an app and a run config.

Why each one exists, which layers it loads and which it bypasses, and
which end-to-end metric each layer metric should move on it, are written
down in README.md beside this file.
"""

from dataclasses import dataclass

import gen


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                  # "chung_lu" or "uniform"
    graph: dict                 # generator arguments besides the seed
    app: str
    app_args: dict
    config: dict                # RunConfig fields besides workdir

    def make_graph(self, seed):
        if self.model == "chung_lu":
            return gen.chung_lu_graph(seed=seed, **self.graph)
        return gen.uniform_graph(seed=seed, **self.graph)

    def describe(self):
        return {"graph": {"model": self.model, **self.graph},
                "app": {"name": self.app, **self.app_args},
                "config": dict(self.config)}


WORKLOADS = {w.name: w for w in (
    # The pull path: every task pulls, the bounded cache is full and
    # evicting, and the MinHash queue order decides the hit rate.
    Workload(
        name="tri-skew-lru",
        model="chung_lu",
        graph={"n": 30_000, "m": 150_000, "exponent": 0.5},
        app="triangle",
        app_args={},
        config={"workers": 2, "cache_capacity": 1_200, "queue_kind": "lsh"},
    ),
    # Single worker: no store, no transport; hub neighbourhoods make the
    # triangle kernel the bulk of the job.
    Workload(
        name="tri-hub-local",
        model="chung_lu",
        graph={"n": 50_000, "m": 250_000, "exponent": 0.8},
        app="triangle",
        app_args={},
        config={"workers": 1, "queue_kind": "lsh"},
    ),
    # Tasks run twice and are requeued carrying subgraph payloads through
    # the FIFO queue; no kernels, no evictions, full-adjacency responses.
    Workload(
        name="quasi-2hop-stream",
        model="uniform",
        graph={"n": 20_000, "m": 60_000},
        app="quasiclique",
        app_args={"gamma": 0.6, "min_size": 4},
        config={"workers": 2, "queue_kind": "stream"},
    ),
)}
