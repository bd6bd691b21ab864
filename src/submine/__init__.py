"""submine: multi-worker subgraph-centric graph mining.

Mining jobs are expressed as apps (seed / compute / respond hooks over
vertex-anchored tasks) and executed by a pool of workers with bounded
vertex caches and disk-spilling task queues.  See the README for the
file formats, the bundled apps, and the CLI.
"""

from .engine import (
    AggregatorSpec,
    AppSpec,
    ComputeError,
    EngineError,
    JobResult,
    ProtocolError,
    RunConfig,
    Task,
    run_job,
)
from .graph import (
    Graph,
    GraphDataError,
    GraphParseError,
    Subgraph,
    Vertex,
    partition_owner,
    read_graph,
    write_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatorSpec",
    "AppSpec",
    "ComputeError",
    "EngineError",
    "Graph",
    "GraphDataError",
    "GraphParseError",
    "JobResult",
    "ProtocolError",
    "RunConfig",
    "Subgraph",
    "Task",
    "Vertex",
    "partition_owner",
    "read_graph",
    "run_job",
    "write_graph",
    "__version__",
]
