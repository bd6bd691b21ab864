"""Point-to-point messaging between workers.

The in-process transport is the canonical one: workers are threads in a
single process and exchange messages through queues.  Vertex payloads
still cross the boundary as serialized bytes, so the wire discipline
(per-destination deduplicated id lists, responses in request order) is
exactly what a socket transport would carry.
"""

import queue as _queue
from dataclasses import dataclass


@dataclass
class PullRequest:
    src: int
    ids: tuple  # deduplicated, ascending


@dataclass
class PullResponse:
    src: int
    blobs: list  # serialized vertices, one per requested id, same order


SHUTDOWN = object()


class InProcTransport:
    def __init__(self, num_workers):
        self._requests = [_queue.SimpleQueue() for _ in range(num_workers)]
        self._responses = [_queue.SimpleQueue() for _ in range(num_workers)]

    def send_request(self, src, dst, ids):
        self._requests[dst].put(PullRequest(src, tuple(ids)))

    def next_request(self, wid):
        """Block until worker `wid` has a request (or SHUTDOWN)."""
        return self._requests[wid].get()

    def send_response(self, dst, resp: PullResponse):
        self._responses[dst].put(resp)

    def next_response(self, wid, timeout=0.05):
        try:
            return self._responses[wid].get(timeout=timeout)
        except _queue.Empty:
            return None

    def shutdown_responders(self):
        for q in self._requests:
            q.put(SHUTDOWN)
