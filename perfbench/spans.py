"""Layer spans recorded from outside the program.

A `Tracer` replaces a function at the name its caller looks it up (a
module global, a class attribute, an `AppSpec` hook) with a wrapper that
times each call, and puts the original back when it is uninstalled.
Nothing under `src/` knows it is being traced.

Each thread keeps its own stack of open spans.  When a span closes, its
duration is charged to its parent span as child time, and its self time
(duration minus child time) is added to its key.  Both clocks are kept:
wall time from `perf_counter` and this thread's CPU time from
`thread_time`, so time spent waiting -- for the GIL, for a reply, for
the disk -- shows as wall minus CPU.

Totals are kept per thread in memory and only summed in `totals()`, so
recording takes no lock and memory stays bounded by the number of keys,
not the number of calls.
"""

import dataclasses
import functools
import threading
import time

_perf = time.perf_counter
_cpu = time.thread_time
_ABSENT = object()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads = []          # (times, sizes) of every thread seen
        self._threads_lock = threading.Lock()
        self._patches = []          # (owner, attr, original or _ABSENT)

    # -- recording -------------------------------------------------------

    def _thread_state(self):
        local = self._local
        times = {}
        sizes = {}
        local.stack = []
        local.times = times
        local.sizes = sizes
        with self._threads_lock:
            self._threads.append((times, sizes))
        return local.stack

    def timed(self, key, fn, size=None, size_key=None):
        """`fn` wrapped so each call is a span charged to `key`.

        `size(args, result)`, when given, is summed under `size_key`.
        """
        local = self._local
        state = self._thread_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = state()
            frame = [0.0, 0.0]      # child wall, child cpu
            stack.append(frame)
            w0 = _perf()
            c0 = _cpu()
            try:
                out = fn(*args, **kwargs)
            finally:
                dc = _cpu() - c0
                dw = _perf() - w0
                stack.pop()
                rec = local.times.get(key)
                if rec is None:
                    rec = local.times[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dw - frame[0]
                rec[2] += dc - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dw
                    parent[1] += dc
            if size is not None:
                sizes = local.sizes
                sizes[size_key] = sizes.get(size_key, 0) + size(args, out)
            return out

        return wrapper

    # -- installing ------------------------------------------------------

    def patch(self, owner, attr, key, size=None, size_key=None):
        """Wrap `owner.attr` (a module global or a class attribute)."""
        original = vars(owner).get(attr, _ABSENT)
        setattr(owner, attr, self.timed(key, getattr(owner, attr), size, size_key))
        self._patches.append((owner, attr, original))

    def unpatch_all(self):
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    def wrap_app(self, app):
        """A copy of `app` whose hooks are spans; the engine reads them
        from the AppSpec it is given."""
        return dataclasses.replace(
            app,
            seed=self.timed("apps.seed", app.seed),
            compute=self.timed("apps.compute", app.compute),
            respond=(self.timed("apps.respond", app.respond)
                     if app.respond is not None else None),
        )

    # -- reading ---------------------------------------------------------

    def totals(self):
        """{key: (calls, self wall s, self cpu s)} and {size key: total},
        summed over every thread."""
        times = {}
        sizes = {}
        with self._threads_lock:
            threads = list(self._threads)
        for t, s in threads:
            for key, (n, w, c) in t.items():
                acc = times.setdefault(key, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += w
                acc[2] += c
            for key, v in s.items():
                sizes[key] = sizes.get(key, 0) + v
        return {k: tuple(v) for k, v in times.items()}, sizes
