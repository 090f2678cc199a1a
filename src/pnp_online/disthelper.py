"""The trace's fixed-point distances on a second core: one forked helper.

`DistHelper` forks a process that computes dist(x) for the iterates a run
hands it, while the run goes on with its next iteration. The run copies
each iterate into a slot of a shared ring of BACKLOG slots, made before
the fork, and writes one byte to the request pipe. The helper copies the
k-th request's slot, k mod BACKLOG, into an array numpy allocates, calls
the same dist on it and writes the float back on the result pipe. The
answers come back in the order of the requests, so a slot is free again
once its answer is read.

The run never waits on the helper while it iterates: a request that finds
BACKLOG iterates in the helper's hands is refused, and the run computes
that distance itself. If the helper dies or fails, its result pipe ends,
and the run computes each distance it had not answered from its slot, as
the helper would have. `close` waits for the answers still due and reaps
the helper. The helper exits with `os._exit`: it runs no exit handler and
flushes no stdio buffer it inherited.
"""

import collections
import mmap
import os
import struct

import numpy as np

# Iterates the helper may hold at once, queued or in hand. In process, the
# benchmark's `sgd-tv` solve took 0.215, 0.198 and 0.204 s at 2, 3 and 4,
# against 0.326 s inline (medians of 15, one BLAS thread, 2 vCPUs).
BACKLOG = 3
_FLOAT = struct.Struct("d")


class DistHelper:
    """A forked process that maps flat float iterates of length n to
    dist(x); the keys tell the caller's requests apart."""

    def __init__(self, n, dist):
        self._n, self._dist = n, dist
        self._slots = mmap.mmap(-1, BACKLOG * n * _FLOAT.size)  # shared
        self._pending = collections.deque()      # (key, slot), oldest first
        self._requests = 0
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, result_r, result_w):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(request_w)
                os.close(result_r)
                self._serve(request_r, result_w)
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(result_w)
        self._request_w, self._result_r = request_w, result_r
        os.set_blocking(result_r, False)

    def _slot(self, slot):
        return np.frombuffer(self._slots, float, self._n,
                             slot * self._n * _FLOAT.size)

    def _serve(self, request_r, result_w):
        """The helper: answer requests until the run closes its end."""
        slot = 0
        while os.read(request_r, 1):
            x = self._slot(slot).copy()
            os.write(result_w, _FLOAT.pack(self._dist(x)))
            slot = (slot + 1) % BACKLOG

    def submit(self, key, x):
        """Hand x to the helper; False when it holds BACKLOG iterates
        already or is gone, and the caller computes dist(x) itself."""
        if self._request_w is None or len(self._pending) == BACKLOG:
            return False
        slot = self._requests % BACKLOG
        self._slot(slot)[:] = x
        try:
            os.write(self._request_w, b"\0")
        except OSError:                       # the helper is gone
            return False
        self._pending.append((key, slot))
        self._requests += 1
        return True

    def poll(self, wait=False):
        """(key, dist) of the requests answered since the last call, oldest
        first; with wait, of every request still due. Once the helper is
        gone, each unanswered distance is computed here from its slot."""
        answered = []
        while self._pending:
            try:
                data = os.read(self._result_r,
                               _FLOAT.size * len(self._pending))
            except BlockingIOError:
                break
            if not data:                      # the helper is gone
                self._stop_requests()
                answered += [(key, self._dist(self._slot(slot).copy()))
                             for key, slot in self._pending]
                self._pending.clear()
                break
            answered += [(self._pending.popleft()[0], value)
                         for (value,) in _FLOAT.iter_unpack(data)]
            if not wait:
                break
        return answered

    def _stop_requests(self):
        if self._request_w is not None:
            os.close(self._request_w)
            self._request_w = None

    def close(self):
        """Every distance still due, as `poll(wait=True)`; the helper is
        reaped whether or not that returns. Once every answer is in, the
        helper reads the end of its requests and exits; if not, it may be
        computing one, and is killed."""
        try:
            self._stop_requests()
            os.set_blocking(self._result_r, True)
            return self.poll(wait=True)
        except BaseException:
            import signal               # 1 ms to import: only here
            os.kill(self.pid, signal.SIGKILL)
            raise
        finally:
            os.close(self._result_r)
            os.waitpid(self.pid, 0)
