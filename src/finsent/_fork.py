"""Work run in forked processes, and the BLAS thread count beside them.

A `Peer` is a forked process that serves its parent's requests, one at a
time, on a copy-on-write snapshot of the process, and sends back each pickled
reply, or the exception a request raised.  It ends with `os._exit`, so it
runs no exit handlers and flushes no buffer it inherited.  A peer inherits
the parent's pipe ends of every peer forked before it, so peers that live
at once are closed youngest first.  `augment` runs each record range after
the first on a peer of its own, and `train_loop` shares its steps, eval
passes and AdamW update with one (`finsent.encoder.train.paired`), with
OpenBLAS at one thread (`one_blas_thread`).  Both size their work by
`usable_cpus`.
"""
from __future__ import annotations

import ctypes
import mmap
import os
import pickle
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork or ask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class Peer:
    """A forked process that answers each `send(name, *args)` with
    `handlers[name](*args)`, which the next `recv()` returns (or raises, with
    its type and message).  The peer calls `make_handlers()` for that dict at
    its first request, so what it allocates is its own; an error there is
    that request's reply, and the next request calls it again.  Requests and
    replies alternate strictly, so neither process can block on a full pipe
    while the other writes.  A peer that has ended (killed, say) fails the next
    `send` or `recv` with a RuntimeError naming it, and is reaped then.
    `close()` ends and reaps it: the peer reads the end of its request pipe,
    or fails to write a reply nobody will read, and exits.  Close peers that
    live at once youngest first: each holds the parent's pipe ends of every
    peer forked before it, so an elder peer closed first would wait for an
    end still open in a younger one, and its reap would hang."""

    def __init__(self, make_handlers):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(req_w)
                os.close(rep_r)
                _serve(make_handlers, os.fdopen(req_r, "rb"), os.fdopen(rep_w, "wb"))
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(rep_w)
        self.pid, self._status = pid, None
        self._w, self._r = os.fdopen(req_w, "wb"), os.fdopen(rep_r, "rb")

    def send(self, name: str, *args) -> None:
        if self._status is not None:
            raise self._gone()
        try:
            pickle.dump((name, args), self._w, pickle.HIGHEST_PROTOCOL)
            self._w.flush()
        except BrokenPipeError:
            raise self._gone() from None

    def recv(self):
        if self._status is not None:
            raise self._gone()
        try:
            value = pickle.load(self._r)
        except (EOFError, pickle.UnpicklingError):
            raise self._gone() from None
        if isinstance(value, BaseException):
            raise value
        return value

    def _gone(self) -> RuntimeError:
        """The error for a peer that has ended, reaped first."""
        self.close()
        how = (f"killed by signal {os.WTERMSIG(self._status)}"
               if os.WIFSIGNALED(self._status) else
               f"exit status {os.waitstatus_to_exitcode(self._status)}")
        return RuntimeError(f"peer {self.pid} ended without a result ({how})")

    def close(self) -> None:
        if self._status is None:
            for fh in (self._r, self._w):
                try:
                    fh.close()
                except BrokenPipeError:  # unflushed bytes for an ended peer
                    pass
            self._status = os.waitpid(self.pid, 0)[1]


def _serve(make_handlers, requests, replies) -> None:
    """The peer's loop, until its parent closes the request pipe."""
    handlers = None
    while True:
        try:
            name, args = pickle.load(requests)
        except EOFError:
            return
        try:
            if handlers is None:
                handlers = make_handlers()
            value = handlers[name](*args)
        except BaseException as exc:
            value = exc
        pickle.dump(value, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


def shared(size: int) -> np.ndarray:
    """A zeroed float64 vector of `size` elements over one anonymous shared
    mapping: a process forked after this call writes to the same memory.
    `train_loop` keeps its trainable weights and their gradients in two
    (`finsent.encoder.train.Trainable`)."""
    return np.frombuffer(mmap.mmap(-1, max(1, 8 * size)), np.float64, size)


def _openblas_threads():
    """(get, set) of the thread count of the scipy-openblas that numpy's
    wheels bundle, or None where ctypes cannot reach it (another BLAS)."""
    libs = Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
            return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Pins numpy's OpenBLAS to one thread until the block ends, by success or
    error, and yields True; yields False, pinning nothing, where its thread
    count cannot be set.  A process forked inside the block inherits the pin:
    on a 2-core host, two processes with two BLAS threads each ran
    `train-encoder` 3x slower."""
    blas = _openblas_threads()
    if blas is None:
        yield False
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield True
    finally:
        set_(threads)
