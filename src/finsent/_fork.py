"""Calls run in forked children, and the BLAS thread count beside them.

A `Child` runs one call on a copy-on-write snapshot of the process and sends
back its pickled result, or the exception it raised, through a pipe.  It ends
with `os._exit`, so it runs no exit handlers and flushes no buffer it
inherited.  `augment` runs its record ranges in children, and `train-encoder`
its per-epoch eval (`beside`).
"""
from __future__ import annotations

import ctypes
import os
import pickle
from collections.abc import Mapping
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Child:
    """`fn(*args)` in a forked child: `result()` reads its value once and
    reaps it, `close()` reaps it unread.  `fn` returns no exception object.
    The child closes the read ends of `siblings` still open: one it kept
    would hold that sibling blocked on a full pipe after the parent closed
    its own copy."""

    def __init__(self, fn, *args, siblings=()):
        open_ends = [s._r for s in siblings if s._r is not None]
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                for fd in [r, *open_ends]:
                    os.close(fd)
                try:
                    value = fn(*args)
                except BaseException as exc:
                    value = exc
                with os.fdopen(w, "wb") as fh:
                    fh.write(pickle.dumps(value))
            finally:
                os._exit(0)
        os.close(w)
        self.pid, self._r = pid, r

    def result(self):
        """The child's value; its exception is raised here, with its type and
        message (nothing sent, say an unpicklable value: RuntimeError)."""
        with os.fdopen(self._r, "rb", closefd=False) as fh:
            data = fh.read()
        self.close()
        value = pickle.loads(data) if data else RuntimeError(
            f"worker {self.pid} ended without a result")
        if isinstance(value, BaseException):
            raise value
        return value

    def close(self) -> None:
        """Reap the child, read or not.  The read end is closed first, so that
        a child blocked writing to a full pipe gets EPIPE and ends."""
        if self._r is not None:
            r, self._r = self._r, None
            os.close(r)
            os.waitpid(self.pid, 0)


class LazyMapping(Mapping):
    """The dict a `Child` returns, read (and the child reaped) on first access."""

    def __init__(self, child: Child):
        self._child, self._value = child, None

    def _get(self) -> dict:
        if self._value is None:
            self._value = self._child.result()
        return self._value

    def __getitem__(self, key):
        return self._get()[key]

    def __iter__(self):
        return iter(self._get())

    def __len__(self) -> int:
        return len(self._get())


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
def beside(fn, fork: bool):
    """Yields `fn`, to run inline, unless `fork` holds (the caller's rule:
    work enough to pay for a child, 2 usable CPUs and `os.fork`) and numpy's
    OpenBLAS thread count can be set.  Then OpenBLAS runs one thread until
    the block ends, in parent and children alike (on a 2-core host, two
    processes with two BLAS threads each ran `train-encoder` 5-14x slower),
    and the function yielded runs each call of `fn` in a `Child`, returning
    at once a `LazyMapping` of the dict it returns.  At the end, by success
    or error, every child is reaped and the old thread count comes back."""
    blas = _openblas_threads() if fork else None
    if blas is None:
        yield fn
        return
    get, set_ = blas
    threads, children = get(), []

    def in_child(*args):
        children.append(Child(fn, *args, siblings=children))
        return LazyMapping(children[-1])

    set_(1)
    try:
        yield in_child
    finally:
        for child in children:
            child.close()
        set_(threads)
