"""The library's BLAS thread policy: one OpenBLAS thread while a cwlsim call runs.

At two or more threads, each dense solve or product above a few dozen rows
wakes OpenBLAS's worker pool, whose threads then spin through the Python work
that follows, on the cores that this process and the other sweep workers
need.  cwlsim's dense solves are small (the positivity samples, the state
checks, `crb`'s and the ansatz's eigh), so every public function whose body
reaches LAPACK or a dense matrix product runs under `single_thread`: on entry
it sets each OpenBLAS build loaded in the process to one thread, and on the
outermost exit it restores the caller's counts.  cwlsim imports numpy and
``scipy.sparse`` only, so it loads and calls numpy's build alone; scipy's
wheel bundles a second one, which ``scipy.linalg`` or ``scipy.special`` loads
where the caller has imported them first.  The counts are process-wide, so
while a cwlsim call runs, the BLAS calls of the process's other threads run on
one thread too.

The builds are found once, at the end of ``import cwlsim``, by their get
function among the libraries mapped into the process.  The count is set by
writing the build's exported ``blas_cpu_number``, the count that its get
function returns and its calls dispatch on.  The set function is not used: it
would also restart the pool of a forked process.  OpenBLAS stops its pool
before each fork and restarts it lazily, at the next threaded call or set, and
the restarted threads spin for ~0.13 s each before they sleep.  A sweep of
small states never restarts it, and setting the count through the set
function in its workers took perfbench's 12-point METRO_SINGLE sweep from
0.07 to 0.17 s (2-core box).  The written count leaves a stopped pool
stopped, but it does not grow the pool either: a written count must be no
higher than the threads the pool already has, and the scope only writes 1
and the counts it read.  Where no build exports the variable, or it does not
read as the get function does (another BLAS, or no /proc/self/maps), the
scope changes nothing.  Results do not depend on it: they are bit-identical
at any BLAS thread count.

The lock, the depth and the saved counts are reset in a forked child, so a
fork taken while another thread is inside the scope leaves the child's scope
usable.  cwlsim forks only in `run_sweep`, outside the scope, so the forking
thread has no scope of its own open.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from pathlib import Path

# get functions: numpy >= 2 wheels, scipy wheels, system builds
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads")


def _control(lib):
    """(get, set) of the thread count of the OpenBLAS build ``lib``, where it
    exports the count as ``blas_cpu_number`` and its get function reads it;
    else None."""
    get = next((getattr(lib, name) for name in _GETTERS if hasattr(lib, name)), None)
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    try:
        count = ctypes.c_int.in_dll(lib, "blas_cpu_number")
    except ValueError:
        return None
    if count.value != get():
        return None
    return get, functools.partial(setattr, count, "value")


def _libraries() -> list:
    """Each OpenBLAS build mapped into the process, opened with ctypes."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({ln.split()[-1] for ln in maps.splitlines()
                    if "openblas" in ln.lower() and ".so" in ln.split()[-1]})
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


_lock = threading.Lock()
_controls: tuple | None = None  # found by the first controls()
_depth = 0  # single_thread calls running, in any thread
_saved: list = []  # (set, count) of the caller's counts, taken on the outermost entry


def _reset_in_child():
    global _lock, _depth, _saved
    _lock, _depth, _saved = threading.Lock(), 0, []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)


def controls() -> tuple:
    """The (get, set) thread-count controls of each OpenBLAS build in the
    process, found on the first call: the package's ``__init__`` makes it
    once it has imported numpy."""
    global _controls
    if _controls is None:
        _controls = tuple(c for c in map(_control, _libraries()) if c is not None)
    return _controls


def single_thread(fn):
    """``fn`` run with every OpenBLAS build at one thread; re-entrant, and the
    counts the caller had are restored when the outermost such call returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _depth, _saved
        with _lock:
            if _depth == 0:
                _saved = [(set_, get()) for get, set_ in controls()]
                for set_, _ in _saved:
                    set_(1)
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    for set_, count in _saved:
                        set_(count)

    return wrapper
