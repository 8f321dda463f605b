"""The BLAS thread policy: every public call that reaches LAPACK or a dense
product runs its solves at one OpenBLAS thread, and leaves the caller's
thread counts as it found them."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from cwlsim import (SystemConfig, crb, extract_moments, fidelity, fit_displaced_mixture,
                    propagate, trace_distance, wigner_grid)
from cwlsim import _blas
from cwlsim.errors import ConfigError
from cwlsim.hilbert import DensityMatrix, coherent_state, pure_density
from cwlsim.presets import DRIVE_SERIES, PARITY_BIN, PARITY_DRIVE

CONTROLS = _blas.controls()
pytestmark = pytest.mark.skipif(not CONTROLS, reason="no OpenBLAS thread control found")


SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
           "openblas_set_num_threads")


def counts():
    return [get() for get, _ in CONTROLS]


def set_counts(n: int) -> None:
    """Each controlled build at ``n`` threads, through its own set function:
    unlike the controls' setter, it grows the thread pool to ``n``, which a
    pool started at OPENBLAS_NUM_THREADS=1 needs before it can run at two."""
    for lib in _blas._libraries():
        if _blas._control(lib) is not None:
            next(getattr(lib, name) for name in SETTERS if hasattr(lib, name))(n)


@pytest.fixture
def two_threads():
    before = counts()
    set_counts(2)
    assert counts() == [2] * len(CONTROLS)
    try:
        yield
    finally:
        for (_, set_), n in zip(CONTROLS, before):
            set_(n)


def run_public_calls(monkeypatch, seen: list) -> dict:
    """The public calls that reach LAPACK or a dense product, with each solve
    cwlsim makes recording the thread counts it runs at; the counts after
    each call go to ``seen`` under "after"."""
    def recording(fn):
        def wrapped(*args, **kwargs):
            seen.append(("inside", fn.__name__, counts()))
            return fn(*args, **kwargs)
        return wrapped

    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))

    def call(name, fn, *args):
        value = fn(*args)
        seen.append(("after", name, counts()))
        return value

    parity = call("propagate", propagate, SystemConfig(alpha=PARITY_DRIVE, M=2), PARITY_BIN)
    alpha, b = DRIVE_SERIES[3]
    rho = call("propagate", propagate, SystemConfig(alpha=alpha, M=1), b).rho_v
    coherent = pure_density(coherent_state(alpha * b.tau**0.5, rho.dim - 1))
    return {
        "parity": parity.rho_v.mat,
        "wigner": call("wigner_grid", wigner_grid, rho).values,
        "fit": call("fit", fit_displaced_mixture, rho, alpha, b.tau).fidelity,
        "fidelity": call("fidelity", fidelity, rho, coherent),
        "trace_distance": call("trace_distance", trace_distance, rho, coherent),
        "moments": call("moments", extract_moments, rho).table,
        "crb": call("crb", crb, rho, 100.0),
    }


def test_public_calls_run_blas_on_one_thread(monkeypatch, two_threads):
    seen: list = []
    values = run_public_calls(monkeypatch, seen)
    inside = [(name, c) for where, name, c in seen if where == "inside"]
    assert {name for name, _ in inside} == {"eigvalsh", "eigh", "svd"}
    assert all(c == [1] * len(CONTROLS) for _, c in inside), inside
    # the drive-2.5 state is recentred: its shift is an eigh inside wigner_grid
    ends = [i for i, (where, name, _) in enumerate(seen) if where == "after"]
    grid = next(i for i in ends if seen[i][1] == "wigner_grid")
    during = seen[max(i for i in ends if i < grid) + 1:grid]
    assert ("inside", "eigh", [1] * len(CONTROLS)) in during, during
    after = [c for where, _, c in seen if where == "after"]
    assert len(after) == 8 and all(c == [2] * len(CONTROLS) for c in after), after

    # with no control found the scope does nothing, and the values are the same
    monkeypatch.undo()
    monkeypatch.setattr(_blas, "_controls", ())
    seen_off: list = []
    values_off = run_public_calls(monkeypatch, seen_off)
    monkeypatch.undo()
    assert all(c == [2] * len(CONTROLS) for _, _, c in seen_off), seen_off
    for key, value in values.items():
        assert np.array_equal(value, values_off[key]), key


def test_scope_restores_the_counts_on_error(two_threads):
    with pytest.raises(ConfigError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert counts() == [2] * len(CONTROLS)
    assert _blas._depth == 0


def test_scope_is_thread_safe(two_threads):
    # more threads than cores, switching often: a lost update of the depth
    # would let a call run at two threads or leave the counts at one
    bad = []

    @_blas.single_thread
    def inner():
        if counts() != [1] * len(CONTROLS):
            bad.append(counts())

    def worker():
        for _ in range(500):
            inner()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    assert _blas._depth == 0
    assert counts() == [2] * len(CONTROLS)


def _child_scope(out):
    out.put(_blas.single_thread(counts)())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
def test_scope_usable_in_a_child_forked_inside_the_lock(two_threads):
    # a fork while another thread holds the scope's lock: the child's first
    # wrapped call must not wait on a lock that no thread of its own holds
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    with _blas._lock:
        child = ctx.Process(target=_child_scope, args=(out,))
        child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
    assert out.get(timeout=5) == [1] * len(CONTROLS)
    assert counts() == [2] * len(CONTROLS)
