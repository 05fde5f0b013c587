"""The package's worker pools and its one BLAS thread pin.

fork_map runs a function over tasks in forked worker processes, which
inherit the function (a closure is fine) and the parent's memory; only the
tasks and the results are pickled. thread_map runs numpy work that releases
the interpreter lock on one thread per core, in this process.
one_blas_thread pins OpenBLAS to one thread for a block: workers forked
inside it inherit the pin, so a pool of one worker per core runs one BLAS
thread per core, and since the thread count changes the low bits of some
GEMM results, results computed inside the pin do not depend on the worker
count or on the inherited BLAS setting. thread_map always runs inside the
pin, and serially when its caller already holds it, so inside a pool of
one worker per core it starts no threads.
"""

import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager

_FORK_FN = None  # the function fork_map's workers run, inherited through fork
# Whether this process is inside a one_blas_thread block. The BLAS thread
# count is per process, so the pin is too; workers forked inside the block
# inherit both.
_pinned = False


def _fork_call(task):
    return _FORK_FN(task)


def fork_map(fn, tasks, jobs):
    """[fn(t) for t in tasks], in min(jobs, len(tasks)) forked worker processes if over 1.

    The workers inherit fn through fork, so it may be a closure; only the
    tasks and the results are pickled. Results keep the order of the tasks.
    """
    jobs = min(jobs, len(tasks))  # a pool starts all its workers at once, idle or not
    if jobs <= 1:
        return [fn(t) for t in tasks]
    global _FORK_FN
    _FORK_FN = fn
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            return list(pool.map(_fork_call, tasks))
    finally:
        _FORK_FN = None


def thread_map(fn, items):
    """[fn(x) for x in items] on min(len(items), cores of the CPU affinity) threads.

    The threads run inside one_blas_thread, so fn's GEMMs take one BLAS
    thread each. They are made for this call and joined before it returns,
    so fork_map never forks a process that still has them. Inside a block
    that was already pinned (a run_kfold or run_sfp worker, one per core)
    the items run serially in the calling thread. Results keep the order of
    the items.
    """
    items = list(items)
    threads = 1 if _pinned else min(len(items), len(os.sched_getaffinity(0)))
    with one_blas_thread():
        if threads <= 1:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of the loaded OpenBLAS, or None.

    Found once per process through its own memory map; None where that map
    is unreadable or the loaded BLAS is not OpenBLAS. numpy's bundled copy
    exports scipy_openblas_*64_ names, a system OpenBLAS the plain ones.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for pattern in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            try:
                get, set_ = (getattr(lib, pattern.format(op)) for op in ("get", "set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Pin OpenBLAS to one thread for the block, then restore the caller's count.

    Workers forked inside the block inherit the pin. Two BLAS threads per
    worker would oversubscribe the cores, and on batch-1 matrices a second
    thread only spins. A nested block, and a block entered with the count
    already at one, set nothing: in a forked worker a redundant set costs
    tens of milliseconds.
    """
    global _pinned
    if _pinned:
        yield
        return
    blas = openblas_threads()
    before = blas[0]() if blas is not None else 1
    if before != 1:
        blas[1](1)
    _pinned = True
    try:
        yield
    finally:
        _pinned = False
        if before != 1:
            blas[1](before)
