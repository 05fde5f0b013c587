"""The package's one worker pool and its one BLAS thread pin.

fork_map runs a function over tasks in forked worker processes, which
inherit the function (a closure is fine) and the parent's memory; only the
tasks and the results are pickled. one_blas_thread pins OpenBLAS to one
thread for a block: workers forked inside it inherit the pin, so a pool of
one worker per core runs one BLAS thread per core, and since the thread
count changes the low bits of some GEMM results, results computed inside
the pin do not depend on the worker count or on the inherited BLAS setting.
"""

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

_FORK_FN = None  # the function fork_map's workers run, inherited through fork


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


def openblas_threads():
    """(get, set) of the thread count of the loaded OpenBLAS, or None.

    Found through the process's own memory map; None where that map is
    unreadable or the loaded BLAS is not OpenBLAS. numpy's bundled copy
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
    thread only spins.
    """
    blas = openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
