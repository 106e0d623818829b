"""The one owner of the package's threads: the CPU budget and one thread pool.

Importing the package pins numpy's OpenBLAS to one thread
(``softalign._pin_blas``), so BLAS starts no thread of its own and the
pool below is the package's only parallelism within a process:

* :func:`budget`: the threads this process may keep busy, its usable
  CPUs (:func:`_usable_cpus`, the one place the count is read) over the
  processes that share them (:func:`divide`; a sweep's pool worker
  divides them by the number of workers);
* :func:`map_tasks`: one persistent pool of that many threads, started
  on first use, which runs a list of tasks and returns their results in
  order; with a budget of one thread, or one task, the tasks run in the
  calling thread and no thread starts;
* :func:`shutdown`: stops the pool's threads before a process forks, so
  no child inherits a pool whose threads it does not have. A child
  forgets its parent's pool in any case (``os.register_at_fork``) and
  starts its own on first use.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_pool = None  # the ThreadPoolExecutor, or None before first use
_pool_threads = 0
_share = 1  # processes this process's CPUs are divided among
_lock = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def budget() -> int:
    """Threads this process may keep busy: its usable CPUs over the
    processes sharing them (:func:`divide`), at least one."""
    return max(1, _usable_cpus() // _share)


def divide(processes: int) -> None:
    """Share this process's CPUs among ``processes`` processes, each
    calling this: a sweep's pool worker gets ``cpus // workers`` threads."""
    global _share
    _share = processes


def _started(threads: int):
    """The pool, with ``threads`` threads; a pool of another size, from an
    earlier budget, is stopped first."""
    global _pool, _pool_threads
    with _lock:
        if _pool is None or _pool_threads != threads:
            from concurrent.futures import ThreadPoolExecutor
            if _pool is not None:
                _pool.shutdown()
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="softalign")
            _pool_threads = threads
        return _pool


def map_tasks(fn, items) -> list:
    """``fn(item)`` for each of ``items``, in order.

    With a budget of more than one thread and more than one item, the
    calls run on the pool, each under the caller's ``np.errstate``, and
    the caller waits; otherwise they run here, in order. Every call runs
    to its end; then the error of the first failing item in order is
    raised, as the serial loop would raise it.
    """
    items = list(items)
    threads = budget()
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import wait
    err = np.geterr()

    def under_errstate(item):
        with np.errstate(**err):
            return fn(item)
    pool = _started(threads)
    futures = [pool.submit(under_errstate, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]


def shutdown() -> None:
    """Stop the pool's threads; the next :func:`map_tasks` starts a new pool."""
    global _pool
    with _lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown()


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist here."""
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
