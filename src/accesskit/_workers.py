"""Worker processes: the package's one fork, read, reap and kill path, and
the one place that decides, from ``threads``, whether a step forks.

A worker is a bare ``os.fork`` that computes one task, writes its value,
pickled, to a pipe and leaves by ``os._exit``, with no logging, stdio or
imports in between. No worker outlives the ``run`` call that started it.
Workers run on Linux only.
"""

import contextlib
import os
import pickle


def count(threads: int, items: int) -> int:
    """How many workers ``threads`` gives ``items`` items: ``threads``, capped
    at the items and at the CPUs this process may run on; 1 off Linux."""
    if threads <= 1 or not hasattr(os, "fork") or os.uname().sysname != "Linux":
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(threads, items, cpus or 1))


def split(compute, items, threads: int) -> list:
    """``compute(part)`` for each of ``count(threads, len(items))`` contiguous
    parts of ``items``, in order; ``run`` computes the first part here and
    each other in a worker."""
    workers = count(threads, len(items))
    bounds = [len(items) * w // workers for w in range(workers + 1)]
    return run(threads, *(lambda lo=lo, hi=hi: compute(items[lo:hi])
                          for lo, hi in zip(bounds, bounds[1:])))


def run(threads: int, here, *away) -> list:
    """``[here(), *(task() for task in away)]``, all computed here, in order,
    when ``count(threads, 1 + len(away))`` is 1; else ``here()`` computed
    here while each task of ``away`` runs in a child forked for it.

    The children are read and reaped in task order once ``here()`` returns;
    if anything raises before, every child not yet reaped is killed and
    reaped. Then each task whose child could not be started, did not exit 0
    or sent bytes that do not unpickle is run here, in task order.
    """
    if count(threads, 1 + len(away)) == 1:
        return [here(), *(task() for task in away)]
    children = []
    try:
        for task in away:
            children.append(_fork(task))
        results = [here()]
        for child in children:
            data, status = b"", 1
            if child[0] is not None:
                with open(child[1], "rb") as pipe:
                    child[1] = None
                    data = pipe.read()
                status = os.waitpid(child[0], 0)[1]
                child[0] = None
            results.append(data if status == 0 else b"")
    finally:
        for pid, fd in children:
            if fd is not None:
                os.close(fd)
            if pid is not None:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
    return results[:1] + [_value(data, task) for data, task in zip(results[1:], away)]


def _value(data: bytes, task):
    """The value pickled in ``data``, else ``task()`` computed here."""
    with contextlib.suppress(pickle.UnpicklingError, EOFError):  # b"" or bytes cut short
        return pickle.loads(data)
    return task()


def _fork(task) -> list:
    """``[pid, read end]`` of a child writing ``task()``, pickled, to a pipe,
    or ``[None, None]`` if the system cannot make the pipe or the child.
    The child exits 1 if ``task`` raises."""
    fds = ()
    try:
        fds = read, write = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return [None, None]
    if pid == 0:  # the child; os._exit skips the parent's handlers and buffers
        status = 1
        try:
            os.close(read)
            data = memoryview(pickle.dumps(task(), protocol=5))
            while data:
                data = data[os.write(write, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return [pid, read]
