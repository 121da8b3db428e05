"""Worker processes: the package's one fork, read, reap and kill path.

A worker is a bare ``os.fork`` that computes one task, writes its bytes to
a pipe and leaves by ``os._exit``, with no logging, stdio or imports in
between. No worker outlives the ``run`` call that started it. Workers run
on Linux only.
"""

import os


def count(threads: int, items: int) -> int:
    """How many workers ``threads`` gives ``items`` items: ``threads``, capped
    at the items and at the CPUs this process may run on; 1 off Linux."""
    if threads <= 1 or not hasattr(os, "fork") or os.uname().sysname != "Linux":
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(threads, items, cpus or 1))


def run(here, *away) -> list:
    """``[here(), data, ...]``: ``here()`` computed in this process while each
    task of ``away`` runs in a child forked for it.

    Each ``data`` is the bytes its task returned, read to the end, or None if
    its child could not be started or did not exit 0. The children are read
    and reaped in order once ``here()`` returns; if anything raises first,
    every child not yet reaped is killed and reaped.
    """
    children = []
    try:
        for task in away:
            children.append(_fork(task))
        results = [here()]
        for child in children:
            data, status = None, 1
            if child[0] is not None:
                with open(child[1], "rb") as pipe:
                    child[1] = None
                    data = pipe.read()
                status = os.waitpid(child[0], 0)[1]
                child[0] = None
            results.append(data if status == 0 else None)
    finally:
        for pid, fd in children:
            if fd is not None:
                os.close(fd)
            if pid is not None:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
    return results


def _fork(task) -> list:
    """``[pid, read end]`` of a child writing the bytes of ``task()`` to a
    pipe, or ``[None, None]`` if the system cannot make the pipe or the child.
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
            data = memoryview(task()).cast("B")
            while data:
                data = data[os.write(write, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return [pid, read]
