"""The worker module: ``count`` caps the workers, ``split`` cuts a step into
one part per process, ``run`` forks only when ``threads`` allows more than
one process, reads, reaps and kills the workers, and runs here each task
whose child failed."""

import errno
import os
import pickle
import time

import numpy as np
import pytest

from accesskit._workers import count, run, split
from accesskit.spatial_stats import build_weights, lisa, morans_i

from helpers import needs_fork


def random_case():
    """Values and k=5 weights on 30 random planar points."""
    rng = np.random.default_rng(62)
    pts = rng.uniform(0, 100, size=(30, 2))
    return rng.normal(size=30), build_weights(pts, k=5, coord_kind="planar")


def no_resource(*args):
    raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))


def test_worker_count_is_capped_without_starting_a_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert [count(t, items) for t, items in
            ((10**6, 1000), (10**6, 1), (1, 1000), (0, 1000), (2, 0))] == [2, 1, 1, 1, 1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert count(3, 1000) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert count(10**6, 1000) == 5
    monkeypatch.delattr(os, "fork")
    assert count(10**6, 1000) == 1


@needs_fork
@pytest.mark.parametrize("threads, cpus", [(1, {0, 1}), (2, {0})], ids=["threads-1", "one-cpu"])
def test_one_process_computes_every_task_here_in_order(workers, monkeypatch, threads, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    done = []

    def task(name):
        def compute():
            done.append(name)  # seen here only if computed here
            return name, os.getpid()
        return compute

    here = os.getpid()
    assert run(threads, task("here"), task("first"), task("second")) == \
        [("here", here), ("first", here), ("second", here)]
    assert done == ["here", "first", "second"]
    assert workers.forks == 0


@needs_fork
def test_split_returns_the_parts_in_item_order(workers, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

    def compute(part):
        return list(part), os.getpid()

    parts = split(compute, range(10), 3)
    assert [items for items, _ in parts] == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    assert parts[0][1] == os.getpid() and os.getpid() not in {pid for _, pid in parts[1:]}
    assert workers.forks == 2 and workers.statuses == [0, 0]
    assert split(compute, range(10), 1) == [(list(range(10)), os.getpid())]
    assert workers.forks == 2


@needs_fork
def test_run_without_tasks_forks_nothing(workers):
    assert run(2, lambda: "here") == ["here"]
    assert workers.forks == 0 and workers.statuses == []


@needs_fork
def test_a_part_larger_than_a_pipe_buffer_is_read_whole(workers):
    # 800 kB, several times what a pipe holds
    here, away = run(2, lambda: None, lambda: np.arange(100_000.0))
    assert here is None
    assert away.dtype == np.float64 and away.tobytes() == np.arange(100_000.0).tobytes()
    assert workers.forks == 1 and workers.statuses == [0]


@needs_fork
def test_results_come_back_in_task_order(workers):
    def slow():
        time.sleep(0.5)
        return b"first"

    assert run(2, lambda: "here", slow, lambda: b"second") == ["here", b"first", b"second"]
    assert workers.forks == 2 and workers.statuses == [0, 0]


# a failed child gives no bytes, and its task's value is computed here: the
# tasks below return the id of the process that ran them

@needs_fork
def test_a_task_that_raises_in_its_child_gives_no_bytes(workers):
    parent = os.getpid()

    def failing():
        if os.getpid() != parent:
            raise LookupError("the task failed")
        return os.getpid()

    here, first, second = run(2, lambda: "here", failing, os.getpid)
    assert (here, first) == ("here", parent) and second != parent
    assert [os.waitstatus_to_exitcode(s) for s in workers.statuses] == [1, 0]


@needs_fork
def test_a_child_that_fails_after_writing_gives_no_bytes(workers, monkeypatch):
    write = os.write

    def write_then_fail(fd, data):
        write(fd, data)
        os._exit(1)

    monkeypatch.setattr(os, "write", write_then_fail)
    assert run(2, lambda: "here", os.getpid) == ["here", os.getpid()]
    assert [os.waitstatus_to_exitcode(s) for s in workers.statuses] == [1]


@needs_fork
def test_a_child_that_exits_0_with_bytes_cut_short_is_rerun_here(workers, monkeypatch):
    dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda value, **kwargs: dumps(value, **kwargs)[:-1])
    assert run(2, lambda: "here", os.getpid) == ["here", os.getpid()]
    assert workers.forks == 1 and workers.statuses == [0]


@needs_fork
def test_a_task_that_fails_here_too_raises_its_error_once_every_child_is_reaped(workers):
    reaped = []

    def failing():
        reaped.append(len(workers.statuses))  # in a child, recorded only there
        raise LookupError("the task failed")

    def slow():
        time.sleep(0.5)
        return "slow"

    with pytest.raises(LookupError, match="the task failed") as raised:
        run(2, lambda: "here", failing, slow)
    assert reaped == [2]
    assert raised.value.__context__ is None  # its own error, not one about the child's bytes
    assert [os.waitstatus_to_exitcode(s) for s in workers.statuses] == [1, 0]


@needs_fork
@pytest.mark.parametrize("fails", ["pipe", "fork"])
def test_no_pipe_or_fork_gives_no_bytes_and_leaves_no_descriptor_open(workers, monkeypatch,
                                                                      fails):
    opened = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, fails, no_resource)
    assert run(2, lambda: "here", os.getpid) == ["here", os.getpid()]
    assert workers.forks == 0 and sorted(os.listdir("/proc/self/fd")) == opened


@needs_fork
def test_without_a_fork_every_part_is_computed_here(monkeypatch):
    values, w = random_case()
    one = lisa(values, w, n_permutations=99, seed=4, threads=1)
    calls = []

    def no_fork():
        calls.append(None)
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    many = lisa(values, w, n_permutations=99, seed=4, threads=10**6)
    assert len(calls) == 1  # one part per CPU; this process computes the first
    assert many.p_value.tobytes() == one.p_value.tobytes()


@needs_fork
def test_without_a_pipe_every_part_is_computed_here(workers, monkeypatch):
    values, w = random_case()
    ones = [f(values, w, n_permutations=99, seed=5, threads=1) for f in (morans_i, lisa)]
    monkeypatch.setattr(os, "pipe", no_resource)
    twos = [f(values, w, n_permutations=99, seed=5, threads=2) for f in (morans_i, lisa)]
    assert workers.forks == 0
    assert twos[0].sim.tobytes() == ones[0].sim.tobytes()
    assert twos[0].p_value == ones[0].p_value
    assert twos[1].p_value.tobytes() == ones[1].p_value.tobytes()
