"""Shared fixtures. Hypothesis profiles: with the ``CI`` environment
variable set (GitHub Actions sets it), examples are derived from each test's
source instead of a random seed, so a CI failure replays locally with
``CI=1``."""

import os
from types import SimpleNamespace

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def workers(monkeypatch):
    """Two CPUs, whatever the machine has; records each fork and the status
    of each reaped child, and checks that no child is left behind."""
    record = SimpleNamespace(forks=0, statuses=[])
    fork, waitpid = os.fork, os.waitpid

    def counted_fork():
        record.forks += 1
        return fork()

    def recorded_waitpid(pid, options):
        reaped = waitpid(pid, options)
        record.statuses.append(reaped[1])
        return reaped

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    yield record
    with pytest.raises(ChildProcessError):
        waitpid(-1, os.WNOHANG)
