"""Hypothesis profiles: with the ``CI`` environment variable set (GitHub
Actions sets it), examples are derived from each test's source instead of a
random seed, so a CI failure replays locally with ``CI=1``."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
