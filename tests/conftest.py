"""Shared test settings: one hypothesis profile for every property test.

Examples run without a per-example deadline, because their time depends on
the host's load; each test still sets its own max_examples.
"""

from hypothesis import settings

settings.register_profile("onlinenorm", deadline=None)
settings.load_profile("onlinenorm")
