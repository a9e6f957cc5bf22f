"""Test settings: hypothesis runs the same examples on every run and keeps
no example database, so the suite is deterministic and leaves no state."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
