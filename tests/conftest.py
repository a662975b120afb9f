"""Shared pytest set-up: the Hypothesis profile every property test runs
under.

No deadline, since one example's time varies with the load on a shared
machine; derandomized, so every run draws the same examples and a property
test either passes or fails the same way each time.
"""
from hypothesis import settings

settings.register_profile("qinitopt", deadline=None, derandomize=True)
settings.load_profile("qinitopt")
