"""Hypothesis draws the same examples on every run, so a failure that one
Tier-1 run finds recurs in the next and every run simulates the same
scenarios.  `pytest --hypothesis-profile=explore` draws new ones."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("fixed")
