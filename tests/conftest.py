"""Hypothesis profiles: ``--hypothesis-profile=ci`` draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
