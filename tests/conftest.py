"""Hypothesis profiles.

``pytest --hypothesis-profile=ci`` runs each property that takes its
example count from the profile (one without ``max_examples``) 2,000 times,
with examples derived from the test rather than drawn at random, so a CI
failure reproduces.  A property with its own ``max_examples`` keeps it.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=2000)
