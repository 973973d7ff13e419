"""Hypothesis profiles of the suite.

``pytest --hypothesis-profile contract`` runs the seeded contract sweep of
test_contract.py at ten times its tier-1 budget: its tests scale their
example counts by the loaded profile's max_examples over Hypothesis's
default of 100, so a run without the option draws what it always drew.
"""

from hypothesis import settings

settings.register_profile("contract", max_examples=1000)
