"""Test-wide settings: Hypothesis draws the same examples on every run,
so a tier-1 run is as deterministic as the artifacts it checks. A test's
own ``@settings`` keep this profile's other values."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
