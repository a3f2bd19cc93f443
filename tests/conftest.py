"""Shared pytest set-up: a fixed hypothesis profile for the property tests.

The profile draws the same few examples on every run (``derandomize``) and
keeps no example database, so the suite stays deterministic and quick.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile(
        "groundflow", derandomize=True, max_examples=20, deadline=None, database=None
    )
    settings.load_profile("groundflow")
