"""Suite-wide pytest configuration."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # ``pytest --hypothesis-profile=ci``: examples are derived from each
    # test's source instead of the clock, so a red run reproduces.
    settings.register_profile("ci", derandomize=True)
