"""Suite-wide settings: every hypothesis test runs derandomized (the same
examples on every run) and without a per-example deadline; each test
sets its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("trafficflow", derandomize=True, deadline=None)
settings.load_profile("trafficflow")
