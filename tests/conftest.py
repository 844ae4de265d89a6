"""Every hypothesis property runs the same examples on every run: no random
seed, no example database, no deadline."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
