"""Shared hypothesis settings: every property test replays the same examples
(``derandomize``) and none is timed out (``deadline=None``), so a slow or
busy machine cannot fail or change a run.  Each test keeps its own
``max_examples``."""
from hypothesis import settings

settings.register_profile("nilgeom", derandomize=True, deadline=None)
settings.load_profile("nilgeom")
