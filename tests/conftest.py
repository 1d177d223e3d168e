"""Hypothesis profiles.  HYPOTHESIS_PROFILE=ci (set by the CI workflow)
prints a @reproduce_failure blob with each failing example and drops
the deadline, whose timings vary on shared runners; without it the
default profile applies."""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
