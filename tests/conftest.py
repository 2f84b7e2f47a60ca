import os
import tempfile
from pathlib import Path

from hypothesis import Phase, settings

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis still caches the constants it reads from source
# files; that cache goes to the temporary directory, not the checkout.
# The explain phase is off: it adds tens of seconds to each failing test
# and changes neither the examples, the shrinking nor the verdict.
settings.register_profile(
    "diskdyn",
    derandomize=True,
    database=None,
    deadline=None,
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("diskdyn")
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", str(Path(tempfile.gettempdir()) / "diskdyn-hypothesis")
)
