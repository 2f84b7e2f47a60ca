import os
import tempfile
from pathlib import Path

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis still caches the constants it reads from source
# files; that cache goes to the temporary directory, not the checkout.
settings.register_profile("diskdyn", derandomize=True, database=None, deadline=None)
settings.load_profile("diskdyn")
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", str(Path(tempfile.gettempdir()) / "diskdyn-hypothesis")
)
