import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import Phase, settings

from diskdyn.domains import EuclideanSubdisk, Horodisk

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


def mobius_image(X, m):
    """The image m(X) of a `Horodisk` or `EuclideanSubdisk` X under the
    disk automorphism m, in closed form.  m sends circles to circles and
    the unit circle to itself, so the image is the disk bounded by the
    circumcircle of three mapped boundary points: a horodisk tangent at
    m(tangency), or a Euclidean subdisk."""
    p, q, r = (complex(m(complex(z))) for z in X.boundary_point(np.array([0.0, 1 / 3, 2 / 3])))
    # The circumcenter is p + w, with w equidistant from 0, b and c.
    b, c = q - p, r - p
    d = 2.0 * (b.real * c.imag - b.imag * c.real)
    bb, cc = abs(b) ** 2, abs(c) ** 2
    w = complex(c.imag * bb - b.imag * cc, b.real * cc - c.real * bb) / d
    if isinstance(X, Horodisk):
        return Horodisk(m(X.tangency), abs(w))
    return EuclideanSubdisk(p + w, abs(w))
