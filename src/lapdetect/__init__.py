"""Statistical detection of adversarial bias in Laplace-mechanism releases.

A library and CLI for the defender's side of a perturbed differential
privacy release: threshold tests (most powerful only at theta = 1) and
likelihood-ratio cutoffs, exact error/power curves and ROC sweeps,
detectable-bias intervals, KL divergence accounting against the e^eps
admissibility bound, and Monte Carlo validation of every closed form.

The public surface is each module's ``__all__``, re-exported here.
``import lapdetect`` loads every module, and none imports numpy, json or
csv at import time: numpy, json and csv load inside the calls that need them.
"""

from . import detector, divergence, laplace, mechanism, montecarlo, quadrature
from .detector import *  # noqa: F403
from .divergence import *  # noqa: F403
from .laplace import *  # noqa: F403
from .mechanism import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .quadrature import *  # noqa: F403

__version__ = "0.10.0"

__all__ = [
    name
    for mod in (detector, divergence, laplace, mechanism, montecarlo, quadrature)
    for name in mod.__all__
] + ["__version__"]
