"""Statistical detection of adversarial bias in Laplace-mechanism releases.

A library and CLI for the defender's side of a perturbed differential
privacy release: Neyman-Pearson thresholds and likelihood-ratio cutoffs,
exact error/power curves and ROC sweeps, detectable-bias intervals, KL
divergence accounting against the e^eps admissibility bound, and Monte
Carlo validation of every closed form.

The public surface is each module's ``__all__``, re-exported here.
``montecarlo``, the one module that imports numpy, loads on first use.
"""

import importlib

from . import detector, divergence, laplace, mechanism, quadrature
from .detector import *  # noqa: F403
from .divergence import *  # noqa: F403
from .laplace import *  # noqa: F403
from .mechanism import *  # noqa: F403
from .quadrature import *  # noqa: F403

__version__ = "0.3.0"


def __getattr__(name: str):
    # PEP 562 hook; ``from . import montecarlo`` here would re-enter it.
    montecarlo = importlib.import_module(f"{__name__}.montecarlo")
    if name == "__all__":
        mods = (detector, divergence, laplace, mechanism, montecarlo, quadrature)
        return [n for mod in mods for n in mod.__all__] + ["__version__"]
    if name in ("montecarlo", *montecarlo.__all__):
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
