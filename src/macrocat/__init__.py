"""macrocat: simulation and estimation toolkit for entangled
macroscopically displaced photon states.

Modules:

* :mod:`macrocat.fock` - the two-mode, two-level state type and the
  Fock-space operators of the round trip
* :mod:`macrocat.counting` - closed-form photon-counting statistics
* :mod:`macrocat.sampling` - seeded Monte Carlo record generators
* :mod:`macrocat.tomography` - maximum-likelihood state reconstruction
* :mod:`macrocat.pipeline` - end-to-end experiment scenarios
* :mod:`macrocat.output` - the one writer of a run's CSV and JSON files
* :mod:`macrocat.cli` - command-line front end
"""

__version__ = "0.1.0"

from .counting import CountModelParams
from .fock import DensityMatrix
from .pipeline import ExperimentConfig

__all__ = ["CountModelParams", "DensityMatrix", "ExperimentConfig", "__version__"]
