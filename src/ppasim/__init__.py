"""Simulation toolkit for phase estimation with partially postselected amplification.

A weak polarization filter turns a small imprinted phase theta into a large
polar rotation Theta of the surviving photons, concentrating the phase
information of many input photons into few detected ones.  This package
models the filtered states, their quantum and classical Fisher information,
the optimal polarimetry, the quasiprobability structure behind the
enhancement, and a Monte Carlo bench with realistic systematics.  Import
from its modules (``ppasim.fisher``, ``ppasim.quasiprob``, ...); the package
top level holds only ``__version__``.
"""

__version__ = "0.1.0"
