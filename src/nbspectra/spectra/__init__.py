"""Eigensolvers, spectral measures, closed-form reference laws, and Wasserstein
distances."""

from .eigen import EigenError, eigenvalues_symmetric
from .laws import (LawError, ReferenceLaw, arcsine, kesten_mckay,
                   moment_criterion_report, orthogonality_check, semicircle)
from .measures import (DiscreteSpectralMeasure, MeasureError,
                       cycle_spectral_measure, spectral_measure)
from .wasserstein import WassersteinError, wasserstein_p

__all__ = [
    "DiscreteSpectralMeasure", "EigenError", "LawError", "MeasureError",
    "ReferenceLaw", "WassersteinError", "arcsine", "cycle_spectral_measure",
    "eigenvalues_symmetric", "kesten_mckay", "moment_criterion_report",
    "orthogonality_check", "semicircle", "spectral_measure", "wasserstein_p",
]
