"""Non-backtracking walk censuses, Chebyshev-type identities, spectral laws,
and Wasserstein convergence experiments for regular multigraphs."""

__version__ = "0.1.0"

from . import chebyshev, multigraph, nbmatrix, random_models, spectra

__all__ = ["chebyshev", "multigraph", "nbmatrix", "random_models", "spectra",
           "__version__"]
