"""Harmonic analysis on finite quantum groups.

Convolution, weighted L^p norms, Fourier duality, group-like projection
machinery, sharp-constant searches, and an exact symbolic certificate for
the unboundedness of convolution on the deformed SU(2) family.

Import every name from the module that defines it, such as qgharm.lp or
qgharm.structures; the package itself exports only __version__.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
