"""Principal subspace estimation under data-dependent noise."""

__version__ = "0.1.0"
