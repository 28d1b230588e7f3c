"""Solver for the spectral fractional Laplacian on tensor-product boxes via
the truncated-cylinder extension, with graded-mesh h-FEM or geometric-mesh
hp-FEM in the extended direction."""

__version__ = "0.1.0"
