"""Numerical toolkit for constructing, evaluating and measuring logical
GKP qubit target operators and their finite-dimensional ground states.

The package root re-exports nothing: import each name from its module,
e.g. ``from gkpkit.operators import build_operator_set``."""

__version__ = "0.1.0"
