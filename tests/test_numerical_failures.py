import numpy as np
import pytest

from gkpkit import fock
from gkpkit.errors import NumericalFailureError
from gkpkit.fock import exp_of_quadrature, ground_state

SQRT_PI = np.sqrt(np.pi)


def test_non_finite_operator_raises():
    op = np.eye(3, dtype=complex)
    op[0, 0] = np.nan
    with pytest.raises(NumericalFailureError):
        ground_state(op)


def test_eigensolver_failure_raises(monkeypatch):
    def failing_eigh(matrix):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(fock, "eigh", failing_eigh)
    with pytest.raises(NumericalFailureError):
        ground_state(np.eye(3, dtype=complex))
    with pytest.raises(NumericalFailureError):
        exp_of_quadrature(1, 0, SQRT_PI, 8)
