"""Argument guards that no other test reaches: each refuses an argument
outside its function's domain with the package's exception for it."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from sixfold.core import ConvergenceError, DomainError, NonFiniteSampleError, ParameterSet, PoleError
from sixfold.engine import rhs_example
from sixfold.jets import Jet, closed_form_jet
from sixfold.legendre import gauss_taylor, legendre_recurrence
from sixfold.lerch import _abel_plana_phi, lerch_minus_one_split, lerch_series
from sixfold.quad import Integrand6D, Rule1D, integrate_6d_tensor, sobol_points
from sixfold.specialfn import digamma, polygamma


def _tensor_of_an_infinite_factor():
    f = Integrand6D(ParameterSet(k=1, a=1.5))
    infinite = lambda self, x, one_minus_x: np.full(len(x), np.inf)  # noqa: E731
    # inf times a zero weight is NaN, and the matmul warns of it.
    with mock.patch.object(Integrand6D, "x_factor", infinite), np.errstate(invalid="ignore"):
        integrate_6d_tensor(f)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Jet(()), DomainError),
        (lambda: Jet((1.0,)) + Jet((1.0, 0.0)), DomainError),
        (lambda: closed_form_jet(ParameterSet(a=0), 2), DomainError),
        (lambda: gauss_taylor(-600.5, 601.5, 1.3), ConvergenceError),
        (lambda: legendre_recurrence(3, 1, 1.0), DomainError),
        (lambda: lerch_series(0.5, 2.0, -1.0), PoleError),
        (lambda: lerch_series(-1.0, -1.0, 1.0), DomainError),
        (lambda: lerch_minus_one_split(2.0, -0.5), DomainError),
        (lambda: _abel_plana_phi(1.5, 2.0, 1.0), DomainError),
        (lambda: Rule1D(np.zeros(2), np.zeros(3)), DomainError),
        (lambda: sobol_points(0), DomainError),
        (lambda: polygamma(1, -2.0), PoleError),
        (lambda: digamma(0.0), PoleError),
        (lambda: rhs_example("difference_arctanh", ParameterSet()), DomainError),
        (_tensor_of_an_infinite_factor, NonFiniteSampleError),
    ],
    ids=[
        "jet_empty",
        "jet_orders_differ",
        "closed_form_jet_a_zero",
        "gauss_taylor_terms",
        "legendre_recurrence_x",
        "lerch_series_pole",
        "lerch_series_divergent",
        "minus_one_split_v",
        "abel_plana_ray",
        "rule_lengths",
        "sobol_count",
        "polygamma_pole",
        "digamma_pole",
        "difference_without_n",
        "tensor_non_finite",
    ],
)
def test_guard_raises(call, error):
    with pytest.raises(error) as excinfo:
        call()
    assert excinfo.type is error
