"""Exact solutions of generalized time-dependent SIS Hamiltonian systems
built from the two-dimensional book Lie algebra, together with their
quantum deformations, verified against independent numerical oracles.

Layers
------
- :mod:`booksis.timefn`     time-dependent coefficient functions
- :mod:`booksis.quadrature` Kronrod integrals and the Chebyshev pieces of the kernel
- :mod:`booksis.canonical`  the book system in canonical (x, y) variables
- :mod:`booksis.sis`        the epidemic (q, p) chart and moment system
- :mod:`booksis.deformed`   quantum-deformed systems and validity windows
- :mod:`booksis.oracle`     independent ODE integrators (cross-checks)
- :mod:`booksis.cli`        scenario runner (``booksis`` command)
"""

from .canonical import (
    BookSystem,
    CanonicalState,
    IntegrationConstants,
    exact_solution,
    fit_constants,
    hamiltonian,
    poisson_bracket,
    rhs,
    vf_commutator,
)
from .deformed import (
    DeformedBookSystem,
    DeformedSisSystem,
    ValidityWindow,
    deformed_exact_solution,
    deformed_hamiltonian,
    deformed_rhs,
    deformed_sis_exact_solution,
    deformed_sis_hamiltonians,
    deformed_sis_rhs,
    expm1_over,
    perturbed_rhs_first_order,
    validity_window,
)
from .errors import BooksisError
from .oracle import IntegratorConfig, OdeProblem, OdeSolution, integrate_ode
from .quadrature import CumulativeIntegral, cumulative, integrate
from .sis import (
    EpidemicState,
    MomentState,
    SisSystem,
    from_canonical,
    moment_rhs,
    moments_from_state,
    sis_constant_solution,
    sis_exact_solution,
    sis_hamiltonian,
    sis_rhs,
    to_canonical,
)
from .timefn import CoefficientFunction, parse_expression

__version__ = "0.1.0"
