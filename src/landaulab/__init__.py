"""Numerical verification toolkit for the planar charged particle in a
uniform magnetic field under a fully general parametrised gauge family.

The library cross-checks three independent routes to the same physics:
operator algebra on a truncated two-sector Fock space, closed-form wave
functions with exact analytic derivatives, and classical canonical
mechanics with a polynomial Poisson-bracket engine; deterministic Gaussian
quadrature acts as the brute-force oracle tying the routes together.
"""

from .params import (CANONICAL_PARTNER, DEFAULT_MAX_DEGREE,
                     DegreeOverflowError, GaugeChoice, OriginMismatchError,
                     PhysicalParams, Poly2, PolyParseError, SparsePoly,
                     format_poly, gauge_delta, parse_poly,
                     vector_potential_polys)
from .classical import (NoetherCharges, NonFiniteOrbitError,
                        PhaseSpacePoint, PolyObservable,
                        TrajectoryParams, analytic_trajectory, integrate,
                        noether_charges, observables, poisson_bracket)
from .fockspace import (FockBasis, FockOperator, TruncationError,
                        build_observable, change_of_basis,
                        gauge_variant_matrix, ladder_ops, poly_operator,
                        t1_fock_overlap, angular_element)
from .waves import (MAX_QUANTUM_NUMBER, DiffOpSpec, QuantumNumberError,
                    SpecialFactor, WaveForm, fock_state, gauge_phase, hermite,
                    laguerre, phase_shifted, plane_wave, position_ops,
                    schrodinger_op, t1_basis_function, t1_state, t1rep_op)
from .quadrature import (Grid2, SupportOverflowError,
                         inner_product, line_integral, matrix_element)
from .report import CheckRecord, VerificationReport

__version__ = "0.1.0"
