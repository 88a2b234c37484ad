"""Clifford-Fourier transform kernels.

Exact symbolic kernels for the full two-parameter family in every
dimension >= 2, their cross-dimension recursions, Bessel-Gegenbauer
series representations with exact coefficient streams, eigenvalues on
the Laguerre-monogenic basis, and a quadrature engine that applies the
transforms and certifies the stated identities numerically.
"""

from __future__ import annotations

from .algebra import (
    GeometricInvariants,
    Multivector,
    ParaBivector,
    geometric_product,
    invariants_of,
    wedge,
)
from .basis import (
    BasisFunction,
    CliffordPolynomial,
    GaussianPolynomial,
    PolynomialTable,
    SphericalMonogenic,
    creation_psi,
    dirac,
    harmonic_basis,
    harmonic_dimension,
    laplace,
    monogenic_basis,
    monogenic_projection,
    psi,
    sphere_inner_exact,
    x_times,
)
from .checks import Check, worst
from .engine import (
    CylindricalRule,
    EigenvalueRecord,
    InversionReport,
    L2ScanReport,
    apply_transform_batch,
    bochner_reduce,
    closed_form_eigenvalue,
    closed_form_eigenvalue_exact,
    default_scheme,
    hankel_laguerre_residual,
    inversion_composition_residual,
    l2_bound_scan,
    radial_rule,
    verify_diff_relations,
    verify_eigen,
    verify_inversion,
)
from .exact import Exact
from .kernels import (
    KernelExpr,
    KernelId,
    KernelTerm,
    build_cf_kernel,
    build_kernel,
    build_kernel_even,
    build_kernel_odd,
    eval_kernel,
    fg_system_residual,
    minus_counterpart,
    pde_residual,
    verify_recursion,
    verify_structural_identities,
)
from .series import (
    EigenvaluePair,
    SeriesCoefficients,
    bridge_prefactor,
    check_cf_constraint,
    classical_coefficients,
    coefficient_rows,
    eigenvalues_from_coefficients,
    eval_series,
    inverse_coefficients,
    series_coefficients,
    transform_normalization,
    truncation_bound,
)
from .special import (
    bessel_jtilde,
    chebyshev_t,
    double_factorial,
    gegenbauer,
    laguerre,
)

__version__ = "0.1.0"
