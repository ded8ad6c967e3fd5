"""Default numerical tolerances, shared across the package.

The spectral tolerances are *relative*: routines multiply them by a scale
derived from the operand (typically ``max(1, norm)``) before comparing.
Each entry below says where it is absolute instead.
"""

#: Hermiticity defect of ``S @ A`` for symmetry tests (relative).
HERMITICITY = 1e-10

#: Smallest admissible eigenvalue of ``S @ A`` for positivity tests (relative).
PSD = 1e-10

#: Grouping threshold for the zero spectral point, relative to the norm.
ZERO_EIGENVALUE = 1e-8

#: Vanishing-modulus threshold of the gradient kernel at delta = 0, relative
#: to the chain's norm: the moduli below it form the chain's zero cluster.
#: Relative to the kernel's norm, the bound on ``Pi_0 P_+`` and ``P_+^* Pi_0``
#: under which the cluster's Riesz projection ``Pi_0`` annihilates the kernel.
MODULUS_GAP = 1e-7

#: Euler-Lagrange residual tolerance.  ``check_first_order`` and the
#: minimizer's ``tol_el`` use it as an absolute bound on margins, residuals
#: and gaps; ``pointwise.lagrange_from_point`` scales it by
#: ``max(|Qhat|, 1) |A|`` to bound the annihilation residual, its one
#: stationarity test.  There no positivity margin enters: its interior beta
#: is the lowest eigenvalue of ``Qhat - alpha S``.
EL_RESIDUAL = 1e-6

#: Constraint-satisfaction band, multiplied by the dimension target ``f``.
CONSTRAINT = 1e-8

#: Sign tolerance for the beta <= 0 check (absolute).
BETA_SIGN = 1e-9

#: Pointwise feasibility and boundary band.  ``PointwiseProblem`` accepts
#: ``|a|`` up to ``b + FEASIBILITY * max(b, 1)`` (and clips it to ``b``);
#: ``solve`` and ``lagrange_from_point`` treat ``|a| >= b - FEASIBILITY * b``
#: as the boundary of ``|Tr A| <= Tr(S A)``.
FEASIBILITY = 1e-12
