"""Default numerical tolerances, shared across the package.

All spectral tolerances are *relative*: routines multiply them by a scale
derived from the operand (typically ``max(1, norm)``) before comparing.
"""

#: Hermiticity defect of ``S @ A`` for symmetry tests (relative).
HERMITICITY = 1e-10

#: Smallest admissible eigenvalue of ``S @ A`` for positivity tests (relative).
PSD = 1e-10

#: Reconstruction error allowed in round trips (split/factorize), relative.
RECONSTRUCTION = 1e-10

#: Grouping threshold for the zero spectral point, relative to the norm.
ZERO_EIGENVALUE = 1e-8

#: Vanishing-modulus threshold of the analytic gradient kernel at delta = 0.
MODULUS_GAP = 1e-7

#: Euler-Lagrange residual tolerance, relative to the sup of the Q-hat field.
EL_RESIDUAL = 1e-6

#: Constraint-satisfaction band, multiplied by the dimension target ``f``.
CONSTRAINT = 1e-8

#: Sign tolerance for the beta <= 0 check.
BETA_SIGN = 1e-9

#: Feasibility required after every accepted optimizer step (relative).
FEASIBILITY = 1e-12
