"""Linear algebra on a finite-dimensional indefinite inner product space.

The space is ``V = C^(2n)`` equipped with the inner product
``<<u|v>> = u^H S v``, where the signature operator ``S`` is diagonal with
``n`` entries ``+1`` followed by ``n`` entries ``-1``.  An operator ``A`` is

* *symmetric*  iff ``S @ A`` is Hermitian,
* *positive*   iff ``S @ A`` is Hermitian positive semi-definite.

Positive operators have real spectrum, at most ``n`` positive and at most
``n`` negative eigenvalues, and definite invariant subspaces for the
nonzero spectrum; nontrivial Jordan structure can hide only in the zero
spectral point.  All routines here exploit the congruence trick: with
``H = S @ A >= 0`` and ``R = sqrt(H)``, the Hermitian matrix
``Y = R @ S @ R`` has the same spectrum as ``A`` (including multiplicities)
and its eigenprojectors map to the spectral projectors of ``A`` via
``P = S @ R @ Pi @ R``.  This avoids non-normal eigenproblems entirely for
positive operands.

Public routines validate their operands.  The Krein adjoint ``S X^H S`` has
one unchecked form, ``_adjoint``, which also maps ``(..., d, d)`` stacks;
:func:`krein_adjoint` checks its operand and calls it, and the batched code
of :mod:`kreinact.action` calls it directly.

The module owns the package's Hermitian forms, on a matrix or a stack:
``_hermitize`` (``(X + X^H) / 2``), ``_hermitian_form`` (``S A``),
``_root`` (the principal square root from an ``eigh`` pair) and
``_congruence`` (``R S R``), which the support gap of
:mod:`kreinact.elverify` shares; ``_scale`` is ``max(||X||_2, 1)`` of a matrix, and
``_symmetric_rows`` the one symmetry rule, on a stack (:func:`is_positive` adds a margin).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances
from .errors import ValidationError, _check_count

__all__ = [
    "SignatureSpace",
    "SpectralSplit",
    "krein_adjoint",
    "is_symmetric",
    "is_positive",
    "positive_spectrum",
    "spectral_split",
    "psd_factorize",
    "product_annihilates",
    "classified_spectrum",
]


@dataclass(frozen=True)
class SignatureSpace:
    """The inner product space ``C^(2n)`` with signature ``(n, n)``.

    Parameters
    ----------
    n : int
        Spin dimension; the space has dimension ``2n``.
    """

    n: int

    def __post_init__(self):
        message = f"spin dimension must be a positive integer, got {self.n!r}"
        object.__setattr__(self, "n", _check_count(self.n, 1, message))

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def signature(self) -> np.ndarray:
        """Diagonal of ``S`` as a 1-d array ``(+1, ..., +1, -1, ..., -1)``."""
        sig = np.concatenate([np.ones(self.n), -np.ones(self.n)])
        sig.flags.writeable = False
        return sig

    @cached_property
    def signature_matrix(self) -> np.ndarray:
        """The signature operator ``S`` as a dense matrix."""
        mat = np.diag(self.signature).astype(complex)
        mat.flags.writeable = False
        return mat

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """Indefinite inner product ``<<u|v>> = u^H S v``."""
        u = np.asarray(u)
        v = np.asarray(v)
        return complex(np.vdot(u, self.signature * v))

    def check_operator(self, A: np.ndarray) -> np.ndarray:
        """Validate shape/dtype of an operator on this space; return as complex array."""
        A = np.asarray(A, dtype=complex)
        if A.shape != (self.dim, self.dim):
            raise ValidationError(
                f"operator shape {A.shape} does not match space dimension {self.dim}"
            )
        if not np.all(np.isfinite(A)):
            raise ValidationError("operator contains non-finite entries")
        return A


def _hermitize(H: np.ndarray) -> np.ndarray:
    """``(H + H^H) / 2`` of a matrix or of each matrix of a ``(..., d, d)`` stack."""
    return 0.5 * (H + H.conj().swapaxes(-1, -2))


def _hermitian_form(A: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """The Hermitian representative ``S A``, hermitized, of an operator or of each matrix of a stack."""
    return _hermitize(sig[:, None] * A)


def _root(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Principal square root ``R`` of a psd matrix (or stack) from its ``eigh`` pair, eigenvalues clipped at 0."""
    return (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _congruence(R: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """``R S R``, hermitized: with ``R = sqrt(S A)`` its spectrum is that of ``A``."""
    return _hermitize(R @ (sig[:, None] * R))


def _positive_root(A: np.ndarray, space: SignatureSpace) -> np.ndarray:
    """``R = sqrt(S A)`` of a positive operator."""
    return _root(*np.linalg.eigh(_hermitian_form(A, space.signature)))


def _scale(A: np.ndarray) -> float:
    """Robust magnitude used to make tolerances relative."""
    nrm = np.linalg.norm(A, 2) if A.size else 0.0
    return max(float(nrm), 1.0)


def _adjoint(X: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Unchecked ``S X^H S`` of an operator or of each matrix of a ``(..., d, d)`` stack."""
    return sig[:, None] * X.conj().swapaxes(-1, -2) * sig


# Relative slack on a Frobenius-norm bound of a spectral norm, far above the rounding of either norm.
_BOUND_SLACK = 1e-12


def _squared_frobenius(stack: np.ndarray) -> np.ndarray:
    """``||X||_F^2`` of each matrix of a ``(k, d, d)`` stack, summed over its real view."""
    real = np.ascontiguousarray(stack, complex).view(float)
    return np.einsum("kab,kab->k", real, real)


def _max_spectral_norm(stack: np.ndarray) -> float:
    """``max ||X||_2`` over a ``(k, d, d)`` stack, ``0.0`` when it is empty.

    ``||X||_F / sqrt(d) <= ||X||_2 <= ||X||_F``, so only a matrix whose
    Frobenius norm reaches the largest one over ``sqrt(d)`` can hold the
    maximum; only those are decomposed.  Each matrix's SVD is independent
    of the rest of the stack, so the result is ``np.linalg.norm(stack, 2,
    axis=(1, 2)).max()`` to the bit.  A NaN keeps every matrix and an
    infinity the matrices that hold one, so a non-finite stack ends as the
    full computation does.
    """
    if len(stack) == 0:
        return 0.0
    frobenius2 = _squared_frobenius(stack)
    bound = frobenius2.max() / stack.shape[-1] * (1.0 - _BOUND_SLACK)
    return float(np.linalg.svd(stack[~(frobenius2 < bound)], compute_uv=False)[:, 0].max())


def krein_adjoint(A: np.ndarray, space: SignatureSpace) -> np.ndarray:
    """Adjoint with respect to the indefinite inner product: ``A* = S A^H S``."""
    return _adjoint(space.check_operator(A), space.signature)


def is_symmetric(A: np.ndarray, space: SignatureSpace) -> bool:
    """True iff ``S @ A`` is Hermitian within ``HERMITICITY`` (relative)."""
    return bool(_symmetric_rows(space.check_operator(A)[None], space.signature)[0][0])


def is_positive(A: np.ndarray, space: SignatureSpace) -> bool:
    """True iff ``A`` is positive: ``S @ A`` Hermitian with spectrum >= ``-PSD`` (relative)."""
    return bool(_positive_rows(space.check_operator(A)[None], space.signature)[0])


def _symmetric_rows(As: np.ndarray, sig: np.ndarray) -> tuple:
    """``(symmetric, H, scale)`` of each matrix of a finite ``(k, d, d)`` stack, by one stacked SVD:
    ``H = S A``, ``scale = max(||A||_2, 1)`` and ``symmetric`` is ``||H - H^H||_2 <= HERMITICITY * scale``."""
    H = sig[:, None] * As
    norms = np.linalg.svd(np.concatenate([H - H.conj().swapaxes(-1, -2), As]), compute_uv=False)[:, 0]
    defect, scale = norms[: len(As)], np.maximum(norms[len(As):], 1.0)
    return defect <= tolerances.HERMITICITY * scale, H, scale


def _positive_rows(As: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """:func:`is_positive` of each matrix of a finite ``(k, d, d)`` stack: symmetric, and the
    lowest eigenvalue of ``S A`` at or above ``-PSD * scale``."""
    symmetric, H, scale = _symmetric_rows(As, sig)
    return symmetric & (np.linalg.eigvalsh(_hermitize(H))[:, 0] >= -tolerances.PSD * scale)


def _require_positive(A: np.ndarray, space: SignatureSpace, who: str) -> np.ndarray:
    A = space.check_operator(A)
    if not is_positive(A, space):
        raise ValidationError(f"{who} requires a positive operator")
    return A


def _require_symmetric(A: np.ndarray, space: SignatureSpace, who: str) -> np.ndarray:
    A = space.check_operator(A)
    if not is_symmetric(A, space):
        raise ValidationError(f"{who} must be Krein symmetric")
    return A


def positive_spectrum(A: np.ndarray, space: SignatureSpace) -> np.ndarray:
    """Real spectrum of a positive operator, ascending, with multiplicities.

    Computed from the Hermitian congruence ``Y = sqrt(S A) S sqrt(S A)``,
    which shares the spectrum of ``A``; no non-normal solve is involved.
    """
    R = _positive_root(_require_positive(A, space, "positive_spectrum"), space)
    return np.linalg.eigvalsh(_congruence(R, space.signature))


@dataclass(frozen=True)
class SpectralSplit:
    """Decomposition of a positive operator into spectral components.

    ``plus``/``minus`` collect the strictly positive/negative spectrum (with
    definite invariant subspaces); ``zero`` carries the zero spectral point,
    the only place where nontrivial Jordan structure may live.  The parts
    commute with the input and sum back to it.
    """

    plus: np.ndarray
    zero: np.ndarray
    minus: np.ndarray
    eigenvalues: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.plus + self.zero + self.minus


def spectral_split(A: np.ndarray, space: SignatureSpace) -> SpectralSplit:
    """Split a positive operator into plus/zero/minus spectral parts.

    Eigenvalues with ``|lambda| <= ZERO_EIGENVALUE * ||A||`` (the package
    tolerance) are grouped into the zero component.  The plus part
    ``S R Pi+ R`` (with ``R = sqrt(S A)`` and ``Pi+`` the positive
    eigenprojector of ``R S R``) is itself positive with positive definite
    image; symmetrically for the minus part.
    """
    A = _require_positive(A, space, "spectral_split")
    S = space.signature_matrix
    R = _positive_root(A, space)
    w, V = np.linalg.eigh(_congruence(R, space.signature))
    thresh = tolerances.ZERO_EIGENVALUE * max(float(np.linalg.norm(A, 2)), 1e-300)

    def component(mask: np.ndarray) -> np.ndarray:
        if not mask.any():
            return np.zeros_like(A)
        Vc = V[:, mask]
        return S @ R @ (Vc @ Vc.conj().T) @ R

    plus = component(w > thresh)
    minus = component(w < -thresh)
    zero = A - plus - minus
    return SpectralSplit(plus=plus, zero=zero, minus=minus, eigenvalues=w)


def psd_factorize(A: np.ndarray, space: SignatureSpace) -> np.ndarray:
    """Factor a positive operator as ``A = S @ M^H @ M``.

    Returns the principal Hermitian square root ``M = sqrt(S A)``, so that
    ``M^H M = M @ M = S A``.
    """
    return _positive_root(_require_positive(A, space, "psd_factorize"), space)


def product_annihilates(A: np.ndarray, B: np.ndarray, space: SignatureSpace) -> bool:
    """Whether the positive pair has vanishing trace pairing, hence zero product.

    For positive ``A``, ``B`` the pairing ``Tr(A B)`` is real and nonnegative,
    and ``Tr(A B) = 0`` forces ``A B = 0``.  Returns ``True`` iff
    ``|Tr(A B)| <= tol`` with the absolute ``tol = 1e-10``; in that case the
    implication is asserted by checking
    ``||A B|| <= sqrt(tol * ||A|| * ||B||) + 10 tol`` and a
    :class:`ValidationError` is raised if the input operators were not
    actually positive enough for the implication to hold.
    """
    A = _require_positive(A, space, "product_annihilates")
    B = _require_positive(B, space, "product_annihilates")
    tol = 1e-10
    t = np.trace(A @ B)
    if abs(t.imag) > 1e-9 * _scale(A) * _scale(B):
        raise ValidationError("trace pairing of positive operators must be real")
    if abs(t.real) > tol:
        return False
    bound = np.sqrt(tol * np.linalg.norm(A, 2) * np.linalg.norm(B, 2)) + 10.0 * tol
    prod_norm = float(np.linalg.norm(A @ B, 2))
    if prod_norm > bound:
        raise ValidationError(
            f"trace pairing vanished but ||A B|| = {prod_norm:.3e} exceeds {bound:.3e}; "
            "inputs are not positive to working precision"
        )
    return True


def classified_spectrum(T: np.ndarray, space: SignatureSpace):
    """Spectrum of a symmetric operator with eigenspace definiteness labels.

    Returns a list of ``(eigenvalue, multiplicity, definiteness)`` with
    definiteness ``+1`` (positive definite eigenspace under the indefinite
    inner product), ``-1`` (negative definite), or ``0`` (indefinite,
    degenerate, or non-real pair).  Used for spectral-interval diagnostics.
    """
    T = _require_symmetric(T, space, "classified_spectrum operand")
    lam, X = np.linalg.eig(T)
    zero_tol = tolerances.ZERO_EIGENVALUE
    scale = _scale(T)
    out = []
    used = np.zeros(len(lam), bool)
    for i in range(len(lam)):
        if used[i]:
            continue
        close = np.abs(lam - lam[i]) <= max(zero_tol * scale, 1e-12)
        close &= ~used
        used |= close
        if abs(lam[i].imag) > zero_tol * scale:
            out.append((complex(lam[i]), int(close.sum()), 0))
            continue
        Xc = X[:, close]
        gram = _hermitize(Xc.conj().T @ (space.signature[:, None] * Xc))
        gw = np.linalg.eigvalsh(gram)
        gscale = max(np.max(np.abs(gw)), 1e-300)
        if gw[0] > 1e-10 * gscale:
            label = 1
        elif gw[-1] < -1e-10 * gscale:
            label = -1
        else:
            label = 0
        out.append((float(lam[i].real), int(close.sum()), label))
    out.sort(key=lambda item: (item[0].real if isinstance(item[0], complex) else item[0]))
    return out
