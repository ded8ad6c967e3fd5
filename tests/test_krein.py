"""Unit and property tests for the indefinite-inner-product linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_rng,
    oracle_positive_eigenvalues,
    random_matrix,
    random_positive,
)
from kreinact import (
    SignatureSpace,
    ValidationError,
    classified_spectrum,
    is_positive,
    is_symmetric,
    krein_adjoint,
    positive_spectrum,
    product_annihilates,
    spectral_split,
)
from kreinact.krein import _max_spectral_norm, _positive_rows, _symmetric_rows
from kreinact.tolerances import HERMITICITY, PSD


def test_space_basics():
    sp = SignatureSpace(2)
    assert sp.dim == 4
    S = sp.signature_matrix
    np.testing.assert_allclose(S @ S, np.eye(4), atol=0)
    np.testing.assert_allclose(S, S.conj().T, atol=0)
    u = np.array([1.0, 0, 0, 0])
    v = np.array([0.0, 0, 1.0, 0])
    assert np.vdot(u, sp.signature * u) == pytest.approx(1.0)
    assert np.vdot(v, sp.signature * v) == pytest.approx(-1.0)


def test_space_rejects_bad_n():
    with pytest.raises(ValidationError):
        SignatureSpace(0)
    with pytest.raises(ValidationError):
        SignatureSpace(-3)


@pytest.mark.parametrize("A, message", [
    (np.zeros((2, 2)), r"operator shape \(2, 2\) does not match space dimension 4"),
    (np.diag([1.0, np.nan, 0.0, 0.0]), "non-finite"),
    (np.diag([1.0, 0.0, np.inf, 0.0]), "non-finite"),
])
def test_check_operator_rejects_wrong_shapes_and_non_finite_entries(A, message):
    with pytest.raises(ValidationError, match=message):
        SignatureSpace(2).check_operator(A)


def test_adjoint_is_involution_and_product_reversing():
    sp = SignatureSpace(2)
    rng = make_rng(0)
    A = random_matrix(sp, rng)
    B = random_matrix(sp, rng)
    np.testing.assert_allclose(krein_adjoint(krein_adjoint(A, sp), sp), A, atol=1e-14)
    np.testing.assert_allclose(
        krein_adjoint(A @ B, sp), krein_adjoint(B, sp) @ krein_adjoint(A, sp), atol=1e-12
    )


def test_adjoint_matches_inner_product():
    sp = SignatureSpace(1)
    rng = make_rng(1)
    A = random_matrix(sp, rng)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = np.vdot(u, sp.signature * (A @ v))
    rhs = np.vdot(krein_adjoint(A, sp) @ u, sp.signature * v)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_positive_implies_symmetric_and_real_spectrum(n, seed):
    sp = SignatureSpace(n)
    A = random_positive(sp, make_rng(seed))
    assert is_symmetric(A, sp)
    assert is_positive(A, sp)
    lam = oracle_positive_eigenvalues(A)
    # library route must agree with the dense-solver oracle
    np.testing.assert_allclose(
        np.sort(positive_spectrum(A, sp)), lam, rtol=1e-8, atol=1e-8 * max(1.0, abs(lam).max())
    )


def test_positive_rejects_non_symmetric():
    sp = SignatureSpace(1)
    A = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
    if not is_symmetric(A, sp):
        assert not is_positive(A, sp)


def test_spectral_split_reconstructs_and_commutes():
    sp = SignatureSpace(2)
    rng = make_rng(5)
    A = random_positive(sp, rng)
    split = spectral_split(A, sp)
    np.testing.assert_allclose(split.plus + split.zero + split.minus, A, atol=1e-10 * np.linalg.norm(A, 2))
    for part in (split.plus, split.zero, split.minus):
        np.testing.assert_allclose(part @ A, A @ part, atol=1e-9 * np.linalg.norm(A, 2) ** 2)


def test_spectral_split_eigenspaces_definite():
    # plus-part images are positive under the indefinite product, minus negative
    sp = SignatureSpace(2)
    rng = make_rng(6)
    A = random_positive(sp, rng)
    split = spectral_split(A, sp)
    for _ in range(20):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vp = split.plus @ u
        if np.linalg.norm(vp) > 1e-8:
            assert np.vdot(vp, sp.signature * vp).real > 0
        vm = split.minus @ u
        if np.linalg.norm(vm) > 1e-8:
            assert np.vdot(vm, sp.signature * vm).real < 0


def test_spectral_split_rank_one_atoms():
    # one positive and one negative rank-one operator split exactly
    sp = SignatureSpace(1)
    S = np.diag([1.0, -1.0]).astype(complex)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    A_plus = np.outer(e0, e0)          # S A = diag(1,0) psd, eigenvalue +1
    A_minus = S @ np.outer(e1, e1)     # S A = diag(0,1) psd, eigenvalue -1
    sp_plus = spectral_split(A_plus, sp)
    np.testing.assert_allclose(sp_plus.plus, A_plus, atol=1e-12)
    np.testing.assert_allclose(sp_plus.minus, 0 * A_plus, atol=1e-12)
    sp_minus = spectral_split(A_minus, sp)
    np.testing.assert_allclose(sp_minus.minus, A_minus, atol=1e-12)
    np.testing.assert_allclose(sp_minus.plus, 0 * A_minus, atol=1e-12)


def test_spectral_split_requires_positive():
    sp = SignatureSpace(1)
    with pytest.raises(ValidationError):
        spectral_split(np.diag([1.0, 1.0]).astype(complex), sp)  # SA = diag(1,-1) not psd


def test_nilpotent_chain_annihilates_itself():
    # archetypal neutral operator: S A psd with A^2 = 0
    sp = SignatureSpace(1)
    A = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
    assert is_positive(A, sp)
    np.testing.assert_allclose(A @ A, np.zeros((2, 2)), atol=1e-14)
    assert product_annihilates(A, A, sp)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_product_annihilates_on_neutral_rank_ones(seed):
    # neutral rank-one positives A = x (Sx)^H with <x,x>=0 satisfy Tr(AB)=0
    # and the implication AB = 0 must then hold
    rng = make_rng(seed)
    sp = SignatureSpace(1)
    x = np.array([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))])
    A = np.outer(x, sp.signature * x.conj())
    B = A * rng.uniform(0.5, 2.0)
    assert is_positive(A, sp) and is_positive(B, sp)
    assert abs(np.trace(A @ B)) < 1e-12
    assert product_annihilates(A, B, sp)


def test_product_annihilates_negative_case():
    sp = SignatureSpace(1)
    A = np.eye(2, dtype=complex)
    A[1, 1] = -1.0  # A=S: positive, Tr(A A) = 2 != 0
    assert not product_annihilates(A, A, sp)


def test_classified_spectrum_signs():
    # positive operators: positive eigenvalues get positive definite
    # eigenspaces (+1), negative ones negative definite (-1)
    sp = SignatureSpace(1)
    rng = make_rng(13)
    A = random_positive(sp, rng)
    entries = classified_spectrum(A, sp)
    lam = oracle_positive_eigenvalues(A)
    got = np.sort([value for value, _, _ in entries])
    np.testing.assert_allclose(got, lam, rtol=1e-8, atol=1e-8)
    assert sum(mult for _, mult, _ in entries) == sp.dim
    for value, _mult, label in entries:
        if value > 1e-9:
            assert label == 1
        elif value < -1e-9:
            assert label == -1


def test_classified_spectrum_neutral_label():
    sp = SignatureSpace(1)
    A = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)  # nilpotent
    entries = classified_spectrum(A, sp)
    assert len(entries) == 1
    value, mult, label = entries[0]
    assert value == pytest.approx(0.0, abs=1e-12)
    assert mult == 2
    assert label == 0


def test_classified_spectrum_labels_a_non_real_pair_0():
    # T = [[0, 1], [-1, 0]] is Krein symmetric for n = 1, with eigenvalues +-i.
    entries = classified_spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex), SignatureSpace(1))
    assert [(mult, label) for _, mult, label in entries] == [(1, 0), (1, 0)]
    values = sorted(value.imag for value, _, _ in entries)
    assert values == pytest.approx([-1.0, 1.0], abs=1e-14)
    assert all(value.real == pytest.approx(0.0, abs=1e-14) for value, _, _ in entries)


def test_classified_spectrum_rejects_a_non_symmetric_operator():
    sp = SignatureSpace(1)
    with pytest.raises(ValidationError, match="classified_spectrum operand must be Krein symmetric"):
        classified_spectrum(np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex), sp)


def _spectral_norm_stack(kind: str, k: int, d: int, seed: int, real: bool) -> np.ndarray:
    """A ``(k, d, d)`` stack of one of the shapes that stress the Frobenius bound."""
    rng = make_rng(seed)
    stack = rng.standard_normal((k, d, d)) + (0.0 if real else 1j * rng.standard_normal((k, d, d)))
    if kind == "zero-rows":
        stack[rng.random(k) < 0.5] = 0.0
    elif kind == "equal-norms" and k:
        # Row permutations of one matrix: equal singular values, computed on different data.
        stack = np.stack([stack[0][rng.permutation(d)] for _ in range(k)])
    elif kind == "near-the-bound" and k:
        # Row 0 is unitary, so ||X||_F / sqrt(d) = ||X||_2 = 1 and the bound is 1; the other
        # rows are rank one (||X||_2 = ||X||_F) with norms just below, at and above it.
        stack[0] = np.linalg.qr(stack[0])[0]
        for j in range(1, k):
            outer = np.outer(stack[j, 0], stack[j, :, 0].conj())
            offsets = [-1e-11, -1e-12, -1e-13, -1e-15, -2e-16, -1e-16, 0.0, 1e-16, 1e-15, 1e-13]
            stack[j] = outer / np.linalg.norm(outer) * (1.0 + rng.choice(offsets))
    return stack


@given(st.sampled_from(["random", "zero-rows", "equal-norms", "near-the-bound"]),
       st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10**6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_max_spectral_norm_equals_the_full_computation(kind, k, d, seed, real):
    stack = _spectral_norm_stack(kind, k, d, seed, real)
    assert _max_spectral_norm(stack) == np.linalg.norm(stack, 2, axis=(1, 2)).max(initial=0.0)


@pytest.mark.parametrize("stack", [np.zeros((0, 4, 4), complex), np.zeros((1, 2, 2)),
                                   np.zeros((3, 4, 4), complex), np.eye(3)[None]],
                         ids=["empty", "one-zero-row", "zero-rows", "one-row"])
def test_max_spectral_norm_of_degenerate_stacks(stack):
    assert _max_spectral_norm(stack) == np.linalg.norm(stack, 2, axis=(1, 2)).max(initial=0.0)


def _defects_and_scales(As, sig):
    """Per row, ``||S A - (S A)^H||_2`` and ``max(||A||_2, 1)``, each by its own norm call."""
    H = sig[:, None] * As
    defect = np.linalg.norm(H - np.swapaxes(H.conj(), -1, -2), 2, axis=(-2, -1))
    return defect, np.maximum(np.linalg.norm(As, 2, axis=(-2, -1)), 1.0)


def _positive_rows_full(As, sig):
    """:func:`_positive_rows` by the definition: symmetric, and ``S A`` no lower than ``-PSD * scale``."""
    H = sig[:, None] * As
    defect, scale = _defects_and_scales(As, sig)
    w_min = np.linalg.eigvalsh(0.5 * (H + np.swapaxes(H.conj(), -1, -2)))[..., 0]
    return (defect <= HERMITICITY * scale) & (w_min >= -PSD * scale)


def _edge_row(sp, rng, size, defect_offset, margin_offset, rank_one):
    """``A = S H`` with ``||H||_2`` about ``size``, whose defect and lowest eigenvalue
    sit ``1 + offset`` times at their tolerances for the scale ``max(size, 1)``.

    A rank-one defect has ``||X||_F = ||X||_2``, a generic one ``||X||_F`` near
    ``sqrt(d) ||X||_2``.
    """
    d = sp.dim
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    P = G @ G.conj().T
    P *= size / np.linalg.norm(P, 2)
    scale = max(size, 1.0)
    P -= (np.linalg.eigvalsh(P)[0] + PSD * scale * (1.0 + margin_offset)) * np.eye(d)
    K = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    B = 1j * np.outer(K[0], K[0].conj()) if rank_one else K - K.conj().T
    B /= np.linalg.norm(B, 2)
    H = P + 0.5 * HERMITICITY * scale * (1.0 + defect_offset) * B
    return sp.signature[:, None] * H


_OFFSETS = [-0.9, -1e-2, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-2, 5.0]


@given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=10**6),
       st.lists(st.tuples(st.sampled_from([1e-3, 0.5, 1.0, 3.0, 1e3]), st.sampled_from(_OFFSETS),
                          st.sampled_from(_OFFSETS), st.booleans()), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_positive_rows_equal_the_full_computation_at_the_tolerance_edges(n, seed, rows):
    sp, rng = SignatureSpace(n), make_rng(seed)
    stack = np.stack([_edge_row(sp, rng, *row) for row in rows])
    assert _positive_rows(stack, sp.signature).tolist() == _positive_rows_full(stack, sp.signature).tolist()
    defect, scale = _defects_and_scales(stack, sp.signature)
    assert [is_symmetric(A, sp) for A in stack] == (defect <= HERMITICITY * scale).tolist()


def test_positive_rows_equal_the_full_computation_on_clear_edge_and_huge_stacks():
    sp, rng = SignatureSpace(2), make_rng(31)
    clear = np.stack([random_positive(sp, rng) for _ in range(20)])
    # Defects 1e-5 of the tolerance either side of it: offsets near 1e-9 are lost to the
    # rounding of the defect's norm, and such rows can land on either side.
    edge = np.stack([_edge_row(sp, rng, 1.0, offset, -0.9, False) for offset in (-1e-5, 1e-5)])
    assert _symmetric_rows(edge, sp.signature)[0].tolist() == [True, False]
    # Entries past 1e154 overflow a squared Frobenius norm; the SVD takes them.
    huge = 1e160 * clear[:2]
    for stack in (clear, edge, huge):
        assert _positive_rows(stack, sp.signature).tolist() == _positive_rows_full(stack, sp.signature).tolist()
    assert _positive_rows(clear, sp.signature).all() and _positive_rows(huge, sp.signature).all()
