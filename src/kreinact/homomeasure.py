"""Finitely supported positive operator-valued measures on a momentum box.

A measure is a finite family of atoms ``(p_j, A_j)`` with momenta inside a
compact box ``K`` and positive operators ``A_j`` on a
:class:`~kreinact.krein.SignatureSpace`.  The module provides the constraint
functionals (trace, eigenvalue-modulus sum, signed trace), the variation
measure, the particle/neutral/sea decomposition, translations and scalings,
the Dirac-sea and massless fixtures, and a versioned JSON serialization with
bit-exact float round trips.
"""

from __future__ import annotations

import errno
import json
import numbers
import os
import stat
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError, _check_count, _check_real, _entries, _four_vector, _reals
from .krein import SignatureSpace, _positive_rows, _scale, positive_spectrum, spectral_split

__all__ = [
    "MomentumBox",
    "OperatorMeasure",
    "MeasureDecomposition",
    "ConstraintValues",
    "constraint_values",
    "decompose",
    "variation_measure",
    "translate",
    "scale",
    "dirac_sea_fixture",
    "massless_fixture",
    "random_measure",
    "gamma_matrices",
    "feynman_slash",
    "measure_to_dict",
    "measure_from_dict",
    "save_measure",
    "load_measure",
    "save_operator",
    "load_operator",
]

MEASURE_FORMAT = "kreinact-measure"
OPERATOR_FORMAT = "kreinact-operator"
FORMAT_VERSION = 1

_CONTAINMENT_TOL = 1e-9


@dataclass(frozen=True)
class MomentumBox:
    """Axis-aligned compact box in 4-dimensional momentum space.

    ``grid_shape`` fixes a regular grid: per axis, ``k`` evenly spaced points
    spanning ``[lower, upper]`` (the midpoint when ``k == 1``).
    """

    lower: tuple
    upper: tuple
    grid_shape: tuple

    def __post_init__(self):
        message = "momentum box requires 4-dimensional bounds and grid shape"
        lower, upper, shape = (_entries(v, 4, message) for v in (self.lower, self.upper, self.grid_shape))
        lower = tuple(_check_real(x, "momentum box lower bound") for x in lower)
        upper = tuple(_check_real(x, "momentum box upper bound") for x in upper)
        if not all(l < u for l, u in zip(lower, upper)):
            raise ValidationError(
                f"box bounds must have upper above lower componentwise, got lower={lower}, upper={upper}"
            )
        message = f"grid shape entries must be >= 1 and integers, got {shape!r}"
        shape = tuple(_check_count(k, 1, message) for k in shape)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "grid_shape", shape)

    def axis_points(self, axis: int) -> np.ndarray:
        k = self.grid_shape[axis]
        lo, hi = self.lower[axis], self.upper[axis]
        if k == 1:
            return np.array([0.5 * (lo + hi)])
        return np.linspace(lo, hi, k)

    def grid_points(self) -> np.ndarray:
        """All grid points as an ``(N, 4)`` array in row-major axis order."""
        axes = [self.axis_points(i) for i in range(4)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)

    def contains(self, p: np.ndarray) -> bool:
        return bool(self._inside(np.asarray(p, float)).all())

    def _inside(self, points: np.ndarray) -> np.ndarray:
        """Per row: inside the box padded by ``_CONTAINMENT_TOL`` times its span (at least 1)."""
        lower, upper = np.asarray(self.lower), np.asarray(self.upper)
        pad = _CONTAINMENT_TOL * np.maximum(upper - lower, 1.0)
        return np.all((points >= lower - pad) & (points <= upper + pad), axis=-1)


class OperatorMeasure:
    """Finitely supported positive operator-valued measure on a momentum box.

    Parameters
    ----------
    space : SignatureSpace
    box : MomentumBox
    momenta : array, shape (k, 4)
        Pairwise distinct atom locations inside the box.
    operators : array, shape (k, 2n, 2n)
        Positive operators attached to the atoms.
    """

    def __init__(
        self,
        space: SignatureSpace,
        box: MomentumBox,
        momenta: np.ndarray,
        operators: np.ndarray,
        *,
        validate: bool = True,
    ):
        momenta = np.atleast_2d(_reals(momenta, "atom momenta"))
        operators = np.asarray(operators, complex)
        if momenta.size == 0:
            momenta = momenta.reshape(0, 4)
            operators = operators.reshape(0, space.dim, space.dim)
        if operators.ndim == 2:
            operators = operators[None]
        if momenta.shape[0] != operators.shape[0]:
            raise ValidationError("number of momenta and operators must agree")
        if momenta.shape[1:] != (4,):
            raise ValidationError("atom momenta must be 4-vectors")
        if operators.shape[1:] != (space.dim, space.dim):
            raise ValidationError(
                f"operators must have shape ({space.dim}, {space.dim}) for this space"
            )
        self.space = space
        self.box = box
        self.momenta = momenta
        self.operators = operators
        if validate:
            self._validate()

    def _validate(self):
        outside = np.nonzero(~self.box._inside(self.momenta))[0]
        if len(outside):
            j = outside[0]
            raise ValidationError(f"atom {j} at {self.momenta[j]} lies outside the momentum box")
        finite = np.isfinite(self.operators).all(axis=(1, 2))
        ops = np.where(finite[:, None, None], self.operators, 0.0)
        bad = np.nonzero(~(finite & _positive_rows(ops, self.space.signature)))[0]
        if len(bad):
            if not finite[bad[0]]:
                raise ValidationError("operator contains non-finite entries")
            raise ValidationError(f"atom {bad[0]} carries a non-positive operator")
        if len(self.momenta) > 1:
            span = np.linalg.norm(np.asarray(self.box.upper) - np.asarray(self.box.lower))
            d = self.momenta[:, None, :] - self.momenta[None, :, :]
            dist = np.linalg.norm(d, axis=2)
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= 1e-12 * max(span, 1.0):
                raise ValidationError("atom momenta must be pairwise distinct")

    @property
    def n_atoms(self) -> int:
        return len(self.momenta)

    def atoms(self) -> Iterator[tuple]:
        return zip(self.momenta, self.operators)

    def total(self) -> np.ndarray:
        return self.operators.sum(axis=0)

    def with_operators(self, operators: np.ndarray, *, validate: bool = True) -> "OperatorMeasure":
        return OperatorMeasure(self.space, self.box, self.momenta.copy(), operators, validate=validate)

    def __repr__(self):
        return (
            f"OperatorMeasure(n={self.space.n}, atoms={self.n_atoms}, "
            f"box=[{self.box.lower}, {self.box.upper}])"
        )


@dataclass(frozen=True)
class MeasureDecomposition:
    """Particle/neutral/sea components of a measure (atomwise spectral split)."""

    particle: OperatorMeasure
    neutral: OperatorMeasure
    sea: OperatorMeasure


@dataclass(frozen=True)
class ConstraintValues:
    """Values of the three constraint functionals of a measure."""

    trace: float
    dim_sum: float
    mod_dim: float


def _check_targets(c: float, f: float) -> None:
    """Reject constraint targets that are not real numbers with ``0 < c < f`` (NaN
    included), then any that is not a finite float."""
    if not (isinstance(c, numbers.Real) and isinstance(f, numbers.Real) and 0.0 < c < f):
        raise ValidationError(f"constraint targets must satisfy 0 < c < f, got c={c}, f={f}")
    _check_real(c, "c")
    _check_real(f, "f")


def _trace_functionals(total: np.ndarray, space: SignatureSpace) -> tuple:
    """``(Tr total, Tr(S total))`` as complex scalars; both are real for a positive total."""
    return total.trace(), (space.signature[:, None] * total).trace()


def constraint_values(measure: OperatorMeasure) -> ConstraintValues:
    """Trace, eigenvalue-modulus sum, and signed trace of the total operator.

    The total ``A`` of a positive measure is positive, so its spectrum is
    real and comes exactly from the Hermitian congruence
    ``Y = R S R`` with ``R = sqrt(S A)`` (:func:`~kreinact.krein.positive_spectrum`);
    a Jordan block at zero gives zeros up to the square root of rounding
    times ``||A||``.  The bound ``dim_sum <= mod_dim``
    follows: ``sum |lambda| = ||R S R||_1 <= ||R||_F^2 = Tr(S A)``.
    """
    total = measure.total()
    tr, mod_dim = _trace_functionals(total, measure.space)
    scale = _scale(total)
    if abs(tr.imag) > 1e-9 * scale or abs(mod_dim.imag) > 1e-9 * scale:
        raise ValidationError("constraint functionals of a positive measure must be real")
    dim_sum = float(np.sum(np.abs(positive_spectrum(total, measure.space))))
    return ConstraintValues(trace=float(tr.real), dim_sum=dim_sum, mod_dim=float(mod_dim.real))


def variation_measure(measure: OperatorMeasure) -> list:
    """The scalar variation measure: ``[(p_j, ||A_j||), ...]``.

    For a finitely supported measure the supremum over partitions is attained
    atomwise.  The norm is the operator 2-norm of ``S @ A`` (sharp for the
    Hermitian representative).
    """
    sig = measure.space.signature
    return [(p.copy(), float(np.linalg.norm(sig[:, None] * A, 2))) for p, A in measure.atoms()]


def decompose(measure: OperatorMeasure) -> MeasureDecomposition:
    """Split a measure into particle, neutral, and sea components.

    Each atom ``A_j`` is spectrally split (:func:`~kreinact.krein.spectral_split`,
    whose zero threshold is relative to ``||A_j||``, so a zero atom splits
    into zeros); the plus part (positive definite image) goes into the
    particle component, the minus part into the sea, and the zero spectral
    part into the neutral component.  All three components keep the full
    atom support (with zero operators where a component vanishes) so that
    the atomwise reconstruction is literal.
    """
    splits = [spectral_split(A, measure.space) for A in measure.operators]

    def build(part: str) -> OperatorMeasure:
        return measure.with_operators(np.asarray([getattr(s, part) for s in splits], complex))

    return MeasureDecomposition(particle=build("plus"), neutral=build("zero"), sea=build("minus"))


def translate(measure: OperatorMeasure, shift: Sequence[float]) -> OperatorMeasure:
    """Shift all atom momenta (and the box) by a fixed 4-vector."""
    shift = _four_vector(shift, "translation shift")
    box = MomentumBox(np.add(measure.box.lower, shift), np.add(measure.box.upper, shift), measure.box.grid_shape)
    return OperatorMeasure(measure.space, box, measure.momenta + shift[None, :], measure.operators.copy())


def scale(measure: OperatorMeasure, factor: float) -> OperatorMeasure:
    """Rescale all atom operators by a positive factor."""
    return measure.with_operators(measure.operators * _check_real(factor, "scale factor", 0))


def gamma_matrices() -> dict:
    """The four gamma matrices in the standard (Dirac) representation."""
    I2 = np.eye(2)
    Z2 = np.zeros((2, 2))
    sx = np.array([[0, 1], [1, 0]], complex)
    sy = np.array([[0, -1j], [1j, 0]], complex)
    sz = np.array([[1, 0], [0, -1]], complex)
    g0 = np.block([[I2, Z2], [Z2, -I2]]).astype(complex)
    gs = [np.block([[Z2, s], [-s, Z2]]).astype(complex) for s in (sx, sy, sz)]
    return {0: g0, 1: gs[0], 2: gs[1], 3: gs[2]}


def feynman_slash(p: np.ndarray) -> np.ndarray:
    """Contraction ``p_mu gamma^mu`` with metric signature (+,-,-,-)."""
    g = gamma_matrices()
    p = np.asarray(p, float)
    return p[0] * g[0] - p[1] * g[1] - p[2] * g[2] - p[3] * g[3]


_SHELL_TOL = 1e-8


def _point_rows(points, width: int, name: str, message: str) -> np.ndarray:
    """A fixture's ``points`` (any iterable, or one point) as rows of ``width`` floats; else ValidationError."""
    rows = np.atleast_2d(_reals(_entries(points, None, message), name))
    if rows.shape[1:] != (width,):
        raise ValidationError(message)
    return rows


def _shell_measure(momenta: np.ndarray, ops: list) -> OperatorMeasure:
    lower = momenta.min(axis=0)
    upper = momenta.max(axis=0)
    span = np.maximum(upper - lower, 1.0)
    box = MomentumBox(lower - 0.05 * span, upper + 0.05 * span, (2, 2, 2, 2))
    return OperatorMeasure(SignatureSpace(2), box, momenta, np.asarray(ops))


def dirac_sea_fixture(mass: float, shell_points: Iterable[Sequence[float]]) -> OperatorMeasure:
    """Measure with atoms ``A = -(pslash + m)`` on the lower mass shell.

    Each momentum must satisfy ``p^2 = m^2`` (Minkowski square) with
    ``p^0 < 0`` within a relative shell tolerance.  The resulting atoms are
    positive with eigenvalues in ``{0, -2m}`` — a sea measure.
    """
    mass = _check_real(mass, "mass", 0)
    momenta = _point_rows(shell_points, 4, "shell points", "shell points must be 4-vectors")
    ops = []
    for p in momenta:
        msq = p[0] ** 2 - p[1] ** 2 - p[2] ** 2 - p[3] ** 2
        if abs(msq - mass**2) > _SHELL_TOL * max(mass**2, 1.0) or p[0] >= 0:
            raise ValidationError(
                f"momentum {p} is not on the lower mass shell for mass {mass}"
            )
        ops.append(-(feynman_slash(p) + mass * np.eye(4)))
    return _shell_measure(momenta, ops)


def massless_fixture(wave_vectors: Iterable[Sequence[float]]) -> OperatorMeasure:
    """Measure with nilpotent atoms ``A = -pslash`` on the lower light cone."""
    ks = _point_rows(wave_vectors, 3, "wave vectors", "wave vectors must be spatial 3-vectors")
    momenta = []
    ops = []
    for k in ks:
        E = float(np.linalg.norm(k))
        if E == 0.0:
            raise ValidationError("wave vectors must be nonzero")
        p = np.array([-E, k[0], k[1], k[2]])
        momenta.append(p)
        ops.append(-feynman_slash(p))
    return _shell_measure(np.asarray(momenta), ops)


def random_measure(
    space: SignatureSpace, box: MomentumBox, n_atoms: int, rng: np.random.Generator
) -> OperatorMeasure:
    """Random measure: atoms at distinct uniform momenta with ``A = S M^H M``."""
    lower = np.asarray(box.lower)
    upper = np.asarray(box.upper)
    momenta = lower + (upper - lower) * rng.random((n_atoms, 4))
    d = space.dim
    ops = []
    for _ in range(n_atoms):
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M *= np.sqrt(1.0 / d)
        ops.append(space.signature[:, None] * (M.conj().T @ M))
    return OperatorMeasure(space, box, momenta, np.asarray(ops))


# ---------------------------------------------------------------------------
# Serialization (versioned JSON; floats round-trip bit-exactly via repr)
# ---------------------------------------------------------------------------

def _matrix_to_lists(A: np.ndarray) -> dict:
    return {
        "re": [[float(x) for x in row] for row in A.real],
        "im": [[float(x) for x in row] for row in A.imag],
    }


def _matrix_from_lists(d: dict) -> np.ndarray:
    return np.asarray(d["re"], float) + 1j * np.asarray(d["im"], float)


def measure_to_dict(measure: OperatorMeasure) -> dict:
    return {
        "format": MEASURE_FORMAT,
        "version": FORMAT_VERSION,
        "n": measure.space.n,
        "box": {
            "lower": list(measure.box.lower),
            "upper": list(measure.box.upper),
            "grid_shape": list(measure.box.grid_shape),
        },
        "atoms": [
            {"p": [float(x) for x in p], "A": _matrix_to_lists(A)}
            for p, A in measure.atoms()
        ],
    }


def _check_format(data: dict, fmt: str, version: int, kind: str) -> None:
    """Reject a document whose ``format`` is not ``fmt`` or whose ``version`` is not ``version``."""
    if data.get("format") != fmt:
        raise ValidationError(f"not a {fmt} document: format={data.get('format')!r}")
    if data.get("version") != version:
        raise ValidationError(f"unsupported {kind} format version {data.get('version')!r}")


def measure_from_dict(data: dict) -> OperatorMeasure:
    _check_format(data, MEASURE_FORMAT, FORMAT_VERSION, "measure")
    space = SignatureSpace(data["n"])
    boxd = data["box"]
    box = MomentumBox(boxd["lower"], boxd["upper"], boxd["grid_shape"])
    atoms = data.get("atoms", [])
    momenta = np.asarray([a["p"] for a in atoms], float).reshape(len(atoms), 4)
    ops = np.asarray([_matrix_from_lists(a["A"]) for a in atoms], complex).reshape(
        len(atoms), space.dim, space.dim
    )
    return OperatorMeasure(space, box, momenta, ops)


def save_measure(measure: OperatorMeasure, path) -> None:
    """Write a measure as a versioned JSON document (bit-exact round trip)."""
    _write_document(path, measure_to_dict(measure))


def _write_document(path, doc: dict, sort_keys: bool = False) -> None:
    """Write ``doc`` to ``path`` as JSON indented by one, ending in a newline, in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n")


def _write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a ``header`` line, then one line per row of Python numbers by ``repr``; LF ends, one write."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_writable(path) -> None:
    """Raise the ``OSError``, naming ``path``, that writing a file there would raise.

    Covers a directory at ``path`` and a parent that is missing or is not a
    directory, so that a command refuses an output path before it computes
    what it would write.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        parent_is_directory = stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode)
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None
    if not parent_is_directory:
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _read_document(path, kind: str, build):
    """Parse the JSON file at ``path`` and return ``build(document)``.

    One rule covers every defect of the contents: bytes that are not UTF-8,
    invalid JSON, a document that is not a JSON object, and a missing or
    ill-typed field or a failed check inside ``build`` (a ``KeyError``,
    ``TypeError``, ``IndexError``, ``OverflowError`` or ``ValueError``, the
    package's own :class:`ValidationError` included) raise a :class:`ValidationError`
    that names ``kind`` and the file and keeps the original message.  An
    ``OSError`` (a missing file, a directory) passes through; it names the
    path itself.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError(f"the document is a JSON {type(data).__name__}, not an object")
        return build(data)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as err:
        raise ValidationError(f"malformed {kind} file {path}: {type(err).__name__}: {err}") from err


def load_measure(path) -> OperatorMeasure:
    """Read a measure written by :func:`save_measure`."""
    return _read_document(path, "measure", measure_from_dict)


def save_operator(A: np.ndarray, space: SignatureSpace, path) -> None:
    """Write a single operator as a versioned JSON document."""
    doc = {
        "format": OPERATOR_FORMAT,
        "version": FORMAT_VERSION,
        "n": space.n,
        "matrix": _matrix_to_lists(np.asarray(A, complex)),
    }
    _write_document(path, doc)


def _operator_from_dict(data: dict) -> tuple:
    _check_format(data, OPERATOR_FORMAT, FORMAT_VERSION, "operator")
    space = SignatureSpace(data["n"])
    return space.check_operator(_matrix_from_lists(data["matrix"])), space


def load_operator(path) -> tuple:
    """Read an operator document; returns ``(matrix, space)``."""
    return _read_document(path, "operator", _operator_from_dict)
