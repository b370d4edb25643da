"""Exact linear algebra over prime fields GF(p).

Dense integer matrices with entries reduced modulo a prime p, 2 <= p < 2**16.
No floating point anywhere: row reduction uses modular inverses (extended
Euclid via ``pow(a, -1, p)``), so every result is exact and reproducible.

Echelon forms come in two pivot orders. The forward form is the usual
reduced row echelon form: the first nonzero column of row i is strictly
increasing in i, pivots are 1, pivot columns are cleared. The backward form
mirrors the column order, so the *last* nonzero column of row i is strictly
decreasing in i. Both are canonical for a given row space, which makes
subspace equality a structural comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import NonCanonicalBasisError, PreconditionError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of residues modulo a prime p, with 2 <= p < 2**16."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise PreconditionError(f"modulus must be an integer, got {self.p!r}")
        if not 2 <= self.p < 2**16:
            raise PreconditionError(f"modulus {self.p} out of range [2, 2**16)")
        if not _is_prime(self.p):
            raise PreconditionError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, -1, self.p)

    def residues(self, data) -> np.ndarray:
        """Copy arbitrary integer data into a reduced int64 array.

        The reduction itself makes the fresh array, so ``data`` is read
        without a copy of its own.
        """
        return np.asarray(data, dtype=np.int64) % self.p


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """An immutable rows x cols matrix over a prime field."""

    field: PrimeField
    data: np.ndarray

    def __post_init__(self):
        arr = self.field.residues(self.data)
        if arr.ndim != 2:
            raise PreconditionError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"FieldMatrix(p={self.field.p}, {self.data.tolist()})"


def _row_reduce(data: np.ndarray, p: int, pivot_limit: Optional[int] = None):
    """In-place-style Gauss-Jordan reduction of a copy; returns (rref, pivots).

    Pivot search is restricted to the first ``pivot_limit`` columns (row
    operations still apply to the full width), which supports augmented
    solving. Zero rows sink to the bottom; the output has the same shape.
    """
    m = data.copy()
    rows, cols = m.shape
    limit = cols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        if r == rows:
            break
        # one scan per column: its nonzero rows, the pivot the first at or below r
        nz = m[:, c].nonzero()[0]
        k = nz.searchsorted(r)
        if k == len(nz):
            continue
        i = int(nz[k])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        # the other nonzero rows keep their places: row i, now zero, is left out
        other = nz[nz != i]
        if len(other):
            rest = m[other]
            m[other] = (rest - rest[:, c, None] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


class EchelonForm(NamedTuple):
    matrix: "FieldMatrix"
    pivots: tuple[int, ...]
    rank: int


def echelonize(m: FieldMatrix, direction: str = "forward") -> EchelonForm:
    """Canonical echelon form of a matrix, in either pivot order.

    Args:
        m: matrix to reduce.
        direction: "forward" for the reduced row echelon form (first
            nonzero column strictly increasing per row), "backward" for the
            mirrored form (last nonzero column strictly decreasing per row).

    Returns:
        EchelonForm(matrix, pivots, rank) where ``pivots`` lists the pivot
        column of each nonzero row in row order and ``rank`` is the number
        of nonzero rows. The row space is preserved.
    """
    p = m.field.p
    if direction == "forward":
        red, piv = _row_reduce(m.data, p)
        return EchelonForm(FieldMatrix(m.field, red), tuple(piv), len(piv))
    if direction == "backward":
        red, piv = _row_reduce(m.data[:, ::-1], p)
        back = np.ascontiguousarray(red[:, ::-1])
        pivots = tuple(m.cols - 1 - c for c in piv)
        return EchelonForm(FieldMatrix(m.field, back), pivots, len(piv))
    raise PreconditionError(f"unknown echelon direction {direction!r}")


def matrix_rank(m: FieldMatrix) -> int:
    return len(_row_reduce(m.data, m.field.p)[1])


def _check_reduced(rows: np.ndarray) -> None:
    """Raise unless the rows form a reduced echelon basis (forward order).

    All rows are checked at once; the rows are walked only to word the
    first failure.
    """
    if rows.size:
        # each row's first nonzero column (0 for a zero row, which the
        # identity test refuses) must increase, and the rows at those
        # columns must form the identity: pivots 1, pivot columns cleared
        lead = (rows != 0).argmax(axis=1)
        at_lead = rows[:, lead]
        if (
            not np.count_nonzero(lead[1:] <= lead[:-1])
            and np.count_nonzero(at_lead) == np.count_nonzero(at_lead.diagonal() == 1) == len(rows)
        ):
            return
    elif not len(rows):
        return
    last = -1
    for row in rows:
        nz = np.flatnonzero(row)
        if nz.size == 0:
            raise NonCanonicalBasisError("basis contains a zero row")
        c = int(nz[0])
        if c <= last:
            raise NonCanonicalBasisError("pivot columns are not strictly increasing")
        if row[c] != 1:
            raise NonCanonicalBasisError("pivot entry is not 1")
        if np.count_nonzero(rows[:, c]) != 1:
            raise NonCanonicalBasisError(f"pivot column {c} is not cleared")
        last = c


class AxisProjection(NamedTuple):
    """A reduced basis R with pivot columns P, as one axis of an expansion needs it.

    ``proj`` is the n x n matrix with R's rows at P and zero rows
    elsewhere, ``free`` the columns outside P in increasing order, and row
    i of ``units`` is u_f = e_f - sum_j R[j, f] e_P[j] for f = free[i],
    so that I - proj is zero at P and holds u_f at each free column f.
    R u_f = R[:, f] - R[:, f] = 0, and u_f is the one unit row nonzero at
    f, so ``units`` is a basis of the kernel {x : R x = 0}: the kernels,
    completions and membership tests of this module
    (``kernel_basis``, ``few_zero_kernel_vector``, ``complete_basis``,
    ``Subspace.contains``) and ``decomposition_from_certificate`` read
    them from here. All three are read-only.
    """

    proj: np.ndarray
    free: np.ndarray
    units: np.ndarray


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of GF(p)^n stored as a reduced-echelon row basis.

    The canonical basis makes equality structural: two Subspace values are
    equal exactly when they describe the same subspace. ``projection`` is
    computed from the basis on first use and kept, so a subspace shared
    through ``grassmannian`` builds it once per process.
    """

    field: PrimeField
    ambient_dim: int
    basis: FieldMatrix

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise PreconditionError("ambient dimension must be nonnegative")
        if self.basis.field != self.field:
            raise PreconditionError("basis field does not match subspace field")
        if self.basis.cols != self.ambient_dim:
            raise PreconditionError(
                f"basis has {self.basis.cols} columns, ambient dimension is {self.ambient_dim}"
            )
        _check_reduced(self.basis.data)

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    @cached_property
    def projection(self) -> AxisProjection:
        """The basis as ``decomposition_from_certificate`` expands along it."""
        rows, n, p = self.basis.data, self.ambient_dim, self.field.p
        pivots = (rows != 0).argmax(axis=1) if n else np.zeros(0, dtype=np.intp)
        proj = np.zeros((n, n), dtype=np.int64)
        proj[pivots] = rows
        free = np.flatnonzero(~proj.any(axis=1))
        # row f of proj is zero, so u_f is 1 at f and -proj[:, f] elsewhere
        units = (-proj[:, free].T) % p
        units[np.arange(len(free)), free] = 1
        return AxisProjection(_freeze(proj), _freeze(free), _freeze(units))

    @classmethod
    def from_rows(cls, field: PrimeField, rows, ambient_dim: Optional[int] = None) -> "Subspace":
        """Span of arbitrary rows, canonicalized to the reduced basis."""
        arr = field.residues(rows)
        if arr.ndim != 2:
            raise PreconditionError("expected a 2-dimensional array of rows")
        n = arr.shape[1] if ambient_dim is None else ambient_dim
        if arr.shape[1] != n:
            raise PreconditionError("row length does not match ambient dimension")
        red, piv = _row_reduce(arr, field.p)
        return cls(field, n, FieldMatrix(field, red[: len(piv)]))

    @classmethod
    def full(cls, field: PrimeField, n: int) -> "Subspace":
        return cls(field, n, FieldMatrix.identity(field, n))

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "Subspace":
        return cls(field, n, FieldMatrix.zeros(field, 0, n))

    def contains(self, vector) -> bool:
        """Whether the vector is in the row space, that is, orthogonal to every kernel unit row.

        A vector of any other length than the ambient dimension raises
        PreconditionError.
        """
        v = self.field.residues(vector).reshape(-1)
        if len(v) != self.ambient_dim:
            raise PreconditionError(
                f"vector of length {len(v)} in an ambient space of dimension {self.ambient_dim}"
            )
        return not (self.projection.units @ v % self.field.p).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(p={self.field.p}, n={self.ambient_dim}, basis={self.basis.data.tolist()})"


def kernel_basis(m: FieldMatrix) -> Subspace:
    """The right kernel {x : m @ x = 0}, spanned by the unit rows of m's reduced basis."""
    return Subspace.from_rows(m.field, Subspace.from_rows(m.field, m.data).projection.units)


# All functionals u with u . v = 0 for every row v of a matrix; codim = rank.
annihilator = kernel_basis


def complete_basis(s: Subspace) -> FieldMatrix:
    """Extend a subspace basis to an invertible n x n matrix.

    The first dim(s) rows are the canonical basis of s; the remaining rows
    are the standard basis vectors at its free columns, in index order, so
    the completion is deterministic.
    """
    unit_rows = np.eye(s.ambient_dim, dtype=np.int64)[s.projection.free]
    return FieldMatrix(s.field, np.vstack([s.basis.data, unit_rows]))


class FewZeroVector(NamedTuple):
    vector: np.ndarray
    degenerate: bool


def few_zero_kernel_vector(constraints: FieldMatrix) -> FewZeroVector:
    """A kernel vector of the constraint matrix with few zero coordinates.

    The sum of the unit rows of the constraints' reduced basis: it is 1 at
    every free coordinate, so it satisfies ``constraints @ h = 0`` and has
    at most rank(constraints) zeros, since only pivot coordinates can
    vanish. When the constraints have full column rank there are no unit
    rows and the only kernel vector is zero; that case is flagged as
    degenerate.
    """
    p = constraints.field.p
    units = Subspace.from_rows(constraints.field, constraints.data).projection.units
    return FewZeroVector(_freeze(units.sum(axis=0) % p), not len(units))


def invert_matrix(m: FieldMatrix) -> FieldMatrix:
    """Inverse of a square matrix, the solution of m @ x = I; raises if singular."""
    if m.rows != m.cols:
        raise PreconditionError("only square matrices can be inverted")
    inverse = solve_right(m, np.eye(m.rows, dtype=np.int64))
    if inverse is None:
        raise PreconditionError("matrix is singular")
    return FieldMatrix(m.field, inverse)


def solve_right(a: FieldMatrix, rhs) -> Optional[np.ndarray]:
    """One solution x of a @ x = rhs with free variables set to 0, or None.

    ``rhs`` may be a vector (length = a.rows) or a matrix with a.rows rows;
    the result matches its shape.
    """
    p = a.field.p
    b = a.field.residues(rhs)
    single = b.ndim == 1
    if single:
        b = b.reshape(-1, 1)
    if b.shape[0] != a.rows:
        raise PreconditionError("right-hand side has the wrong number of rows")
    aug = np.hstack([a.data, b])
    red, piv = _row_reduce(aug, p, pivot_limit=a.cols)
    if np.any(red[len(piv):, a.cols:]):
        return None
    x = np.zeros((a.cols, b.shape[1]), dtype=np.int64)
    for i, c in enumerate(piv):
        x[c] = red[i, a.cols:]
    return x[:, 0] if single else x


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n, as an exact integer."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@lru_cache(maxsize=None)
def count_subspaces(n: int, p: int) -> int:
    """Total number of subspaces of GF(p)^n, every dimension included; memoized."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


@lru_cache(maxsize=None)
def _grassmannian_stack(p: int, ambient_dim: int, dim: int) -> np.ndarray:
    """All dim-dimensional reduced bases, transposed and stacked as (count, n, dim).

    Read-only and memoized. Built one pivot-column profile at a time, the
    profiles in lexicographic order: every basis of a profile has 1 at row
    i, column pivots[i], and its free entries (right of each row's pivot,
    outside the pivot columns) take every value in odometer order, the
    last free entry moving fastest, all in one array assignment.
    """
    n, k = ambient_dim, dim
    blocks = []
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [(j, i) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivot_set]
        block = np.zeros((p ** len(free), n, k), dtype=np.int64)
        block[:, pivots, range(k)] = 1
        if free:
            cols, rows = zip(*free)
            block[:, cols, rows] = np.indices((p,) * len(free)).reshape(len(free), -1).T
        blocks.append(block)
    return _freeze(np.concatenate(blocks))


def enumerate_subspaces(field: PrimeField, ambient_dim: int, dim: int) -> Iterator[Subspace]:
    """All dim-dimensional subspaces of GF(p)^ambient_dim, canonically ordered.

    Reduced bases are generated by pivot-column profile (profiles in
    lexicographic order), then by the free entries counting in odometer
    order with the last free position moving fastest. The enumeration is
    duplicate-free and stable, so "first subspace found" is well defined.
    The bases are the rows of ``_grassmannian_stack``, in its order.
    """
    if not 0 <= dim <= ambient_dim:
        raise PreconditionError(f"dimension {dim} out of range for ambient {ambient_dim}")
    for basis in _grassmannian_stack(field.p, ambient_dim, dim):
        yield Subspace(field, ambient_dim, FieldMatrix(field, basis.T))


@lru_cache(maxsize=None)
def grassmannian(p: int, ambient_dim: int, dim: int) -> tuple[Subspace, ...]:
    """Memoized tuple of all subspaces of a given dimension, in canonical order."""
    return tuple(enumerate_subspaces(PrimeField(p), ambient_dim, dim))
