"""Rebasing and triangular normalization of order-3 slice decompositions.

Given a decomposition whose per-axis vectors are linearly independent, one
can choose biorthogonal dual functionals and re-derive the cotensors so
that the dual functionals of every earlier axis annihilate the cotensors of
every later axis. The tool is a family of commuting projections, one per
axis: P projects onto the span of the axis vectors, Q = I - P, and the
telescoping T = P1 T + P2 Q1 T + P3 Q2 Q1 T rebuilds the decomposition in
staircase form. ``triangular_normalize`` runs it in one pass at the pivots
of each axis's echelon basis: the duals of an echelon basis are the unit
rows at its pivots, so every projection coefficient is a slice of the
residual, and the input terms are never rebased, since rebasing does not
change the tensor the pass reads. ``rebase_terms``, ``dual_family`` and the
axis projections are the general pieces, for families in any position.
Scoped to order 3, where the construction is shipped and tested end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError, SliceRankError
from .linalg import FieldMatrix, solve_right, _row_reduce
from .tensor import (
    SliceDecomposition,
    SliceTerm,
    Tensor,
    evaluate_decomposition,
    mode_product,
)


@dataclass(frozen=True, eq=False)
class NormalizedDecomposition:
    """A staircase-orthogonal decomposition with its dual functionals.

    ``duals[i]`` holds one row per axis-i term, biorthogonal to the term
    vectors. ``orthogonality`` lists the verified axis pairs (s, t), s < t:
    every axis-s dual contracted against the axis-s coordinate of every
    axis-t cotensor gives zero.
    """

    decomposition: SliceDecomposition
    duals: tuple[FieldMatrix, ...]
    orthogonality: tuple[tuple[int, int], ...]


def rebase_terms(
    a: FieldMatrix, b: Sequence[np.ndarray], a_new: FieldMatrix
) -> list[np.ndarray]:
    """Rewrite sum_i a_i x b_i over a new spanning family.

    Solves a_i = sum_j theta_ij a_new_j and returns b_new_j = sum_i
    theta_ij b_i, one cotensor per new vector, so the evaluated tensor is
    unchanged. Requires the span of the new family to contain every a_i.
    With no input terms the result is empty.
    """
    if a.rows != len(b):
        raise PreconditionError("need one cotensor per vector")
    if a.cols != a_new.cols or a.field != a_new.field:
        raise PreconditionError("vector families live in different spaces")
    p = a.field.p
    theta_t = solve_right(FieldMatrix(a.field, a_new.data.T), a.data.T)
    if theta_t is None:
        raise PreconditionError("new family does not span the old vectors")
    if not b:
        return []
    theta = theta_t.T  # theta[i, j]: coefficient of a_new_j in a_i
    stack = np.stack([a.field.residues(x) for x in b])
    return [
        np.tensordot(theta[:, j], stack, axes=([0], [0])) % p
        for j in range(a_new.rows)
    ]


def dual_family(vectors: FieldMatrix) -> FieldMatrix:
    """Biorthogonal dual functionals for independent rows.

    One reduction of [V | I] with pivots in V's columns gives [R | G] with
    G V = R, the reduced echelon form of V, whose pivot columns hold the
    identity. So G V[:, pivots] = I, and the duals are G^T at the pivot
    columns and zero elsewhere: the unique biorthogonal family that
    vanishes on the unit vectors at the free columns, so the choice is
    deterministic.
    """
    p = vectors.field.p
    k, n = vectors.rows, vectors.cols
    red, piv = _row_reduce(np.hstack([vectors.data, np.eye(k, dtype=np.int64)]), p, pivot_limit=n)
    if len(piv) != k:
        raise PreconditionError("vectors are linearly dependent")
    duals = np.zeros((k, n), dtype=np.int64)
    duals[:, piv] = red[:, n:].T
    return FieldMatrix(vectors.field, duals)


def _check_biorthogonal(vectors: FieldMatrix, duals: FieldMatrix) -> None:
    p = vectors.field.p
    if duals.rows != vectors.rows or duals.cols != vectors.cols:
        raise PreconditionError("dual family shape does not match the vectors")
    gram = (duals.data @ vectors.data.T) % p
    if not np.array_equal(gram, np.eye(vectors.rows, dtype=np.int64)):
        raise PreconditionError("families are not biorthogonal")


def axis_projection(t: Tensor, axis: int, vectors: FieldMatrix, duals: FieldMatrix) -> Tensor:
    """Project onto the given axis family: sum_j vectors_j x (duals_j . t)."""
    if not 0 <= axis < t.order:
        raise PreconditionError(f"axis {axis} out of range")
    if vectors.cols != t.shape[axis]:
        raise PreconditionError("family length does not match the axis size")
    _check_biorthogonal(vectors, duals)
    p = t.field.p
    coeff = mode_product(t.data, duals.data, axis, p)
    proj = mode_product(coeff, vectors.data.T, axis, p)
    return Tensor(t.field, t.shape, proj)


def axis_projection_complement(
    t: Tensor, axis: int, vectors: FieldMatrix, duals: FieldMatrix
) -> Tensor:
    """The complementary projection: t minus its axis projection."""
    proj = axis_projection(t, axis, vectors, duals)
    return Tensor(t.field, t.shape, (t.data - proj.data) % t.field.p)


def triangular_normalize(dec: SliceDecomposition) -> NormalizedDecomposition:
    """Normalize an order-3 decomposition into staircase form.

    One telescoping pass over the axes, starting from the evaluated tensor
    as the residual. Each axis with terms row-reduces its term vectors once,
    to the echelon basis F of their span with pivot columns P, so the term
    counts equal the per-axis ranks. The input terms are not rebased onto
    F: rebasing never changes the evaluated tensor, the only thing the pass
    reads. The duals of F are the unit rows at P (``dual_family`` of an
    echelon basis), so the projection coefficients are the residual's
    slices at P: they are the new cotensors, and the residual loses F^T
    times them. The staircase orthogonality of axes s < t is that every
    axis-t cotensor vanishes at P_s on axis s; it is checked, and so is the
    final zero residual.
    """
    if len(dec.shape) != 3:
        raise PreconditionError("triangular normalization is implemented for order 3")
    field = dec.field
    p = field.p

    residual = evaluate_decomposition(dec).data
    new_terms: list[SliceTerm] = []
    duals: list[FieldMatrix] = []
    pivots: list[list[int]] = []
    for axis, n in enumerate(dec.shape):
        terms = dec.terms_on_axis(axis)
        red, piv = _row_reduce(np.vstack([t.u for t in terms]), p) if terms else (None, [])
        duals.append(FieldMatrix(field, np.eye(n, dtype=np.int64)[piv]))
        pivots.append(piv)
        if not piv:
            continue
        basis = red[: len(piv)]
        cotensors = np.take(residual, piv, axis=axis)
        for s in range(axis):  # earlier axes keep their positions in the slices
            if np.take(cotensors, pivots[s], axis=s).any():
                raise SliceRankError(f"staircase orthogonality failed for axes ({s}, {axis})")
        new_terms.extend(
            SliceTerm(axis, basis[j], np.take(cotensors, j, axis=axis)) for j in range(len(piv))
        )
        residual = (residual - mode_product(cotensors, basis.T, axis, p)) % p
    if residual.any():
        raise SliceRankError("projections left a nonzero residual")

    normalized = SliceDecomposition(field, dec.shape, tuple(new_terms))
    return NormalizedDecomposition(normalized, tuple(duals), ((0, 1), (0, 2), (1, 2)))
