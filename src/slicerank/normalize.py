"""Rebasing and triangular normalization of order-3 slice decompositions.

Given a decomposition whose per-axis vectors are linearly independent, one
can choose biorthogonal dual functionals and re-derive the cotensors so
that the dual functionals of every earlier axis annihilate the cotensors of
every later axis. The tool is a family of commuting projections, one per
axis: P projects onto the span of the axis vectors, Q = I - P, and the
telescoping T = P1 T + P2 Q1 T + P3 Q2 Q1 T rebuilds the decomposition in
staircase form. Scoped to order 3, where the construction is shipped and
tested end to end.
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

    First rebases each axis's terms onto the echelon basis of their span,
    so the per-axis vectors become independent and the term counts equal
    the per-axis ranks. Then telescopes through the axis projections built
    from deterministic dual functionals. The result evaluates to the same
    tensor and satisfies the staircase orthogonality on every axis pair.
    """
    if len(dec.shape) != 3:
        raise PreconditionError("triangular normalization is implemented for order 3")
    field = dec.field
    p = field.p

    families: list[FieldMatrix] = []
    duals: list[FieldMatrix] = []
    rebased: list[SliceTerm] = []
    for axis, n in enumerate(dec.shape):
        terms = dec.terms_on_axis(axis)
        if terms:
            stack = FieldMatrix(field, np.vstack([t.u for t in terms]))
            red, piv = _row_reduce(stack.data, p)
            basis = FieldMatrix(field, red[: len(piv)])
            b_new = rebase_terms(stack, [t.v for t in terms], basis)
            rebased.extend(
                SliceTerm(axis, basis.data[j].copy(), b_new[j]) for j in range(basis.rows)
            )
        else:
            basis = FieldMatrix.zeros(field, 0, n)
        families.append(basis)
        duals.append(
            dual_family(basis) if basis.rows else FieldMatrix.zeros(field, 0, n)
        )

    residual = evaluate_decomposition(
        SliceDecomposition(field, dec.shape, tuple(rebased))
    ).data
    new_terms: list[SliceTerm] = []
    cotensors: dict[int, list[np.ndarray]] = {}
    for axis in range(3):
        fam = families[axis]
        if fam.rows == 0:
            cotensors[axis] = []
            continue
        coeff = mode_product(residual, duals[axis].data, axis, p)
        axis_cots = []
        for j in range(fam.rows):
            v = np.take(coeff, j, axis=axis).copy()
            axis_cots.append(v)
            new_terms.append(SliceTerm(axis, fam.data[j].copy(), v))
        cotensors[axis] = axis_cots
        proj = mode_product(coeff, fam.data.T, axis, p)
        residual = (residual - proj) % p
    if residual.any():
        raise SliceRankError("projections left a nonzero residual")

    verified: list[tuple[int, int]] = []
    for s in range(3):
        for t_axis in range(s + 1, 3):
            for cot in cotensors[t_axis]:
                # axis s keeps position s inside a cotensor missing axis t > s
                against = mode_product(cot, duals[s].data, s, p)
                if against.any():
                    raise SliceRankError(
                        f"staircase orthogonality failed for axes ({s}, {t_axis})"
                    )
            verified.append((s, t_axis))

    normalized = SliceDecomposition(field, dec.shape, tuple(new_terms))
    return NormalizedDecomposition(normalized, tuple(duals), tuple(verified))
