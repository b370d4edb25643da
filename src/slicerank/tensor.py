"""Dense d-tensors over a prime field, with contractions and direct sums.

A Tensor is a function on a product of index ranges, stored as a dense
row-major integer array with entries in [0, p). Order d >= 2 is enforced at
construction; order-1 values only ever appear as contraction results and
are returned as plain vectors. Indices are 0-based everywhere inside the
package; file formats and the CLI use 1-based indices.

Block structures keep their shape, offsets and per-index block numbers
once computed, and direct sums and block components are laid out through
them. The block upper triangular check is one mask built from the block
numbers, and the random block upper triangular generator visits only the
nondecreasing indices of blocks nonempty on every axis, at most one per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, permutations, product
from math import prod
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import PreconditionError
from .linalg import FieldMatrix, PrimeField, _freeze


@dataclass(frozen=True, eq=False)
class Tensor:
    """An immutable dense tensor of order >= 2 over GF(p)."""

    field: PrimeField
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) < 2:
            raise PreconditionError(f"tensor order must be at least 2, got shape {shape}")
        if any(n < 0 for n in shape):
            raise PreconditionError(f"negative axis size in shape {shape}")
        arr = self.field.residues(self.data)
        if arr.shape != shape:
            try:
                arr = arr.reshape(shape)
            except ValueError:
                raise PreconditionError(
                    f"entry data of shape {arr.shape} does not fit tensor shape {shape}"
                ) from None
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def order(self) -> int:
        return len(self.shape)

    @classmethod
    def zeros(cls, field: PrimeField, shape: Sequence[int]) -> "Tensor":
        return cls(field, tuple(shape), np.zeros(tuple(shape), dtype=np.int64))

    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"Tensor(p={self.field.p}, shape={self.shape})"


@dataclass(frozen=True)
class BlockStructure:
    """Consecutive block sizes per axis, the same block count k on every axis.

    ``shape``, ``offsets`` and ``block_of`` are computed from the sizes on
    first use and kept; they are not fields, so equality and hashing see
    only the sizes.
    """

    sizes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = tuple(tuple(int(s) for s in axis) for axis in self.sizes)
        if not sizes:
            raise PreconditionError("block structure needs at least one axis")
        k = len(sizes[0])
        if k < 1:
            raise PreconditionError("block structure needs at least one block")
        for axis in sizes:
            if len(axis) != k:
                raise PreconditionError("all axes must have the same number of blocks")
            if any(s < 0 for s in axis):
                raise PreconditionError("block sizes must be nonnegative")
        object.__setattr__(self, "sizes", sizes)

    @property
    def order(self) -> int:
        return len(self.sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.sizes[0])

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(sum(axis) for axis in self.sizes)

    @cached_property
    def offsets(self) -> tuple[tuple[int, ...], ...]:
        """Per axis, the start offset of every block and then the axis length (k + 1 each)."""
        return tuple(tuple(accumulate(axis, initial=0)) for axis in self.sizes)

    @cached_property
    def block_of(self) -> tuple[np.ndarray, ...]:
        """Per axis, the block number of every index."""
        return tuple(_freeze(np.repeat(np.arange(self.num_blocks), axis)) for axis in self.sizes)

    def block_slices(self, alpha: Sequence[int]) -> tuple[slice, ...]:
        if len(alpha) != self.order:
            raise PreconditionError("block index has the wrong length")
        sl = []
        for axis, a in enumerate(alpha):
            if not 0 <= a < self.num_blocks:
                raise PreconditionError(f"block index {a} out of range on axis {axis}")
            off = self.offsets[axis]
            sl.append(slice(off[a], off[a + 1]))
        return tuple(sl)


@dataclass(frozen=True, eq=False)
class SliceTerm:
    """One slice-rank-1 term: u on a single axis times a cotensor on the rest."""

    axis: int
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class SliceDecomposition:
    """A sum of slice terms targeting a fixed shape; len(terms) bounds the rank."""

    field: PrimeField
    shape: tuple[int, ...]
    terms: tuple[SliceTerm, ...]

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) < 2:
            raise PreconditionError("decomposition target must have order >= 2")
        checked = []
        for t in self.terms:
            if not 0 <= t.axis < len(shape):
                raise PreconditionError(f"term axis {t.axis} out of range for shape {shape}")
            u = _freeze(self.field.residues(t.u))
            v = _freeze(self.field.residues(t.v))
            rest = shape[: t.axis] + shape[t.axis + 1 :]
            if u.shape != (shape[t.axis],):
                raise PreconditionError(
                    f"term vector has length {u.shape}, axis {t.axis} has size {shape[t.axis]}"
                )
            if v.shape != rest:
                raise PreconditionError(
                    f"term cotensor has shape {v.shape}, expected {rest}"
                )
            checked.append(SliceTerm(int(t.axis), u, v))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "terms", tuple(checked))

    def terms_on_axis(self, axis: int) -> tuple[SliceTerm, ...]:
        return tuple(t for t in self.terms if t.axis == axis)


def _around_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """The array as (axes before, axis, axes after), each group flattened.

    Sizes are explicit, so zero-size axes reshape fine.
    """
    shape = arr.shape
    return arr.reshape(prod(shape[:axis]), shape[axis], prod(shape[axis + 1 :]))


def mode_product(arr: np.ndarray, mat: np.ndarray, axis: int, p: int) -> np.ndarray:
    """Contract one axis of an array against the columns of a matrix.

    Returns the array with ``axis`` replaced by the row index of ``mat``:
    out[..., j, ...] = sum_x mat[j, x] * arr[..., x, ...]  (mod p).
    """
    out = (mat @ _around_axis(arr, axis)) % p
    return out.reshape(arr.shape[:axis] + (mat.shape[0],) + arr.shape[axis + 1 :])


def contract_axis(t: Tensor, h, axis: int) -> Union[Tensor, np.ndarray]:
    """Sum the tensor against a functional along one axis, dropping the order.

    For an order-2 tensor the result is returned as a plain vector, since
    tensors of order 1 are not constructed.
    """
    if not 0 <= axis < t.order:
        raise PreconditionError(f"axis {axis} out of range for order {t.order}")
    h = t.field.residues(h)
    if h.shape != (t.shape[axis],):
        raise PreconditionError(
            f"functional has length {h.shape}, axis {axis} has size {t.shape[axis]}"
        )
    rest = t.shape[:axis] + t.shape[axis + 1 :]
    result = ((h @ _around_axis(t.data, axis)) % t.field.p).reshape(rest)
    if len(rest) == 1:
        return _freeze(result)
    return Tensor(t.field, rest, result)


def flatten(t: Tensor, axis: int) -> FieldMatrix:
    """Matrix whose row x lists the slice of the tensor at axis index x."""
    if not 0 <= axis < t.order:
        raise PreconditionError(f"axis {axis} out of range for order {t.order}")
    grouped = _around_axis(t.data, axis)
    before, n, after = grouped.shape
    return FieldMatrix(t.field, grouped.transpose(1, 0, 2).reshape(n, before * after))


def direct_sum_list(tensors: Sequence[Tensor]) -> tuple[Tensor, BlockStructure]:
    """Block-diagonal sum of several tensors: summand j sits at block (j, ..., j)."""
    if not tensors:
        raise PreconditionError("direct sum of zero tensors is undefined")
    first = tensors[0]
    for t in tensors[1:]:
        if t.field != first.field:
            raise PreconditionError("direct summands must share the field")
        if t.order != first.order:
            raise PreconditionError("direct summands must share the order")
    blocks = BlockStructure(tuple(zip(*(t.shape for t in tensors))))
    data = np.zeros(blocks.shape, dtype=np.int64)
    for j, t in enumerate(tensors):
        data[blocks.block_slices((j,) * first.order)] = t.data
    return Tensor(first.field, blocks.shape, data), blocks


def direct_sum(t1: Tensor, t2: Tensor) -> tuple[Tensor, BlockStructure]:
    """Direct sum of two tensors, with the two-block structure it defines."""
    return direct_sum_list([t1, t2])


def block_component(t: Tensor, blocks: BlockStructure, alpha: Sequence[int]) -> Tensor:
    """The sub-tensor living on block alpha_i of axis i. 0-based."""
    if blocks.shape != t.shape:
        raise PreconditionError(
            f"block structure shape {blocks.shape} does not match tensor shape {t.shape}"
        )
    sub = t.data[blocks.block_slices(alpha)]
    return Tensor(t.field, sub.shape, sub)  # the reduction copies the view


def embed_block(t_block: Tensor, blocks: BlockStructure, alpha: Sequence[int]) -> Tensor:
    """Place a block component back into the zero tensor of the full shape."""
    sl = blocks.block_slices(alpha)
    expected = tuple(s.stop - s.start for s in sl)
    if t_block.shape != expected:
        raise PreconditionError(
            f"component shape {t_block.shape} does not match block shape {expected}"
        )
    data = np.zeros(blocks.shape, dtype=np.int64)
    data[sl] = t_block.data
    return Tensor(t_block.field, blocks.shape, data)


class SupportInfo(NamedTuple):
    support: tuple[tuple[int, ...], ...]
    is_antichain: bool


def support_and_antichain(t: Tensor) -> SupportInfo:
    """Nonzero index tuples in lexicographic order, and whether no two are comparable.

    ``np.argwhere`` lists the points in lexicographic order, and a point
    componentwise below another also precedes it there, so each point is
    compared only with the points after it, one array comparison per
    point, stopping at the first comparable pair.
    """
    points = np.argwhere(t.data)
    is_antichain = not any((points[k + 1 :] >= points[k]).all(axis=1).any()
                           for k in range(len(points) - 1))
    return SupportInfo(tuple(map(tuple, points.tolist())), is_antichain)


def is_block_upper_triangular(t: Tensor, blocks: BlockStructure) -> bool:
    """True iff every nonzero block component has a nondecreasing block index.

    Checked entrywise with one mask: each axis maps its indices to their
    block numbers, and an entry lies outside the allowed components
    exactly when some axis's block number exceeds the next axis's.
    """
    if blocks.shape != t.shape:
        raise PreconditionError("block structure does not match tensor shape")
    d, block_of = t.order, blocks.block_of
    outside = np.zeros(t.shape, dtype=bool)
    for i in range(d - 1):
        descent = block_of[i][:, None] > block_of[i + 1][None, :]
        outside |= descent.reshape((1,) * i + descent.shape + (1,) * (d - i - 2))
    return not t.data[outside].any()


def evaluate_decomposition(dec: SliceDecomposition) -> Tensor:
    """Pointwise sum of all slice terms, reduced mod p."""
    total = np.zeros(dec.shape, dtype=np.int64)
    for term in dec.terms:
        total += np.moveaxis(np.multiply.outer(term.u, term.v), 0, term.axis)
    return Tensor(dec.field, dec.shape, total % dec.field.p)


def permute_axis(t: Tensor, axis: int, perm: Sequence[int]) -> Tensor:
    """Relabel indices on one axis: result[..., i, ...] = t[..., perm[i], ...]."""
    if not 0 <= axis < t.order:
        raise PreconditionError(f"axis {axis} out of range")
    perm = [int(x) for x in perm]
    if sorted(perm) != list(range(t.shape[axis])):
        raise PreconditionError("not a permutation of the axis indices")
    return Tensor(t.field, t.shape, np.take(t.data, perm, axis=axis))


def outer_product_tensor(field: PrimeField, factors: Sequence) -> Tensor:
    """Product of lower-order factors on concatenated axes.

    T(x_1, ..., x_d) multiplies one factor per axis group; with every
    factor a vector this is the elementary fully decomposable tensor, and
    with two factors it is an elementary two-group product.
    """
    arrays = [field.residues(f) for f in factors]
    if not arrays:
        raise PreconditionError("need at least one factor")
    data = arrays[0]
    for arr in arrays[1:]:
        data = np.multiply.outer(data, arr) % field.p
    if data.ndim < 2:
        raise PreconditionError("factors must span at least two axes")
    return Tensor(field, data.shape, data)


def levi_civita(field: PrimeField) -> Tensor:
    """The 3x3x3 alternating tensor: +1 on even permutations, -1 on odd."""
    data = np.zeros((3, 3, 3), dtype=np.int64)
    for perm in permutations(range(3)):
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        data[perm] = 1 if inversions % 2 == 0 else field.p - 1
    return Tensor(field, (3, 3, 3), data)


def levi_civita_decomposition(field: PrimeField) -> SliceDecomposition:
    """A three-term decomposition of the alternating tensor, one term per axis.

    Each term peels off the index-0 slice of the remaining support, so the
    terms cover the six support points two at a time.
    """
    eps = levi_civita(field)
    residual = eps.data.copy()
    terms = []
    for axis in range(3):
        u = np.zeros(3, dtype=np.int64)
        u[0] = 1
        v = np.take(residual, 0, axis=axis).copy()
        terms.append(SliceTerm(axis, u, v))
        residual -= np.moveaxis(np.multiply.outer(u, v), 0, axis)
        residual %= field.p
    if residual.any():
        raise AssertionError("slice peeling failed to exhaust the support")
    return SliceDecomposition(field, (3, 3, 3), tuple(terms))


def diagonal_tensor(field: PrimeField, size: int, ones: int, order: int = 3) -> Tensor:
    """An order-d cube tensor with ``ones`` unit entries on the main diagonal."""
    if order < 2:
        raise PreconditionError("tensor order must be at least 2")
    if not 0 <= ones <= size:
        raise PreconditionError(f"number of diagonal ones {ones} out of range [0, {size}]")
    data = np.zeros((size,) * order, dtype=np.int64)
    for i in range(ones):
        data[(i,) * order] = 1
    return Tensor(field, (size,) * order, data)


def random_tensor(field: PrimeField, shape: Sequence[int], rng: np.random.Generator) -> Tensor:
    return Tensor(field, tuple(shape), rng.integers(0, field.p, size=tuple(shape)))


def random_block_upper_triangular(
    field: PrimeField, blocks: BlockStructure, rng: np.random.Generator
) -> Tensor:
    """Random tensor with support confined to nondecreasing block components.

    The components are filled in lexicographic order of their block index,
    one draw each. An empty component's draw has size 0 and leaves the
    generator as it was, so only components nonempty on every axis are visited.
    """
    data = np.zeros(blocks.shape, dtype=np.int64)
    nonempty = [[a for a, n in enumerate(axis) if n] for axis in blocks.sizes]
    for alpha in product(*nonempty):
        if all(a <= b for a, b in zip(alpha, alpha[1:])):
            sl = blocks.block_slices(alpha)
            data[sl] = rng.integers(0, field.p, size=data[sl].shape)
    return Tensor(field, blocks.shape, data)
