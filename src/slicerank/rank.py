"""Exact slice rank via exhaustive dual-subspace search.

The slice rank of T is at most r exactly when there are subspaces U_i of
the dual of each axis space, with codimensions summing to r, such that T is
annihilated by every product functional u_1 x ... x u_d with u_i in U_i.
Over GF(p) the subspaces form a finite canonical family, so minimizing over
them computes the rank exactly.

One walk finds sigma and its certificate. Once U_1..U_{d-1} (the prefix)
are fixed, T contracted by them is a matrix A over the last axis, and U_d
annihilates it exactly when U_d lies in the kernel of A, so the least total
of a prefix is its codimension sum plus rank(A), reached only by U_d = ker
A. The walk visits prefix codimension tuples in lexicographic order and,
within one, prefix subspace tuples in canonical enumeration order. A total
it finds becomes the limit less one, so only a strictly smaller total can
replace it: the tuple kept is the first of the least total, which makes it
the first certificate in (rank, composition, subspace) order. Each prefix
axis is contracted against all its candidate bases in one batched product,
and the ranks of A come from one batched elimination mod p, a block of at
most ``_BLOCK_CELLS`` cells at a time; the elimination holds about four
arrays of a block's size, so a block peaks near 32 bytes a cell. The
candidate bases of each field, ambient dimension and subspace dimension
are stacked once per process, built whole from their pivot profiles
(``linalg._grassmannian_stack``); Subspace values are made only for the d
subspaces of the certificate.

The walk starts from the least rank of a flattening of T, an attained
total, and stops at a total proven least. The proof is the Sawin-Tao
duality argument applied to the last two axes: if (U_1, ..., U_d)
annihilates T, then for every u_1 in U_1, ..., u_{d-2} in U_{d-2} the
n_{d-1} x n_d matrix u_1 ... u_{d-2} . T vanishes on U_{d-1} x U_d, so
its rank is at most the codimension sum of those two. Hence sigma is at
least the least, over U_1..U_{d-2}, of their codimension sum plus the
largest such rank over every vector tuple they contain. Vectors count up
to scaling, so T is contracted once against every tuple of points (the
dimension-1 subspaces) and each subspace tuple takes the largest rank
over the point tuples inside it, a block of subspaces at a time; GF(p)^n
itself is never enumerated; the point indices of each subspace are
tabled once per field, ambient dimension and subspace dimension. The
bound runs whenever the least flattening rank does not settle sigma.
When the last-axis flattening rank, the total of the walk's first prefix
tuple, meets the bound, that tuple is the certificate and the walk is
skipped. So it is when the least flattening rank is 1, on any axis: sigma
is then 1, and a composition of total 1 puts codimension 1 on one axis a,
which is attained exactly when the axis-a flattening has rank 1, and only
by the annihilator of its column space. The walk meets these compositions
last axis first, so the certificate is that annihilator on the last axis
of flattening rank 1, with full spaces on the others. Otherwise the walk
ends at its first total that meets it. On an order-3 tensor the same
point ranks, computed once per search, also filter the walk: a U_1 of
codimension c_1 whose largest point rank m has c_1 + m above the best
total so far cannot lead to a kept total, so it is dropped before any
contraction. The survivors are met in enumeration order, so the kept
tuple does not change. The certificate's kernel, ker A after a walk or
the hit axis's annihilator, is found by scanning the candidates of its
dimension for the one that annihilates that matrix; a kernel of
dimension 0 or of the whole axis is the one candidate of its dimension,
index 0, and is not scanned.

The certificate becomes a decomposition with exactly sigma terms by
telescoping one projection per axis. A reduced echelon basis completed by
unit rows at its free columns has an inverse read off the basis itself,
so no elimination runs. Each axis projects the array onto the basis rows,
placed at their pivots, and splits off one term per free column of the
array before it; after the last axis what remains is T contracted by
every certificate basis, embedded injectively. The certificate annihilates
T exactly when that remainder is zero, so checking it is the
verification, at no cost beyond the d projections. The check runs at
search time: ``slice_rank_exact`` runs the projection chain before it
returns, keeping each axis's array before its projection, and raises
VerificationError there. The terms are read off those arrays only when
the result's decomposition is first read, since the harnesses that search
most read only sigma and the certificate. The projection matrix, the free
columns and the term vectors of each basis are kept on its subspace
(``Subspace.projection``), and the certificate's subspaces come from the
memoized ``grassmannian`` tuples, so repeated searches over one shape
share them.

The slice cover (``min_slice_cover``) is a separate branch and bound over
the support, whose slice masks are built in one pass over the points; it
counts its search nodes and refuses past ``COVER_NODE_LIMIT`` of them, as
the search refuses past its enumeration limit. ``rank_via_cover`` reads
both witnesses off the cover: each slice in order takes what is left of
its cotensor, and each axis's certificate basis is the unit rows at the
indices the cover leaves out there.

Everything is deterministic: identical inputs give identical certificates,
decompositions, and byte-identical serialized output.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import EnumerationLimitError, PreconditionError, VerificationError
from .linalg import (
    FieldMatrix,
    Subspace,
    annihilator,
    count_subspaces,
    grassmannian,
    _grassmannian_stack,
    _row_reduce,
)
from .tensor import (
    SliceDecomposition,
    SliceTerm,
    Tensor,
    mode_product,
    support_and_antichain,
)

DEFAULT_ENUMERATION_LIMIT = 10**8

# min_slice_cover refuses (EnumerationLimitError) once its branch and bound
# has visited more than this many nodes.
COVER_NODE_LIMIT = 10**6

# The walk builds and reduces its partial contractions in blocks of at most
# this many int64 cells. That bounds each block, not the walk's peak memory:
# the elimination of a block (``_batch_ranks``) holds about three more arrays
# of its size at once, its scaled rows, their product with the pivot rows and
# the reduction, so a full block of 2**15 cells peaks near 1 MiB, and the
# blocks of the earlier contracted axes stay alive beneath it.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Per-axis dual subspaces witnessing a slice rank bound.

    The bound is the sum of the codimensions. A certificate is valid for a
    tensor when every tuple of basis functionals annihilates it; by
    multilinearity that settles the whole product space.
    """

    subspaces: tuple[Subspace, ...]
    bound: int = dataclasses.field(init=False, repr=False)
    ambient_shape: tuple[int, ...] = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if len(self.subspaces) < 2:
            raise PreconditionError("certificate needs a subspace per axis, order >= 2")
        field = self.subspaces[0].field
        for s in self.subspaces:
            if s.field != field:
                raise PreconditionError("certificate subspaces must share the field")
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        object.__setattr__(self, "bound", sum(s.codim for s in self.subspaces))
        object.__setattr__(self, "ambient_shape", tuple(s.ambient_dim for s in self.subspaces))

    @property
    def field(self):
        return self.subspaces[0].field

    @classmethod
    def full(cls, field, shape: Sequence[int]) -> "DualCertificate":
        """The bound-0 certificate (all dual spaces full)."""
        return cls(tuple(Subspace.full(field, n) for n in shape))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualCertificate):
            return NotImplemented
        return self.subspaces == other.subspaces


@dataclass(frozen=True, eq=False)
class RankResult:
    """Outcome of a rank computation.

    ``sigma`` is the exact slice rank when ``exact`` is True and ``status``
    is "ok". A budgeted search that runs out returns status
    "rank_above_budget" with no value fabricated. The cover method returns
    an upper bound, exact only when the support is an antichain.

    ``decomposition`` is given whole, or, for a search, read off its
    verified projection chain (``_read_off``) on first access and kept, so
    later reads return the same object. The read-off is deterministic and
    idempotent: threads racing on the first read may each build it, and
    get equal decompositions.
    """

    sigma: Optional[int]
    certificate: Optional[DualCertificate]
    _decomposition: Optional[SliceDecomposition]
    method: str
    status: str = "ok"
    exact: bool = True
    _chain: Optional[tuple] = dataclasses.field(default=None, init=False, repr=False)

    @classmethod
    def _searched(cls, t: Tensor, certificate: DualCertificate, kept: list) -> "RankResult":
        """A search's result, its decomposition left to be read off the chain that verified it."""
        result = cls(certificate.bound, certificate, None, "dual_search")
        object.__setattr__(result, "_chain", (t, kept))
        return result

    @property
    def decomposition(self) -> Optional[SliceDecomposition]:
        chain = self._chain
        if chain is not None:
            # set before the chain is dropped, so a reader that finds no chain finds it
            object.__setattr__(self, "_decomposition", _read_off(*chain))
            object.__setattr__(self, "_chain", None)
        return self._decomposition


def _check_match(t: Tensor, c: DualCertificate) -> None:
    if c.field != t.field:
        raise PreconditionError("certificate field does not match tensor field")
    if c.ambient_shape != t.shape:
        raise PreconditionError(
            f"certificate ambient shape {c.ambient_shape} does not match tensor shape {t.shape}"
        )


def verify_certificate(t: Tensor, c: DualCertificate) -> bool:
    """True iff every tuple of certificate basis functionals annihilates t."""
    _check_match(t, c)
    arr = t.data
    p = t.field.p
    for axis, sub in enumerate(c.subspaces):
        arr = mode_product(arr, sub.basis.data, axis, p)
        if not arr.any():
            return True
    return not arr.any()


def enumeration_size(shape: Sequence[int], p: int) -> int:
    """Worst-case number of subspace tuples for a shape, all dimensions."""
    return prod(count_subspaces(n, p) for n in shape)


def _batch_ranks(mats: np.ndarray, p: int, cap: int) -> np.ndarray:
    """Ranks mod p of a (count, rows, cols) stack of matrices, each capped at ``cap``.

    Entries must lie in [0, p). One vectorized elimination pass per column
    of the narrower side: each matrix takes a row with the largest entry
    in the column as its pivot, fetched whole by one fancy index, and
    every row, the pivot row included, becomes lead * row - entry * pivot,
    which clears the column. Scaling rows by the nonzero lead keeps the
    rank, and the pivot row, now zero, has been counted. When the cap is
    below the narrower side, a matrix whose count reaches it is dropped
    before the next pass; at the narrower side no count can pass it. A
    column that is zero in every matrix is dropped unchanged, and only
    then does a whole-array ``any`` test whether the passes can stop. No
    rank exceeds the narrower side, so a cap or a side of at most 1 is
    answered by one ``any``.
    """
    cap = min(cap, *mats.shape[1:])
    if cap <= 1:
        return np.where(mats.any(axis=(1, 2)), cap, 0)
    if mats.shape[1] < mats.shape[2]:
        mats = mats.transpose(0, 2, 1)
    cols = mats.shape[2]
    ranks = np.full(len(mats), cap, dtype=np.int64)
    live = every = np.arange(len(mats))
    rank = np.zeros(len(mats), dtype=np.int64)
    for _ in range(cols):
        if cap < cols:
            keep = rank < cap
            if not keep.all():
                mats, rank, live = mats[keep], rank[keep], live[keep]
                every = every[: len(mats)]
        col = mats[:, :, 0]
        pivot_row = mats[every, col.argmax(axis=1)]
        lead = pivot_row[:, 0]
        if not lead.any():
            if not mats.any():
                break
            mats = mats[:, :, 1:]
            continue
        rank += lead > 0
        scaled = np.maximum(lead, 1)[:, None, None] * mats[:, :, 1:]
        mats = (scaled - col[:, :, None] * pivot_row[:, None, 1:]) % p
    ranks[live] = rank
    return ranks


def _prefix_dims(shape: Sequence[int], over):
    """(codimension sum, subspace dimensions) of the tuples on ``shape``.

    The codimension tuples come in lexicographic order. Each axis's loop
    stops at the first partial sum for which ``over`` holds, so ``over``
    must hold for every larger sum too. It is called lazily, after the
    caller has handled the tuples before, so a bound the caller tightens
    takes effect at once.
    """

    def rec(axis: int, s: int, dims: tuple):
        if axis == len(shape):
            yield s, dims
            return
        n = shape[axis]
        for c in range(n + 1):
            if over(s + c):
                return
            yield from rec(axis + 1, s + c, dims + (n - c,))

    return rec(0, 0, ())


def _contracted_blocks(batch: np.ndarray, stacks: list, shape: Sequence[int], p: int):
    """Contract a batch by each candidate stack in turn, yielding blocks.

    ``batch`` holds (rows, n, rest) matrices whose rows run over the next
    raw axis, and ``shape`` the raw axis lengths after each contracted
    axis. Every row is multiplied against a whole stack at once; a block
    takes whole candidate stacks for as many rows as fit in
    ``_BLOCK_CELLS`` cells, or one row and part of a stack. A yielded
    block holds (tuples, n_next, rest) matrices whose columns run over the
    remaining raw axes, then the contracted ones, and the blocks are
    consecutive runs of the (row, candidate, ...) tuples in enumeration
    order, so a tuple is named by its position among them.
    """
    stack, n_next = stacks[0], shape[0]
    count = len(stack)
    cells = batch.shape[2] * stack.shape[2]  # per (prefix tuple, candidate) pair
    cand_step = min(count, max(1, _BLOCK_CELLS // max(cells, 1)))
    row_step = max(1, _BLOCK_CELLS // max(cand_step * cells, 1))
    for r0 in range(0, len(batch), row_step):
        rows = batch[r0 : r0 + row_step, None].transpose(0, 1, 3, 2)
        for k0 in range(0, count, cand_step):
            out = (rows @ stack[k0 : k0 + cand_step]) % p
            out = out.reshape(out.shape[0] * out.shape[1], n_next, -1)
            if len(stacks) == 1:
                yield out
            else:
                yield from _contracted_blocks(out, stacks[1:], shape[1:], p)


@lru_cache(maxsize=None)
def _point_table(p: int, n: int, dim: int) -> np.ndarray:
    """Read-only (subspaces, points per subspace) indices of the points in each subspace.

    The points are the dimension-1 subspaces, one per nonzero vector up to
    scaling, in the order of ``_grassmannian_stack(p, n, 1)``; each is its
    vector with leading entry 1. Those of a subspace with reduced basis B
    are the c B for c among the points of GF(p)^dim: the pivots of B
    increase, so the leading entry of c B is the first nonzero entry of c.
    A vector is found among the points by its base-p code. Rows come in
    enumeration order, and the table is built a block of subspaces at a
    time, so no temporary exceeds ``_BLOCK_CELLS`` cells by more than one
    subspace's worth. The table is kept for the process, so its indices are
    stored in the narrowest of uint16 and int32 that holds the point count.
    """
    points = (p**n - 1) // (p - 1)
    dtype = np.uint16 if points <= 1 << 16 else np.int32
    if dim == 0:
        table = np.zeros((1, 0), dtype=dtype)
        table.setflags(write=False)
        return table
    weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = _grassmannian_stack(p, n, 1)[:, :, 0] @ weights
    order = np.argsort(codes)
    ordered = codes[order]
    coeffs = _grassmannian_stack(p, dim, 1)[:, :, 0]
    stack = _grassmannian_stack(p, n, dim)
    table = np.empty((len(stack), len(coeffs)), dtype=dtype)
    step = max(1, _BLOCK_CELLS // (len(coeffs) * n))
    for k0 in range(0, len(stack), step):
        bases = stack[k0 : k0 + step]
        vecs = (coeffs @ bases.transpose(2, 0, 1).reshape(dim, -1)) % p
        found = vecs.reshape(len(coeffs), len(bases), n) @ weights
        table[k0 : k0 + step] = order[np.searchsorted(ordered, found.T)]
    table.setflags(write=False)
    return table


def _tuple_maxima(vals: np.ndarray, p: int, shape: Sequence[int], dims: Sequence[int]):
    """Largest value over the point tuples inside each subspace tuple, in blocks.

    ``vals`` holds a batch of arrays with one value per tuple of points on
    the axes of ``shape``; the subspace tuples have dimensions ``dims``. One
    axis at a time, each subspace in a block takes the largest value over
    its points (0 over none), so every array a block gathers has at most
    ``_BLOCK_CELLS`` cells, or one subspace's worth.
    """
    n, dim = shape[0], dims[0]
    batch, rest = len(vals), vals[0, 0].size
    inner = (p**dim - 1) // (p - 1)  # points per subspace
    step = max(1, _BLOCK_CELLS // max(batch * inner * rest, n * inner, 1))
    flat = vals.reshape(batch, -1, rest)
    table = _point_table(p, n, dim)
    for k0 in range(0, len(table), step):
        out = flat[:, table[k0 : k0 + step]].max(axis=2, initial=0).reshape(-1, *vals.shape[2:])
        if len(shape) == 1:
            yield out
        else:
            yield from _tuple_maxima(out, p, shape[1:], dims[1:])


def _point_ranks(data: np.ndarray, p: int, cap: int) -> np.ndarray:
    """Rank of u . T for every tuple u of points on axes 0..d-3, capped at ``cap``.

    u . T is the n_{d-2} x n_{d-1} matrix T contracts to. The points are
    the dimension-1 subspaces, in the order of ``_grassmannian_stack(p, n,
    1)``; T is contracted against all of their tuples in the blocks of
    ``_contracted_blocks``. Returns an array of shape (1, points on axis
    0, ..., points on axis d-3), and (1,) for an order-2 T.
    """
    shape = data.shape
    lead = shape[:-2]
    if not lead:
        return _batch_ranks(data[None], p, cap)
    stacks = [_grassmannian_stack(p, n, 1) for n in lead]
    head = data.reshape(1, shape[0], -1)
    blocks = _contracted_blocks(head, stacks, shape[1:-1], p)
    ranks = np.concatenate([_batch_ranks(out, p, cap) for out in blocks])
    return ranks.reshape((1,) + tuple(len(s) for s in stacks))


def _slice_rank_bound(data: np.ndarray, p: int, cap: int, least: int, ranks: np.ndarray) -> int:
    """Least over subspace tuples on axes 0..d-3 of codim sum + max rank of u . T.

    The max runs over every tuple u = (u_0, ..., u_{d-3}) of vectors in the
    subspaces, and u . T is the n_{d-2} x n_{d-1} matrix T contracts to. If
    the tuple extends to a certificate with codimensions c_{d-2} and
    c_{d-1} on the last two axes, every such matrix vanishes on a product
    of subspaces of those codimensions, so its rank is at most c_{d-2} +
    c_{d-1}; hence this is a lower bound on sigma (the Sawin-Tao duality
    argument, which the additivity proof does not need). Scaling a vector
    keeps the rank, so u runs over tuples of points, the dimension-1
    subspaces: ``ranks`` holds the rank of u . T for every point tuple,
    capped at ``cap``, as ``_point_ranks`` gives it, and a subspace tuple
    takes the largest rank over the point tuples it contains
    (``_tuple_maxima``). No code enumerates GF(p)^n. Codimension tuples
    come in lexicographic order; one whose sum reaches the running least
    is not visited. Returns the bound or ``cap``, whichever is smaller, or
    gives up with a value at most ``least`` once the bound cannot exceed
    ``least``.
    """
    lead = data.shape[:-2]
    cur = int(ranks.max())  # the all-full tuple
    for s, dims in _prefix_dims(lead, lambda s: cur <= max(s, least)):
        if s == 0:
            continue
        for maxima in _tuple_maxima(ranks, p, lead, dims):
            cur = min(cur, s + int(maxima.min()))
            if cur <= max(s, least):
                break
    return cur


def _canonical_certificate(
    data: np.ndarray, p: int, limit: int
) -> Optional[tuple[list[int], list[int]]]:
    """Subspace dimensions and enumeration indices of the canonical certificate.

    That is the first annihilating subspace tuple of the least bound in
    (rank, composition, subspace) order, or None when the least bound
    exceeds ``limit``. The walk visits prefix codimension tuples (every
    axis but the last) in lexicographic order and, within one, prefix
    subspace tuples in enumeration order, in the blocks of
    ``_contracted_blocks``, and reads a tuple's indices off its position in
    that order. At the last prefix axis a tuple's total is its
    codimension sum plus rank(A); a total found becomes the limit less
    one, so the tuple kept is the first of the least total, and its last
    subspace is ker A.

    Before the walk, sigma is bounded on both sides. The least flattening
    rank is an attained total and caps the limit. ``least``, a proven
    lower bound, is the least flattening rank when that is at most 2, and
    otherwise the larger of 1 and the slice rank bound of
    ``_slice_rank_bound``, which runs whenever ``least`` is below the limit
    (every vector of each prefix subspace, in bounded blocks; no gate).
    Above the limit it settles the answer as None at once. The walk stops
    at its first total equal to ``least``. First-hit stop: the all-full
    prefix tuple comes first in the walk's order and its total is the
    last-axis flattening rank, so when that equals ``least`` the tuple is
    the answer and the walk is skipped. When the least flattening rank is
    1, sigma is 1 and the walk is skipped too: every composition of total
    1 is codimension 1 on one axis a, and the prefix codimension tuples
    (0, ..., 0), (0, ..., 0, 1), ..., (1, 0, ..., 0) meet these last axis
    first. Codimension 1 on axis a is attained exactly when the axis-a
    flattening has rank 1, and only by the annihilator of its column
    space, so the answer is that annihilator on the last such axis with
    full spaces elsewhere; the stop above is the case a = d - 1. Either
    way the hit axis's flattening is A, and its kernel is scanned as ker A
    is after a walk, unless its dimension is 0 or the whole axis: then
    the stack holds one candidate, index 0.

    The point ranks of ``_point_ranks`` are computed at most once, when
    the bound runs or an order-3 walk does, capped at the limit plus one.
    An order-3 walk drops each axis-0 candidate whose codimension plus its
    largest point rank (``_tuple_maxima``, once per dimension) exceeds the
    current limit: every u in the U_0 of a certificate has rank(u . T) at
    most the codimension sum of the other two axes, so such a U_0 has no
    total within the limit. A composition left without candidates is
    skipped, and the index the walk keeps maps back through the surviving
    positions. Order 4 and up walk unfiltered.
    """
    if limit < 0:
        return None
    d, shape = data.ndim, data.shape
    if not data.any():
        return list(shape), [0] * d
    # Each flattening's rank is an attained total (its annihilator on that
    # axis, full spaces on the others), so the least one bounds sigma. A
    # tensor has rank 1 exactly when some flattening does, so a least
    # flattening rank of at most 2 is sigma itself. Zero padding to a
    # common shape keeps every rank, and so does the column order, which
    # swapaxes leaves permuted; neither does ker A, read off the last one.
    mats = np.zeros((d, max(shape), data.size // min(shape)), dtype=np.int64)
    for axis, n in enumerate(shape):
        mats[axis, :n, : data.size // n] = np.swapaxes(data, axis, 0).reshape(n, -1)
    ranks = _batch_ranks(mats, p, limit + 1)
    seed = int(ranks.min())
    limit = min(limit, seed)
    least = seed if seed <= 2 else 1
    points = None  # rank of u . T per point tuple u, once the bound or the filter needs it
    if least < limit:
        points = _point_ranks(data, p, limit + 1)
        least = max(least, _slice_rank_bound(data, p, limit + 1, least, points))
    if least > limit:
        return None
    # First hit (see the docstring): the last axis whose flattening rank is
    # least, when it is the last axis of all or least is 1
    on = np.flatnonzero(ranks == least)
    if len(on) and (on[-1] == d - 1 or least == 1):
        axis, n = int(on[-1]), shape[on[-1]]
        dims = list(shape)
        dims[axis] = n - least
        best = (dims, [0] * (d - 1), axis, mats[axis, :n, : data.size // n])
    else:
        best = None  # (dims, indices off the kernel axis, kernel axis, A)
        head = data.reshape(1, shape[0], -1)
        if d == 3 and points is None:
            points = _point_ranks(data, p, limit + 1)
        maxima = {}  # axis-0 dimension -> largest point rank in each subspace
        for s, dims in _prefix_dims(shape[:-1], lambda s: limit < max(s, least)):
            stacks = [_grassmannian_stack(p, n, dim) for n, dim in zip(shape, dims)]
            kept = None
            if d == 3:
                # U_0 of a certificate bounds every rank of u . T by the
                # codimension sum of the other two axes, so a total of at
                # most limit needs c_0 + (largest point rank in U_0) <= limit
                if dims[0] not in maxima:
                    maxima[dims[0]] = np.concatenate(
                        list(_tuple_maxima(points, p, shape[:1], dims[:1])))
                kept = np.flatnonzero(maxima[dims[0]] <= limit - (shape[0] - dims[0]))
                if not len(kept):
                    continue
                stacks[0] = stacks[0][kept]
            start = 0  # enumeration position of the block's first tuple
            for out in _contracted_blocks(head, stacks, shape[1:], p):
                cap = limit - s  # the largest rank of A that lowers the best total
                block_ranks = _batch_ranks(out, p, cap + 1)
                j = int(block_ranks.argmin())
                r = int(block_ranks[j])
                if r <= cap:
                    idx = [int(i) for i in np.unravel_index(start + j, [len(c) for c in stacks])]
                    if kept is not None:
                        idx[0] = int(kept[idx[0]])
                    best = (list(dims) + [shape[-1] - r], idx, d - 1, out[j])
                    limit = s + r - 1
                if limit < max(s, least):
                    break
                start += len(out)
        if best is None:
            return None
    dims, idx, axis, a = best
    # the kernel is the one candidate of its dimension that annihilates A,
    # and the only candidate at dimension 0 or the whole axis
    k = 0
    if 0 < dims[axis] < shape[axis]:
        stack = _grassmannian_stack(p, shape[axis], dims[axis])
        k = int(np.argmax(~((a.T @ stack) % p).any(axis=(1, 2))))
    idx.insert(axis, k)
    return dims, idx


def _matrix_rank_result(t: Tensor, budget: Optional[int]) -> RankResult:
    """Order-2 computation: slice rank is matrix rank, certificate included."""
    p = t.field.p
    red, piv = _row_reduce(t.data, p)
    rank = len(piv)
    if budget is not None and rank > budget:
        return RankResult(None, None, None, "matrix", status="rank_above_budget", exact=False)
    coeff = t.data[:, piv]
    terms = tuple(
        SliceTerm(0, coeff[:, i].copy(), red[i].copy()) for i in range(rank)
    )
    dec = SliceDecomposition(t.field, t.shape, terms)
    cert = DualCertificate(
        (annihilator(FieldMatrix(t.field, coeff.T)), Subspace.full(t.field, t.shape[1]))
    )
    return RankResult(rank, cert, dec, "matrix")


def slice_rank_exact(
    t: Tensor,
    budget: Optional[int] = None,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    method: str = "auto",
) -> RankResult:
    """Exact slice rank by dual-subspace search, with certificate and witness.

    Args:
        t: the tensor.
        budget: optional maximum rank to try; if the true rank exceeds it,
            the result has status "rank_above_budget" and no sigma.
        limit: refuse (EnumerationLimitError) when the worst-case number of
            subspace tuples for this shape and field exceeds this bound.
            It counts the full product over every axis
            (``enumeration_size``), the last axis included, although the
            walk enumerates only the others. The check stops multiplying
            once the product exceeds the bound, so a huge shape is refused
            at once.
        method: "auto" short-circuits order-2 tensors to matrix rank;
            "dual" forces the subspace search (valid for every order);
            "matrix" demands an order-2 tensor.

    One walk over the prefix subspace tuples (every axis but the last)
    finds sigma as the least codimension sum plus the mod-p rank of the
    contracted last-axis matrix, and keeps the first tuple reaching it.
    The returned certificate is the first verifying one in (rank,
    composition, subspace-enumeration) lexicographic order, and the
    decomposition is derived from it, so outputs are reproducible. The
    certificate is verified before this returns: the projection chain of
    ``decomposition_from_certificate`` runs here and raises
    VerificationError if it leaves anything. The decomposition's terms are
    read off the arrays the chain kept when ``RankResult.decomposition`` is
    first read, and never if it is not.
    """
    if method not in ("auto", "dual", "matrix"):
        raise PreconditionError(f"unknown method {method!r}")
    if method == "matrix" or (method == "auto" and t.order == 2):
        if t.order != 2:
            raise PreconditionError("matrix method requires an order-2 tensor")
        return _matrix_rank_result(t, budget)

    p = t.field.p
    size = 1
    for n in t.shape:
        # count_subspaces(n, p) >= p**(k * (n - k)) > limit once k * (n - k)
        # reaches limit.bit_length() (k = n // 2: the top term of one Gaussian
        # binomial); such an axis is refused without its count, which takes
        # minutes for n in the thousands
        k = n // 2
        size = limit + 1 if k * (n - k) >= limit.bit_length() else size * count_subspaces(n, p)
        if size > limit:
            raise EnumerationLimitError(
                f"worst-case enumeration size exceeds limit {limit} "
                f"for shape {t.shape} over GF({p})"
            )

    # min(shape) is always attained
    hi = min(t.shape) if budget is None else min(budget, min(t.shape))
    found = _canonical_certificate(t.data, p, hi)
    if found is None:
        return RankResult(None, None, None, "dual_search", status="rank_above_budget", exact=False)
    dims, idx = found
    cert = DualCertificate(
        tuple(grassmannian(p, n, dim)[i] for n, dim, i in zip(t.shape, dims, idx))
    )
    return RankResult._searched(t, cert, _projection_chain(t, cert))


def certificate_from_decomposition(dec: SliceDecomposition) -> DualCertificate:
    """Certificate annihilating the value of a decomposition.

    On each axis, take the annihilator of the vectors used by that axis's
    terms; the bound is at most the number of terms.
    """
    subs = []
    for axis, n in enumerate(dec.shape):
        terms = dec.terms_on_axis(axis)
        stack = np.array([term.u for term in terms], dtype=np.int64).reshape(len(terms), n)
        subs.append(annihilator(FieldMatrix(dec.field, stack)))
    return DualCertificate(tuple(subs))


def decomposition_from_certificate(t: Tensor, c: DualCertificate) -> SliceDecomposition:
    """Rebuild a decomposition with exactly bound(c) terms from a certificate.

    The projections telescope, one per axis, as in ``normalize``. On an
    axis, let R be the certificate basis, in reduced echelon form with
    pivot columns P, and proj the n x n matrix with R's rows at P and zero
    rows elsewhere. I - proj is zero at the columns P and holds u_f = e_f -
    sum_i R[i, f] e_P[i] at each free column f, so an array is the sum over
    f of u_f x (its slice at f) plus its image under proj. Each subspace
    keeps proj, its free columns and the u_f (``Subspace.projection``), so
    a certificate from the shared ``grassmannian`` tuples builds them once
    per process and an expansion builds no matrix of its own. With arr
    starting as T, each axis gives one term per free column, in index
    order, and then replaces arr by its image under proj; a full basis is
    the identity, so an axis of codimension 0 is skipped. After the last
    axis arr is T contracted by every certificate basis, with rows placed
    at the pivots, which loses nothing: the terms sum to T, and the
    certificate verifies, exactly when arr is zero; otherwise this raises
    VerificationError. Terms with zero cotensors are kept so the term
    count always equals the certificate bound.

    It is the composition of the two halves that ``slice_rank_exact``
    runs apart: the projection chain, which verifies, and the read-off of
    the terms from the arrays the chain kept.
    """
    return _read_off(t, _projection_chain(t, c))


def _projection_chain(t: Tensor, c: DualCertificate) -> list:
    """Verify c against t by the telescoped projections, keeping what the terms need.

    Returns (axis, array before the axis's projection, free columns, term
    vectors) for each axis of nonzero codimension; raises
    VerificationError when the certificate does not annihilate t.
    """
    _check_match(t, c)
    p = t.field.p
    arr = t.data
    kept = []
    for axis, sub in enumerate(c.subspaces):
        if not sub.codim:
            continue
        proj, free, units = sub.projection
        kept.append((axis, arr, free, units))
        arr = mode_product(arr, proj, axis, p)
    if arr.any():
        raise VerificationError("certificate does not verify against the tensor")
    return kept


def _read_off(t: Tensor, kept: list) -> SliceDecomposition:
    """The decomposition of a verified chain: one term per free column, axis by axis."""
    terms = tuple(
        SliceTerm(axis, u, np.take(arr, f, axis))
        for axis, arr, free, units in kept
        for f, u in zip(free, units)
    )
    return SliceDecomposition(t.field, t.shape, terms)


class CoverResult(NamedTuple):
    count: int
    slices: tuple[tuple[int, int], ...]


def min_slice_cover(t: Tensor) -> CoverResult:
    """Minimum number of axis-aligned slices covering the support, exactly.

    Solved by branch and bound on the set cover instance whose sets are the
    nonempty slices (axis, index). Always an upper bound for the slice
    rank; equal to it when the support is an antichain. A node prunes when
    the slices chosen plus a lower bound on those still needed reach the
    best cover found: the uncovered points over the largest gain, or the
    number of uncovered points that pairwise share no slice, since no slice
    covers two of them. Either cuts only subtrees that hold no strictly
    smaller cover, so the cover returned is the first least one the tree
    meets. Slices that cover no uncovered point are dropped as the tree
    descends. Every call of the search counts as one node, and a search
    that passes ``COVER_NODE_LIMIT`` nodes raises EnumerationLimitError,
    so the work is bounded by a count, not by the machine.
    """
    points = [tuple(int(i) for i in idx) for idx in np.argwhere(t.data)]
    if not points:
        return CoverResult(0, ())
    universe = (1 << len(points)) - 1

    table: dict[tuple[int, int], int] = {}  # (axis, index) -> its points, as a bit mask
    for k, pt in enumerate(points):
        for sl in enumerate(pt):
            table[sl] = table.get(sl, 0) | 1 << k
    slices = sorted(table)
    masks = [table[sl] for sl in slices]

    # greedy cover for the initial upper bound
    best: list[int] = []
    covered = 0
    while covered != universe:
        gain, pick = 0, -1
        for i, m in enumerate(masks):
            g = (m & ~covered).bit_count()
            if g > gain:
                gain, pick = g, i
        best.append(pick)
        covered |= masks[pick]
    best_size = len(best)

    # every point lies on exactly one slice per axis, so the point to
    # branch on, the uncovered one with the fewest slices (the first of
    # them), is the uncovered one of least index
    slot = {sl: i for i, sl in enumerate(slices)}
    point_slices = [[slot[sl] for sl in enumerate(pt)] for pt in points]
    touches = [0] * len(points)  # the points that share a slice with each point
    for k, options in enumerate(point_slices):
        for i in options:
            touches[k] |= masks[i]

    nodes = 0

    def dfs(rem: int, chosen: list[int], live) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if nodes > COVER_NODE_LIMIT:
            raise EnumerationLimitError(
                f"slice cover search exceeds {COVER_NODE_LIMIT} nodes for shape {t.shape}"
            )
        if not rem:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        gains = {}  # new points per slice that still has some
        for i in live:
            g = (masks[i] & rem).bit_count()
            if g:
                gains[i] = g
        if len(chosen) + -(-rem.bit_count() // max(gains.values())) >= best_size:
            return
        free, apart = rem, 0  # uncovered points that pairwise share no slice
        while free:
            free &= ~touches[(free & -free).bit_length() - 1]
            apart += 1
        if len(chosen) + apart >= best_size:
            return
        pick_point = (rem & -rem).bit_length() - 1
        options = sorted(point_slices[pick_point], key=lambda i: (-gains[i], slices[i]))
        for i in options:
            chosen.append(i)
            dfs(rem & ~masks[i], chosen, gains)
            chosen.pop()
            if len(chosen) + 1 >= best_size:
                break

    dfs(universe, [], range(len(masks)))
    chosen_slices = tuple(sorted(slices[i] for i in best))
    return CoverResult(best_size, chosen_slices)


def rank_via_cover(t: Tensor) -> RankResult:
    """Rank bound from a minimum slice cover, with certificate and witness decomposition.

    Each support point is charged to the first cover slice containing it,
    which turns the cover into a decomposition with one term per slice:
    the slices are walked in order over a copy of the data, and each takes
    its cotensor before its slice is zeroed. The certificate is the one
    ``certificate_from_decomposition`` derives from those terms, read off
    the cover instead. The term vectors on an axis are the unit vectors at
    the cover's indices there, so their annihilator is spanned by the unit
    rows at the other indices, a basis already in reduced echelon form;
    building it directly saves the two row reductions per axis that the
    derivation runs, about half of this function's time outside the cover
    search on sparse supports. The bound is exact exactly when the support
    is an antichain; the result carries that flag.
    """
    cover = min_slice_cover(t)
    work = t.data.copy()
    terms = []
    for axis, x in cover.slices:
        u = np.zeros(t.shape[axis], dtype=np.int64)
        u[x] = 1
        at = (slice(None),) * axis + (x,)
        terms.append(SliceTerm(axis, u, work[at].copy()))
        work[at] = 0
    dec = SliceDecomposition(t.field, t.shape, tuple(terms))
    subspaces = []
    for axis, n in enumerate(t.shape):
        rows = np.delete(np.eye(n, dtype=np.int64), [x for a, x in cover.slices if a == axis], 0)
        subspaces.append(Subspace(t.field, n, FieldMatrix(t.field, rows)))
    cert = DualCertificate(tuple(subspaces))
    return RankResult(cover.count, cert, dec, "cover", exact=support_and_antichain(t).is_antichain)
