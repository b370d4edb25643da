"""Exact slice rank via exhaustive dual-subspace search.

The slice rank of T is at most r exactly when there are subspaces U_i of
the dual of each axis space, with codimensions summing to r, such that T is
annihilated by every product functional u_1 x ... x u_d with u_i in U_i.
Over GF(p) the subspaces form a finite canonical family, so minimizing over
them computes the rank exactly. The computation has two phases.

The least-rank pass finds sigma. It starts from the least rank of a
flattening of T, an attained total that already is sigma when it is at most
2, and moves the axis with the most subspaces last. Once U_1..U_{d-1} (the
prefix) are fixed, T contracted by them is a matrix A over the last axis,
and U_d annihilates it exactly when U_d lies in the kernel of A, so the
least last-axis codimension is rank(A). Sigma is the least codimension sum
of a prefix plus its rank(A). Each prefix axis is
contracted against all its candidate bases of one dimension in one batched
product, shared by every choice on the later axes, and the ranks come from
one batched elimination mod p, a block of at most ``_BLOCK_CELLS`` cells at
a time. Prefixes whose codimension sum cannot beat the best total are
skipped.

The canonical search then emits the witness at r = sigma only: codimension
compositions of sigma in lexicographic order, subspaces in canonical
enumeration order, and the first annihilating tuple is the certificate. No
r below sigma has one, so this is the first certificate in (rank,
composition, subspace) order. Every axis of that search is the same batched
step: one matrix product contracts the partly contracted tensor against all
candidate bases of the axis, and one ``any`` finds the candidates that
annihilate it. Expanding T in a basis adapted to the certificate turns it
back into a decomposition with exactly sigma terms.

Everything is deterministic: identical inputs give identical certificates,
decompositions, and byte-identical serialized output.
"""

from __future__ import annotations

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
    complete_basis,
    count_subspaces,
    grassmannian,
    invert_matrix,
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

# The least-rank pass builds and reduces its partial contractions in blocks
# of at most this many array cells, which bounds its memory.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Per-axis dual subspaces witnessing a slice rank bound.

    The bound is the sum of the codimensions. A certificate is valid for a
    tensor when every tuple of basis functionals annihilates it; by
    multilinearity that settles the whole product space.
    """

    subspaces: tuple[Subspace, ...]

    def __post_init__(self):
        if len(self.subspaces) < 2:
            raise PreconditionError("certificate needs a subspace per axis, order >= 2")
        field = self.subspaces[0].field
        for s in self.subspaces:
            if s.field != field:
                raise PreconditionError("certificate subspaces must share the field")
        object.__setattr__(self, "subspaces", tuple(self.subspaces))

    @property
    def field(self):
        return self.subspaces[0].field

    @property
    def bound(self) -> int:
        return sum(s.codim for s in self.subspaces)

    @property
    def ambient_shape(self) -> tuple[int, ...]:
        return tuple(s.ambient_dim for s in self.subspaces)

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
    """

    sigma: Optional[int]
    certificate: Optional[DualCertificate]
    decomposition: Optional[SliceDecomposition]
    method: str
    status: str = "ok"
    exact: bool = True


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


def _compositions(total: int, caps: Sequence[int]):
    """All tuples with given sum, 0 <= part <= cap, in lexicographic order."""
    if len(caps) == 1:
        if 0 <= total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _grassmannian_stack(p: int, ambient_dim: int, dim: int) -> np.ndarray:
    """All canonical bases of one dimension, transposed and stacked as (count, n, dim)."""
    subs = grassmannian(p, ambient_dim, dim)
    return np.ascontiguousarray(np.stack([s.basis.data.T for s in subs]))


def _search_composition(data: np.ndarray, p: int, dims: Sequence[int]) -> Optional[list[int]]:
    """First subspace tuple (by enumeration index) annihilating the array.

    The search is depth first over the axes. The partly contracted array is
    kept as a matrix whose rows run over the next raw axis and whose columns
    run over the remaining raw axes, then the contracted ones. One product
    with the axis's stack of candidate bases contracts it for every
    candidate at once, and one ``any`` finds the candidates that vanish. A
    vanished candidate completes with index 0 on every later axis, so the
    answer on an axis is the first vanished candidate unless a live one
    before it succeeds deeper.
    """
    d = data.ndim
    if not data.any():
        return [0] * d
    stacks = [_grassmannian_stack(p, data.shape[axis], dims[axis]) for axis in range(d)]

    def rec(axis: int, mat: np.ndarray) -> Optional[list[int]]:
        batch = (mat.T @ stacks[axis]) % p
        dead = np.flatnonzero(~batch.any(axis=(1, 2)))
        first_dead = int(dead[0]) if dead.size else len(batch)
        if axis < d - 1:
            n_next = data.shape[axis + 1]
            for idx in range(first_dead):
                found = rec(axis + 1, batch[idx].reshape(n_next, -1))
                if found is not None:
                    return [idx] + found
        if dead.size:
            return [first_dead] + [0] * (d - axis - 1)
        return None

    return rec(0, data.reshape(data.shape[0], -1))


def _least_batch_rank(mats: np.ndarray, p: int, cap: int) -> int:
    """Least rank mod p in a (count, rows, cols) stack of matrices, or ``cap``.

    One vectorized elimination pass per column of the narrower side: each
    matrix takes a row with the largest entry in the column as its pivot,
    and every row, the pivot row included, becomes lead * row - entry *
    pivot, which clears the column. Scaling rows by the nonzero lead keeps
    the rank, and the pivot row, now zero, has been counted. A matrix whose
    count reaches ``cap`` is dropped, and the passes stop once every
    remaining matrix is zero.
    """
    if mats.shape[1] < mats.shape[2]:
        mats = mats.transpose(0, 2, 1)
    rank = np.zeros(len(mats), dtype=np.int64)
    for _ in range(mats.shape[2]):
        live = rank < cap
        if not live.all():
            mats, rank = mats[live], rank[live]
        if not mats.any():
            break
        col = mats[:, :, 0]
        pivot = col.argmax(axis=1)
        every = np.arange(len(mats))
        lead = col[every, pivot]
        rank += lead > 0
        rest = mats[:, :, 1:]
        pivot_row = rest[every, pivot]
        scaled = np.maximum(lead, 1)[:, None, None] * rest
        mats = (scaled - col[:, :, None] * pivot_row[:, None, :]) % p
    return int(rank.min(initial=cap))


def _least_rank(data: np.ndarray, p: int, bound: int) -> int:
    """Least codimension sum of an annihilating subspace tuple, capped at ``bound``.

    Returns ``bound`` when no tuple has a smaller sum. The axis with the
    most subspaces goes last; the prefix axes are walked depth first with
    codimensions in increasing order. A batch holds, for a block of prefix
    tuples, the array they contract to, as matrices whose rows run over the
    next raw axis. A candidate that kills the array, or a dim-0 subspace,
    ends its prefix with the total equal to the prefix sum; at the last axis
    the total is the prefix sum plus the least rank in the batch.
    """
    if not data.any():
        return min(bound, 0)
    if bound <= 1:  # a nonzero tensor has rank at least 1
        return bound
    # Each flattening's rank is an attained total (its annihilator on that
    # axis, full spaces on the others), so the least one bounds sigma; zero
    # padding to a common shape keeps the ranks. A tensor has rank 1 exactly
    # when some flattening does, so a least flattening rank of at most 2 is
    # sigma itself.
    d = data.ndim
    flats = np.zeros((d, max(data.shape), data.size // min(data.shape)), dtype=np.int64)
    for axis, n in enumerate(data.shape):
        flats[axis, :n, : data.size // n] = np.moveaxis(data, axis, 0).reshape(n, -1)
    bound = _least_batch_rank(flats, p, bound)
    if bound <= 2:
        return bound
    last = max(range(d), key=lambda axis: (data.shape[axis], axis))
    data = data.transpose([axis for axis in range(d) if axis != last] + [last])
    shape = data.shape
    best = bound

    def visit(axis: int, batch: np.ndarray, s: int) -> None:
        nonlocal best
        if axis == d - 1:
            best = s + _least_batch_rank(batch, p, best - s)
            return
        n, cols = shape[axis], batch.shape[2]
        for c in range(n + 1):
            if s + c >= best:
                return
            if c == n:  # the dim-0 subspace annihilates everything
                best = s + c
                return
            stack = _grassmannian_stack(p, n, n - c)
            cells = cols * (n - c)  # per (prefix tuple, candidate) pair
            cand_step = max(1, _BLOCK_CELLS // cells)
            for j in range(0, len(stack), cand_step):
                cands = stack[j : j + cand_step]
                step = max(1, _BLOCK_CELLS // (cells * len(cands)))
                for i in range(0, len(batch), step):
                    out = (batch[i : i + step, None].transpose(0, 1, 3, 2) @ cands) % p
                    out = out.reshape(-1, shape[axis + 1], cells // shape[axis + 1])
                    if not out.any(axis=(1, 2)).all():
                        best = s + c
                        return
                    visit(axis + 1, out, s + c)
                    if s + c >= best:
                        return

    visit(0, data.reshape(1, shape[0], -1), 0)
    return best


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
            (``enumeration_size``), although the least-rank pass enumerates
            only the prefix axes.
        method: "auto" short-circuits order-2 tensors to matrix rank;
            "dual" forces the subspace search (valid for every order);
            "matrix" demands an order-2 tensor.

    The search runs in two phases. The least-rank pass computes sigma as
    the least prefix codimension sum plus the mod-p rank of the contracted
    last-axis matrix; the canonical search then runs at r = sigma only. The
    returned certificate is the first verifying one in (rank, composition,
    subspace-enumeration) lexicographic order, and the decomposition is
    derived from it, so outputs are reproducible.
    """
    if method not in ("auto", "dual", "matrix"):
        raise PreconditionError(f"unknown method {method!r}")
    if method == "matrix" or (method == "auto" and t.order == 2):
        if t.order != 2:
            raise PreconditionError("matrix method requires an order-2 tensor")
        return _matrix_rank_result(t, budget)

    p = t.field.p
    size = enumeration_size(t.shape, p)
    if size > limit:
        raise EnumerationLimitError(
            f"worst-case enumeration size {size} exceeds limit {limit} "
            f"for shape {t.shape} over GF({p})"
        )

    trivial_max = min(t.shape)
    hi = trivial_max if budget is None else min(budget, trivial_max)
    # min(shape) is always attained, so only smaller totals are searched for
    sigma = _least_rank(t.data, p, min(hi + 1, trivial_max))
    if sigma > hi:
        return RankResult(None, None, None, "dual_search", status="rank_above_budget", exact=False)
    for comp in _compositions(sigma, t.shape):
        dims = [n - c for n, c in zip(t.shape, comp)]
        found = _search_composition(t.data, p, dims)
        if found is None:
            continue
        subs = tuple(
            grassmannian(p, t.shape[axis], dims[axis])[idx]
            for axis, idx in enumerate(found)
        )
        cert = DualCertificate(subs)
        dec = decomposition_from_certificate(t, cert)
        return RankResult(sigma, cert, dec, "dual_search")
    raise AssertionError("no certificate at the least rank")


def certificate_from_decomposition(dec: SliceDecomposition) -> DualCertificate:
    """Certificate annihilating the value of a decomposition.

    On each axis, take the annihilator of the vectors used by that axis's
    terms; the bound is at most the number of terms.
    """
    subs = []
    for axis, n in enumerate(dec.shape):
        terms = dec.terms_on_axis(axis)
        if terms:
            stack = np.vstack([term.u for term in terms])
        else:
            stack = np.zeros((0, n), dtype=np.int64)
        subs.append(annihilator(FieldMatrix(dec.field, stack)))
    return DualCertificate(tuple(subs))


def decomposition_from_certificate(t: Tensor, c: DualCertificate) -> SliceDecomposition:
    """Rebuild a decomposition with exactly bound(c) terms from a certificate.

    For each axis, the certificate basis is completed to a basis of the
    dual space and T is expanded in the corresponding product basis. The
    annihilation condition forces every surviving component to use a
    completion direction on some axis; each component is assigned to the
    lowest such axis, giving one term per (axis, completion direction).
    Terms with zero cotensors are kept so the term count always equals the
    certificate bound.
    """
    if not verify_certificate(t, c):
        raise VerificationError("certificate does not verify against the tensor")
    p = t.field.p
    d = t.order
    bases = []      # full dual bases, certificate rows first
    primal = []     # matching primal bases: columns of the inverse
    dims = []       # certificate subspace dimensions
    for sub in c.subspaces:
        b = complete_basis(sub)
        bases.append(b.data)
        primal.append(invert_matrix(b).data)
        dims.append(sub.dim)

    lam = t.data
    for axis in range(d):
        lam = mode_product(lam, bases[axis], axis, p)

    terms = []
    for axis in range(d):
        n = t.shape[axis]
        for col in range(dims[axis], n):
            selector: list = [slice(None)] * d
            for j in range(axis):
                selector[j] = slice(0, dims[j])
            selector[axis] = col
            group = lam[tuple(selector)]
            # back to primal coordinates on every remaining axis
            rest_axes = [j for j in range(d) if j != axis]
            out = group
            for pos, j in enumerate(rest_axes):
                mat = primal[j][:, : dims[j]] if j < axis else primal[j]
                out = mode_product(out, mat, pos, p)
            u = primal[axis][:, col].copy()
            terms.append(SliceTerm(axis, u, out))
    return SliceDecomposition(t.field, t.shape, tuple(terms))


class CoverResult(NamedTuple):
    count: int
    slices: tuple[tuple[int, int], ...]


def min_slice_cover(t: Tensor) -> CoverResult:
    """Minimum number of axis-aligned slices covering the support, exactly.

    Solved by branch and bound on the set cover instance whose sets are the
    nonempty slices (axis, index). Always an upper bound for the slice
    rank; equal to it when the support is an antichain.
    """
    points = [tuple(int(i) for i in idx) for idx in np.argwhere(t.data)]
    if not points:
        return CoverResult(0, ())
    index_of = {pt: i for i, pt in enumerate(points)}
    universe = (1 << len(points)) - 1

    slices: list[tuple[int, int]] = []
    masks: list[int] = []
    for axis in range(t.order):
        for x in range(t.shape[axis]):
            mask = 0
            for pt in points:
                if pt[axis] == x:
                    mask |= 1 << index_of[pt]
            if mask:
                slices.append((axis, x))
                masks.append(mask)

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

    point_slices = [
        [i for i, m in enumerate(masks) if (m >> k) & 1] for k in range(len(points))
    ]

    def dfs(covered: int, chosen: list[int]) -> None:
        nonlocal best, best_size
        if covered == universe:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        remaining = (universe & ~covered).bit_count()
        max_gain = max((m & ~covered).bit_count() for m in masks)
        if len(chosen) + -(-remaining // max_gain) >= best_size:
            return
        # branch on the uncovered point with the fewest covering slices
        pick_point = -1
        pick_count = None
        rem = universe & ~covered
        while rem:
            k = (rem & -rem).bit_length() - 1
            cnt = sum(1 for i in point_slices[k] if masks[i] & ~covered)
            if pick_count is None or cnt < pick_count:
                pick_count, pick_point = cnt, k
            rem &= rem - 1
        options = sorted(
            (i for i in point_slices[pick_point]),
            key=lambda i: (-(masks[i] & ~covered).bit_count(), slices[i]),
        )
        for i in options:
            chosen.append(i)
            dfs(covered | masks[i], chosen)
            chosen.pop()
            if len(chosen) + 1 >= best_size:
                break

    dfs(0, [])
    chosen_slices = tuple(sorted(slices[i] for i in best))
    return CoverResult(best_size, chosen_slices)


def rank_via_cover(t: Tensor) -> RankResult:
    """Rank bound from a minimum slice cover, with witness decomposition.

    Each support point is charged to the first cover slice containing it,
    which turns the cover into a decomposition with one term per slice.
    The bound is exact exactly when the support is an antichain; the result
    carries that flag.
    """
    cover = min_slice_cover(t)
    info = support_and_antichain(t)
    assigned = {sl: np.zeros(t.shape[: sl[0]] + t.shape[sl[0] + 1 :], dtype=np.int64)
                for sl in cover.slices}
    for pt in info.support:
        for sl in cover.slices:
            axis, x = sl
            if pt[axis] == x:
                rest = pt[:axis] + pt[axis + 1 :]
                assigned[sl][rest] = t.data[pt]
                break
    terms = []
    for axis, x in cover.slices:
        u = np.zeros(t.shape[axis], dtype=np.int64)
        u[x] = 1
        terms.append(SliceTerm(axis, u, assigned[(axis, x)]))
    dec = SliceDecomposition(t.field, t.shape, tuple(terms))
    cert = certificate_from_decomposition(dec)
    return RankResult(cover.count, cert, dec, "cover", exact=info.is_antichain)
