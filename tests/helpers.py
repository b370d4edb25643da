"""Brute-force oracles and seeded generators shared by the test modules.

The oracles enumerate: row spaces as frozensets of vector tuples, kernels by
trying every vector, and pairings by explicit loops. They never call the
code paths they are used to check. The triangular reference is the plain
fold-chain walk that searches every component from scratch, kept to check
the result reuse in ``check_triangular``. The search reference is the
per-candidate subspace walk that the batched ``_search_composition``
replaced.
"""

from itertools import product

import numpy as np

from slicerank import (
    BlockStructure,
    FieldMatrix,
    PrimeField,
    SliceDecomposition,
    SliceTerm,
    Subspace,
    Tensor,
    block_component,
    slice_rank_exact,
)
from slicerank.linalg import grassmannian
from slicerank.serialize import certificate_to_obj
from slicerank.tensor import mode_product


def all_vectors(p, n):
    for coeffs in product(range(p), repeat=n):
        yield np.array(coeffs, dtype=np.int64)


def span_tuples(rows, p):
    """Every vector in the row span, as a frozenset of tuples."""
    rows = np.asarray(rows, dtype=np.int64) % p
    k, n = rows.shape
    out = set()
    for coeffs in product(range(p), repeat=k):
        v = (np.array(coeffs, dtype=np.int64) @ rows) % p if k else np.zeros(n, dtype=np.int64)
        out.add(tuple(int(x) for x in v))
    return frozenset(out)


def brute_kernel_tuples(mat, p):
    """Kernel of a matrix found by trying every vector."""
    mat = np.asarray(mat, dtype=np.int64) % p
    n = mat.shape[1]
    out = set()
    for v in all_vectors(p, n):
        if not ((mat @ v) % p).any():
            out.add(tuple(int(x) for x in v))
    return frozenset(out)


def subspace_tuples(sub: Subspace):
    return span_tuples(sub.basis.data, sub.field.p)


def brute_matrix_rank(mat, p):
    """Rank as the log-size of the row span."""
    size = len(span_tuples(mat, p))
    rank = 0
    while p**rank < size:
        rank += 1
    return rank


def pairing_zero(t: Tensor, cert) -> bool:
    """Explicit check of the annihilation condition, one basis tuple at a time."""
    p = t.field.p
    rows_per_axis = [list(s.basis.data) for s in cert.subspaces]
    for combo in product(*rows_per_axis):
        total = t.data
        for u in combo:
            total = np.tensordot(u, total, axes=([0], [0])) % p
        if int(total) % p != 0:
            return False
    return True


def random_matrix(rng, field: PrimeField, rows, cols) -> FieldMatrix:
    return FieldMatrix(field, rng.integers(0, field.p, size=(rows, cols)))


def random_subspace(rng, field: PrimeField, n) -> Subspace:
    rows = int(rng.integers(0, n + 1))
    return Subspace.from_rows(field, rng.integers(0, field.p, size=(rows, n)), ambient_dim=n)


def random_decomposition(rng, field: PrimeField, shape, max_terms_per_axis=2) -> SliceDecomposition:
    terms = []
    for axis in range(len(shape)):
        rest = shape[:axis] + shape[axis + 1 :]
        for _ in range(int(rng.integers(0, max_terms_per_axis + 1))):
            u = rng.integers(0, field.p, size=shape[axis])
            v = rng.integers(0, field.p, size=rest)
            terms.append(SliceTerm(axis, u, v))
    return SliceDecomposition(field, tuple(shape), tuple(terms))


def random_distinguished_axis_tensor(rng, field: PrimeField, blocks: BlockStructure) -> Tensor:
    """Random tensor whose blocks vanish unless the last axis index is 2nd or all are 1st."""
    d = blocks.order
    data = np.zeros(blocks.shape, dtype=np.int64)
    for alpha in product(range(2), repeat=d):
        if alpha[-1] == 1 or all(a == 0 for a in alpha):
            sl = blocks.block_slices(alpha)
            size = tuple(s.stop - s.start for s in sl)
            data[sl] = rng.integers(0, field.p, size=size)
    return Tensor(field, blocks.shape, data)


def reference_check_triangular(t: Tensor, blocks: BlockStructure) -> dict:
    """The ``check_triangular`` report, with every tensor searched afresh.

    Walks the fold chain by recursing into the merged leading component and
    computes the rank of the current tensor, its leading component and its
    last block at every level, reusing nothing.
    """
    d = t.order
    k = blocks.num_blocks
    diag_results = [
        slice_rank_exact(block_component(t, blocks, (j,) * d)) for j in range(k)
    ]
    total = slice_rank_exact(t)
    sigma_sum = sum(r.sigma for r in diag_results)
    if total.sigma > sigma_sum:
        status = "inequality_holds"
    elif total.sigma == sigma_sum:
        status = "equal"
    else:
        status = "violation"
    fold_chain = []
    current = t
    current_sizes = blocks.sizes
    while len(current_sizes[0]) >= 2:
        kk = len(current_sizes[0])
        folded = BlockStructure(
            tuple((sum(axis[: kk - 1]), axis[kk - 1]) for axis in current_sizes)
        )
        leading = block_component(current, folded, (0,) * d)
        trailing = block_component(current, folded, (1,) * d)
        sig_cur = slice_rank_exact(current).sigma
        sig_lead = slice_rank_exact(leading).sigma
        sig_trail = slice_rank_exact(trailing).sigma
        step_ok = sig_cur >= sig_lead + sig_trail
        fold_chain.append(
            {
                "levels": kk,
                "sigma": sig_cur,
                "sigma_leading": sig_lead,
                "sigma_last_block": sig_trail,
                "holds": step_ok,
            }
        )
        if not step_ok:
            status = "violation"
        current = leading
        current_sizes = tuple(axis[: kk - 1] for axis in current_sizes)
    return {
        "sigma_parts": [r.sigma for r in diag_results],
        "sigma_sum": sigma_sum,
        "sigma_total": total.sigma,
        "certificates": [certificate_to_obj(r.certificate) for r in diag_results]
        + [certificate_to_obj(total.certificate)],
        "fold_chain": fold_chain,
        "status": status,
    }


def reference_search_composition(data, p, dims):
    """First subspace tuple (by enumeration index) annihilating the array.

    The search walks the per-axis canonical subspace lists depth first,
    carrying the partially contracted array; once the partial contraction
    vanishes, any completion works and the lexicographically first one is
    taken. On the innermost axis all candidate bases are contracted in one
    batched product, which keeps the hot loop out of Python.
    """
    d = data.ndim
    lists = [grassmannian(p, data.shape[axis], dims[axis]) for axis in range(d)]
    last_stack = np.stack([s.basis.data for s in lists[d - 1]])
    count = last_stack.shape[0]
    last_flat = last_stack.reshape(count * last_stack.shape[1], data.shape[d - 1])

    def rec(axis, arr):
        if not arr.any():
            return [0] * (d - axis)
        if axis == d:
            return None
        if axis == d - 1:
            # arr axes 0..d-2 are already contracted; the last one is raw
            batch = (last_flat @ arr.reshape(-1, arr.shape[-1]).T) % p
            alive = batch.reshape(count, -1).any(axis=1)
            hit = np.flatnonzero(~alive)
            return [int(hit[0])] if hit.size else None
        for idx, sub in enumerate(lists[axis]):
            found = rec(axis + 1, mode_product(arr, sub.basis.data, axis, p))
            if found is not None:
                return [idx] + found
        return None

    return rec(0, data)
