"""Brute-force oracles and seeded generators shared by the test modules.

The oracles enumerate: row spaces as frozensets of vector tuples, kernels by
trying every vector, and pairings by explicit loops. They never call the
code paths they are used to check. The triangular reference is the plain
fold-chain walk that searches every component from scratch. The search
reference is the per-candidate subspace walk over one codimension
composition, and the rank reference tries every composition of r = 0, 1, 2,
... with it, so the certificate it returns is the first in (rank,
composition, subspace) order by construction; both check the walk of
``slice_rank_exact``. The witness reference is the expansion
``decomposition_from_certificate`` ran before it telescoped: it verifies the
certificate first, completes each basis and inverts it by elimination, and
expands T in the product basis, so the rank reference builds its
decomposition without the shipped expansion; the projection reference builds
one axis of the telescoped expansion from the basis on every call, as it did
before ``Subspace.projection`` kept it. The stack reference is the loop
``enumerate_subspaces`` ran before the subspace stacks were built whole,
each pivot and free entry written on its own. The block references loop over
every block index, as ``is_block_upper_triangular`` and
``random_block_upper_triangular`` did before the mask and the
nondecreasing-index enumeration. The slice rank bound reference enumerates
every subspace tuple on the leading axes and every vector tuple in it, and
ranks each contracted matrix by its row span; the basis-only reference next
to it is the weaker bound shipped before. The capped rank reference is the
elimination ``_batch_ranks`` ran before it was trimmed, the point reference
rebuilds each subspace's point indices on every call as the bound did before
they were cached, and the cover reference is the branch and bound
``min_slice_cover`` ran before it dropped spent slices and bounded by points
that share no slice. The cover rank reference charges each point in a loop
over the cover's slices and derives its certificate by elimination with
``certificate_from_decomposition``, and the antichain reference compares
every pair of sorted points both ways, as ``rank_via_cover`` and
``support_and_antichain`` did before they read both off the cover and the
lexicographic order. The dual family reference completes the rows to an
invertible matrix and inverts it by elimination; the reduced-basis reference
checks row by row. The normalization reference rebases every axis's terms
with ``rebase_terms``, takes ``dual_family`` of each echelon basis and
checks the staircase with one ``mode_product`` per later cotensor, as
``triangular_normalize`` did before its one pass at the pivots. The row
reduction reference scans each column twice with ``np.flatnonzero``, and
the kernel reference writes its vectors entry by entry, as both did before
they were vectorized. The completion, few-zero vector, inverse and
membership references run their own elimination bookkeeping, as
``complete_basis``, ``few_zero_kernel_vector``, ``invert_matrix`` and
``Subspace.contains`` did before they read the free columns and unit rows
off ``Subspace.projection``; the witness and dual family references
complete and invert through them. The parse references are the per-entry
loops the wire-format readers ran before they checked in bulk; they share
only the field and shape helpers with ``serialize``. The split references
are the two pivot-order branches ``_split_axis`` ran before one rule
served both, and the loop over all 2^d block indices that checked the
distinguished-axis support condition component by component; the direct
sum references are the offset loop of ``direct_sum_list`` and the two-part
``direct_sum_decomposition`` and ``direct_sum_certificate``, as shipped
before the sums were laid out by ``BlockStructure``.
"""

import math
from itertools import combinations, permutations, product

import numpy as np

from slicerank import (
    BlockStructure,
    DualCertificate,
    FieldMatrix,
    PrimeField,
    SliceDecomposition,
    SliceTerm,
    Subspace,
    SupportInfo,
    Tensor,
    block_component,
    certificate_from_decomposition,
    matrix_rank,
    slice_rank_exact,
    verify_certificate,
)
from slicerank.linalg import _row_reduce, echelonize, grassmannian
from slicerank.normalize import NormalizedDecomposition, dual_family, rebase_terms
from slicerank.rank import CoverResult, RankResult, _grassmannian_stack
from slicerank.errors import FormatError, PreconditionError, SliceRankError, VerificationError
from slicerank.serialize import (
    MAX_DENSE_CELLS,
    _int_field,
    _is_int,
    _require,
    certificate_to_obj,
    check_shape,
)
from slicerank.splitting import FIRST, AxisSplit
from slicerank.tensor import evaluate_decomposition, mode_product


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


def cover_corpus():
    """Seeded tensors for the cover path, orders 2-4 over GF(2), GF(3), GF(5) and GF(7).

    Per field: zero tensors, zero-length axes, single points, sparse random
    supports, dense blocks in a corner, and random parts of the permutation
    antichain of each order d (the permutations of 0..d-1 in a d^d cube),
    whole and reversed on axis 0 so that it becomes comparable.
    """
    rng = np.random.default_rng(131)
    cases = []
    for p in (2, 3, 5, 7):
        field = PrimeField(p)

        def fill(mask):
            return Tensor(field, mask.shape, np.where(mask, rng.integers(1, p, size=mask.shape), 0))

        for shape in [(4, 5), (3, 3, 3), (2, 4, 3), (3, 2, 3, 2)]:
            cases.append(Tensor.zeros(field, shape))
            point = np.zeros(shape, dtype=bool)
            point[tuple(int(rng.integers(0, n)) for n in shape)] = True
            cases.append(fill(point))
            for density in (0.15, 0.4):
                cases.append(fill(rng.random(shape) < density))
            block = np.zeros(shape, dtype=bool)
            block[tuple(slice(0, 2) for _ in shape)] = True
            cases.append(fill(block))
        for shape in [(0, 3), (2, 0, 3), (3, 3, 0, 2)]:
            cases.append(Tensor.zeros(field, shape))
        for d in (2, 3, 4):
            antichain = np.zeros((d,) * d, dtype=bool)
            antichain[tuple(np.array(list(permutations(range(d)))).T)] = True
            for mask in (antichain, antichain & (rng.random(antichain.shape) < 0.6)):
                cases.append(fill(mask))
                cases.append(fill(mask[::-1]))
    return cases


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


def compositions(total, caps):
    """All tuples with given sum, 0 <= part <= cap, in lexicographic order."""
    if len(caps) == 1:
        if 0 <= total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in compositions(total - first, caps[1:]):
            yield (first,) + rest


def reference_first_certificate(data, p, bound):
    """Dimensions and indices of the first annihilating subspace tuple, or None.

    Compositions of r = 0, 1, ..., ``bound`` are tried in lexicographic
    order, each with ``reference_search_composition``.
    """
    for r in range(bound + 1):
        for comp in compositions(r, data.shape):
            dims = [n - c for n, c in zip(data.shape, comp)]
            found = reference_search_composition(data, p, dims)
            if found is not None:
                return dims, found
    return None


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


def reference_slice_rank(t: Tensor, budget=None) -> RankResult:
    """The dual-search ``slice_rank_exact`` result, found rank by rank.

    Tries r = 0, 1, 2, ... up to the budget and, for each r, every
    codimension composition in lexicographic order, so every rank below
    sigma is refuted by the per-candidate walk itself.
    """
    p = t.field.p
    trivial_max = min(t.shape)
    hi = trivial_max if budget is None else min(budget, trivial_max)
    found = reference_first_certificate(t.data, p, hi)
    if found is None:
        if budget is not None and budget < trivial_max:
            return RankResult(None, None, None, "dual_search", status="rank_above_budget", exact=False)
        raise AssertionError("search failed below the trivial rank bound")
    dims, idx = found
    subs = tuple(
        grassmannian(p, t.shape[axis], dims[axis])[i] for axis, i in enumerate(idx)
    )
    cert = DualCertificate(subs)
    dec = reference_decomposition_from_certificate(t, cert)
    return RankResult(cert.bound, cert, dec, "dual_search")


def reference_decomposition_from_certificate(t: Tensor, c: DualCertificate) -> SliceDecomposition:
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
        b = reference_complete_basis(sub)
        bases.append(b.data)
        primal.append(reference_invert_matrix(b).data)
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


def reference_axis_projection(sub: Subspace):
    """(proj, free columns, u_f rows) of a basis, built as the expansion did before caching them."""
    rows, n, p = sub.basis.data, sub.ambient_dim, sub.field.p
    proj = np.zeros((n, n), dtype=np.int64)
    proj[[int(np.flatnonzero(row)[0]) for row in rows]] = rows
    comp = (np.eye(n, dtype=np.int64) - proj) % p
    free = np.flatnonzero(comp.any(axis=0))
    return proj, free, comp[:, free].T


def reference_grassmannian_stack(p, n, k):
    """All k-dimensional reduced bases as (count, n, k), from the loop of ``enumerate_subspaces``.

    Pivot profiles in lexicographic order, then the free entries in the
    odometer order of ``itertools.product``, the last one fastest; each
    pivot and each free entry is written on its own, as the per-basis loop
    did before the subspace stacks were built whole.
    """
    blocks = []
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivot_set]
        values = list(product(range(p), repeat=len(free)))
        block = np.zeros((len(values), k, n), dtype=np.int64)
        for i, c in enumerate(pivots):
            block[:, i, c] = 1
        for pos, (i, j) in enumerate(free):
            block[:, i, j] = [v[pos] for v in values]
        blocks.append(block.transpose(0, 2, 1))
    return np.concatenate(blocks)


def reference_is_block_upper_triangular(t: Tensor, blocks: BlockStructure) -> bool:
    """The block check as a loop over every block index, as shipped before the mask."""
    if blocks.shape != t.shape:
        raise PreconditionError("block structure does not match tensor shape")
    k = blocks.num_blocks
    for alpha in product(range(k), repeat=t.order):
        if all(alpha[i] <= alpha[i + 1] for i in range(len(alpha) - 1)):
            continue
        if t.data[blocks.block_slices(alpha)].any():
            return False
    return True


def reference_random_block_upper_triangular(field: PrimeField, blocks: BlockStructure, rng) -> Tensor:
    """Random block upper triangular tensor, filtering every block index as before."""
    data = np.zeros(blocks.shape, dtype=np.int64)
    k = blocks.num_blocks
    for alpha in product(range(k), repeat=blocks.order):
        if all(alpha[i] <= alpha[i + 1] for i in range(len(alpha) - 1)):
            sl = blocks.block_slices(alpha)
            size = tuple(s.stop - s.start for s in sl)
            data[sl] = rng.integers(0, field.p, size=size)
    return Tensor(field, blocks.shape, data)


def reference_slice_rank_bound(data, p):
    """Least over subspace tuples on axes 0..d-3 of codimension sum + largest rank of u . T.

    u runs over every tuple of vectors in the subspaces, each subspace
    enumerated as its whole row span, and u . T is the n_{d-2} x n_{d-1}
    matrix T contracts to, ranked by its row span (once per vector tuple);
    every subspace tuple of every dimension is tried.
    """
    lead = [
        [sub for dim in range(n + 1) for sub in grassmannian(p, n, dim)]
        for n in data.shape[:-2]
    ]
    ranks = {}

    def rank_at(vectors):
        if vectors not in ranks:
            arr = data
            for u in vectors:
                arr = np.tensordot(np.array(u, dtype=np.int64), arr, axes=([0], [0])) % p
            ranks[vectors] = brute_matrix_rank(arr, p)
        return ranks[vectors]

    best = None
    for subs in product(*lead):
        worst = max(rank_at(vectors) for vectors in product(*map(subspace_tuples, subs)))
        total = sum(sub.codim for sub in subs) + worst
        best = total if best is None else min(best, total)
    return best


def reference_basis_slice_rank_bound(data, p):
    """The same least with u running only over tuples of basis vectors.

    Every slice of the array the basis tuple contracts to is ranked by its
    row span. This is the weaker bound the every-vector one contains.
    """
    lead = [
        [sub for dim in range(n + 1) for sub in grassmannian(p, n, dim)]
        for n in data.shape[:-2]
    ]
    best = None
    for subs in product(*lead):
        arr = data
        for axis, sub in enumerate(subs):
            arr = mode_product(arr, sub.basis.data, axis, p)
        slices = arr.reshape(-1, *data.shape[-2:])
        worst = max((brute_matrix_rank(m, p) for m in slices), default=0)
        total = sum(sub.codim for sub in subs) + worst
        best = total if best is None else min(best, total)
    return best


def reference_batch_ranks(mats, p, cap):
    """Capped ranks by the elimination ``_batch_ranks`` ran before it was trimmed.

    Every pass compacts the matrices at the cap, tests the whole stack for
    zero and gathers the lead entry and the pivot row by separate indices.
    """
    cap = min(cap, *mats.shape[1:])
    if cap <= 1:
        return np.where(mats.any(axis=(1, 2)), cap, 0)
    if mats.shape[1] < mats.shape[2]:
        mats = mats.transpose(0, 2, 1)
    ranks = np.full(len(mats), cap, dtype=np.int64)
    live = np.arange(len(mats))
    rank = np.zeros(len(mats), dtype=np.int64)
    for _ in range(mats.shape[2]):
        keep = rank < cap
        if not keep.all():
            mats, rank, live = mats[keep], rank[keep], live[keep]
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
    ranks[live] = np.minimum(rank, cap)
    return ranks


def reference_subspace_points(p, n, dim, step):
    """Point indices of each subspace, rebuilt on every call as before the tables were cached."""
    if dim == 0:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = _grassmannian_stack(p, n, 1)[:, :, 0] @ weights
    order = np.argsort(codes)
    ordered = codes[order]
    coeffs = _grassmannian_stack(p, dim, 1)[:, :, 0]
    stack = _grassmannian_stack(p, n, dim)
    for k0 in range(0, len(stack), step):
        bases = stack[k0 : k0 + step]
        vecs = (coeffs @ bases.transpose(2, 0, 1).reshape(dim, -1)) % p
        found = vecs.reshape(len(coeffs), len(bases), n) @ weights
        yield order[np.searchsorted(ordered, found.T)]


def reference_min_slice_cover(t: Tensor) -> CoverResult:
    """Minimum slice cover by the branch and bound ``min_slice_cover`` ran before.

    Its only prune is the uncovered points over the largest gain, and every
    node recounts the gain of every slice, spent ones included.
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
    # every slice through an uncovered point still gains it, so the point
    # to branch on, the uncovered one with the fewest slices (the first of
    # them), is the first uncovered one in this order
    branch_order = sorted(range(len(points)), key=lambda k: len(point_slices[k]))

    def dfs(covered: int, chosen: list[int]) -> None:
        nonlocal best, best_size
        if covered == universe:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        rem = universe & ~covered
        gains = [(m & rem).bit_count() for m in masks]  # new points per slice
        if len(chosen) + -(-rem.bit_count() // max(gains)) >= best_size:
            return
        pick_point = next(k for k in branch_order if (rem >> k) & 1)
        options = sorted(point_slices[pick_point], key=lambda i: (-gains[i], slices[i]))
        for i in options:
            chosen.append(i)
            dfs(covered | masks[i], chosen)
            chosen.pop()
            if len(chosen) + 1 >= best_size:
                break

    dfs(0, [])
    chosen_slices = tuple(sorted(slices[i] for i in best))
    return CoverResult(best_size, chosen_slices)


def reference_support_and_antichain(t: Tensor) -> SupportInfo:
    """Nonzero index tuples, and whether no two are componentwise comparable."""
    points = [tuple(int(i) for i in idx) for idx in np.argwhere(t.data)]
    points.sort()
    is_antichain = True
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            a, b = points[i], points[j]
            if all(x <= y for x, y in zip(a, b)) or all(x >= y for x, y in zip(a, b)):
                is_antichain = False
                break
        if not is_antichain:
            break
    return SupportInfo(tuple(points), is_antichain)


def reference_rank_via_cover(t: Tensor) -> RankResult:
    """Rank bound from a minimum slice cover, with witness decomposition.

    Each support point is charged to the first cover slice containing it,
    which turns the cover into a decomposition with one term per slice.
    The cover and the antichain flag come from the references above.
    """
    cover = reference_min_slice_cover(t)
    info = reference_support_and_antichain(t)
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


def reference_dual_family(vectors: FieldMatrix) -> FieldMatrix:
    """Biorthogonal duals read off the inverse of the rows completed by unit vectors.

    The completion is ``reference_complete_basis`` of the rows' span, the
    given rows kept as the leading rows; the inverse comes from
    ``reference_invert_matrix``.
    """
    p = vectors.field.p
    if matrix_rank(vectors) != vectors.rows:
        raise PreconditionError("vectors are linearly dependent")
    full = reference_complete_basis(Subspace.from_rows(vectors.field, vectors.data))
    stacked = np.vstack([vectors.data, full.data[vectors.rows :]])
    inv = reference_invert_matrix(FieldMatrix(vectors.field, stacked))
    return FieldMatrix(vectors.field, inv.data[:, : vectors.rows].T)


def reference_triangular_normalize(dec: SliceDecomposition) -> NormalizedDecomposition:
    """Order-3 staircase normalization as shipped before the pass at the pivots.

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


def reference_row_reduce(data, p, pivot_limit=None):
    """Gauss-Jordan reduction with two ``np.flatnonzero`` scans per column, as shipped before."""
    m = data.copy()
    rows, cols = m.shape
    limit = cols if pivot_limit is None else pivot_limit
    pivots = []
    r = 0
    for c in range(limit):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        col = m[:, c].copy()
        col[r] = 0
        other = np.flatnonzero(col)
        if other.size:
            m[other] = (m[other] - np.outer(col[other], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def reference_kernel_basis(m: FieldMatrix) -> Subspace:
    """The right kernel with its vectors written entry by entry, as shipped before."""
    p = m.field.p
    red, piv = reference_row_reduce(m.data, p)
    n = m.cols
    free = [c for c in range(n) if c not in piv]
    vectors = np.zeros((len(free), n), dtype=np.int64)
    for k, f in enumerate(free):
        vectors[k, f] = 1
        for i, c in enumerate(piv):
            vectors[k, c] = (-red[i, f]) % p
    return Subspace.from_rows(m.field, vectors, ambient_dim=n)


def reference_complete_basis(s: Subspace) -> FieldMatrix:
    """The basis with unit rows appended at its non-pivot positions, as shipped before."""
    n = s.ambient_dim
    rows = s.basis.data
    pivots = {int(np.flatnonzero(row)[0]) for row in rows}
    extra = [j for j in range(n) if j not in pivots]
    completion = np.zeros((len(extra), n), dtype=np.int64)
    for i, j in enumerate(extra):
        completion[i, j] = 1
    return FieldMatrix(s.field, np.vstack([rows, completion]))


def reference_few_zero_kernel_vector(constraints: FieldMatrix):
    """(vector, degenerate): 1 at every free coordinate, each pivot coordinate solved in turn."""
    p = constraints.field.p
    red, piv = _row_reduce(constraints.data, p)
    n = constraints.cols
    h = np.ones(n, dtype=np.int64)
    for c in piv:
        h[c] = 0
    for i, c in enumerate(piv):
        h[c] = (-int(red[i] @ h)) % p
    return h, len(piv) == n


def reference_invert_matrix(m: FieldMatrix) -> FieldMatrix:
    """The inverse read off the reduction of [m | I], as shipped before."""
    if m.rows != m.cols:
        raise PreconditionError("only square matrices can be inverted")
    n = m.rows
    aug = np.hstack([m.data, np.eye(n, dtype=np.int64)])
    red, piv = _row_reduce(aug, m.field.p, pivot_limit=n)
    if len(piv) != n:
        raise PreconditionError("matrix is singular")
    return FieldMatrix(m.field, red[:, n:])


def reference_contains(s: Subspace, vector) -> bool:
    """Membership by reducing the basis with the vector appended, as shipped before."""
    v = s.field.residues(vector)
    stacked = np.vstack([s.basis.data, v.reshape(1, -1)])
    return len(_row_reduce(stacked, s.field.p)[1]) == s.dim


def reference_check_reduced(rows):
    """The reduced-basis check row by row: the message of the first failure, or None."""
    last = -1
    for row in rows:
        nz = np.flatnonzero(row)
        if nz.size == 0:
            return "basis contains a zero row"
        c = int(nz[0])
        if c <= last:
            return "pivot columns are not strictly increasing"
        if row[c] != 1:
            return "pivot entry is not 1"
        if np.count_nonzero(rows[:, c]) != 1:
            return f"pivot column {c} is not cleared"
        last = c
    return None


def reference_dense_from_obj(obj, expect_field=None, max_cells=MAX_DENSE_CELLS):
    """(field, shape, array) of a dense tensor object, checked entry by entry."""
    _require(isinstance(obj, dict), "tensor object must be a JSON object")
    p = _int_field(obj, "prime")
    try:
        field = PrimeField(p)
    except Exception as exc:
        raise FormatError(f"invalid prime {p}: {exc}") from None
    if expect_field is not None and field != expect_field:
        raise FormatError(f"prime {p} does not match the surrounding context")
    shape = obj.get("shape")
    _require(isinstance(shape, list), "shape must be a list of nonnegative integers")
    shape = check_shape(shape)
    if math.prod(shape) > max_cells:
        raise FormatError(
            f"shape {list(shape)} is over the {max_cells} cells left of the "
            f"{MAX_DENSE_CELLS} one file may hold"
        )
    entries = obj.get("entries", [])
    _require(isinstance(entries, list), "entries must be a list")
    arr = np.zeros(shape, dtype=np.int64)
    seen = set()
    for e in entries:
        _require(isinstance(e, dict), "each entry must be an object")
        index = e.get("index")
        _require(
            isinstance(index, list) and len(index) == len(shape),
            "entry index must list one coordinate per axis",
        )
        idx = []
        for axis, i in enumerate(index):
            if not (_is_int(i) and 1 <= i <= shape[axis]):
                raise FormatError(f"index {i} out of range on axis {axis + 1}")
            idx.append(i - 1)
        idx = tuple(idx)
        if idx in seen:
            raise FormatError(f"duplicate index {index}")
        seen.add(idx)
        value = _int_field(e, "value")
        if not 0 <= value < p:
            raise FormatError(f"value {value} not a residue mod {p}")
        arr[idx] = value
    return field, shape, arr


def reference_decomposition_from_obj(obj, field=None, shape=None) -> SliceDecomposition:
    """A decomposition array parsed term by term, its ``u`` entries checked one by one."""
    _require(isinstance(obj, list), "decomposition must be a JSON array")
    if not obj:
        _require(
            field is not None and shape is not None,
            "empty decomposition needs a field and shape from context",
        )
        return SliceDecomposition(field, tuple(shape), ())
    terms = []
    inferred_shape = tuple(shape) if shape is not None else None
    cells_left = MAX_DENSE_CELLS
    for item in obj:
        _require(isinstance(item, dict), "each term must be an object")
        axis1 = _int_field(item, "axis")
        u = item.get("u")
        _require(isinstance(u, list) and all(_is_int(x) for x in u),
                 "term vector u must be a list of integers")
        v_field, v_shape, v_arr = reference_dense_from_obj(item.get("v"), field, cells_left)
        cells_left -= v_arr.size
        _require(all(0 <= x < v_field.p for x in u),
                 f"term vector u entries must be residues mod {v_field.p}")
        if field is None:
            field = v_field
        axis = axis1 - 1
        d = len(v_shape) + 1
        _require(1 <= axis1 <= d, f"axis {axis1} out of range for order {d}")
        term_shape = v_shape[:axis] + (len(u),) + v_shape[axis:]
        if inferred_shape is None:
            inferred_shape = check_shape(term_shape)
        _require(
            term_shape == inferred_shape,
            f"term implies shape {term_shape}, expected {inferred_shape}",
        )
        terms.append(SliceTerm(axis, np.array(u, dtype=np.int64), v_arr))
    return SliceDecomposition(field, inferred_shape, tuple(terms))


def reference_subspace_from_obj(obj, field: PrimeField) -> Subspace:
    """A certificate subspace whose basis rows are checked one by one."""
    _require(isinstance(obj, dict), "subspace must be a JSON object")
    ambient = _int_field(obj, "ambient")
    _require(
        0 <= ambient <= MAX_DENSE_CELLS,
        f"ambient dimension {ambient} is outside the range 0..{MAX_DENSE_CELLS}",
    )
    basis = obj.get("basis")
    _require(
        isinstance(basis, list)
        and all(isinstance(row, list) and all(_is_int(x) for x in row) for row in basis),
        "basis must be a list of integer rows",
    )
    for row in basis:
        _require(len(row) == ambient, "basis row length does not match ambient dimension")
        _require(all(0 <= x < field.p for x in row), "basis entries must be residues")
    arr = np.array(basis, dtype=np.int64).reshape(len(basis), ambient)
    return Subspace(field, ambient, FieldMatrix(field, arr))


def reference_split_axis(sub: Subspace, s: int, option: str) -> AxisSplit:
    """One axis of the split, each pivot order on its own branch, as shipped before."""
    field = sub.field
    n = sub.ambient_dim
    if option == FIRST:
        rows = sub.basis.data.copy()        # already forward-reduced
        pivots = [int(np.flatnonzero(r)[0]) for r in rows]
        k = sum(1 for c in pivots if c < s)  # block-1 pivot rows form a prefix
        w1 = rows[:k].copy()
        w1[:, s:] = 0
        w2 = rows[k:]
        # each row keeps its pivot on its side of s, so both blocks of a
        # reduced basis are reduced
        block1 = Subspace(field, s, FieldMatrix(field, w1[:, :s]))
        block2 = Subspace(field, n - s, FieldMatrix(field, w2[:, s:]))
    else:
        ech = echelonize(sub.basis, "backward")
        rows = ech.matrix.data
        in_block1 = [c < s for c in ech.pivots]  # last pivot inside block 1
        w1 = rows[[i for i, b in enumerate(in_block1) if b]]
        w2 = rows[[i for i, b in enumerate(in_block1) if not b]].copy()
        w2[:, :s] = 0
        k = w1.shape[0]
        block1 = Subspace.from_rows(field, w1[:, :s], ambient_dim=s)
        block2 = Subspace.from_rows(field, w2[:, s:], ambient_dim=n - s)
        if block1.dim != k or block2.dim != sub.dim - k:
            raise AssertionError("split rows lost independence")
    w = np.vstack([w1, w2]) if w1.size or w2.size else np.zeros((0, n), dtype=np.int64)
    return AxisSplit(FieldMatrix(field, w), k, block1, block2)


def reference_distinguished_axis_support(t: Tensor, blocks: BlockStructure, special_axis: int = -1) -> None:
    """The distinguished-axis support check, one block component at a time over all 2^d."""
    d = t.order
    special = special_axis % d
    for alpha in np.ndindex(*(2,) * d):
        if alpha[special] == 1 or all(a == 0 for a in alpha):
            continue
        if block_component(t, blocks, alpha).data.any():
            raise PreconditionError(
                f"support condition violated: block component {tuple(alpha)} is nonzero"
            )


def reference_direct_sum_list(tensors) -> tuple[Tensor, BlockStructure]:
    """Block-diagonal sum placed by running offsets, as shipped before."""
    if not tensors:
        raise PreconditionError("direct sum of zero tensors is undefined")
    first = tensors[0]
    for t in tensors[1:]:
        if t.field != first.field:
            raise PreconditionError("direct summands must share the field")
        if t.order != first.order:
            raise PreconditionError("direct summands must share the order")
    d = first.order
    shape = tuple(sum(t.shape[i] for t in tensors) for i in range(d))
    data = np.zeros(shape, dtype=np.int64)
    offsets = [0] * d
    for t in tensors:
        sl = tuple(slice(offsets[i], offsets[i] + t.shape[i]) for i in range(d))
        data[sl] = t.data
        for i in range(d):
            offsets[i] += t.shape[i]
    blocks = BlockStructure(tuple(tuple(t.shape[i] for t in tensors) for i in range(d)))
    return Tensor(first.field, shape, data), blocks


def reference_direct_sum_certificate(c1: DualCertificate, c2: DualCertificate) -> DualCertificate:
    """Two-part certificate sum, each axis stacked by hand, as shipped before."""
    if len(c1.subspaces) != len(c2.subspaces):
        raise PreconditionError("certificates must have the same number of axes")
    subs = []
    for s1, s2 in zip(c1.subspaces, c2.subspaces):
        n1, n2 = s1.ambient_dim, s2.ambient_dim
        left = np.hstack([s1.basis.data, np.zeros((s1.dim, n2), dtype=np.int64)])
        right = np.hstack([np.zeros((s2.dim, n1), dtype=np.int64), s2.basis.data])
        stacked = np.vstack([left, right])
        subs.append(Subspace(s1.field, n1 + n2, FieldMatrix(s1.field, stacked)))
    return DualCertificate(tuple(subs))


def reference_direct_sum_decomposition(
    d1: SliceDecomposition, d2: SliceDecomposition
) -> SliceDecomposition:
    """Two-part decomposition sum from start offsets, as shipped before."""
    if d1.field != d2.field or len(d1.shape) != len(d2.shape):
        raise PreconditionError("decompositions must share field and order")
    shape = tuple(a + b for a, b in zip(d1.shape, d2.shape))
    terms = []
    for dec, starts in ((d1, (0,) * len(shape)), (d2, d1.shape)):
        for term in dec.terms:
            axis = term.axis
            u = np.zeros(shape[axis], dtype=np.int64)
            u[starts[axis] : starts[axis] + len(term.u)] = term.u
            v = np.zeros(shape[:axis] + shape[axis + 1 :], dtype=np.int64)
            rest = starts[:axis] + starts[axis + 1 :]
            v[tuple(slice(s, s + n) for s, n in zip(rest, term.v.shape))] = term.v
            terms.append(SliceTerm(axis, u, v))
    return SliceDecomposition(d1.field, shape, tuple(terms))


def two_block_corpus():
    """Seeded (tensor, certificate, blocks) triples on two blocks per axis.

    Orders 2-4 over GF(2), GF(3) and GF(5), block sizes 0-2 (so zero-size
    axes and empty blocks occur), random certificates of every dimension,
    and tensors with random entries on a random set of block components, so
    that some satisfy the distinguished-axis support condition and some do not.
    """
    rng = np.random.default_rng(1818)
    cases = []
    for p in (2, 3, 5):
        field = PrimeField(p)
        for d in (2, 3, 4):
            for _ in range(8):
                blocks = BlockStructure(tuple(tuple(int(x) for x in rng.integers(0, 3, size=2))
                                              for _ in range(d)))
                data = np.zeros(blocks.shape, dtype=np.int64)
                for alpha in product(range(2), repeat=d):
                    if rng.random() < 0.3:
                        sl = blocks.block_slices(alpha)
                        data[sl] = rng.integers(0, p, size=data[sl].shape)
                cert = DualCertificate(tuple(random_subspace(rng, field, n) for n in blocks.shape))
                cases.append((Tensor(field, blocks.shape, data), cert, blocks))
    return cases
