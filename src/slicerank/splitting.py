"""Splitting dual certificates across a two-block direct sum.

A certificate for a block-diagonal tensor can be cut into one certificate
per diagonal block without losing any of its bound. On each axis the
certificate basis is echelonized in one of two pivot orders, forward or
backward, and one rule serves both: rows pivoting inside block 1 come
first, and every row is cut to its own block. Whenever at least one axis
uses each order, the two collections of per-block subspaces annihilate the
two diagonal components, and on every axis the block codimensions add up
to the original one. That is the engine behind rank additivity of direct
sums and behind the lower bounds for block upper triangular tensors, and
this module also ships oracle-backed checkers for both. Blocks, direct sums
of any number of parts and fold levels are all laid out by ``BlockStructure``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .linalg import FieldMatrix, Subspace, echelonize, few_zero_kernel_vector, matrix_rank
from .rank import (
    DEFAULT_ENUMERATION_LIMIT,
    DualCertificate,
    min_slice_cover,
    slice_rank_exact,
    verify_certificate,
)
from .tensor import (
    BlockStructure,
    SliceDecomposition,
    SliceTerm,
    Tensor,
    block_component,
    contract_axis,
    direct_sum,
    direct_sum_list,
    is_block_upper_triangular,
    levi_civita,
    levi_civita_decomposition,
    permute_axis,
    support_and_antichain,
)

FIRST = "first"
SECOND = "second"


@dataclass(frozen=True)
class OptionChoice:
    """Per-axis choice of pivot order for the splitting elimination."""

    choices: tuple[str, ...]

    def __post_init__(self):
        choices = tuple(self.choices)
        if len(choices) < 2:
            raise PreconditionError("need a choice per axis, order >= 2")
        for c in choices:
            if c not in (FIRST, SECOND):
                raise PreconditionError(f"unknown option {c!r}")
        object.__setattr__(self, "choices", choices)

    @property
    def has_both(self) -> bool:
        return FIRST in self.choices and SECOND in self.choices

    @classmethod
    def default(cls, order: int) -> "OptionChoice":
        """First option on every axis but the last, second option there."""
        return cls((FIRST,) * (order - 1) + (SECOND,))


@dataclass(frozen=True, eq=False)
class AxisSplit:
    """Split data for one axis: reordered w rows, threshold, block duals.

    Rows 0..threshold-1 of ``w_vectors`` vanish outside block 1, the rest
    vanish outside block 2. ``block1_dual`` and ``block2_dual`` are their
    restrictions to the block coordinates, canonicalized.
    """

    w_vectors: FieldMatrix
    threshold: int
    block1_dual: Subspace
    block2_dual: Subspace


@dataclass(frozen=True, eq=False)
class SplitTrace:
    choices: OptionChoice
    axes: tuple[AxisSplit, ...]

    def component_certificates(self) -> tuple[DualCertificate, DualCertificate]:
        cert1 = DualCertificate(tuple(a.block1_dual for a in self.axes))
        cert2 = DualCertificate(tuple(a.block2_dual for a in self.axes))
        return cert1, cert2


def _split_axis(sub: Subspace, s: int, option: str) -> AxisSplit:
    """Cut the basis, echelonized in the option's pivot order, at block offset s.

    A row pivots in block 1 when it has a nonzero left of s (first option)
    or none from s on (second option); those rows come first.
    """
    field, n = sub.field, sub.ambient_dim
    if option == FIRST:
        rows = sub.basis.data  # already forward-reduced
        in_block1 = (rows[:, :s] != 0).any(axis=1)
    else:
        rows = echelonize(sub.basis, "backward").matrix.data
        in_block1 = ~(rows[:, s:] != 0).any(axis=1)
    w1, w2 = rows[in_block1], rows[~in_block1]
    w1[:, s:] = 0
    w2[:, :s] = 0
    k = len(w1)
    if option == FIRST:
        # each row keeps its pivot on its side of s, so both cuts of a
        # reduced basis are reduced
        block1 = Subspace(field, s, FieldMatrix(field, w1[:, :s]))
        block2 = Subspace(field, n - s, FieldMatrix(field, w2[:, s:]))
    else:
        block1 = Subspace.from_rows(field, w1[:, :s], ambient_dim=s)
        block2 = Subspace.from_rows(field, w2[:, s:], ambient_dim=n - s)
        if block1.dim != k or block2.dim != sub.dim - k:
            raise AssertionError("split rows lost independence")
    return AxisSplit(FieldMatrix(field, np.vstack([w1, w2])), k, block1, block2)


def split_certificate(
    c: DualCertificate,
    blocks: BlockStructure,
    choices: Optional[OptionChoice] = None,
) -> SplitTrace:
    """Split a certificate over a two-block structure into per-block duals.

    Requires at least one axis with each option; the default pattern uses
    the first option everywhere except the last axis. When the input
    certificate verifies against a block-diagonal tensor, the two derived
    certificates verify against its diagonal components, so the rank of the
    sum bounds the sum of the component ranks from above.
    """
    if blocks.num_blocks != 2:
        raise PreconditionError("splitting needs exactly two blocks per axis")
    if blocks.shape != c.ambient_shape:
        raise PreconditionError(
            f"block structure shape {blocks.shape} does not match certificate shape {c.ambient_shape}"
        )
    d = len(c.subspaces)
    if choices is None:
        choices = OptionChoice.default(d)
    if len(choices.choices) != d:
        raise PreconditionError("option choices do not match the number of axes")
    if not choices.has_both:
        raise PreconditionError("both pivot options must be used on at least one axis each")
    axes = tuple(
        _split_axis(c.subspaces[i], blocks.sizes[i][0], choices.choices[i])
        for i in range(d)
    )
    return SplitTrace(choices, axes)


def split_certificate_distinguished_axis(
    t: Tensor,
    c: DualCertificate,
    blocks: BlockStructure,
    special_axis: int = -1,
) -> SplitTrace:
    """Split under the weaker support hypothesis with one distinguished axis.

    The tensor may have arbitrary content on block components whose index
    is 2 on the distinguished axis, plus the all-1 component; every other
    component must vanish (checked). The elimination runs with the second
    option on the distinguished axis and the first option elsewhere, and
    the derived certificates witness that the rank of t is at least the
    rank of the leading diagonal component plus the rank of the trailing
    one. The lexicographically least nonzero forbidden component is reported,
    block indices read as binary numbers, axis 0 first, one uint64 per cell.
    """
    if blocks.num_blocks != 2:
        raise PreconditionError("two blocks per axis are required")
    if blocks.shape != t.shape:
        raise PreconditionError("block structure does not match tensor shape")
    d = t.order
    special = special_axis % d
    code = np.zeros((), dtype=np.uint64)
    for block_of in blocks.block_of:
        code = code[..., None] * 2 + block_of.astype(np.uint64)
    codes = code[t.data != 0]
    forbidden = codes[((codes >> (d - 1 - special) & 1) == 0) & (codes != 0)]
    if forbidden.size:
        least = int(forbidden.min())
        alpha = tuple(least >> (d - 1 - i) & 1 for i in range(d))
        raise PreconditionError(f"support condition violated: block component {alpha} is nonzero")
    pattern = [FIRST] * d
    pattern[special] = SECOND
    return split_certificate(c, blocks, OptionChoice(tuple(pattern)))


def direct_sum_certificate(*certs: DualCertificate) -> DualCertificate:
    """Certificate for a direct sum from certificates of any number of parts.

    On each axis the basis is the direct sum of the parts' bases (rows by
    dimension, columns by ambient dimension); the result is already reduced,
    verifies against the sum whenever the inputs verify against the parts,
    and its bound is the sum of the input bounds. Mixed fields are refused.
    """
    if len({len(c.subspaces) for c in certs}) > 1:
        raise PreconditionError("certificates must have the same number of axes")
    subs = []
    for parts in zip(*(c.subspaces for c in certs)):
        stacked, _ = direct_sum_list([Tensor(s.field, s.basis.data.shape, s.basis.data) for s in parts])
        subs.append(Subspace(stacked.field, stacked.shape[1], FieldMatrix(stacked.field, stacked.data)))
    return DualCertificate(tuple(subs))


def direct_sum_decomposition(*decs: SliceDecomposition) -> SliceDecomposition:
    """Decomposition of a direct sum of any number of parts, embedding their terms.

    Part j's terms sit at block (j, ..., j): each term's vector at its axis's
    block slice and its cotensor at the other axes' slices.
    """
    if any(dec.field != decs[0].field or len(dec.shape) != len(decs[0].shape) for dec in decs):
        raise PreconditionError("decompositions must share field and order")
    blocks = BlockStructure(tuple(zip(*(dec.shape for dec in decs))))
    shape = blocks.shape
    terms = []
    for j, dec in enumerate(decs):
        sl = blocks.block_slices((j,) * blocks.order)
        for term in dec.terms:
            axis = term.axis
            u = np.zeros(shape[axis], dtype=np.int64)
            u[sl[axis]] = term.u
            v = np.zeros(shape[:axis] + shape[axis + 1 :], dtype=np.int64)
            v[sl[:axis] + sl[axis + 1 :]] = term.v
            terms.append(SliceTerm(axis, u, v))
    return SliceDecomposition(decs[0].field, shape, tuple(terms))


def check_additivity(
    t1: Tensor, t2: Tensor, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> dict:
    """Compute both sides of rank additivity for a direct sum, independently.

    Returns the report: plain JSON values, except the three certificates,
    which are ``DualCertificate`` values that ``dump_json`` writes in the
    certificate wire format. A "violation" status cannot come from the
    mathematics; it signals an implementation bug.
    """
    r1 = slice_rank_exact(t1, limit=limit)
    r2 = slice_rank_exact(t2, limit=limit)
    total, _ = direct_sum(t1, t2)
    rt = slice_rank_exact(total, limit=limit)
    status = "equal" if rt.sigma == r1.sigma + r2.sigma else "violation"
    return {
        "sigma_parts": [r1.sigma, r2.sigma],
        "sigma_sum": r1.sigma + r2.sigma,
        "sigma_total": rt.sigma,
        "certificates": [r1.certificate, r2.certificate, rt.certificate],
        "status": status,
    }


def check_triangular(
    t: Tensor, blocks: BlockStructure, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> dict:
    """Check the block upper triangular rank inequality, both sides by oracle.

    Also walks the fold chain: merge blocks 1..k-1 against block k, verify
    the two-block inequality at every level, and recurse into the merged
    leading component; level kk slices its three tensors from t at the block
    offsets. The report is plain JSON values, except the certificates (one
    per diagonal block, then the whole tensor's), which are
    ``DualCertificate`` values that ``dump_json`` writes in the certificate
    wire format.
    """
    if not is_block_upper_triangular(t, blocks):
        raise PreconditionError("tensor is not block upper triangular for these blocks")
    d = t.order
    k = blocks.num_blocks
    diag_results = [
        slice_rank_exact(block_component(t, blocks, (j,) * d), limit=limit)
        for j in range(k)
    ]
    total = slice_rank_exact(t, limit=limit)
    sigma_sum = sum(r.sigma for r in diag_results)
    if total.sigma > sigma_sum:
        status = "inequality_holds"
    elif total.sigma == sigma_sum:
        status = "equal"
    else:
        status = "violation"

    def blocks_between(lo: int, hi: int) -> Tensor:  # blocks lo..hi-1 on every axis
        sub = t.data[tuple(slice(off[lo], off[hi]) for off in blocks.offsets)]
        return Tensor(t.field, sub.shape, sub)

    fold_chain = []
    for kk in range(k, 1, -1):
        sig_cur = slice_rank_exact(blocks_between(0, kk), limit=limit).sigma
        sig_lead = slice_rank_exact(blocks_between(0, kk - 1), limit=limit).sigma
        sig_trail = slice_rank_exact(blocks_between(kk - 1, kk), limit=limit).sigma
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

    return {
        "sigma_parts": [r.sigma for r in diag_results],
        "sigma_sum": sigma_sum,
        "sigma_total": total.sigma,
        "certificates": [r.certificate for r in diag_results] + [total.certificate],
        "fold_chain": fold_chain,
        "status": status,
    }


def levi_civita_obstruction_demo(m: int, field=None) -> dict:
    """Why slicing one axis of stacked alternating tensors loses a factor.

    Builds the direct sum of m copies of the 3x3x3 alternating tensor with
    its canonical decomposition (m terms per axis, so r = s = t = m), picks
    an annihilating functional h for the axis-1 vectors with at most r
    zeros, and contracts. The contracted matrix is antisymmetric with zero
    diagonal on every copy, so its rank caps at 2 per copy: the counting
    argument along one axis can certify at best ceil(9m/4) total terms
    against the true rank 3m.
    """
    from .linalg import PrimeField

    if field is None:
        field = PrimeField(3)
    if m < 0:
        raise PreconditionError("number of copies must be nonnegative")
    if m == 0:
        return {}

    eps = levi_civita(field)
    dec = direct_sum_decomposition(*[levi_civita_decomposition(field)] * m)
    total, _ = direct_sum_list([eps] * m)

    axis0 = dec.terms_on_axis(0)
    constraints = FieldMatrix(field, np.vstack([t.u for t in axis0]))
    h, degenerate = few_zero_kernel_vector(constraints)
    contracted = contract_axis(total, h, 0)
    mat = FieldMatrix(field, contracted.data)
    antisymmetric = bool(
        not ((mat.data + mat.data.T) % field.p).any() and not mat.data.diagonal().any()
    )
    rank_m = matrix_rank(mat)

    # exact rank: antichain cover after reversing the block order on axis 1,
    # cross-checked against the concatenated certificate upper bound
    perm = [3 * b + i for b in reversed(range(m)) for i in range(3)]
    reordered = permute_axis(total, 0, perm)
    if not support_and_antichain(reordered).is_antichain:
        raise AssertionError("block-reversed support should be an antichain")
    cover = min_slice_cover(total)
    single = slice_rank_exact(eps)
    upper_cert = direct_sum_certificate(*[single.certificate] * m)
    if not verify_certificate(total, upper_cert) or upper_cert.bound != cover.count:
        raise AssertionError("rank bounds disagree for the stacked tensor")
    sigma_true = cover.count
    sigma_method = "dual_search" if m == 1 else "antichain_cover"
    # at m == 1 the stacked tensor is eps itself, already searched above
    if m == 1 and single.sigma != sigma_true:
        raise AssertionError("cover oracle disagrees with the search")

    r = s = t_count = m
    return {
        "m": m,
        "prime": field.p,
        "sigma_true": sigma_true,
        "sigma_method": sigma_method,
        "r": r,
        "s": s,
        "t": t_count,
        "h": [int(x) for x in h],
        "h_zeros": int(np.count_nonzero(h == 0)),
        "h_degenerate": bool(degenerate),
        "rank_contraction": rank_m,
        "antisymmetric": antisymmetric,
        "s_plus_t": s + t_count,
        "slicing_bound_lhs": 2 * (r // 3) + s + t_count,
        "slicing_bound_rhs": 2 * m,
        "naive_total_lower_bound": -(-9 * m // 4),
    }
