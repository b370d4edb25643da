import json
import tracemalloc
from itertools import product

import numpy as np
import pytest

from helpers import (
    random_decomposition,
    random_distinguished_axis_tensor,
    random_subspace,
    reference_check_triangular,
    reference_direct_sum_certificate,
    reference_direct_sum_decomposition,
    reference_distinguished_axis_support,
    reference_split_axis,
    two_block_corpus,
)
from slicerank import splitting
from slicerank import (
    BlockStructure,
    DualCertificate,
    OptionChoice,
    PreconditionError,
    PrimeField,
    SliceDecomposition,
    SliceTerm,
    Subspace,
    Tensor,
    block_component,
    certificate_from_decomposition,
    check_additivity,
    check_triangular,
    diagonal_tensor,
    direct_sum,
    direct_sum_certificate,
    direct_sum_decomposition,
    direct_sum_list,
    evaluate_decomposition,
    levi_civita,
    levi_civita_decomposition,
    levi_civita_obstruction_demo,
    random_block_upper_triangular,
    random_tensor,
    slice_rank_exact,
    split_certificate,
    split_certificate_distinguished_axis,
    verify_certificate,
)
from slicerank.serialize import dump_json
from slicerank.splitting import _split_axis

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def two_term_diagonal_certificate():
    """The 2x2x2 diagonal with the certificate of its two-slab decomposition."""
    t = diagonal_tensor(GF2, 2, 2)
    terms = tuple(
        SliceTerm(0, np.eye(2, dtype=np.int64)[i], np.outer(np.eye(2, dtype=np.int64)[i], np.eye(2, dtype=np.int64)[i]))
        for i in range(2)
    )
    dec = SliceDecomposition(GF2, (2, 2, 2), terms)
    assert evaluate_decomposition(dec) == t
    return t, certificate_from_decomposition(dec)


def test_split_diagonal_worked_example():
    t, cert = two_term_diagonal_certificate()
    assert cert.bound == 2
    blocks = BlockStructure(((1, 1), (1, 1), (1, 1)))
    trace = split_certificate(cert, blocks, OptionChoice(("first", "second", "second")))
    c1, c2 = trace.component_certificates()
    assert c1.bound == 1 and c2.bound == 1
    part = Tensor(GF2, (1, 1, 1), [[[1]]])
    assert verify_certificate(part, c1)
    assert verify_certificate(part, c2)
    # axis 0 carries the whole bound: its dual is the zero subspace on both sides
    assert trace.axes[0].threshold == 0
    assert trace.axes[0].block1_dual.dim == 0
    assert trace.axes[0].block2_dual.dim == 0
    for axis in (1, 2):
        assert trace.axes[axis].block1_dual.codim + trace.axes[axis].block2_dual.codim == 0


def test_split_zero_subspace_certificate():
    cert = DualCertificate(tuple(Subspace.zero(GF2, 2) for _ in range(3)))
    blocks = BlockStructure(((1, 1), (1, 1), (1, 1)))
    trace = split_certificate(cert, blocks)
    for ax in trace.axes:
        assert ax.threshold == 0
        assert ax.block1_dual.dim == 0 and ax.block2_dual.dim == 0
        assert ax.block1_dual.codim + ax.block2_dual.codim == 2


def test_split_with_empty_second_block():
    eps = levi_civita(GF3)
    res = slice_rank_exact(eps)
    blocks = BlockStructure(((3, 0), (3, 0), (3, 0)))
    trace = split_certificate(res.certificate, blocks)
    for axis, ax in enumerate(trace.axes):
        sub = res.certificate.subspaces[axis]
        assert ax.threshold == sub.dim
        assert ax.block1_dual == sub
        assert ax.block2_dual.ambient_dim == 0


def test_split_requires_both_options():
    _, cert = two_term_diagonal_certificate()
    blocks = BlockStructure(((1, 1), (1, 1), (1, 1)))
    with pytest.raises(PreconditionError):
        split_certificate(cert, blocks, OptionChoice(("first", "first", "first")))


def test_split_requires_two_blocks():
    _, cert = two_term_diagonal_certificate()
    with pytest.raises(PreconditionError):
        split_certificate(cert, BlockStructure(((1, 1, 0), (1, 1, 0), (1, 1, 0))))


def test_split_invariant_under_representation():
    # same subspaces presented through different generating rows
    rng = np.random.default_rng(13)
    t1 = random_tensor(GF3, (2, 2, 2), rng)
    t2 = random_tensor(GF3, (2, 2, 2), rng)
    total, blocks = direct_sum(t1, t2)
    cert = slice_rank_exact(total).certificate
    trace_a = split_certificate(cert, blocks)
    shuffled = []
    for sub in cert.subspaces:
        rows = sub.basis.data
        mixed = rows.copy()
        if rows.shape[0] >= 2:
            mixed = np.vstack([(rows[0] + rows[1]) % 3] + [rows[i] for i in range(1, rows.shape[0])])
        shuffled.append(Subspace.from_rows(sub.field, mixed, ambient_dim=sub.ambient_dim))
    trace_b = split_certificate(DualCertificate(tuple(shuffled)), blocks)
    for ax_a, ax_b in zip(trace_a.axes, trace_b.axes):
        assert ax_a.block1_dual == ax_b.block1_dual
        assert ax_a.block2_dual == ax_b.block2_dual


def test_split_codim_additivity_and_verification_seeded():
    for trial in range(20):
        rng = np.random.default_rng([500, trial])
        p = int(rng.choice([2, 3]))
        field = PrimeField(p)
        shape1 = tuple(int(x) for x in rng.integers(1, 3, size=3))
        shape2 = tuple(int(x) for x in rng.integers(1, 3, size=3))
        t1 = random_tensor(field, shape1, rng)
        t2 = random_tensor(field, shape2, rng)
        total, blocks = direct_sum(t1, t2)
        cert = slice_rank_exact(total).certificate
        trace = split_certificate(cert, blocks)
        c1, c2 = trace.component_certificates()
        for axis, ax in enumerate(trace.axes):
            r_i = cert.subspaces[axis].codim
            assert ax.block1_dual.codim + ax.block2_dual.codim == r_i
            assert ax.block1_dual.dim + ax.block2_dual.dim == cert.subspaces[axis].dim
        assert verify_certificate(t1, c1)
        assert verify_certificate(t2, c2)


def test_split_valid_for_every_admissible_option_pattern():
    from itertools import product as iproduct

    patterns = [
        OptionChoice(combo)
        for combo in iproduct(("first", "second"), repeat=3)
        if "first" in combo and "second" in combo
    ]
    assert len(patterns) == 6
    for trial in range(8):
        rng = np.random.default_rng([800, trial])
        t1 = random_tensor(GF3, (2, 2, 2), rng)
        t2 = random_tensor(GF3, (2, 2, 2), rng)
        total, blocks = direct_sum(t1, t2)
        cert = slice_rank_exact(total).certificate
        for choices in patterns:
            trace = split_certificate(cert, blocks, choices)
            c1, c2 = trace.component_certificates()
            assert verify_certificate(t1, c1), (trial, choices)
            assert verify_certificate(t2, c2), (trial, choices)
            for axis, ax in enumerate(trace.axes):
                assert (
                    ax.block1_dual.codim + ax.block2_dual.codim
                    == cert.subspaces[axis].codim
                )


def test_split_w_vectors_respect_blocks():
    rng = np.random.default_rng(77)
    t1 = random_tensor(GF2, (2, 2, 2), rng)
    t2 = random_tensor(GF2, (2, 2, 2), rng)
    total, blocks = direct_sum(t1, t2)
    cert = slice_rank_exact(total).certificate
    trace = split_certificate(cert, blocks)
    for axis, ax in enumerate(trace.axes):
        s = blocks.sizes[axis][0]
        w = ax.w_vectors.data
        k = ax.threshold
        assert not w[:k, s:].any()
        assert not w[k:, :s].any()
        assert w.shape[0] == cert.subspaces[axis].dim


def _same_axis_split(a, b):
    return (a.w_vectors == b.w_vectors and a.threshold == b.threshold
            and a.block1_dual == b.block1_dual and a.block2_dual == b.block2_dual)


def test_split_axis_matches_reference_for_both_orders():
    patterns = 0
    for _, cert, blocks in two_block_corpus():
        for sub, sizes in zip(cert.subspaces, blocks.sizes):
            for option in ("first", "second"):
                assert _same_axis_split(_split_axis(sub, sizes[0], option),
                                        reference_split_axis(sub, sizes[0], option))
        d = blocks.order
        for combo in product(("first", "second"), repeat=d):
            if "first" in combo and "second" in combo:
                patterns += 1
                trace = split_certificate(cert, blocks, OptionChoice(combo))
                for i, ax in enumerate(trace.axes):
                    ref = reference_split_axis(cert.subspaces[i], blocks.sizes[i][0], combo[i])
                    assert _same_axis_split(ax, ref)
    assert patterns > 300


# --- distinguished-axis mode ---

def test_distinguished_axis_accepts_direct_sums():
    t1 = diagonal_tensor(GF2, 2, 2)
    t2 = diagonal_tensor(GF2, 2, 1)
    total, blocks = direct_sum(t1, t2)
    cert = slice_rank_exact(total).certificate
    trace = split_certificate_distinguished_axis(total, cert, blocks)
    c1, c2 = trace.component_certificates()
    assert verify_certificate(t1, c1)
    assert verify_certificate(t2, c2)


def test_distinguished_axis_support_condition_checked():
    data = np.zeros((2, 2, 2), dtype=np.int64)
    data[1, 1, 0] = 1  # block (2, 2, 1): forbidden
    t = Tensor(GF2, (2, 2, 2), data)
    blocks = BlockStructure(((1, 1), (1, 1), (1, 1)))
    cert = slice_rank_exact(t).certificate
    with pytest.raises(PreconditionError):
        split_certificate_distinguished_axis(t, cert, blocks)


def test_distinguished_axis_random_instances():
    blocks = BlockStructure(((2, 2), (2, 2), (2, 2)))
    for trial in range(10):
        rng = np.random.default_rng([900, trial])
        t = random_distinguished_axis_tensor(rng, GF2, blocks)
        res = slice_rank_exact(t)
        trace = split_certificate_distinguished_axis(t, res.certificate, blocks)
        c1, c2 = trace.component_certificates()
        lead = block_component(t, blocks, (0, 0, 0))
        trail = block_component(t, blocks, (1, 1, 1))
        assert verify_certificate(lead, c1)
        assert verify_certificate(trail, c2)
        assert res.sigma >= slice_rank_exact(lead).sigma + slice_rank_exact(trail).sigma


def test_distinguished_axis_support_matches_reference_loop():
    outcomes = {True: 0, False: 0}
    for t, cert, blocks in two_block_corpus():
        for special in range(t.order):
            try:
                reference_distinguished_axis_support(t, blocks, special)
                expected = None
            except PreconditionError as exc:
                expected = str(exc)
            try:
                trace = split_certificate_distinguished_axis(t, cert, blocks, special_axis=special)
                got = None
            except PreconditionError as exc:
                got = str(exc)
            assert got == expected
            outcomes[got is None] += 1
            if got is None:
                assert trace.choices.choices[special] == "second"
                assert sum(c == "second" for c in trace.choices.choices) == 1
    assert outcomes[True] > 50 and outcomes[False] > 50


def test_distinguished_axis_split_reads_no_block_components(monkeypatch):
    def refuse(*args):
        raise AssertionError("block_component called")

    monkeypatch.setattr(splitting, "block_component", refuse)
    for d in (40, 64):
        t = Tensor(GF2, (1,) * d, np.ones((1,) * d, dtype=np.int64))
        cert = DualCertificate(tuple(Subspace.zero(GF2, 1) for _ in range(d)))
        trace = split_certificate_distinguished_axis(t, cert, BlockStructure(((1, 0),) * d))
        assert [ax.threshold for ax in trace.axes] == [0] * d
        # the single entry sits in block 2 on every axis but the distinguished
        # first one: the forbidden component (1, 2, ..., 2) in 1-based terms
        blocks = BlockStructure(((1, 0),) + ((0, 1),) * (d - 1))
        with pytest.raises(PreconditionError, match=rf"block component \(0{', 1' * (d - 1)}\) is"):
            split_certificate_distinguished_axis(t, cert, blocks, special_axis=0)


def test_distinguished_axis_support_memory_does_not_grow_with_the_order():
    d = 16  # every entry nonzero; one block index per entry and axis would take 2d = 32 times the tensor
    t = Tensor(GF2, (2,) * d, np.ones((2,) * d, dtype=np.int64))
    cert = DualCertificate(tuple(Subspace.zero(GF2, 2) for _ in range(d)))
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match=rf"block component \({'0, ' * (d - 1)}1\) is"):
            split_certificate_distinguished_axis(t, cert, BlockStructure(((1, 1),) * d), special_axis=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * t.data.nbytes


# --- combining certificates and decompositions ---

def test_direct_sum_certificate_bound_and_verification():
    eps = levi_civita(GF3)
    single = slice_rank_exact(eps)
    combined = direct_sum_certificate(single.certificate, single.certificate)
    total, _ = direct_sum(eps, eps)
    assert combined.bound == 6
    assert verify_certificate(total, combined)


def test_direct_sum_decomposition_evaluates_to_sum():
    eps = levi_civita(GF3)
    dec = levi_civita_decomposition(GF3)
    combined = direct_sum_decomposition(dec, dec)
    total, _ = direct_sum(eps, eps)
    assert len(combined.terms) == 6
    assert evaluate_decomposition(combined) == total


def _direct_sum_parts(rng, field, d, count):
    shapes = [tuple(int(x) for x in rng.integers(0, 3, size=d)) for _ in range(count)]
    decs = [random_decomposition(rng, field, shape) for shape in shapes]
    certs = [DualCertificate(tuple(random_subspace(rng, field, n) for n in shape)) for shape in shapes]
    return decs, certs


def _same_decomposition(a, b):
    return (a.field == b.field and a.shape == b.shape and len(a.terms) == len(b.terms)
            and all(x.axis == y.axis and np.array_equal(x.u, y.u) and np.array_equal(x.v, y.v)
                    for x, y in zip(a.terms, b.terms)))


def test_two_part_direct_sums_match_reference():
    rng = np.random.default_rng(1819)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for d in (2, 3, 4):
            for _ in range(6):
                (d1, d2), (c1, c2) = _direct_sum_parts(rng, field, d, 2)
                assert _same_decomposition(direct_sum_decomposition(d1, d2),
                                           reference_direct_sum_decomposition(d1, d2))
                assert direct_sum_certificate(c1, c2) == reference_direct_sum_certificate(c1, c2)


def test_n_part_direct_sums_equal_chained_two_part_sums():
    rng = np.random.default_rng(1820)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for d in (2, 3, 4):
            for m in range(1, 7):
                decs, certs = _direct_sum_parts(rng, field, d, m)
                dec, cert = decs[0], certs[0]
                for other_dec, other_cert in zip(decs[1:], certs[1:]):
                    dec = direct_sum_decomposition(dec, other_dec)
                    cert = direct_sum_certificate(cert, other_cert)
                summed = direct_sum_decomposition(*decs)
                assert _same_decomposition(summed, dec)
                assert direct_sum_certificate(*certs) == cert
                assert direct_sum_certificate(*certs).bound == sum(c.bound for c in certs)
                parts = [evaluate_decomposition(x) for x in decs]
                assert evaluate_decomposition(summed) == direct_sum_list(parts)[0]


def test_direct_sums_refuse_mixed_fields():
    gf5 = PrimeField(5)
    single2 = slice_rank_exact(levi_civita(GF2)).certificate
    single3 = slice_rank_exact(levi_civita(GF3)).certificate
    with pytest.raises(PreconditionError, match="share the field"):
        direct_sum_certificate(single2, single3)
    with pytest.raises(PreconditionError, match="share the field"):
        direct_sum_certificate(single3, single3, DualCertificate.full(gf5, (1, 1, 1)))
    with pytest.raises(PreconditionError, match="share field"):
        direct_sum_decomposition(levi_civita_decomposition(GF2), levi_civita_decomposition(GF3))
    with pytest.raises(PreconditionError, match="share the field"):
        direct_sum_list([levi_civita(GF2), levi_civita(GF3)])


# --- additivity harness ---

def test_additivity_of_diagonals():
    report = check_additivity(diagonal_tensor(GF2, 2, 2), diagonal_tensor(GF2, 3, 3))
    assert report["sigma_parts"] == [2, 3]
    assert report["sigma_total"] == 5
    assert report["status"] == "equal"


def test_additivity_with_empty_summand():
    eps = levi_civita(GF3)
    report = check_additivity(eps, Tensor.zeros(GF3, (0, 0, 0)))
    assert report["sigma_parts"] == [3, 0]
    assert report["sigma_total"] == 3
    assert report["status"] == "equal"


def test_additivity_seeded_random_pairs():
    for trial in range(25):
        rng = np.random.default_rng([7, trial])
        t1 = random_tensor(GF2, (2, 2, 2), rng)
        t2 = random_tensor(GF2, (2, 2, 2), rng)
        report = check_additivity(t1, t2)
        assert report["status"] == "equal", report


# --- triangular harness ---

def test_triangular_equality_for_block_diagonal():
    t1 = diagonal_tensor(GF2, 2, 2)
    t2 = diagonal_tensor(GF2, 2, 1)
    total, blocks = direct_sum(t1, t2)
    report = check_triangular(total, blocks)
    assert report["sigma_parts"] == [2, 1]
    assert report["status"] == "equal"
    assert all(step["holds"] for step in report["fold_chain"])


def test_triangular_strictly_upper_zero_diagonal():
    data = np.zeros((2, 2, 2), dtype=np.int64)
    data[0, 0, 1] = 1
    data[0, 1, 1] = 1
    t = Tensor(GF2, (2, 2, 2), data)
    blocks = BlockStructure(((1, 1), (1, 1), (1, 1)))
    report = check_triangular(t, blocks)
    assert report["sigma_parts"] == [0, 0]
    assert report["sigma_total"] >= 0
    assert report["status"] in ("equal", "inequality_holds")


def test_triangular_requires_triangular_input():
    data = np.zeros((2, 2, 2), dtype=np.int64)
    data[1, 0, 0] = 1
    t = Tensor(GF2, (2, 2, 2), data)
    blocks = BlockStructure(((1, 1), (1, 1), (1, 1)))
    with pytest.raises(PreconditionError):
        check_triangular(t, blocks)


def test_triangular_seeded_three_blocks():
    blocks = BlockStructure(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    for trial in range(10):
        rng = np.random.default_rng([11, trial])
        t = random_block_upper_triangular(GF2, blocks, rng)
        report = check_triangular(t, blocks)
        assert report["status"] in ("equal", "inequality_holds"), report
        assert all(step["holds"] for step in report["fold_chain"])


@pytest.mark.parametrize(
    "field, sizes",
    [
        (GF2, ((1, 2), (2, 1), (1, 2))),
        (GF2, ((1, 2, 1), (2, 1, 1), (1, 1, 2))),
        (GF2, ((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1))),
        (GF2, ((1, 0, 2), (2, 1, 0), (1, 1, 1))),
        (GF3, ((1, 2), (2, 1), (1, 1))),
        (GF3, ((1, 1, 1), (1, 1, 1), (1, 1, 1))),
        (GF3, ((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0))),
    ],
    ids=["gf2-k2", "gf2-k3", "gf2-k4", "gf2-k3-empty-block",
         "gf3-k2", "gf3-k3", "gf3-k4-empty-blocks"],
)
def test_triangular_report_matches_reference_walk(field, sizes):
    blocks = BlockStructure(sizes)
    for trial in range(3):
        rng = np.random.default_rng([23, trial])
        t = random_block_upper_triangular(field, blocks, rng)
        report = json.loads(dump_json(check_triangular(t, blocks)))
        assert report == json.loads(dump_json(reference_check_triangular(t, blocks)))


def test_triangular_fold_chain_builds_no_block_structures(monkeypatch):
    blocks = BlockStructure(((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)))
    t = random_block_upper_triangular(GF3, blocks, np.random.default_rng(1821))
    expected = json.loads(dump_json(reference_check_triangular(t, blocks)))

    def refuse(*args):
        raise AssertionError("BlockStructure built")

    monkeypatch.setattr(splitting, "BlockStructure", refuse)
    assert json.loads(dump_json(check_triangular(t, blocks))) == expected
    assert [step["levels"] for step in expected["fold_chain"]] == [4, 3, 2]


# --- obstruction demo ---

def test_obstruction_demo_single_copy():
    report = levi_civita_obstruction_demo(1)
    assert report["m"] == 1
    assert report["sigma_true"] == 3
    assert report["antisymmetric"]
    assert report["rank_contraction"] <= 2
    assert report["h_zeros"] <= report["r"]
    assert report["s_plus_t"] == 2
    assert report["slicing_bound_lhs"] >= report["slicing_bound_rhs"]


def test_obstruction_demo_two_copies():
    report = levi_civita_obstruction_demo(2)
    assert report["sigma_true"] == 6
    assert report["sigma_method"] == "antichain_cover"
    assert report["rank_contraction"] <= report["s_plus_t"] == 4
    # the one-axis count certifies strictly less than the true rank
    assert report["naive_total_lower_bound"] < report["sigma_true"]


def test_obstruction_demo_empty():
    assert levi_civita_obstruction_demo(0) == {}


def test_obstruction_demo_all_ones_contraction():
    # contracting with all-ones gives an antisymmetric matrix of rank 2
    from slicerank import FieldMatrix, contract_axis, matrix_rank

    eps = levi_civita(GF3)
    m = contract_axis(eps, [1, 1, 1], 0)
    assert not ((m.data + m.data.T) % 3).any()
    assert matrix_rank(FieldMatrix(GF3, m.data)) == 2
