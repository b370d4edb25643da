from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_matrix_rank,
    cover_corpus,
    pairing_zero,
    random_decomposition,
    random_subspace,
    reference_basis_slice_rank_bound,
    reference_batch_ranks,
    reference_decomposition_from_certificate,
    reference_first_certificate,
    reference_min_slice_cover,
    reference_rank_via_cover,
    reference_slice_rank,
    reference_slice_rank_bound,
    reference_subspace_points,
)
from slicerank import (
    BlockStructure,
    DualCertificate,
    EnumerationLimitError,
    FieldMatrix,
    PreconditionError,
    PrimeField,
    SliceDecomposition,
    SliceTerm,
    Subspace,
    Tensor,
    VerificationError,
    certificate_from_decomposition,
    check_additivity,
    check_triangular,
    decomposition_from_certificate,
    diagonal_tensor,
    direct_sum,
    enumeration_size,
    evaluate_decomposition,
    levi_civita,
    levi_civita_decomposition,
    matrix_rank,
    min_slice_cover,
    permute_axis,
    random_block_upper_triangular,
    rank_via_cover,
    random_tensor,
    slice_rank_exact,
    verify_certificate,
)
from slicerank import linalg, rank, splitting
from slicerank.rank import (
    _batch_ranks,
    _canonical_certificate,
    _point_ranks,
    _point_table,
    _slice_rank_bound,
)
from slicerank.serialize import rank_result_to_obj
from slicerank.tensor import mode_product

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


# --- certificate verification ---

def test_full_certificate_fails_on_nonzero_tensor():
    eps = levi_civita(GF3)
    cert = DualCertificate.full(GF3, eps.shape)
    assert cert.bound == 0
    assert not verify_certificate(eps, cert)


def test_any_certificate_passes_on_zero_tensor():
    z = Tensor.zeros(GF3, (2, 2, 2))
    for subs in (
        DualCertificate.full(GF3, z.shape),
        DualCertificate(tuple(Subspace.zero(GF3, 2) for _ in range(3))),
    ):
        assert verify_certificate(z, subs)


def test_all_ones_certificate_on_levi_civita():
    # oracle: the sum of all entries is (three +1) + (three -1) = 0
    eps = levi_civita(GF3)
    assert int(eps.data.sum() % 3) == 0
    sub = Subspace.from_rows(GF3, [[1, 1, 1]])
    cert = DualCertificate((sub, sub, sub))
    assert cert.bound == 6
    assert verify_certificate(eps, cert)
    assert pairing_zero(eps, cert)


def test_verify_rejects_shape_mismatch():
    eps = levi_civita(GF3)
    with pytest.raises(PreconditionError):
        verify_certificate(eps, DualCertificate.full(GF3, (3, 3)))
    with pytest.raises(PreconditionError):
        verify_certificate(eps, DualCertificate.full(GF5, (3, 3, 3)))


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_verify_agrees_with_explicit_pairing(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.choice([2, 3]))
    field = PrimeField(p)
    t = random_tensor(field, (2, 2, 2), rng)
    subs = tuple(
        Subspace.from_rows(field, rng.integers(0, p, size=(int(rng.integers(0, 3)), 2)), ambient_dim=2)
        for _ in range(3)
    )
    cert = DualCertificate(subs)
    assert verify_certificate(t, cert) == pairing_zero(t, cert)


# --- exact rank search ---

def test_levi_civita_rank_three():
    res = slice_rank_exact(levi_civita(GF3))
    assert res.sigma == 3
    assert res.method == "dual_search"
    assert res.status == "ok" and res.exact


def test_search_result_is_deterministic_first_hit():
    res = slice_rank_exact(levi_civita(GF3))
    # lexicographically first composition (0, 0, 3) wins: both leading duals
    # full, the trailing dual the zero subspace
    assert res.certificate.subspaces[0] == Subspace.full(GF3, 3)
    assert res.certificate.subspaces[1] == Subspace.full(GF3, 3)
    assert res.certificate.subspaces[2] == Subspace.zero(GF3, 3)
    again = slice_rank_exact(levi_civita(GF3))
    assert again.certificate == res.certificate


def test_diagonal_two_rank_two():
    assert slice_rank_exact(diagonal_tensor(GF2, 2, 2)).sigma == 2


def test_zero_tensor_rank_zero():
    res = slice_rank_exact(Tensor.zeros(GF3, (2, 2, 2)))
    assert res.sigma == 0
    assert res.decomposition.terms == ()
    assert res.certificate.bound == 0


def test_single_term_rank_one():
    term = SliceTerm(1, np.array([1, 2]), np.array([[1, 0], [2, 1]]))
    t = evaluate_decomposition(SliceDecomposition(GF3, (2, 2, 2), (term,)))
    assert slice_rank_exact(t).sigma == 1


def test_empty_tensor_rank_zero():
    assert slice_rank_exact(Tensor.zeros(GF2, (0, 2, 2))).sigma == 0


def test_rank_result_invariants():
    rng = np.random.default_rng(42)
    for _ in range(10):
        t = random_tensor(GF2, (3, 3, 3), rng)
        res = slice_rank_exact(t)
        assert res.certificate.bound == res.sigma
        assert len(res.decomposition.terms) == res.sigma
        assert evaluate_decomposition(res.decomposition) == t
        assert verify_certificate(t, res.certificate)


def test_budget_semantics():
    t = diagonal_tensor(GF2, 3, 3)
    short = slice_rank_exact(t, budget=2)
    assert short.status == "rank_above_budget"
    assert short.sigma is None and short.certificate is None
    exact = slice_rank_exact(t, budget=3)
    assert exact.status == "ok" and exact.sigma == 3


def test_enumeration_limit_refusal():
    eps = levi_civita(GF3)
    big, _ = direct_sum(eps, eps)
    assert enumeration_size(big.shape, 3) > 10**8
    with pytest.raises(EnumerationLimitError):
        slice_rank_exact(big)
    # a generous explicit limit is honored
    assert slice_rank_exact(eps, limit=10**6).sigma == 3


# --- order-2 tensors: dual search cross-checks matrix rank ---

@pytest.mark.parametrize("p", [2, 3, 5])
def test_order_two_dual_search_equals_matrix_rank(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    for trial in range(200):
        t = random_tensor(field, (2, 3), rng)
        by_matrix = slice_rank_exact(t)  # auto short-circuits to matrix rank
        by_search = slice_rank_exact(t, method="dual")
        assert by_matrix.method == "matrix"
        assert by_search.method == "dual_search"
        assert by_matrix.sigma == by_search.sigma == matrix_rank(FieldMatrix(field, t.data))
        assert evaluate_decomposition(by_matrix.decomposition) == t
        assert verify_certificate(t, by_matrix.certificate)


def test_matrix_method_requires_order_two():
    with pytest.raises(PreconditionError):
        slice_rank_exact(levi_civita(GF3), method="matrix")


# --- certificates from and to decompositions ---

def test_certificate_from_empty_decomposition():
    dec = SliceDecomposition(GF2, (2, 2, 2), ())
    cert = certificate_from_decomposition(dec)
    assert cert.bound == 0
    assert all(s.dim == 2 for s in cert.subspaces)


def test_certificate_from_single_axis_term():
    term = SliceTerm(0, np.array([1, 0]), np.array([[1, 1], [0, 1]]))
    dec = SliceDecomposition(GF2, (2, 2, 2), (term,))
    cert = certificate_from_decomposition(dec)
    assert cert.bound == 1
    assert cert.subspaces[0] == Subspace.from_rows(GF2, [[0, 1]])


def test_certificate_from_levi_civita_decomposition():
    dec = levi_civita_decomposition(GF3)
    cert = certificate_from_decomposition(dec)
    assert cert.bound == 3
    assert verify_certificate(levi_civita(GF3), cert)


def test_decomposition_from_bound_zero_certificate_on_zero():
    z = Tensor.zeros(GF3, (2, 2, 2))
    dec = decomposition_from_certificate(z, DualCertificate.full(GF3, z.shape))
    assert dec.terms == ()


def test_decomposition_from_axis_zero_certificate_on_diagonal():
    t = diagonal_tensor(GF2, 2, 2)
    cert = DualCertificate(
        (Subspace.zero(GF2, 2), Subspace.full(GF2, 2), Subspace.full(GF2, 2))
    )
    dec = decomposition_from_certificate(t, cert)
    assert len(dec.terms) == 2
    assert all(term.axis == 0 for term in dec.terms)
    assert evaluate_decomposition(dec) == t


def test_decomposition_from_all_ones_certificate_on_levi_civita():
    eps = levi_civita(GF3)
    sub = Subspace.from_rows(GF3, [[1, 1, 1]])
    cert = DualCertificate((sub, sub, sub))
    dec = decomposition_from_certificate(eps, cert)
    assert len(dec.terms) == 6
    assert evaluate_decomposition(dec) == eps


def test_decomposition_from_certificate_requires_verification():
    eps = levi_civita(GF3)
    with pytest.raises(VerificationError):
        decomposition_from_certificate(eps, DualCertificate.full(GF3, eps.shape))


def test_round_trips_seeded():
    for trial in range(30):
        rng = np.random.default_rng([100, trial])
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        shape = tuple(int(x) for x in rng.integers(1, 4, size=3))
        dec = random_decomposition(rng, field, shape)
        t = evaluate_decomposition(dec)
        cert = certificate_from_decomposition(dec)
        assert cert.bound <= len(dec.terms)
        assert verify_certificate(t, cert)
        back = decomposition_from_certificate(t, cert)
        assert len(back.terms) == cert.bound
        assert evaluate_decomposition(back) == t


def _assert_same_terms(got, ref, case):
    assert (got.field, got.shape, len(got.terms)) == (ref.field, ref.shape, len(ref.terms)), case
    for a, b in zip(got.terms, ref.terms):
        assert a.axis == b.axis, case
        assert a.u.shape == b.u.shape and np.array_equal(a.u, b.u), case
        assert a.v.shape == b.v.shape and np.array_equal(a.v, b.v), case


def test_decomposition_from_certificate_matches_reference_expansion():
    # the telescoped expansion gives the reference's terms, in its order, on
    # search certificates (order 2 by the dual search, order 5, zero-size
    # axes), on non-minimal certificates of random decompositions, and on
    # full and random certificates of zero tensors
    rng = np.random.default_rng(907)
    cases = []
    for p, shape in [(2, (3, 4)), (5, (4, 3)), (2, (2, 3, 3)), (3, (3, 3, 3)), (7, (2, 2, 3)),
                     (5, (2, 2, 2, 2)), (2, (2, 2, 2, 2, 2)), (3, (1, 2, 2, 2, 2)),
                     (5, (2, 0, 3)), (2, (0, 2))]:
        for density in (1.0, 0.3):
            data = rng.integers(0, p, size=shape) * (rng.random(shape) < density)
            t = Tensor(PrimeField(p), shape, data)
            cases.append((t, slice_rank_exact(t, method="dual").certificate))
    for p, shape in [(2, (3, 3, 3)), (3, (2, 3, 4)), (5, (3, 3)), (7, (2, 2, 2, 2)),
                     (3, (3, 0, 2))]:
        for _ in range(3):
            dec = random_decomposition(rng, PrimeField(p), shape)
            cases.append((evaluate_decomposition(dec), certificate_from_decomposition(dec)))
    for p, shape in [(2, (2, 2, 2)), (3, (3, 1, 2)), (5, (0, 2, 2)), (7, (3, 3))]:
        z = Tensor.zeros(PrimeField(p), shape)
        cases.append((z, DualCertificate.full(z.field, shape)))
        cases.append((z, DualCertificate(tuple(random_subspace(rng, z.field, n) for n in shape))))
    for t, cert in cases:
        case = (t.field.p, t.shape, t.data.tolist())
        got = decomposition_from_certificate(t, cert)
        _assert_same_terms(got, reference_decomposition_from_certificate(t, cert), case)
        assert len(got.terms) == cert.bound and evaluate_decomposition(got) == t, case


def test_decomposition_from_certificate_refuses_like_reference():
    # a diagonal against proper subspaces on every axis, then random
    # certificates on random tensors, annihilating or not
    t = diagonal_tensor(GF3, 3, 3)
    sub = Subspace.from_rows(GF3, [[1, 0, 0], [0, 1, 0]])
    cases = [(t, DualCertificate((sub, sub, sub)))]
    rng = np.random.default_rng(911)
    for p, shape in [(2, (2, 2, 2)), (3, (2, 3, 2)), (5, (2, 2)), (2, (2, 2, 2, 2))]:
        field = PrimeField(p)
        for _ in range(30):
            data = rng.integers(0, p, size=shape) * (rng.random(shape) < 0.7)
            subs = tuple(random_subspace(rng, field, n) for n in shape)
            cases.append((Tensor(field, shape, data), DualCertificate(subs)))
    refused = 0
    for t, cert in cases:
        case = (t.field.p, t.shape, t.data.tolist())
        if verify_certificate(t, cert):
            _assert_same_terms(decomposition_from_certificate(t, cert),
                               reference_decomposition_from_certificate(t, cert), case)
            continue
        refused += 1
        for expand in (decomposition_from_certificate, reference_decomposition_from_certificate):
            with pytest.raises(VerificationError):
                expand(t, cert)
    assert 20 <= refused < len(cases), refused
    eps = levi_civita(GF3)
    for cert in (DualCertificate.full(GF3, (3, 3)), DualCertificate.full(GF3, (3, 3, 2)),
                 DualCertificate.full(GF5, (3, 3, 3))):
        for expand in (decomposition_from_certificate, reference_decomposition_from_certificate):
            with pytest.raises(PreconditionError):
                expand(eps, cert)


def _count_calls_in(monkeypatch, module, name):
    """Count the calls a module makes to one of its module-level names."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_calls(monkeypatch, name):
    """Count the calls rank.py makes to one of its module-level names."""
    return _count_calls_in(monkeypatch, rank, name)


def test_expansion_makes_one_projection_per_axis(monkeypatch):
    calls = _count_calls(monkeypatch, "mode_product")
    rng = np.random.default_rng(919)
    for shape in [(3, 3), (3, 3, 3), (2, 3, 2, 2), (2, 2, 2, 2, 2)]:
        dec = random_decomposition(rng, GF3, shape)
        t, cert = evaluate_decomposition(dec), certificate_from_decomposition(dec)
        calls[0] = 0
        decomposition_from_certificate(t, cert)
        assert calls[0] == sum(1 for sub in cert.subspaces if sub.codim), shape


def test_search_does_not_recheck_its_certificate(monkeypatch):
    calls = _count_calls(monkeypatch, "verify_certificate")
    rng = np.random.default_rng(929)
    for t in (levi_civita(GF3), random_tensor(GF3, (3, 3, 3), rng), diagonal_tensor(GF2, 3, 2)):
        assert slice_rank_exact(t).sigma is not None
    assert calls[0] == 0


def test_search_verifies_its_certificate_before_it_returns(monkeypatch):
    # a search that keeps the next candidate after its kernel, which does
    # not annihilate: the search itself refuses it, before anything reads
    # the decomposition
    original = rank._canonical_certificate

    def wrong_kernel(data, p, limit):
        dims, idx = original(data, p, limit)
        axis = next(a for a, (n, dim) in enumerate(zip(data.shape, dims)) if 0 < dim < n)
        idx[axis] = (idx[axis] + 1) % len(rank._grassmannian_stack(p, data.shape[axis], dims[axis]))
        return dims, idx

    monkeypatch.setattr(rank, "_canonical_certificate", wrong_kernel)
    middle = np.moveaxis(np.multiply.outer(np.array([1, 2, 0]), np.ones((3, 3), dtype=np.int64)), 0, 1)
    for t in (diagonal_tensor(GF2, 3, 2), diagonal_tensor(GF3, 3, 1), Tensor(GF3, (3, 3, 3), middle)):
        with pytest.raises(VerificationError):
            slice_rank_exact(t)


def test_search_decomposition_is_the_expansion_of_its_certificate():
    # the terms read off on first access are those of the direct expansion,
    # dtypes and read-only flags included, and later reads return them again
    arrays = _reference_walk_arrays() + [
        (3, np.zeros((2, 3, 2), dtype=np.int64)),
        (2, np.multiply.outer(np.array([1, 0, 1]), np.ones((2, 2), dtype=np.int64))),
        (5, np.arange(12).reshape(3, 4) % 5),
    ]
    for p, data in arrays:
        t = Tensor(PrimeField(p), data.shape, data)
        res = slice_rank_exact(t, method="dual")
        got = res.decomposition
        want = decomposition_from_certificate(t, res.certificate)
        case = (p, data.shape, data.tolist())
        _assert_same_terms(got, want, case)
        for a, b in zip(got.terms, want.terms):
            for x, y in ((a.u, b.u), (a.v, b.v)):
                assert (x.dtype, x.flags.writeable) == (y.dtype, y.flags.writeable), case
        assert res.decomposition is got, case
    assert {len(d.shape) for _, d in arrays} >= {2, 3, 4, 5}


def test_harnesses_build_no_decomposition(monkeypatch):
    # triangular and additivity read ranks and certificates only: every
    # search still runs, and none of them builds a decomposition
    built = [0]
    post_init = SliceDecomposition.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(SliceDecomposition, "__post_init__", counted)
    searches = _count_calls_in(monkeypatch, splitting, "slice_rank_exact")
    blocks = BlockStructure(((1, 1, 1),) * 3)
    rng = np.random.default_rng(941)
    check_triangular(random_block_upper_triangular(GF3, blocks, rng), blocks)
    assert (searches[0], built[0]) == (10, 0)
    check_additivity(random_tensor(GF3, (2, 2, 2), rng), random_tensor(GF3, (2, 2, 2), rng))
    assert (searches[0], built[0]) == (13, 0)
    # the counter sees a read
    slice_rank_exact(levi_civita(GF3)).decomposition
    assert built[0] == 1


# --- slice covers ---

def test_cover_levi_civita():
    assert min_slice_cover(levi_civita(GF3)).count == 3


def test_cover_zero():
    cover = min_slice_cover(Tensor.zeros(GF2, (2, 2, 2)))
    assert cover.count == 0 and cover.slices == ()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cover_diagonal(m):
    cover = min_slice_cover(diagonal_tensor(GF2, 3, m))
    assert cover.count == m


def test_cover_is_actually_a_cover_and_bounds_rank():
    rng = np.random.default_rng(17)
    for _ in range(10):
        t = random_tensor(GF2, (3, 3, 3), rng)
        cover = min_slice_cover(t)
        for idx in np.argwhere(t.data):
            assert any(idx[axis] == x for axis, x in cover.slices)
        assert slice_rank_exact(t).sigma <= cover.count


def test_cover_equals_rank_on_antichain_support():
    # random tensors supported on (a subset of) the permutation antichain
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    for trial in range(15):
        rng = np.random.default_rng([71, trial])
        p = int(rng.choice([2, 3]))
        field = PrimeField(p)
        data = np.zeros((3, 3, 3), dtype=np.int64)
        for pt in perms:
            if rng.integers(0, 2):
                data[pt] = rng.integers(1, p)
        t = Tensor(field, (3, 3, 3), data)
        from slicerank import support_and_antichain

        assert support_and_antichain(t).is_antichain
        assert slice_rank_exact(t).sigma == min_slice_cover(t).count, trial


def test_cover_matches_reference_branch_and_bound():
    # dropping spent slices and pruning by points that pairwise share no
    # slice cut only subtrees without a strictly smaller cover, so the
    # cover is the reference's on 320 seeded supports of orders 2-4
    rng = np.random.default_rng(89)
    shapes = [(6, 7), (12, 12), (5, 5, 5), (8, 8, 8), (10, 10, 10), (4, 4, 4, 4), (5, 5, 5, 5),
              (3, 9, 6, 2)]
    count = 0
    for shape in shapes:
        cells = int(np.prod(shape))
        for _ in range(40):
            points = int(rng.integers(1, min(cells, 24) + 1))
            data = np.zeros(shape, dtype=np.int64)
            data.reshape(-1)[rng.choice(cells, size=points, replace=False)] = 1
            t = Tensor(GF2, shape, data)
            assert min_slice_cover(t) == reference_min_slice_cover(t), data.tolist()
            count += 1
    assert count == 320


def test_cover_node_budget_is_a_deterministic_count(monkeypatch):
    # every search node counts against COVER_NODE_LIMIT, so the least
    # budget a cover fits in is a property of the support: one node less
    # refuses, and the cover found within it is the unbudgeted one
    rng = np.random.default_rng(1)
    data = np.zeros((10, 10, 10), dtype=np.int64)
    data.reshape(-1)[rng.choice(1000, size=24, replace=False)] = 1
    t = Tensor(GF2, (10, 10, 10), data)
    full = min_slice_cover(t)
    nodes = 1
    while True:
        monkeypatch.setattr(rank, "COVER_NODE_LIMIT", nodes)
        try:
            assert min_slice_cover(t) == full
            break
        except EnumerationLimitError:
            nodes += 1
    assert nodes == 50
    monkeypatch.setattr(rank, "COVER_NODE_LIMIT", nodes - 1)
    for search in (min_slice_cover, rank_via_cover):
        with pytest.raises(EnumerationLimitError, match="slice cover"):
            search(t)


def test_rank_via_cover_flags():
    eps_result = rank_via_cover(levi_civita(GF3))
    assert eps_result.sigma == 3 and eps_result.exact and eps_result.method == "cover"
    assert verify_certificate(levi_civita(GF3), eps_result.certificate)
    assert evaluate_decomposition(eps_result.decomposition) == levi_civita(GF3)
    diag = diagonal_tensor(GF2, 2, 2)
    diag_result = rank_via_cover(diag)
    assert diag_result.sigma == 2
    assert not diag_result.exact  # comparable support, bound only
    assert evaluate_decomposition(diag_result.decomposition) == diag


def test_rank_via_cover_matches_reference():
    # the cover, the slice-order charging and the coordinate certificate give
    # the reference's cover, decomposition, certificate and flag exactly, and
    # the certificate is the one the decomposition derives by elimination
    for t in cover_corpus():
        got, expected = rank_via_cover(t), reference_rank_via_cover(t)
        assert min_slice_cover(t) == reference_min_slice_cover(t), t.data.tolist()
        assert (got.sigma, got.exact, got.method) == (expected.sigma, expected.exact, "cover")
        assert got.certificate == expected.certificate, t.data.tolist()
        assert got.certificate == certificate_from_decomposition(got.decomposition)
        assert len(got.decomposition.terms) == len(expected.decomposition.terms)
        for a, b in zip(got.decomposition.terms, expected.decomposition.terms):
            assert a.axis == b.axis and np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert rank_result_to_obj(got) == rank_result_to_obj(expected)


def test_rank_via_cover_runs_no_elimination(monkeypatch):
    # both witnesses are read off the cover: with the annihilator and the
    # derived certificate unavailable the answers are unchanged
    cases = [levi_civita(GF3), diagonal_tensor(GF2, 3, 2)] + cover_corpus()[::7]
    expected = [rank_result_to_obj(rank_via_cover(t)) for t in cases]

    def refuse(*args):
        raise AssertionError("rank_via_cover ran an elimination")

    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    monkeypatch.setattr(rank, "annihilator", refuse)
    monkeypatch.setattr(rank, "certificate_from_decomposition", refuse)
    assert [rank_result_to_obj(rank_via_cover(t)) for t in cases] == expected


def test_fully_decomposable_tensors_have_rank_one():
    from slicerank import outer_product_tensor

    rng = np.random.default_rng(83)
    for _ in range(10):
        vectors = [rng.integers(0, 3, size=3) for _ in range(3)]
        t = outer_product_tensor(GF3, vectors)
        assert slice_rank_exact(t).sigma <= 1
        if t.data.any():
            assert slice_rank_exact(t).sigma == 1


def test_two_group_products_can_exceed_rank_one():
    # a product of two identity matrices on axis pairs (1,2) and (3,4)
    # splits off a pair of variables, not a single one; its slice rank is 2
    from slicerank import outer_product_tensor

    eye = np.eye(2, dtype=np.int64)
    t = outer_product_tensor(GF2, [eye, eye])
    assert t.shape == (2, 2, 2, 2)
    res = slice_rank_exact(t)
    assert res.sigma == 2
    assert verify_certificate(t, res.certificate)


def test_exhaustive_agreement_with_term_counting_oracle():
    # independent oracle: breadth-first search over sums of single slice
    # terms finds the fewest terms reaching each of the 256 tensors of
    # shape 2x2x2 over GF(2); the dual-subspace search must agree everywhere
    from itertools import product as iproduct

    shape = (2, 2, 2)
    singles = set()
    for axis in range(3):
        for u_bits in iproduct(range(2), repeat=2):
            for v_bits in iproduct(range(2), repeat=4):
                term = SliceTerm(
                    axis,
                    np.array(u_bits, dtype=np.int64),
                    np.array(v_bits, dtype=np.int64).reshape(2, 2),
                )
                value = evaluate_decomposition(SliceDecomposition(GF2, shape, (term,)))
                singles.add(tuple(int(x) for x in value.data.ravel()))
    zero = (0,) * 8
    levels = {zero: 0}
    frontier = {zero}
    step = 0
    while len(levels) < 256:
        step += 1
        new = set()
        for base in frontier:
            for s in singles:
                combo = tuple((a + b) % 2 for a, b in zip(base, s))
                if combo not in levels:
                    levels[combo] = step
                    new.add(combo)
        frontier = new
    for bits, expected in levels.items():
        t = Tensor(GF2, shape, np.array(bits, dtype=np.int64).reshape(shape))
        assert slice_rank_exact(t).sigma == expected, bits


def _reference_walk_arrays():
    """(p, array) pairs: seeded dense and sparse arrays of orders 2-5, one with
    a zero-size axis, dense arrays on which the slice rank bound settles
    sigma, direct sums, an upper-triangular array, and sums of one slice
    term on each axis but the last (or each but the first and last), whose
    certificates lie past the first prefix tuples of their compositions.
    """
    rng = np.random.default_rng(41)
    cases = [
        (2, (2, 3), 1.0), (7, (2, 2), 1.0), (3, (3, 2), 0.3),
        (3, (2, 2, 3), 1.0), (2, (3, 3, 3), 0.2), (5, (2, 2, 2), 1.0), (7, (2, 2, 2), 0.3),
        (2, (2, 2, 2, 2), 1.0), (3, (2, 2, 2, 2), 0.2),
        (2, (2, 1, 2, 2, 2), 1.0), (2, (2, 2, 2, 2, 2), 0.1),
        (3, (2, 0, 2), 1.0),
    ]
    arrays = []
    for p, shape, density in cases:
        arrays.append((p, rng.integers(0, p, size=shape) * (rng.random(shape) < density)))
    for p, shape in [(2, (4, 4, 4)), (3, (4, 4, 4)), (2, (3, 3, 3, 3))]:
        arrays.append((p, rng.integers(0, p, size=shape)))
    for p, second in [(2, 2), (3, 2), (2, 1)]:
        data = np.zeros((2 + second,) * 3, dtype=np.int64)
        data[:2, :2, :2] = rng.integers(0, p, size=(2, 2, 2))
        data[2:, 2:, 2:] = rng.integers(1, p, size=(second,) * 3)
        arrays.append((p, data))
    i, j, k = np.indices((3, 3, 3))
    arrays.append((3, rng.integers(1, 3, size=(3, 3, 3)) * ((i <= j) & (j <= k))))
    for p, shape in [(2, (2, 3, 2)), (3, (2, 2, 3)), (2, (3, 3, 3)), (3, (3, 3, 3)),
                     (5, (2, 3, 2)), (2, (2, 2, 2, 3)), (3, (2, 2, 2, 3))]:
        for first in (0, 1, 1):
            data = np.zeros(shape, dtype=np.int64)
            for axis in range(first, len(shape) - 1):
                u = rng.integers(0, p, size=shape[axis])
                u[rng.integers(shape[axis])] = rng.integers(1, p)
                rest = rng.integers(0, p, size=shape[:axis] + shape[axis + 1 :])
                data += np.moveaxis(np.multiply.outer(u, rest), 0, axis)
            arrays.append((p, data % p))
    return arrays


@lru_cache(maxsize=None)
def _reference_walk_cases():
    """(p, array, bound, the reference's first hit) for every bound on each reference walk array."""
    return tuple((p, data, bound, reference_first_certificate(data, p, bound))
                 for p, data in _reference_walk_arrays()
                 for bound in range(-1, min(data.shape) + 1))


def test_search_composition_matches_reference_walk():
    # the walk keeps the reference's first hit in (rank, composition,
    # subspace) order, for every bound
    for p, data, bound, expected in _reference_walk_cases():
        assert _canonical_certificate(data, p, bound) == expected, (p, data.shape, bound)


def test_walk_keeps_the_reference_hit_at_every_block_size(monkeypatch):
    # blocks of 1, 7, 64 and 1024 cells split the rows and the candidate
    # stacks at every level; the blocks stay consecutive runs of the
    # enumeration, so the position the walk counts across them names the
    # tuple the reference finds first
    for cells in (1, 7, 64, 1024):
        monkeypatch.setattr(rank, "_BLOCK_CELLS", cells)
        for p, data, bound, expected in _reference_walk_cases():
            got = _canonical_certificate(data, p, bound)
            assert got == expected, (cells, p, data.shape, bound)


def _first_hit_arrays():
    """(p, array) pairs on which the generalized first hit decides.

    Sigma-1 arrays whose rank-1 flattenings lie on one axis, on each pair
    of axes, or on every axis (a product of vectors), so that the last of
    them must win, over orders 2-4 and GF(2), GF(3), GF(5); arrays with a
    zero-size axis; and full-rank diagonal arrays, whose certificate has a
    kernel of dimension 0.
    """
    rng = np.random.default_rng(53)
    arrays = []
    for p in (2, 3, 5):
        for shape in [(2, 3), (3, 2), (2, 2, 3), (3, 2, 2), (2, 3, 3), (2, 2, 2, 2), (3, 2, 2, 3)]:
            d = len(shape)
            pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
            for axes in [(a,) for a in range(d)] + pairs + [tuple(range(d))]:
                # a nonzero vector on each chosen axis, times a nonzero cotensor on the rest
                vecs = [rng.integers(0, p, size=shape[a]) for a in axes]
                for v in vecs:
                    v[rng.integers(len(v))] = rng.integers(1, p)
                rest = rng.integers(0, p, size=[n for a, n in enumerate(shape) if a not in axes])
                rest.flat[rng.integers(rest.size)] = rng.integers(1, p)
                data = rest
                for a, v in zip(axes, vecs):
                    data = np.moveaxis(np.multiply.outer(v, data), 0, a)
                arrays.append((p, data % p))
        arrays.append((p, np.zeros((2, 0, 3), dtype=np.int64)))
        for n, d in [(2, 2), (2, 3), (3, 3), (2, 4)]:
            data = np.zeros((n,) * d, dtype=np.int64)
            for i in range(n):
                data[(i,) * d] = rng.integers(1, p)
            arrays.append((p, data))
    return arrays


def test_first_hit_matches_the_reference_on_any_axis(monkeypatch):
    # at sigma 1 the certificate is the annihilator on the last axis of
    # flattening rank 1, and a full-rank certificate's kernel is the one
    # candidate of dimension 0
    hits, axes = [], set()
    for p, data in _first_hit_arrays():
        for bound in (0, 1, min(data.shape)):
            got = _canonical_certificate(data, p, bound)
            assert got == reference_first_certificate(data, p, bound), (p, data.tolist(), bound)
            codims = [n - dim for n, dim in zip(data.shape, got[0])] if got else []
            if sum(codims) == 1:
                hits.append((p, data, bound, got))
                axes.add((data.ndim, codims.index(1)))
    # a matrix has one rank, so at order 2 the last axis always wins
    assert axes == {(2, 1)} | {(d, a) for d in (3, 4) for a in range(d)}

    # and the hit is found without a walk or point ranks
    def refuse(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(rank, "_contracted_blocks", refuse)
    monkeypatch.setattr(rank, "_point_ranks", refuse)
    for p, data, bound, got in hits:
        assert _canonical_certificate(data, p, bound) == got


def _seed_2024_arrays():
    """Ten random 5x5x5 GF(2) arrays; no slice of the first on its last two axes has full rank."""
    rng = np.random.default_rng(2024)
    return [rng.integers(0, 2, size=(5, 5, 5)) for _ in range(10)]


def test_slice_rank_bound_matches_reference_and_stays_below_sigma():
    # the bound the walk starts from is the enumerated minimum over every
    # vector tuple, at least the basis-only minimum, and never above sigma,
    # on the walk's arrays and on sums of slice terms
    rng = np.random.default_rng(47)
    arrays = _reference_walk_arrays()
    for p, shape in [(2, (3, 3, 3)), (2, (3, 3, 4)), (3, (3, 3, 3)), (5, (3, 3, 3)),
                     (2, (3, 3, 3, 3))]:
        for _ in range(3):
            dec = random_decomposition(rng, PrimeField(p), shape, max_terms_per_axis=1)
            arrays.append((p, evaluate_decomposition(dec).data))
    for p, data in arrays:
        if not data.any():
            continue
        cap = min(data.shape) + 1
        bound = _slice_rank_bound(data, p, cap, 0, _point_ranks(data, p, cap))
        assert bound == reference_slice_rank_bound(data, p), (p, data.tolist())
        assert bound >= reference_basis_slice_rank_bound(data, p), (p, data.tolist())
        sigma = reference_slice_rank(Tensor(PrimeField(p), data.shape, data)).sigma
        assert bound <= sigma, (p, data.tolist())


def test_slice_rank_bound_reaches_sigma_on_random_5x5x5_gf2():
    # the least flattening rank is an attained total, so a bound that
    # reaches it is sigma; on the first array the basis-only bound does not
    for i, data in enumerate(_seed_2024_arrays()):
        flat = min(brute_matrix_rank(np.moveaxis(data, a, 0).reshape(5, -1), 2) for a in range(3))
        bound = _slice_rank_bound(data, 2, 6, 0, _point_ranks(data, 2, 6))
        assert bound == flat == reference_slice_rank_bound(data, 2), i
        assert slice_rank_exact(Tensor(GF2, data.shape, data)).sigma == bound, i
    assert reference_basis_slice_rank_bound(_seed_2024_arrays()[0], 2) < 5


def _count_walk_blocks(monkeypatch, order):
    """Count the blocks the walk contracts when it searches order-``order`` tensors.

    The walk contracts axes 0..d-2 and the slice rank bound axes 0..d-3,
    so the two are told apart by the number of candidate stacks of the
    outermost call; recursive calls run at a depth above 0 and are not
    counted.
    """
    blocks, depth = [0], [0]
    original = rank._contracted_blocks

    def counted(batch, stacks, shape, p):
        outermost = not depth[0] and len(stacks) == order - 1
        depth[0] += 1
        try:
            for out in original(batch, stacks, shape, p):
                blocks[0] += outermost
                yield out
        finally:
            depth[0] -= 1

    monkeypatch.setattr(rank, "_contracted_blocks", counted)
    return blocks


def test_walk_contracts_nothing_once_the_bound_settles_sigma(monkeypatch):
    # when the last-axis flattening rank is sigma, the all-full prefix
    # tuple is the certificate, and a bound that reaches sigma proves it
    # without a walk: on 4x4x4 sums of two slice rank 2 parts, on the
    # random 5x5x5 GF(2) tensor with no full-rank slice on its last two
    # axes, and on the upper-triangular 3x3x3 tensors with 1,1,1 blocks
    # whose certificate it is (the others need the walk to find theirs)
    rng = np.random.default_rng(67)
    sums, triangular = [], []
    for field in (GF2, GF3):
        for _ in range(6):
            parts = []
            while len(parts) < 2:
                data = rng.integers(0, field.p, size=(2, 2, 2))
                flats = [brute_matrix_rank(np.moveaxis(data, a, 0).reshape(2, 4), field.p)
                         for a in range(3)]
                if min(flats) == 2:  # no flattening of rank at most 1: slice rank 2
                    parts.append(Tensor(field, (2, 2, 2), data))
            sums.append(direct_sum(*parts)[0])
        blocks = BlockStructure(((1, 1, 1),) * 3)
        triangular += [random_block_upper_triangular(field, blocks, rng) for _ in range(20)]
    found = Tensor(GF2, (5, 5, 5), _seed_2024_arrays()[0])
    walked = _count_walk_blocks(monkeypatch, 3)
    settled = 0
    for t in sums + [found] + triangular:
        walked[0] = 0
        sigma = slice_rank_exact(t).sigma
        last = brute_matrix_rank(t.data.reshape(-1, t.shape[-1]).T, t.field.p)
        assert last == sigma or t in triangular, t.data.tolist()
        if last == sigma:
            assert walked[0] == 0, (t.field.p, t.data.tolist(), sigma)
            settled += sigma == 3
    assert settled >= 5


def _walk_at_known_sigma_tensors(rng):
    """Seeded tensors whose sigma is proven before the walk but whose certificate comes late.

    Upper-triangular 3x3x3 tensors with 1,1,1 blocks over GF(2) and GF(3),
    dense 2x3x4 tensors over GF(3) (sigma 2 from the axis-0 flattening,
    certificate in the last composition) and 4x4x4 sums of slice terms
    over GF(3).
    """
    blocks = BlockStructure(((1, 1, 1),) * 3)
    tensors = [random_block_upper_triangular(field, blocks, rng)
               for field in (GF2, GF3) for _ in range(25)]
    tensors += [random_tensor(GF3, (2, 3, 4), rng) for _ in range(25)]
    tensors += [evaluate_decomposition(random_decomposition(rng, GF3, (4, 4, 4), 1))
                for _ in range(12)]
    return tensors


def test_walk_at_known_sigma_matches_reference_search():
    # the walk skips prefixes whose largest point rank rules them out, and
    # still keeps the reference's first certificate, for budgets below, at
    # and above sigma
    for t in _walk_at_known_sigma_tensors(np.random.default_rng(71)):
        expected = reference_slice_rank(t)
        for budget in (None, expected.sigma - 1, expected.sigma, expected.sigma + 1):
            ref = expected if budget is None else reference_slice_rank(t, budget)
            got = slice_rank_exact(t, budget=budget)
            case = (t.field.p, t.shape, t.data.tolist(), budget)
            assert got.status == ref.status, case
            assert rank_result_to_obj(got) == rank_result_to_obj(ref), case


def test_dense_2x3x4_gf3_walks_one_block(monkeypatch):
    # sigma is 2, proven by the axis-0 flattening, and every 3x4 slice of a
    # point has rank 3 > 2, so only U_0 = 0 (codimension 2) can be kept: the
    # walk contracts the one composition (2, 0), not all six of sum <= 2
    walked = _count_walk_blocks(monkeypatch, 3)
    rng = np.random.default_rng(73)
    for _ in range(25):
        t = random_tensor(GF3, (2, 3, 4), rng)
        walked[0] = 0
        res = slice_rank_exact(t)
        assert res.sigma == 2 and [s.codim for s in res.certificate.subspaces] == [2, 0, 0]
        assert walked[0] == 1, (t.data.tolist(), walked[0])


def _rank_stacks(rng):
    """(matrices, p) stacks for the capped rank differential, entries in [0, p)."""
    stacks = []
    for p in (2, 3, 5, 7, 65521):
        for shape in [(6, 3, 3), (5, 2, 4), (4, 4, 2), (7, 1, 3), (3, 3, 1), (4, 5, 5),
                      (0, 3, 3), (3, 0, 2), (3, 2, 0), (2, 0, 0)]:
            stacks.append((rng.integers(0, p, size=shape), p))
        # low ranks: products of thin factors, and stacks with zero columns
        for rows, inner, cols in [(4, 1, 4), (5, 2, 4), (3, 2, 6)]:
            left = rng.integers(0, p, size=(6, rows, inner))
            right = rng.integers(0, p, size=(6, inner, cols))
            stacks.append(((left @ right) % p, p))
        sparse = rng.integers(0, p, size=(6, 4, 5)) * (rng.random((6, 4, 5)) < 0.3)
        sparse[:, :, 1] = 0
        stacks.append((sparse, p))
    return stacks


def test_batch_ranks_matches_reference_elimination():
    rng = np.random.default_rng(79)
    for mats, p in _rank_stacks(rng):
        for cap in range(0, max(mats.shape[1:]) + 2):
            got = _batch_ranks(mats, p, cap)
            expected = reference_batch_ranks(mats, p, cap)
            assert got.tolist() == expected.tolist(), (p, mats.shape, cap)
        if mats.size and p <= 3:
            full = [brute_matrix_rank(m, p) for m in mats]
            assert _batch_ranks(mats, p, 99).tolist() == full, (p, mats.shape)


def test_point_table_matches_reference_and_is_shared_read_only():
    for p, n in [(2, 1), (2, 3), (2, 5), (3, 3), (3, 4), (5, 3), (7, 2), (11, 2)]:
        for dim in range(n + 1):
            table = _point_table(p, n, dim)
            assert not table.flags.writeable
            assert _point_table(p, n, dim) is table
            for step in (1, 3, 1 << 20):
                got = [table[k0 : k0 + step] for k0 in range(0, len(table), step)]
                expected = list(reference_subspace_points(p, n, dim, step))
                assert len(got) == len(expected), (p, n, dim, step)
                for a, b in zip(got, expected):
                    assert a.tolist() == b.tolist(), (p, n, dim, step)


def test_point_table_stores_the_narrowest_index_type():
    # the table holds the reference's intp values in uint16 up to 2**16
    # points, a quarter of the bytes, and in int32 past that
    for p, n, dim, dtype in [(2, 3, 2, np.uint16), (3, 4, 2, np.uint16), (7, 2, 0, np.uint16),
                             (7, 5, 4, np.uint16), (257, 3, 1, np.int32)]:
        table = _point_table(p, n, dim)
        expected = np.concatenate(list(reference_subspace_points(p, n, dim, 1 << 20)))
        assert table.dtype == dtype, (p, n, dim)
        assert np.array_equal(table, expected), (p, n, dim)
        assert table.nbytes * np.dtype(np.intp).itemsize == expected.nbytes * dtype().itemsize
    assert _point_table(7, 5, 4).nbytes == 2801 * 400 * 2


def test_point_ranks_are_shared_with_the_bound():
    # the bound takes the point ranks as given: all-zero ranks bound sigma by 0
    rng = np.random.default_rng(83)
    for p, shape in [(2, (3, 3, 3)), (3, (2, 3, 4)), (3, (4, 4, 4)), (2, (2, 3, 3, 3)), (5, (3, 3))]:
        data = rng.integers(0, p, size=shape)
        cap = min(shape) + 1
        points = _point_ranks(data, p, cap)
        assert points.shape == (1,) + tuple((p**n - 1) // (p - 1) for n in shape[:-2])
        assert _slice_rank_bound(data, p, cap, 0, np.zeros_like(points)) == 0


def test_least_rank_matches_reference_search():
    # same sigma, certificate, decomposition and status as the rank-by-rank
    # search: orders 2-5 over GF(2), GF(3), GF(5), GF(7) at three densities,
    # a zero-size axis, length-1 axes, the longest axis first, sums of slice
    # terms on different axes (sigma below every flattening rank), and
    # budgets below, at and above sigma
    shapes = {
        2: [(3, 4), (2, 3, 3), (3, 3, 3), (2, 2, 2, 2), (2, 2, 2, 2, 2), (1, 3, 3),
            (4, 2, 2), (5, 3, 2)],
        3: [(4, 2), (2, 3, 3), (2, 2, 2, 3), (1, 2, 2, 2, 2), (3, 1, 2), (4, 2, 2)],
        5: [(3, 3), (2, 2, 3), (2, 2, 2, 2), (2, 2, 1, 2, 2), (2, 0, 3)],
        7: [(2, 3), (2, 2, 2), (2, 1, 2, 2), (1, 2, 2)],
    }
    term_shapes = {2: [(3, 3, 3), (3, 3, 4), (3, 3, 3, 3)], 3: [(3, 3, 3)], 5: [(3, 3, 3)]}
    rng = np.random.default_rng(53)
    tensors = []
    for p, shape_list in shapes.items():
        for shape in shape_list:
            for density in (1.0, 0.3, 0.1):
                data = rng.integers(0, p, size=shape) * (rng.random(shape) < density)
                tensors.append(Tensor(PrimeField(p), shape, data))
    for p, shape_list in term_shapes.items():
        for shape in shape_list:
            for _ in range(4):
                dec = random_decomposition(rng, PrimeField(p), shape, max_terms_per_axis=1)
                tensors.append(evaluate_decomposition(dec))
    for t in tensors:
        expected = reference_slice_rank(t)
        sigma = expected.sigma
        for budget in (None, sigma - 1, sigma, sigma + 1):
            ref = expected if budget is None else reference_slice_rank(t, budget)
            got = slice_rank_exact(t, budget=budget, method="dual")
            case = (t.field.p, t.shape, t.data.tolist(), budget)
            assert got.status == ref.status, case
            assert got.certificate == ref.certificate, case
            assert rank_result_to_obj(got) == rank_result_to_obj(ref), case


def test_least_rank_pass_memory_stays_small(monkeypatch):
    # the walk and the slice rank bound work in bounded blocks. The
    # subspace stacks and point tables are cached, so they fill before the
    # peak is taken. On the random 4x4x4 tensor the bound settles sigma
    # before any walk (peak about 0.03 MB). On the 4x4x4 sum of slice
    # terms the bound reaches sigma 3, but the certificate comes late, so
    # the walk runs (0.07 MB). On the 7x3x3 tensor the bound visits the
    # 2667 subspaces of dimension 5 on axis 0: 0.05 MB here, 0.66 MB with
    # their points in one block. On the 7x3x3 sum of slice terms the walk
    # filters the 127 subspaces of dimension 6 on axis 0 by their largest
    # point rank (0.05 MB). After that filter no seeded walk here spans
    # more than one block per composition at the shipped block size, so the
    # last case shrinks the blocks to 4096 cells: Levi-Civita plus two
    # diagonal ones over GF(2) (5x5x5, sigma 5) defeats the bound, and its
    # walk contracts 25 blocks (0.16 MB); in one block per composition it
    # peaks at 0.61 MB
    import tracemalloc

    terms = evaluate_decomposition(random_decomposition(np.random.default_rng(1), GF3, (4, 4, 4)))
    wide = evaluate_decomposition(random_decomposition(np.random.default_rng(0), GF2, (7, 3, 3), 1))
    levi = direct_sum(levi_civita(GF2), diagonal_tensor(GF2, 2, 2))[0]
    shipped = rank._BLOCK_CELLS
    cases = [  # tensor, sigma, least walk blocks (0: no walk), block cells
        (random_tensor(GF3, (4, 4, 4), np.random.default_rng(61)), 4, 0, shipped),
        (terms, 3, 1, shipped),
        (random_tensor(GF2, (7, 3, 3), np.random.default_rng(0)), 3, 0, shipped),
        (wide, 2, 1, shipped),
        (levi, 5, 20, 1 << 12),
    ]
    walked = _count_walk_blocks(monkeypatch, 3)
    for t, sigma, blocks, cells in cases:
        monkeypatch.setattr(rank, "_BLOCK_CELLS", cells)
        slice_rank_exact(t)  # fill the subspace caches outside the measurement
        walked[0] = 0
        tracemalloc.start()
        try:
            res = slice_rank_exact(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.sigma == sigma
        assert peak < 2**19, peak
        assert walked[0] >= blocks and (walked[0] > 0) == (blocks > 0)


# --- rank invariances ---

def test_rank_bounded_by_smallest_axis():
    rng = np.random.default_rng(23)
    for _ in range(5):
        t = random_tensor(GF2, (2, 3, 3), rng)
        assert slice_rank_exact(t).sigma <= 2


def test_rank_invariant_under_axis_permutations():
    rng = np.random.default_rng(29)
    for trial in range(5):
        t = random_tensor(GF3, (2, 2, 2), rng)
        base = slice_rank_exact(t).sigma
        for axis in range(3):
            perm = rng.permutation(2)
            assert slice_rank_exact(permute_axis(t, axis, perm)).sigma == base


def test_rank_invariant_under_scaling():
    rng = np.random.default_rng(31)
    t = random_tensor(GF5, (2, 2, 2), rng)
    base = slice_rank_exact(t).sigma
    for c in range(1, 5):
        scaled = Tensor(GF5, t.shape, (c * t.data) % 5)
        assert slice_rank_exact(scaled).sigma == base


def test_rank_unchanged_by_zero_padding():
    rng = np.random.default_rng(37)
    for _ in range(5):
        t = random_tensor(GF2, (2, 2, 2), rng)
        padded_data = np.zeros((3, 2, 2), dtype=np.int64)
        padded_data[:2] = t.data
        padded = Tensor(GF2, (3, 2, 2), padded_data)
        assert slice_rank_exact(padded).sigma == slice_rank_exact(t).sigma


def _random_invertible(rng, p, n):
    while True:
        mat = rng.integers(0, p, size=(n, n))
        if matrix_rank(FieldMatrix(PrimeField(p), mat)) == n:
            return mat


def test_rank_invariant_under_change_of_basis():
    # sigma is a GL(n_1, p) x ... x GL(n_d, p) invariant; the search sees
    # different supports, and each answer still carries both witnesses
    rng = np.random.default_rng(59)
    cases = [(2, (3, 3, 3)), (3, (2, 3, 3)), (5, (2, 2, 3)), (2, (2, 2, 2, 2)), (3, (3, 3, 3))]
    for p, shape in cases:
        field = PrimeField(p)
        for trial in range(4):
            if trial % 2:
                t = evaluate_decomposition(random_decomposition(rng, field, shape, 1))
            else:
                t = random_tensor(field, shape, rng)
            base = slice_rank_exact(t).sigma
            for _ in range(3):
                data = t.data
                for axis, n in enumerate(shape):
                    data = mode_product(data, _random_invertible(rng, p, n), axis, p)
                moved = Tensor(field, shape, data)
                res = slice_rank_exact(moved)
                assert res.sigma == base, (p, shape, trial)
                assert verify_certificate(moved, res.certificate)
                assert evaluate_decomposition(res.decomposition) == moved
