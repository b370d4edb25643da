import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pairing_zero, random_decomposition, reference_search_composition
from slicerank import (
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
    rank_via_cover,
    random_tensor,
    slice_rank_exact,
    verify_certificate,
)
from slicerank.rank import _search_composition

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


def test_search_composition_matches_reference_walk():
    # every dims tuple, dim-0 subspaces included, on dense and sparse arrays
    # of orders 2-5 and one array with a zero-size axis
    from itertools import product as iproduct

    rng = np.random.default_rng(41)
    cases = [
        (2, (2, 3), 1.0), (7, (2, 2), 1.0), (3, (3, 2), 0.3),
        (3, (2, 2, 3), 1.0), (2, (3, 3, 3), 0.2), (5, (2, 2, 2), 1.0), (7, (2, 2, 2), 0.3),
        (2, (2, 2, 2, 2), 1.0), (3, (2, 2, 2, 2), 0.2),
        (2, (2, 1, 2, 2, 2), 1.0), (2, (2, 2, 2, 2, 2), 0.1),
        (3, (2, 0, 2), 1.0),
    ]
    for p, shape, density in cases:
        data = rng.integers(0, p, size=shape) * (rng.random(shape) < density)
        for dims in iproduct(*(range(n + 1) for n in shape)):
            expected = reference_search_composition(data, p, dims)
            assert _search_composition(data, p, dims) == expected, (p, shape, dims)


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
