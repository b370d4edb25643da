import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    all_vectors,
    brute_kernel_tuples,
    brute_matrix_rank,
    random_matrix,
    random_subspace,
    reference_axis_projection,
    reference_check_reduced,
    reference_complete_basis,
    reference_contains,
    reference_few_zero_kernel_vector,
    reference_grassmannian_stack,
    reference_invert_matrix,
    reference_kernel_basis,
    reference_row_reduce,
    span_tuples,
    subspace_tuples,
)
from slicerank import (
    FieldMatrix,
    NonCanonicalBasisError,
    PreconditionError,
    PrimeField,
    Subspace,
    annihilator,
    complete_basis,
    count_subspaces,
    echelonize,
    enumerate_subspaces,
    few_zero_kernel_vector,
    gaussian_binomial,
    invert_matrix,
    kernel_basis,
    matrix_rank,
    solve_right,
)
from slicerank.linalg import _grassmannian_stack, _row_reduce, grassmannian

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


@st.composite
def field_matrices(draw, max_rows=3, max_cols=4, min_rows=0, min_cols=1):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return FieldMatrix(PrimeField(p), np.array(entries, dtype=np.int64).reshape(rows, cols))


# --- field and matrix basics ---

def test_prime_field_rejects_nonprime():
    for bad in (0, 1, 4, 9, 2**16 + 1):
        with pytest.raises(PreconditionError):
            PrimeField(bad)


def test_prime_field_inverse():
    for p in (2, 3, 5, 7):
        f = PrimeField(p)
        for a in range(1, p):
            assert (a * f.inv(a)) % p == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_field_matrix_reduces_and_freezes():
    m = FieldMatrix(GF3, [[4, -1], [3, 5]])
    assert m.data.tolist() == [[1, 2], [0, 2]]
    with pytest.raises(ValueError):
        m.data[0, 0] = 1


def test_field_matrix_equality():
    a = FieldMatrix(GF2, [[1, 0]])
    assert a == FieldMatrix(GF2, [[1, 0]])
    assert a != FieldMatrix(GF3, [[1, 0]])
    assert a != FieldMatrix(GF2, [[0, 1]])


# --- echelon forms ---

def test_echelonize_identity_forward():
    m = FieldMatrix.identity(GF2, 2)
    ech = echelonize(m, "forward")
    assert ech.matrix == m
    assert ech.pivots == (0, 1)
    assert ech.rank == 2


def test_echelonize_equal_rows():
    ech = echelonize(FieldMatrix(GF2, [[1, 1], [1, 1]]), "forward")
    assert ech.matrix.data.tolist() == [[1, 1], [0, 0]]
    assert ech.rank == 1


def test_echelonize_backward_example():
    m = FieldMatrix(GF3, [[1, 1, 0], [0, 1, 1]])
    ech = echelonize(m, "backward")
    # oracle: row space must be preserved
    assert span_tuples(ech.matrix.data, 3) == span_tuples(m.data, 3)
    # structure: last nonzero column strictly decreasing, unit pivots, cleared
    last_cols = [int(np.flatnonzero(row)[-1]) for row in ech.matrix.data]
    assert last_cols == sorted(last_cols, reverse=True)
    assert ech.pivots == (2, 1)
    assert ech.rank == 2
    assert ech.matrix.data.tolist() == [[2, 0, 1], [1, 1, 0]]


def test_echelonize_rejects_unknown_direction():
    with pytest.raises(PreconditionError):
        echelonize(FieldMatrix.identity(GF2, 2), "sideways")


@given(field_matrices())
def test_echelonize_preserves_row_space(m):
    p = m.field.p
    reference = span_tuples(m.data, p)
    for direction in ("forward", "backward"):
        ech = echelonize(m, direction)
        assert span_tuples(ech.matrix.data, p) == reference
        assert ech.rank == brute_matrix_rank(m.data, p)


@given(field_matrices())
def test_rank_equals_transpose_rank(m):
    t = FieldMatrix(m.field, m.data.T)
    assert matrix_rank(m) == matrix_rank(t)


# --- kernels ---

def _random_matrices(p):
    """Seeded matrices mod p: tall, wide and square, dense, sparse, and with zero rows."""
    rng = np.random.default_rng(p)
    for rows, cols in [(0, 3), (3, 0), (1, 1), (6, 3), (9, 4), (3, 7), (2, 9), (5, 5), (8, 8)]:
        for trial in range(8):
            data = rng.integers(0, p, size=(rows, cols))
            if trial % 2:
                data *= rng.random((rows, cols)) < 0.3
            if rows and trial % 4 < 2:
                data[rng.integers(0, rows, size=rows // 2 + 1)] = 0
            yield data


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_row_reduce_matches_reference(p):
    for data in _random_matrices(p):
        before = data.copy()
        for limit in (None, data.shape[1] // 2):
            red, piv = _row_reduce(data, p, limit)
            ref_red, ref_piv = reference_row_reduce(data, p, limit)
            assert piv == ref_piv, (data.tolist(), limit)
            assert red.dtype == ref_red.dtype and np.array_equal(red, ref_red), (data.tolist(), limit)
        assert np.array_equal(data, before)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernel_basis_matches_reference(p):
    for data in _random_matrices(p):
        m = FieldMatrix(PrimeField(p), data)
        assert kernel_basis(m) == reference_kernel_basis(m), data.tolist()


def _derivation_corpus():
    """Seeded matrices over five primes with 0-6 rows and 0-6 columns.

    Each shape comes dense, with zero rows, with a duplicated row, of low
    rank, and, when square, invertible (a unit lower times a unit upper
    triangular factor), so the square ones are both singular and not.
    """
    rng = np.random.default_rng(89)
    corpus = []
    for p in (2, 3, 5, 7, 65521):
        field = PrimeField(p)
        for rows, cols in itertools.product(range(7), repeat=2):
            dense = rng.integers(0, p, size=(rows, cols))
            variants = [dense, dense * (rng.random((rows, 1)) < 0.5)]
            if rows > 1:
                dup = dense.copy()
                dup[-1] = dup[0]
                variants.append(dup)
            if rows and cols:
                thin = rng.integers(0, p, size=(rows, 1)) @ rng.integers(0, p, size=(1, cols))
                variants.append(thin % p)
            if rows == cols:
                lower = np.tril(rng.integers(0, p, size=(rows, rows)), -1) + np.eye(rows, dtype=np.int64)
                upper = np.triu(rng.integers(0, p, size=(rows, rows)), 1) + np.eye(rows, dtype=np.int64)
                variants.append((lower @ upper) % p)
            corpus += [FieldMatrix(field, data) for data in variants]
    return corpus


def test_few_zero_kernel_vector_matches_reference():
    for m in _derivation_corpus():
        h, degenerate = few_zero_kernel_vector(m)
        ref_h, ref_degenerate = reference_few_zero_kernel_vector(m)
        assert h.dtype == ref_h.dtype and np.array_equal(h, ref_h), (m.field.p, m.data.tolist())
        assert degenerate is ref_degenerate, (m.field.p, m.data.tolist())
        assert not h.flags.writeable


def test_complete_basis_matches_reference():
    for m in _derivation_corpus():
        sub = Subspace.from_rows(m.field, m.data)
        assert complete_basis(sub) == reference_complete_basis(sub), (m.field.p, m.data.tolist())


def test_invert_matrix_matches_reference():
    # square and not, singular and not: equal inverses, or equal errors
    inverted = 0
    for m in _derivation_corpus():
        outcomes = []
        for invert in (invert_matrix, reference_invert_matrix):
            try:
                outcomes.append(invert(m))
            except PreconditionError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (m.field.p, m.data.tolist())
        inverted += isinstance(outcomes[0], FieldMatrix)
    assert inverted >= 35  # the invertible factor products at least


def test_contains_matches_reference():
    # the basis rows and their combinations lie inside; random vectors
    # mostly do not, unless the row space is everything
    rng = np.random.default_rng(97)
    seen = set()
    for m in _derivation_corpus():
        sub = Subspace.from_rows(m.field, m.data)
        p, n = m.field.p, m.cols
        vectors = list(m.data[:1]) + [rng.integers(0, p, size=len(m.data)) @ m.data % p]
        vectors += list(rng.integers(0, p, size=(2, n))) + list(np.eye(n, dtype=np.int64)[-1:])
        for v in vectors + [vectors[-1].reshape(1, -1)]:  # a row as a 1 x n array too
            got = sub.contains(v)
            assert got is reference_contains(sub, v), (p, m.data.tolist(), v.tolist())
            seen.add(got)
    assert seen == {True, False}


def test_contains_refuses_a_vector_of_the_wrong_length():
    # too short, too long, and any nonempty vector in a 0-dimensional space
    sub = Subspace.from_rows(GF3, [[1, 0, 0]])
    for v in ([1, 0], [1, 0, 0, 0], [[1, 0], [0, 0]]):
        with pytest.raises(PreconditionError, match="ambient space of dimension 3"):
            sub.contains(v)
    assert sub.contains([2, 0, 0]) and sub.contains([[1, 0, 0]])
    zero = Subspace.zero(GF3, 0)
    assert zero.contains([])
    for v in ([0], [1, 2]):
        with pytest.raises(PreconditionError, match="ambient space of dimension 0"):
            zero.contains(v)


def test_kernel_of_zero_matrix_is_everything():
    k = kernel_basis(FieldMatrix.zeros(GF5, 2, 3))
    assert k.dim == 3


def test_kernel_of_identity_is_zero():
    k = kernel_basis(FieldMatrix.identity(GF5, 3))
    assert k.dim == 0


def test_kernel_single_row_gf2():
    k = kernel_basis(FieldMatrix(GF2, [[1, 1, 0]]))
    assert k.dim == 2
    assert subspace_tuples(k) == brute_kernel_tuples([[1, 1, 0]], 2)
    assert k.contains([1, 1, 0])
    assert k.contains([0, 0, 1])


@given(field_matrices())
def test_kernel_matches_brute_force(m):
    k = kernel_basis(m)
    assert subspace_tuples(k) == brute_kernel_tuples(m.data, m.field.p)


# --- basis completion ---

def test_complete_basis_examples():
    assert complete_basis(Subspace.zero(GF2, 2)) == FieldMatrix.identity(GF2, 2)
    comp = complete_basis(Subspace.from_rows(GF2, [[1, 1]]))
    assert comp.data.tolist() == [[1, 1], [0, 1]]
    full = Subspace.full(GF3, 3)
    assert complete_basis(full) == full.basis


@given(field_matrices(max_rows=3, max_cols=4))
def test_complete_basis_is_invertible(m):
    sub = Subspace.from_rows(m.field, m.data)
    comp = complete_basis(sub)
    assert comp.rows == comp.cols == sub.ambient_dim
    assert matrix_rank(comp) == sub.ambient_dim
    assert np.array_equal(comp.data[: sub.dim], sub.basis.data)


# --- few-zero kernel vectors ---

def test_few_zero_standard_basis_rows():
    for r in (1, 2):
        rows = np.eye(4, dtype=np.int64)[:r]
        h, degenerate = few_zero_kernel_vector(FieldMatrix(GF3, rows))
        assert not degenerate
        assert h.tolist() == [0] * r + [1] * (4 - r)


def test_few_zero_no_constraints():
    h, degenerate = few_zero_kernel_vector(FieldMatrix.zeros(GF2, 0, 3))
    assert h.tolist() == [1, 1, 1]
    assert not degenerate


def test_few_zero_example_gf2():
    h, _ = few_zero_kernel_vector(FieldMatrix(GF2, [[1, 1, 0]]))
    assert h.tolist() == [1, 1, 1]


def test_few_zero_degenerate_full_rank():
    h, degenerate = few_zero_kernel_vector(FieldMatrix.identity(GF5, 3))
    assert degenerate
    assert not h.any()


@given(field_matrices(max_rows=4, max_cols=4))
def test_few_zero_properties(m):
    h, degenerate = few_zero_kernel_vector(m)
    p = m.field.p
    assert not ((m.data @ h) % p).any()
    rank = matrix_rank(m)
    assert int(np.count_nonzero(h == 0)) <= rank
    assert degenerate == (rank == m.cols)


# --- annihilators ---

def test_annihilator_examples():
    one = annihilator(FieldMatrix(GF3, [[1, 0, 0]]))
    assert one.codim == 1
    assert subspace_tuples(one) == span_tuples([[0, 1, 0], [0, 0, 1]], 3)
    assert annihilator(FieldMatrix.zeros(GF3, 0, 3)).dim == 3
    two = annihilator(FieldMatrix(GF2, [[1, 0, 0], [1, 1, 0]]))
    assert two.codim == 2
    assert subspace_tuples(two) == span_tuples([[0, 0, 1]], 2)


@given(field_matrices(max_rows=3, max_cols=3))
def test_annihilator_double_dual(m):
    sub = Subspace.from_rows(m.field, m.data)
    back = annihilator(annihilator(sub.basis).basis)
    assert back == sub


# --- subspaces and enumeration ---

def test_subspace_rejects_non_canonical_bases():
    for rows in ([[2, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]], [[0, 0]]):
        with pytest.raises(NonCanonicalBasisError):
            Subspace(GF3, 2, FieldMatrix(GF3, rows))


def test_subspace_check_matches_row_by_row_reference():
    # every small matrix is accepted or refused as the row-by-row check
    # decides, with the message of its first failing row
    for field, rows, cols in [(GF2, 0, 0), (GF2, 1, 0), (GF2, 0, 3), (GF2, 3, 3), (GF3, 2, 2),
                              (GF3, 1, 4)]:
        for entries in itertools.product(range(field.p), repeat=rows * cols):
            data = np.array(entries, dtype=np.int64).reshape(rows, cols)
            expected = reference_check_reduced(data)
            if expected is None:
                Subspace(field, cols, FieldMatrix(field, data))
            else:
                with pytest.raises(NonCanonicalBasisError, match=f"^{expected}$"):
                    Subspace(field, cols, FieldMatrix(field, data))


def test_subspace_from_rows_canonicalizes():
    a = Subspace.from_rows(GF3, [[2, 2], [1, 1]])
    b = Subspace.from_rows(GF3, [[1, 1]])
    assert a == b
    assert a.dim == 1 and a.codim == 1


def test_enumerate_order_gf2_dim1():
    subs = list(enumerate_subspaces(GF2, 2, 1))
    assert [s.basis.data.tolist() for s in subs] == [[[1, 0]], [[1, 1]], [[0, 1]]]


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_enumerate_counts_match_gaussian_binomials(p, n):
    field = PrimeField(p)
    for k in range(n + 1):
        subs = list(enumerate_subspaces(field, n, k))
        assert len(subs) == gaussian_binomial(n, k, p)
        assert len({tuple(map(tuple, s.basis.data.tolist())) for s in subs}) == len(subs)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_subspace_counts_against_span_enumeration(p, n):
    # oracle: distinct row spans over all small generating sets
    seen = set()
    vectors = list(all_vectors(p, n))
    for r1 in vectors:
        for r2 in vectors:
            seen.add(span_tuples(np.vstack([r1, r2]), p))
            if n >= 3:
                for r3 in vectors:
                    seen.add(span_tuples(np.vstack([r1, r2, r3]), p))
    assert len(seen) == count_subspaces(n, p)


def test_grassmannian_stack_matches_per_basis_reference():
    for p in (2, 3, 5, 7):
        for n in range(6):
            for k in range(n + 1):
                stack = _grassmannian_stack(p, n, k)
                assert stack.shape == (gaussian_binomial(n, k, p), n, k)
                assert np.array_equal(stack, reference_grassmannian_stack(p, n, k)), (p, n, k)
                assert not stack.flags.writeable


def test_projection_is_cached_read_only_and_matches_reference():
    rng = np.random.default_rng(77)
    subs = [sub for k in range(5) for sub in grassmannian(3, 4, k)]
    subs += [random_subspace(rng, field, n) for field in (GF2, GF5) for n in (0, 1, 3, 5)]
    for sub in subs:
        proj = sub.projection
        assert sub.projection is proj
        for got, want in zip(proj, reference_axis_projection(sub)):
            assert got.shape == want.shape and np.array_equal(got, want)
            assert not got.flags.writeable
        # the u_f are the completion columns of the inverse of the completed basis
        if sub.ambient_dim:
            inverse = invert_matrix(complete_basis(sub)).data
            assert np.array_equal(proj.units, inverse[:, sub.dim :].T)
    with pytest.raises(ValueError):
        subs[1].projection.proj[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        subs[1].projection = None


def test_enumerate_ambient_zero():
    subs = list(enumerate_subspaces(GF3, 0, 0))
    assert len(subs) == 1
    assert subs[0].dim == 0 and subs[0].ambient_dim == 0


# --- solving and inversion ---

def test_invert_matrix_round_trip():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(10):
            m = random_matrix(rng, field, 3, 3)
            if matrix_rank(m) < 3:
                with pytest.raises(PreconditionError):
                    invert_matrix(m)
                continue
            inv = invert_matrix(m)
            assert ((m.data @ inv.data) % p == np.eye(3, dtype=np.int64)).all()


def test_solve_right_consistent_and_inconsistent():
    a = FieldMatrix(GF3, [[1, 2, 0], [0, 1, 1]])
    rng = np.random.default_rng(3)
    x_true = rng.integers(0, 3, size=3)
    rhs = (a.data @ x_true) % 3
    x = solve_right(a, rhs)
    assert x is not None
    assert ((a.data @ x) % 3 == rhs).all()
    # unsolvable system
    bad = FieldMatrix(GF3, [[1, 0], [1, 0]])
    assert solve_right(bad, [1, 2]) is None


def test_random_subspace_round_trips_membership():
    rng = np.random.default_rng(5)
    for p in (2, 3):
        field = PrimeField(p)
        for _ in range(10):
            sub = random_subspace(rng, field, 4)
            for row in sub.basis.data:
                assert sub.contains(row)
            assert subspace_tuples(sub) == span_tuples(sub.basis.data, p)
