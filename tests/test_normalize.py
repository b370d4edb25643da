import numpy as np
import pytest

from helpers import random_decomposition, reference_dual_family
from slicerank import (
    FieldMatrix,
    PreconditionError,
    PrimeField,
    SliceDecomposition,
    SliceTerm,
    Tensor,
    axis_projection,
    axis_projection_complement,
    dual_family,
    evaluate_decomposition,
    levi_civita,
    levi_civita_decomposition,
    random_tensor,
    rebase_terms,
    triangular_normalize,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def independent_family(rng, field, n, k):
    """Random independent rows, by rejection."""
    from slicerank import matrix_rank

    while True:
        m = FieldMatrix(field, rng.integers(0, field.p, size=(k, n)))
        if matrix_rank(m) == k:
            return m


# --- rebasing ---

def test_rebase_identity():
    a = FieldMatrix(GF2, [[1, 0], [0, 1]])
    b = [np.array([[1, 0], [0, 0]]), np.array([[0, 0], [1, 1]])]
    out = rebase_terms(a, b, a)
    assert np.array_equal(out[0], b[0] % 2)
    assert np.array_equal(out[1], b[1] % 2)


def test_rebase_splits_a_vector():
    a = FieldMatrix(GF2, [[1, 1]])
    b = [np.array([[1, 0], [0, 1]])]
    a_new = FieldMatrix.identity(GF2, 2)
    out = rebase_terms(a, b, a_new)
    assert np.array_equal(out[0], b[0])
    assert np.array_equal(out[1], b[0])


def test_rebase_merges_dependent_vectors():
    a = FieldMatrix(GF3, [[1, 0], [1, 0]])
    b = [np.array([[1, 2], [0, 0]]), np.array([[0, 1], [1, 0]])]
    a_new = FieldMatrix(GF3, [[1, 0]])
    out = rebase_terms(a, b, a_new)
    assert np.array_equal(out[0], (b[0] + b[1]) % 3)


def test_rebase_requires_span_containment():
    a = FieldMatrix(GF2, [[1, 0]])
    with pytest.raises(PreconditionError):
        rebase_terms(a, [np.array([1, 0])], FieldMatrix(GF2, [[0, 1]]))


def test_rebase_preserves_evaluation_randomized():
    for trial in range(20):
        rng = np.random.default_rng([41, trial])
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        k = int(rng.integers(1, 4))
        a = FieldMatrix(field, rng.integers(0, p, size=(k, 3)))
        b = [rng.integers(0, p, size=(2, 2)) for _ in range(k)]
        # rebase onto the echelon basis of the span
        from slicerank import Subspace

        basis = Subspace.from_rows(field, a.data).basis
        out = rebase_terms(a, b, basis)
        before = np.zeros((3, 2, 2), dtype=np.int64)
        for i in range(k):
            before += np.multiply.outer(a.data[i], b[i])
        after = np.zeros((3, 2, 2), dtype=np.int64)
        for j in range(basis.rows):
            after += np.multiply.outer(basis.data[j], out[j])
        assert np.array_equal(before % p, after % p)


# --- dual families and projections ---

def test_dual_family_is_biorthogonal():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for k in (1, 2, 3):
            fam = independent_family(rng, field, 4, k)
            duals = dual_family(fam)
            gram = (duals.data @ fam.data.T) % p
            assert np.array_equal(gram, np.eye(k, dtype=np.int64))


def test_dual_family_matches_inverse_of_completed_rows():
    # the one reduction gives the duals the completed inverse gave
    rng = np.random.default_rng(7)
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for n in (1, 2, 3, 5):
            for k in range(n + 1):
                fam = independent_family(rng, field, n, k)
                assert dual_family(fam) == reference_dual_family(fam), (p, fam.data.tolist())


def test_dual_family_rejects_dependent_rows():
    with pytest.raises(PreconditionError):
        dual_family(FieldMatrix(GF2, [[1, 0], [1, 0]]))


def test_projection_checks_biorthogonality():
    t = Tensor.zeros(GF2, (2, 2, 2))
    fam = FieldMatrix(GF2, [[1, 0]])
    bad_duals = FieldMatrix(GF2, [[0, 1]])
    with pytest.raises(PreconditionError):
        axis_projection(t, 0, fam, bad_duals)


def test_projection_idempotent_commuting_complement():
    for trial in range(30):
        rng = np.random.default_rng([43, trial])
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        t = random_tensor(field, (3, 3, 3), rng)
        fams = {}
        duals = {}
        for axis in range(3):
            k = int(rng.integers(1, 3))
            fams[axis] = independent_family(rng, field, 3, k)
            duals[axis] = dual_family(fams[axis])
        once = axis_projection(t, 0, fams[0], duals[0])
        twice = axis_projection(once, 0, fams[0], duals[0])
        assert once == twice
        ab = axis_projection(axis_projection(t, 0, fams[0], duals[0]), 1, fams[1], duals[1])
        ba = axis_projection(axis_projection(t, 1, fams[1], duals[1]), 0, fams[0], duals[0])
        assert ab == ba
        comp = axis_projection_complement(t, 2, fams[2], duals[2])
        total = (once.data + axis_projection_complement(t, 0, fams[0], duals[0]).data) % p
        assert np.array_equal(total, t.data)
        assert comp.shape == t.shape


def test_complements_annihilate_decomposed_tensors():
    # Q3 Q2 Q1 kills anything with a full slice decomposition over the families
    for trial in range(10):
        rng = np.random.default_rng([47, trial])
        field = PrimeField(3)
        dec = random_decomposition(rng, field, (3, 3, 3), max_terms_per_axis=2)
        t = evaluate_decomposition(dec)
        residual = t
        for axis in range(3):
            terms = dec.terms_on_axis(axis)
            if not terms:
                continue
            from slicerank import Subspace

            stack = np.vstack([term.u for term in terms])
            basis = Subspace.from_rows(field, stack).basis
            if basis.rows == 0:
                continue
            duals = dual_family(basis)
            residual = axis_projection_complement(residual, axis, basis, duals)
        assert residual.is_zero()


# --- triangular normalization ---

def test_normalize_axis0_only_decomposition():
    rng = np.random.default_rng(3)
    u = np.array([1, 2, 0])
    v = rng.integers(0, 3, size=(3, 3))
    dec = SliceDecomposition(GF3, (3, 3, 3), (SliceTerm(0, u, v),))
    out = triangular_normalize(dec)
    assert len(out.decomposition.terms) == 1
    assert out.decomposition.terms[0].axis == 0
    assert evaluate_decomposition(out.decomposition) == evaluate_decomposition(dec)


def test_normalize_levi_civita_decomposition():
    dec = levi_civita_decomposition(GF3)
    out = triangular_normalize(dec)
    assert len(out.decomposition.terms) == 3
    assert evaluate_decomposition(out.decomposition) == levi_civita(GF3)
    assert out.orthogonality == ((0, 1), (0, 2), (1, 2))


def test_normalize_empty_decomposition():
    dec = SliceDecomposition(GF2, (2, 2, 2), ())
    out = triangular_normalize(dec)
    assert out.decomposition.terms == ()
    assert out.orthogonality == ((0, 1), (0, 2), (1, 2))


def test_normalize_rejects_other_orders():
    dec = SliceDecomposition(GF2, (2, 2), ())
    with pytest.raises(PreconditionError):
        triangular_normalize(dec)


def test_normalize_preserves_value_and_counts_seeded():
    for trial in range(25):
        rng = np.random.default_rng([53, trial])
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        shape = tuple(int(x) for x in rng.integers(1, 4, size=3))
        dec = random_decomposition(rng, field, shape)
        out = triangular_normalize(dec)
        assert evaluate_decomposition(out.decomposition) == evaluate_decomposition(dec)
        # term counts match the per-axis ranks of the input vectors
        from slicerank import Subspace

        for axis in range(3):
            terms = dec.terms_on_axis(axis)
            if terms:
                rank = Subspace.from_rows(field, np.vstack([t.u for t in terms])).dim
            else:
                rank = 0
            assert len(out.decomposition.terms_on_axis(axis)) == rank
        # the staircase condition holds through the recorded duals
        assert out.orthogonality == ((0, 1), (0, 2), (1, 2))


def test_normalize_is_stable_under_renormalization():
    for trial in range(10):
        rng = np.random.default_rng([59, trial])
        dec = random_decomposition(rng, GF3, (3, 3, 3))
        once = triangular_normalize(dec)
        twice = triangular_normalize(once.decomposition)
        assert evaluate_decomposition(twice.decomposition) == evaluate_decomposition(dec)
        assert len(twice.decomposition.terms) == len(once.decomposition.terms)
        assert twice.orthogonality == ((0, 1), (0, 2), (1, 2))
