import numpy as np
import pytest

import slicerank.normalize as normalize
from helpers import random_decomposition, reference_dual_family, reference_triangular_normalize
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
    gaussian_binomial,
    levi_civita,
    levi_civita_decomposition,
    random_tensor,
    rebase_terms,
    triangular_normalize,
)
from slicerank.linalg import _grassmannian_stack, _row_reduce

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


def test_dual_family_of_an_echelon_basis_is_its_unit_pivot_rows():
    # why the staircase pass slices at the pivots instead of taking duals:
    # every reduced basis of GF(p)^n, n <= 3, and of GF(2)^5, and the
    # echelon bases of seeded independent rows in GF(3)^5, GF(5)^5, GF(7)^5
    rng = np.random.default_rng(71)
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for n in (1, 2, 3, 5):
            for k in range(n + 1):
                if n < 5 or p == 2:
                    bases = [f.T for f in _grassmannian_stack(p, n, k)]
                    assert len(bases) == gaussian_binomial(n, k, p)
                else:
                    bases = [_row_reduce(independent_family(rng, field, n, k).data, p)[0]
                             for _ in range(40)]
                for basis in bases:
                    pivots = (basis != 0).argmax(axis=1)
                    units = np.zeros((k, n), dtype=np.int64)
                    units[np.arange(k), pivots] = 1
                    duals = dual_family(FieldMatrix(field, basis))
                    assert np.array_equal(duals.data, units), (p, basis.tolist())


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


def _normalize_corpus(count):
    """Seeded order-3 decompositions over GF(2), GF(3), GF(5), GF(7).

    Axes of length 0-4 with 0-3 terms each; a term vector is zero, a
    combination of the axis's earlier vectors, or random.
    """
    for i in range(count):
        rng = np.random.default_rng([67, i])
        p = int(rng.choice([2, 3, 5, 7]))
        shape = tuple(int(x) for x in rng.integers(0, 5, size=3))
        terms = []
        for axis, n in enumerate(shape):
            rest = shape[:axis] + shape[axis + 1 :]
            us = np.zeros((0, n), dtype=np.int64)
            for _ in range(int(rng.integers(0, 4))):
                kind = int(rng.integers(0, 3))
                if kind == 0:
                    u = np.zeros(n, dtype=np.int64)
                elif kind == 1:
                    u = (rng.integers(0, p, size=len(us)) @ us) % p
                else:
                    u = rng.integers(0, p, size=n)
                us = np.vstack([us, u])
                terms.append(SliceTerm(axis, u, rng.integers(0, p, size=rest)))
        yield SliceDecomposition(PrimeField(p), shape, tuple(terms))


def test_normalize_matches_rebasing_reference():
    for i, dec in enumerate(_normalize_corpus(400)):
        out, ref = triangular_normalize(dec), reference_triangular_normalize(dec)
        got = [(t.axis, t.u.tolist(), t.v.shape, t.v.tolist()) for t in out.decomposition.terms]
        want = [(t.axis, t.u.tolist(), t.v.shape, t.v.tolist()) for t in ref.decomposition.terms]
        assert got == want, i
        assert out.duals == ref.duals, i
        assert [d.data.shape for d in out.duals] == [d.data.shape for d in ref.duals], i
        assert out.orthogonality == ref.orthogonality, i


def test_normalize_makes_one_reduction_and_one_projection_per_axis(monkeypatch):
    # no rebase, no dual solve: one row reduction of the term vectors and
    # one mode_product of the pivot slices for each axis with terms
    def refuse(*args, **kwargs):
        raise AssertionError("the staircase pass needs no rebase or dual solve")

    for name in ("rebase_terms", "solve_right", "dual_family"):
        monkeypatch.setattr(normalize, name, refuse)
    calls = {"_row_reduce": 0, "mode_product": 0}

    def counted(name):
        original = getattr(normalize, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(normalize, name, counted(name))
    for i, dec in enumerate(_normalize_corpus(60)):
        calls.update(dict.fromkeys(calls, 0))
        out = triangular_normalize(dec)
        assert evaluate_decomposition(out.decomposition) == evaluate_decomposition(dec), i
        axes = len({t.axis for t in dec.terms})
        assert calls["_row_reduce"] <= axes and calls["mode_product"] <= axes, (i, calls)
