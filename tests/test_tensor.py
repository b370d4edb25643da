import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    cover_corpus,
    reference_is_block_upper_triangular,
    reference_random_block_upper_triangular,
    reference_support_and_antichain,
)
from slicerank import (
    BlockStructure,
    PreconditionError,
    PrimeField,
    SliceDecomposition,
    SliceTerm,
    Tensor,
    block_component,
    contract_axis,
    diagonal_tensor,
    direct_sum,
    direct_sum_list,
    embed_block,
    evaluate_decomposition,
    flatten,
    is_block_upper_triangular,
    levi_civita,
    levi_civita_decomposition,
    matrix_rank,
    permute_axis,
    random_block_upper_triangular,
    random_tensor,
    support_and_antichain,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)


@st.composite
def tensors(draw, max_side=3, orders=(2, 3)):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.sampled_from(orders))
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(d))
    size = int(np.prod(shape))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    return Tensor(PrimeField(p), shape, np.array(entries, dtype=np.int64).reshape(shape))


def test_order_one_rejected():
    with pytest.raises(PreconditionError):
        Tensor(GF2, (3,), np.zeros(3, dtype=np.int64))


def test_entries_reduced_and_frozen():
    t = Tensor(GF3, (2, 2), [[5, -1], [0, 4]])
    assert t.data.tolist() == [[2, 2], [0, 1]]
    with pytest.raises(ValueError):
        t.data[0, 0] = 0


def test_zero_size_axes_allowed():
    t = Tensor.zeros(GF2, (0, 2, 3))
    assert t.is_zero()
    assert t.order == 3


def test_levi_civita_entries():
    eps = levi_civita(GF3)
    assert eps.data[0, 1, 2] == 1 and eps.data[1, 2, 0] == 1 and eps.data[2, 0, 1] == 1
    assert eps.data[0, 2, 1] == 2 and eps.data[2, 1, 0] == 2 and eps.data[1, 0, 2] == 2
    assert np.count_nonzero(eps.data) == 6


# --- contraction ---

def test_contract_levi_civita_is_antisymmetric():
    eps = levi_civita(GF3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = rng.integers(0, 3, size=3)
        m = contract_axis(eps, h, 0)
        assert isinstance(m, Tensor)
        assert not ((m.data + m.data.T) % 3).any()
        assert not m.data.diagonal().any()


def test_contract_zero_tensor():
    z = Tensor.zeros(GF3, (2, 2, 2))
    assert contract_axis(z, [1, 1], 0).is_zero()


def test_contract_levi_civita_first_slice():
    # oracle: direct evaluation of the permutation entries at x = 0
    eps = levi_civita(GF3)
    m = contract_axis(eps, [1, 0, 0], 0)
    expected = np.zeros((3, 3), dtype=np.int64)
    expected[1, 2] = 1
    expected[2, 1] = 2
    assert m.data.tolist() == expected.tolist()


def test_contract_order_two_returns_vector():
    t = Tensor(GF3, (2, 3), [[1, 2, 0], [0, 1, 1]])
    v = contract_axis(t, [1, 1], 0)
    assert isinstance(v, np.ndarray)
    assert v.tolist() == [1, 0, 1]


def test_contract_validates_arguments():
    t = Tensor.zeros(GF2, (2, 2))
    with pytest.raises(PreconditionError):
        contract_axis(t, [1, 0], 5)
    with pytest.raises(PreconditionError):
        contract_axis(t, [1, 0, 0], 0)


@given(tensors(orders=(3,)), st.data())
def test_contract_is_linear(t, data):
    p = t.field.p
    n = t.shape[0]
    h1 = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    h2 = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    a = data.draw(st.integers(0, p - 1))
    left = contract_axis(t, (a * h1 + h2) % p, 0)
    right = (a * contract_axis(t, h1, 0).data + contract_axis(t, h2, 0).data) % p
    assert np.array_equal(left.data, right)


@given(tensors(orders=(3,)), st.data())
def test_contract_commutes_across_axes(t, data):
    p = t.field.p
    h0 = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=t.shape[0], max_size=t.shape[0])))
    h2 = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=t.shape[2], max_size=t.shape[2])))
    # contract axis 0 then what was axis 2; compare against the other order
    one = contract_axis(contract_axis(t, h0, 0), h2, 1)
    two = contract_axis(contract_axis(t, h2, 2), h0, 0)
    assert np.array_equal(one, two)


def test_contract_distributes_over_direct_sum():
    rng = np.random.default_rng(2)
    t1 = random_tensor(GF3, (2, 2, 2), rng)
    t2 = random_tensor(GF3, (1, 2, 1), rng)
    total, _ = direct_sum(t1, t2)
    h = rng.integers(0, 3, size=3)
    left = contract_axis(total, h, 0)
    part1 = contract_axis(t1, h[:2], 0)
    part2 = contract_axis(t2, h[2:], 0)
    expected, _ = direct_sum(part1, part2)
    assert left == expected


# --- flattening ---

def test_flatten_single_term_has_rank_at_most_one():
    term = SliceTerm(1, np.array([1, 2]), np.array([[1, 0], [0, 1]]))
    dec = SliceDecomposition(GF3, (2, 2, 2), (term,))
    t = evaluate_decomposition(dec)
    assert matrix_rank(flatten(t, 1)) <= 1


def test_flatten_levi_civita_axis0():
    eps = levi_civita(GF3)
    m = flatten(eps, 0)
    assert (m.rows, m.cols) == (3, 9)
    assert matrix_rank(m) == 3


def test_flatten_zero():
    assert matrix_rank(flatten(Tensor.zeros(GF2, (2, 3, 2)), 2)) == 0


# --- direct sums and blocks ---

def test_direct_sum_of_unit_cubes_is_diagonal():
    one = Tensor(GF2, (1, 1, 1), [[[1]]])
    total, blocks = direct_sum(one, one)
    assert total == diagonal_tensor(GF2, 2, 2)
    assert blocks.sizes == ((1, 1), (1, 1), (1, 1))


def test_direct_sum_levi_civita_blocks():
    eps = levi_civita(GF3)
    total, blocks = direct_sum(eps, eps)
    assert total.shape == (6, 6, 6)
    assert block_component(total, blocks, (0, 0, 0)) == eps
    assert block_component(total, blocks, (1, 1, 1)) == eps
    assert block_component(total, blocks, (0, 1, 0)).is_zero()


def test_direct_sum_with_empty_factor():
    eps = levi_civita(GF3)
    empty = Tensor.zeros(GF3, (0, 0, 0))
    total, blocks = direct_sum(eps, empty)
    assert total.shape == (3, 3, 3)
    assert np.array_equal(total.data, eps.data)
    assert blocks.sizes == ((3, 0), (3, 0), (3, 0))


def test_direct_sum_rejects_mismatch():
    with pytest.raises(PreconditionError):
        direct_sum(Tensor.zeros(GF2, (2, 2)), Tensor.zeros(GF3, (2, 2)))
    with pytest.raises(PreconditionError):
        direct_sum(Tensor.zeros(GF2, (2, 2)), Tensor.zeros(GF2, (2, 2, 2)))


def test_block_components_reassemble():
    rng = np.random.default_rng(7)
    t = random_tensor(GF2, (4, 4, 4), rng)
    blocks = BlockStructure(((2, 2), (2, 2), (2, 2)))
    total = np.zeros((4, 4, 4), dtype=np.int64)
    for alpha in np.ndindex(2, 2, 2):
        comp = block_component(t, blocks, alpha)
        total = (total + embed_block(comp, blocks, alpha).data) % 2
    assert np.array_equal(total, t.data)


def test_block_component_validates_alpha():
    t = Tensor.zeros(GF2, (2, 2))
    blocks = BlockStructure(((1, 1), (1, 1)))
    with pytest.raises(PreconditionError):
        block_component(t, blocks, (0, 2))


def test_direct_sum_list_three_parts():
    eps = levi_civita(GF3)
    total, blocks = direct_sum_list([eps, eps, eps])
    assert total.shape == (9, 9, 9)
    assert blocks.num_blocks == 3
    assert block_component(total, blocks, (2, 2, 2)) == eps


# --- support and triangularity ---

def test_support_antichain_levi_civita():
    info = support_and_antichain(levi_civita(GF3))
    assert len(info.support) == 6
    assert info.is_antichain


def test_support_antichain_diagonal_false():
    info = support_and_antichain(diagonal_tensor(GF2, 3, 2))
    assert not info.is_antichain


def test_support_and_antichain_matches_reference():
    # comparing each point with the later points only, in argwhere order,
    # gives the reference's sorted support of int tuples and its flag
    flags = set()
    for t in cover_corpus():
        info = support_and_antichain(t)
        assert info == reference_support_and_antichain(t), t.data.tolist()
        assert all(type(i) is int for pt in info.support for i in pt)
        flags.add(info.is_antichain)
    assert flags == {True, False}


def test_support_antichain_zero_tensor():
    info = support_and_antichain(Tensor.zeros(GF2, (2, 2, 2)))
    assert info.support == ()
    assert info.is_antichain


def test_block_upper_triangular_flags():
    one = Tensor(GF2, (1, 1, 1), [[[1]]])
    total, blocks = direct_sum(one, one)
    assert is_block_upper_triangular(total, blocks)
    bad = np.zeros((2, 2, 2), dtype=np.int64)
    bad[1, 0, 0] = 1
    assert not is_block_upper_triangular(Tensor(GF2, (2, 2, 2), bad), blocks)
    rng = np.random.default_rng(9)
    tri_blocks = BlockStructure(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    for _ in range(5):
        t = random_block_upper_triangular(GF2, tri_blocks, rng)
        assert is_block_upper_triangular(t, tri_blocks)


def _block_structures(rng, count):
    """Seeded block structures of orders 2 to 4 with 1 to 3 blocks, zero-size blocks included."""
    out = [BlockStructure(((0,), (0,))), BlockStructure(((2,), (1,), (3,)))]
    while len(out) < count:
        d, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        out.append(BlockStructure(tuple(tuple(int(s) for s in rng.integers(0, 3, size=k))
                                        for _ in range(d))))
    return out


class _CountingGenerator:
    """A seeded generator that counts its ``integers`` calls."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def test_block_helpers_match_loop_references():
    rng = np.random.default_rng(4242)
    # layouts where most blocks are empty, some on every axis
    structures = _block_structures(rng, 40) + [
        BlockStructure(((1, 0, 0, 0, 2), (0, 0, 1, 0, 1), (0, 1, 0, 0, 1))),
        BlockStructure(((0, 0, 2, 0), (1, 0, 0, 1))),
        BlockStructure(((0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
        BlockStructure(((0, 0, 0), (1, 2, 0))),
    ]
    assert any(0 in axis for b in structures for axis in b.sizes)
    assert {b.order for b in structures} == {2, 3, 4}
    seeds, verdicts = 0, set()
    for blocks in structures:
        for field in (GF2, GF3, PrimeField(65521)):
            for _ in range(2):
                seeds += 1  # a fresh seed per draw
                a, b = _CountingGenerator(seeds), np.random.default_rng(seeds)
                t = random_block_upper_triangular(field, blocks, a)
                assert a.calls == 1  # one draw for every component
                assert t == reference_random_block_upper_triangular(field, blocks, b)
                assert a.rng.integers(0, 2**62) == b.integers(0, 2**62)  # same draws taken
                assert is_block_upper_triangular(t, blocks)
                assert reference_is_block_upper_triangular(t, blocks)
                # one entry set anywhere, or a dense tensor, decides the same way
                others = [random_tensor(field, blocks.shape, rng)]
                if t.data.size:
                    data = t.data.copy()
                    data[tuple(int(rng.integers(0, n)) for n in t.shape)] = 1
                    others.append(Tensor(field, t.shape, data))
                for other in others:
                    verdict = is_block_upper_triangular(other, blocks)
                    assert verdict == reference_is_block_upper_triangular(other, blocks)
                    verdicts.add(verdict)
    assert seeds >= 100 and verdicts == {True, False}


def test_random_block_upper_triangular_visits_only_nonempty_components(monkeypatch):
    calls = []
    block_slices = BlockStructure.block_slices

    def counted(self, alpha):
        calls.append(tuple(alpha))
        return block_slices(self, alpha)

    monkeypatch.setattr(BlockStructure, "block_slices", counted)
    k = 60
    unit = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    # one size-1 block per axis, the rest empty: one component, then none
    for positions, visited in (((3, 20, 41), [(3, 20, 41)]), ((41, 20, 3), [])):
        blocks = BlockStructure(tuple(unit[i] for i in positions))
        calls.clear()
        t = random_block_upper_triangular(GF3, blocks, np.random.default_rng(7))
        assert calls == visited and t.shape == (1, 1, 1)
        assert visited or t.is_zero()
    # two nonempty blocks on every axis: the four nondecreasing ones of 2^3
    blocks = BlockStructure(((1,) + (0,) * (k - 2) + (1,),) * 3)
    calls.clear()
    random_block_upper_triangular(GF2, blocks, np.random.default_rng(7))
    assert calls == [(0, 0, 0), (0, 0, k - 1), (0, k - 1, k - 1), (k - 1, k - 1, k - 1)]


def test_block_structure_derived_values_are_not_fields():
    blocks = BlockStructure(((1, 0, 2), (0, 3, 1)))
    assert blocks.shape == (3, 4)
    assert blocks.offsets == ((0, 1, 1, 3), (0, 0, 3, 4))
    assert [list(axis) for axis in blocks.block_of] == [[0, 2, 2], [1, 1, 1, 2]]
    assert blocks.block_slices((2, 1)) == (slice(1, 3), slice(0, 3))
    assert [f.name for f in dataclasses.fields(BlockStructure)] == ["sizes"]
    fresh = BlockStructure(((1, 0, 2), (0, 3, 1)))
    assert fresh == blocks and hash(fresh) == hash(blocks)
    with pytest.raises(dataclasses.FrozenInstanceError):
        blocks.shape = (1, 1)


# --- decomposition evaluation ---

def test_evaluate_empty_decomposition():
    dec = SliceDecomposition(GF3, (2, 2, 2), ())
    assert evaluate_decomposition(dec).is_zero()


def test_evaluate_single_slab():
    term = SliceTerm(0, np.array([1, 0]), np.array([[1, 1], [1, 1]]))
    t = evaluate_decomposition(SliceDecomposition(GF2, (2, 2, 2), (term,)))
    assert t.data[0].tolist() == [[1, 1], [1, 1]]
    assert not t.data[1].any()


def test_levi_civita_decomposition_reconstructs():
    dec = levi_civita_decomposition(GF3)
    assert len(dec.terms) == 3
    assert sorted(t.axis for t in dec.terms) == [0, 1, 2]
    assert evaluate_decomposition(dec) == levi_civita(GF3)


def test_decomposition_validates_terms():
    with pytest.raises(PreconditionError):
        SliceDecomposition(GF2, (2, 2), (SliceTerm(0, np.array([1, 0, 0]), np.array([1, 0])),))
    with pytest.raises(PreconditionError):
        SliceDecomposition(GF2, (2, 2), (SliceTerm(3, np.array([1, 0]), np.array([1, 0])),))


# --- permutation ---

def test_permute_axis_roundtrip():
    rng = np.random.default_rng(1)
    t = random_tensor(GF3, (3, 2, 2), rng)
    perm = [2, 0, 1]
    inverse = [1, 2, 0]
    back = permute_axis(permute_axis(t, 0, perm), 0, inverse)
    assert back == t


def test_permute_axis_rejects_non_permutation():
    t = Tensor.zeros(GF2, (2, 2))
    with pytest.raises(PreconditionError):
        permute_axis(t, 0, [0, 0])


def test_diagonal_tensor_validation():
    with pytest.raises(PreconditionError):
        diagonal_tensor(GF2, 2, 3)
    t = diagonal_tensor(GF2, 3, 2)
    assert t.data[0, 0, 0] == 1 and t.data[1, 1, 1] == 1 and t.data[2, 2, 2] == 0
