import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_decomposition,
    reference_decomposition_from_obj,
    reference_dense_from_obj,
    reference_subspace_from_obj,
)
from slicerank import (
    DualCertificate,
    FormatError,
    NonCanonicalBasisError,
    PrimeField,
    SliceDecomposition,
    SliceRankError,
    Subspace,
    Tensor,
    diagonal_tensor,
    direct_sum,
    evaluate_decomposition,
    levi_civita,
    levi_civita_decomposition,
    random_tensor,
    slice_rank_exact,
)
from slicerank import serialize
from slicerank.cli import main
from slicerank.serialize import (
    _dense_from_obj,
    certificate_from_obj,
    certificate_to_obj,
    decomposition_from_obj,
    decomposition_to_obj,
    dump_json,
    load_json,
    rank_result_to_obj,
    split_trace_to_obj,
    subspace_from_obj,
    tensor_from_obj,
    tensor_to_obj,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def test_tensor_round_trip_uses_one_based_indices():
    eps = levi_civita(GF3)
    obj = tensor_to_obj(eps)
    assert obj["prime"] == 3
    assert obj["shape"] == [3, 3, 3]
    assert {"index": [1, 2, 3], "value": 1} in obj["entries"]
    assert {"index": [1, 3, 2], "value": 2} in obj["entries"]
    assert len(obj["entries"]) == 6
    assert tensor_from_obj(obj) == eps


def test_tensor_omitted_entries_are_zero():
    obj = {"prime": 2, "shape": [2, 2], "entries": [{"index": [2, 2], "value": 1}]}
    t = tensor_from_obj(obj)
    assert t.data.tolist() == [[0, 0], [0, 1]]


def test_tensor_duplicate_index_rejected():
    obj = {
        "prime": 2,
        "shape": [2, 2],
        "entries": [{"index": [1, 1], "value": 1}, {"index": [1, 1], "value": 1}],
    }
    with pytest.raises(FormatError):
        tensor_from_obj(obj)


def test_tensor_value_range_checked():
    obj = {"prime": 3, "shape": [2, 2], "entries": [{"index": [1, 1], "value": 3}]}
    with pytest.raises(FormatError):
        tensor_from_obj(obj)


def test_tensor_index_range_checked():
    obj = {"prime": 3, "shape": [2, 2], "entries": [{"index": [0, 1], "value": 1}]}
    with pytest.raises(FormatError):
        tensor_from_obj(obj)
    obj = {"prime": 3, "shape": [2, 2], "entries": [{"index": [3, 1], "value": 1}]}
    with pytest.raises(FormatError):
        tensor_from_obj(obj)


def test_tensor_order_one_rejected_at_top_level():
    with pytest.raises(FormatError):
        tensor_from_obj({"prime": 2, "shape": [3], "entries": []})


def test_tensor_nonprime_rejected():
    with pytest.raises(FormatError):
        tensor_from_obj({"prime": 6, "shape": [2, 2], "entries": []})


def test_decomposition_round_trip():
    dec = levi_civita_decomposition(GF3)
    obj = decomposition_to_obj(dec)
    assert all(item["axis"] in (1, 2, 3) for item in obj)
    back = decomposition_from_obj(obj)
    assert evaluate_decomposition(back) == levi_civita(GF3)
    assert len(back.terms) == 3


def test_decomposition_round_trip_order_two():
    rng = np.random.default_rng(0)
    t = random_tensor(GF3, (2, 3), rng)
    dec = slice_rank_exact(t).decomposition
    back = decomposition_from_obj(decomposition_to_obj(dec))
    assert evaluate_decomposition(back) == t


def test_decomposition_empty_needs_context():
    with pytest.raises(FormatError):
        decomposition_from_obj([])
    dec = decomposition_from_obj([], field=GF2, shape=(2, 2, 2))
    assert dec.terms == ()


def test_decomposition_shape_consistency_enforced():
    dec = levi_civita_decomposition(GF3)
    obj = decomposition_to_obj(dec)
    obj[1]["u"] = [1, 0]  # wrong axis length
    with pytest.raises(FormatError):
        decomposition_from_obj(obj)


def test_certificate_round_trip():
    res = slice_rank_exact(levi_civita(GF3))
    obj = certificate_to_obj(res.certificate)
    assert obj["bound"] == 3
    back = certificate_from_obj(obj, GF3)
    assert back == res.certificate


def test_certificate_non_canonical_basis_rejected_distinctly():
    obj = {
        "bound": 2,
        "subspaces": [
            {"ambient": 2, "basis": [[1, 1], [0, 1]]},  # pivot column not cleared
            {"ambient": 2, "basis": [[1, 0], [0, 1]]},
            {"ambient": 2, "basis": [[1, 0], [0, 1]]},
        ],
    }
    with pytest.raises(NonCanonicalBasisError):
        certificate_from_obj(obj, GF2)


def test_certificate_bound_mismatch_rejected():
    sub = Subspace.full(GF2, 2)
    cert = DualCertificate((sub, sub))
    obj = certificate_to_obj(cert)
    obj["bound"] = 1
    with pytest.raises(FormatError):
        certificate_from_obj(obj, GF2)


def test_certificate_residue_range_checked():
    obj = {"bound": 0, "subspaces": [{"ambient": 1, "basis": [[2]]}] * 2}
    with pytest.raises(FormatError):
        certificate_from_obj(obj, GF2)


def test_rank_result_serialization_shapes():
    res = slice_rank_exact(levi_civita(GF3))
    obj = rank_result_to_obj(res)
    assert obj["sigma"] == 3
    assert obj["status"] == "ok"
    assert obj["certificate"]["bound"] == 3
    assert len(obj["decomposition"]) == 3
    short = slice_rank_exact(levi_civita(GF3), budget=1)
    obj = rank_result_to_obj(short)
    assert obj == {"status": "rank_above_budget", "method": "dual_search", "sigma": None}


def test_split_trace_serialization():
    from slicerank import diagonal_tensor, direct_sum, split_certificate

    total, blocks = direct_sum(diagonal_tensor(GF2, 1, 1), diagonal_tensor(GF2, 1, 1))
    cert = slice_rank_exact(total).certificate
    trace = split_certificate(cert, blocks)
    obj = split_trace_to_obj(trace)
    assert obj["choices"] == ["first", "first", "second"]
    assert len(obj["axes"]) == 3
    assert len(obj["certificates"]) == 2
    for axis_obj in obj["axes"]:
        assert set(axis_obj) == {"w_vectors", "threshold", "block1_dual", "block2_dual"}


def test_dump_is_deterministic():
    rng = np.random.default_rng(9)
    t = random_tensor(GF3, (2, 2, 2), rng)
    a = dump_json(tensor_to_obj(t))
    b = dump_json(tensor_to_obj(Tensor(GF3, t.shape, t.data.copy())))
    assert a == b
    parsed = json.loads(a)
    assert tensor_from_obj(parsed) == t


def test_random_decompositions_survive_round_trip():
    for trial in range(15):
        rng = np.random.default_rng([61, trial])
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        shape = tuple(int(x) for x in rng.integers(1, 4, size=3))
        dec = random_decomposition(rng, field, shape)
        back = decomposition_from_obj(decomposition_to_obj(dec), field=field, shape=shape)
        assert evaluate_decomposition(back) == evaluate_decomposition(dec)


def _outcome(parse, *args):
    """What a parse returns, or the type and message of the error it raises."""
    try:
        return "ok", parse(*args)
    except SliceRankError as exc:
        return type(exc), str(exc)


def _same_dense(obj):
    shipped, reference = _outcome(_dense_from_obj, obj), _outcome(reference_dense_from_obj, obj)
    if reference[0] == "ok":
        assert shipped[0] == "ok"
        (field, shape, arr), (ref_field, ref_shape, ref_arr) = shipped[1], reference[1]
        assert (field, shape, arr.shape, arr.dtype) == (ref_field, ref_shape, ref_arr.shape, ref_arr.dtype)
        assert np.array_equal(arr, ref_arr)
    else:
        assert shipped == reference


def _entries(*entries):
    return {"prime": 3, "shape": [2, 3], "entries": list(entries)}


GOOD = {"index": [2, 3], "value": 2}

HOSTILE_TENSORS = {
    "bool-coordinate": _entries({"index": [True, 1], "value": 1}),
    "bool-value": _entries({"index": [1, 1], "value": True}),
    "float-coordinate": _entries({"index": [1.0, 1], "value": 1}),
    "float-value": _entries({"index": [1, 1], "value": 1.0}),
    "string-coordinate": _entries({"index": ["1", 1], "value": 1}),
    "string-value": _entries({"index": [1, 1], "value": "1"}),
    "index-not-a-list": _entries({"index": 4, "value": 1}),
    "index-an-object": _entries({"index": {"1": 1}, "value": 1}),
    "index-too-short": _entries({"index": [1], "value": 1}),
    "index-too-long": _entries({"index": [1, 1, 1], "value": 1}),
    "coordinate-zero": _entries({"index": [0, 1], "value": 1}),
    "coordinate-past-axis": _entries({"index": [1, 4], "value": 1}),
    "coordinate-past-int64": _entries({"index": [2**63, 1], "value": 1}),
    "coordinate-below-int64": _entries({"index": [1, -(2**63) - 1], "value": 1}),
    "value-past-int64": _entries({"index": [1, 1], "value": 2**64 + 1}),
    "value-below-int64": _entries({"index": [1, 1], "value": -(2**70)}),
    "duplicate": _entries({"index": [1, 2], "value": 1}, GOOD, {"index": [1, 2], "value": 2}),
    "missing-value": _entries({"index": [1, 1]}),
    "value-null": _entries({"index": [1, 1], "value": None}),
    "value-is-p": _entries({"index": [1, 1], "value": 3}),
    "value-negative": _entries({"index": [1, 1], "value": -1}),
    "entry-not-an-object": _entries(GOOD, [1, 1]),
    "entry-null": _entries(None),
    "entries-absent": {"prime": 3, "shape": [2, 3]},
    "entries-empty": _entries(),
    "entries-an-object": {"prime": 3, "shape": [2, 3], "entries": {}},
    "zero-size-axis-empty": {"prime": 2, "shape": [2, 0], "entries": []},
    "zero-size-axis-entry": {"prime": 2, "shape": [2, 0], "entries": [{"index": [1, 1], "value": 1}]},
    "order-zero": {"prime": 2, "shape": [], "entries": [{"index": [], "value": 1}]},
    "order-zero-duplicate": {"prime": 2, "shape": [], "entries": [{"index": [], "value": 1}] * 2},
    # the first bad entry in file order is the one reported
    "bad-value-before-bad-index": _entries(GOOD, {"index": [1, 1], "value": 5}, {"index": [9, 1], "value": 1}),
    "bad-index-before-duplicate": _entries(GOOD, {"index": [0, 1], "value": 1}, GOOD),
    "duplicate-before-bad-value": _entries(GOOD, {"index": [2, 3], "value": 7}),
    "two-faults-in-one-entry": _entries({"index": [1, 9], "value": 9}),
    "valid": _entries(GOOD, {"index": [1, 1], "value": 0}, {"index": [2, 1], "value": 1}),
}


@pytest.mark.parametrize("obj", HOSTILE_TENSORS.values(), ids=HOSTILE_TENSORS.keys())
def test_dense_parse_matches_per_entry_reference_on_hostile_entries(obj):
    _same_dense(obj)


HOSTILE_VALUES = [True, 1.0, "1", None, -1, 2**63, [1], {}]


@st.composite
def sparse_tensor_objects(draw):
    """Valid sparse tensor objects of orders 2-5, sometimes with one hostile field."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    shape = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    cells = draw(st.lists(st.tuples(*[st.integers(1, n) for n in shape]), unique=True, max_size=20))
    entries = [{"index": list(c), "value": draw(st.integers(0, p - 1))} for c in cells]
    if entries and draw(st.booleans()):
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        bad = draw(st.sampled_from(HOSTILE_VALUES + [0, p, shape[0] + 1]))
        if draw(st.booleans()):
            entry["value"] = bad
        else:
            entry["index"][draw(st.integers(0, len(shape) - 1))] = bad
    if entries and draw(st.booleans()):
        entries.append(dict(entries[draw(st.integers(0, len(entries) - 1))]))
    return {"prime": p, "shape": shape, "entries": entries}


@settings(max_examples=200)
@given(sparse_tensor_objects())
def test_dense_parse_matches_per_entry_reference_on_random_tensors(obj):
    _same_dense(obj)


def _term(u, p=3, axis=1):
    return {"axis": axis, "u": u, "v": {"prime": p, "shape": [2, 2], "entries": [{"index": [1, 2], "value": 1}]}}


HOSTILE_DECOMPOSITIONS = {
    "valid": [_term([1, 2]), _term([0, 0], axis=2)],
    "u-bool": [_term([True, 0])],
    "u-float": [_term([1.0, 0])],
    "u-string": [_term(["1", 0])],
    "u-null": [_term([None, 0])],
    "u-not-a-list": [_term(1)],
    "u-absent": [{"axis": 1, "v": _term([])["v"]}],
    "u-negative": [_term([-1, 0])],
    "u-is-p": [_term([3, 0])],
    "u-past-int64": [_term([2**63, 0])],
    "u-below-int64": [_term([-(2**64), 0])],
    "u-empty": [_term([])],
    "u-fine-then-bad-v": [{"axis": 1, "u": [1, 2], "v": _entries({"index": [1, 1], "value": 9})}],
    "second-term-bad-u": [_term([1, 2]), _term([1, 5])],
    "u-residue-of-other-prime": [_term([4, 0], p=5), _term([4, 0], p=3)],
}


@pytest.mark.parametrize("obj", HOSTILE_DECOMPOSITIONS.values(), ids=HOSTILE_DECOMPOSITIONS.keys())
def test_decomposition_parse_matches_per_entry_reference(obj):
    shipped = _outcome(decomposition_from_obj, obj)
    reference = _outcome(reference_decomposition_from_obj, obj)
    if reference[0] != "ok":
        assert shipped == reference
        return
    dec, ref = shipped[1], reference[1]
    assert (dec.field, dec.shape, len(dec.terms)) == (ref.field, ref.shape, len(ref.terms))
    for term, ref_term in zip(dec.terms, ref.terms):
        assert term.axis == ref_term.axis
        assert term.u.dtype == ref_term.u.dtype and np.array_equal(term.u, ref_term.u)
        assert np.array_equal(term.v, ref_term.v)


HOSTILE_BASES = {
    "valid": [[1, 0, 2], [0, 1, 1]],
    "empty": [],
    "basis-not-a-list": 5,
    "row-not-a-list": [[1, 0, 0], 7],
    "bool-entry": [[True, 0, 0]],
    "float-entry": [[1.0, 0, 0]],
    "row-too-short": [[1, 0]],
    "ragged": [[1, 0, 0], [0, 1]],
    "entry-is-p": [[1, 0, 3]],
    "entry-negative": [[1, 0, -1]],
    "entry-past-int64": [[1, 0, 2**63]],
    # the first bad row in file order is the one reported
    "bad-residue-before-bad-length": [[1, 0, 5], [0, 1]],
    "bad-length-before-bad-residue": [[1, 0], [0, 1, 5]],
    "not-reduced": [[1, 1, 0], [0, 1, 0]],
}


@pytest.mark.parametrize("ambient", [3, 0])
@pytest.mark.parametrize("basis", HOSTILE_BASES.values(), ids=HOSTILE_BASES.keys())
def test_subspace_parse_matches_per_row_reference(basis, ambient):
    obj = {"ambient": ambient, "basis": basis}
    assert _outcome(subspace_from_obj, obj, GF3) == _outcome(reference_subspace_from_obj, obj, GF3)


JSON_STRINGS = st.text(max_size=6) | st.sampled_from(['"', "%", "%d", "%%s", "\\", "é", "\x00\n\t\x7f", " "])
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-(2**100), 2**100)
                | st.floats() | JSON_STRINGS)


@st.composite
def same_keyed_rows(draw, children):
    """Dicts with one key list, each key's values ints or int lists of one length, now and then not."""
    keys = draw(st.lists(JSON_STRINGS, unique=True, max_size=3))
    widths = {k: draw(st.none() | st.integers(0, 3)) for k in keys}
    ints = st.integers(-(2**70), 2**70)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = {k: draw(ints if w is None else st.lists(ints, min_size=w, max_size=w))
               for k, w in widths.items()}
        if keys and draw(st.integers(0, 9)) == 0:
            row[draw(st.sampled_from(keys))] = draw(children)
        rows.append(row)
    return rows


JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(st.integers(-(2**70), 2**70), max_size=4)
                      | st.dictionaries(JSON_STRINGS, children, max_size=4)
                      | st.lists(st.dictionaries(st.sampled_from("ab%"), children, max_size=2), max_size=3)
                      | same_keyed_rows(children)),
    max_leaves=40,
)


@settings(max_examples=200)
@given(JSON_VALUES)
def test_dump_json_matches_json_dumps_indent_two(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2) + "\n"


def test_dump_json_bypasses_the_python_encoder(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    eps = tmp_path / "eps.json"
    zero = tmp_path / "zero.json"
    total, blocks = direct_sum(levi_civita(GF3), diagonal_tensor(GF3, 1, 1))
    paths = {"eps": str(eps), "zero": str(zero), "sum": str(tmp_path / "sum.json"),
             "cert": str(tmp_path / "cert.json"), "dec": str(tmp_path / "dec.json")}
    eps.write_text(json.dumps(tensor_to_obj(levi_civita(GF3))))
    zero.write_text(json.dumps(tensor_to_obj(Tensor.zeros(GF3, (2, 2, 2)))))
    (tmp_path / "sum.json").write_text(json.dumps(tensor_to_obj(total)))
    result = rank_result_to_obj(slice_rank_exact(total))
    (tmp_path / "cert.json").write_text(json.dumps(result["certificate"]))
    (tmp_path / "dec.json").write_text(json.dumps(result["decomposition"]))
    blocks_flag = ";".join(",".join(map(str, sizes)) for sizes in blocks.sizes)
    runs = [("rank", "-i", "{eps}"), ("rank", "-i", "{zero}"), ("rank", "-i", "{sum}"),
            ("split", "-i", "{sum}", "--certificate", "{cert}", "--blocks", blocks_flag),
            ("normalize-d3", "-i", "{dec}")]
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    outputs = []
    for argv in runs:
        assert main([arg.format(**paths) for arg in argv]) == 0
        outputs.append(capsys.readouterr().out)
    monkeypatch.undo()
    for out in outputs:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


# --- the canonical fast path of load_json ---


def _json_path_only():
    """load_json with its canonical fast path off: every text goes through json.loads."""
    return mock.patch.object(serialize, "_read_canonical", lambda text: None)


def _parse_file(path: str):
    """What load_json and the matching reader make of a file, or the error either raises."""

    def parse():
        obj = load_json(path)
        return decomposition_from_obj(obj) if isinstance(obj, list) else tensor_from_obj(obj)

    kind, value = _outcome(parse)
    if kind == "ok" and isinstance(value, SliceDecomposition):
        value = (value.field, value.shape, [(t.axis, t.u.dtype, t.u.tolist(), t.v.dtype, t.v.tolist())
                                            for t in value.terms])
    return kind, value


def _both_paths(text: str):
    """(fast path outcome, json path outcome) of loading a file that holds the text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast = _parse_file(path)
        with _json_path_only():
            slow = _parse_file(path)
    return fast, slow


@st.composite
def canonical_tensor_objects(draw, order=None):
    """Tensor objects of orders 1-5 (or ``order``), p up to 65521, now and then with a fault."""
    p = draw(st.sampled_from([2, 3, 5, 7, 251, 65521]))
    low, high = (1, 5) if order is None else (order, order)
    shape = draw(st.lists(st.integers(0, 3), min_size=low, max_size=high))
    cells = [] if 0 in shape else draw(
        st.lists(st.tuples(*[st.integers(1, n) for n in shape]), unique=True, max_size=12))
    entries = [{"index": list(c), "value": draw(st.integers(0, p - 1))} for c in cells]
    fault = draw(st.sampled_from([None] * 6 + ["value", "index", "duplicate", "prime"]))
    if fault == "prime":
        p = draw(st.sampled_from([0, 1, 4, 65536, 10**17]))
    elif entries and fault == "value":
        entries[-1]["value"] = draw(st.sampled_from([p, 10**18 - 1]))
    elif entries and shape and fault == "index":
        entries[0]["index"][-1] = draw(st.sampled_from([0, shape[-1] + 1]))
    elif entries and fault == "duplicate":
        entries.append(dict(entries[0]))
    return {"prime": p, "shape": shape, "entries": entries}


@st.composite
def canonical_decomposition_objects(draw):
    """Decomposition arrays of orders 1-5 whose terms need not agree, u entries up to p."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        v = draw(canonical_tensor_objects(order=draw(st.integers(0, 4))))
        u = draw(st.lists(st.integers(0, v["prime"]), max_size=4))
        axis = draw(st.integers(0, len(v["shape"]) + 2))
        terms.append({"axis": axis, "u": u, "v": v})
    return terms


LAYOUTS = [json.dumps, dump_json]


@settings(max_examples=150)
@given(canonical_tensor_objects() | canonical_decomposition_objects(), st.sampled_from(LAYOUTS))
def test_fast_path_matches_the_json_path(obj, layout):
    text = layout(obj)
    assert serialize._read_canonical(text) is not None
    fast, slow = _both_paths(text)
    if slow[0] == "ok" and isinstance(slow[1], Tensor):
        assert fast[0] == "ok" and fast[1] == slow[1] and fast[1].data.dtype == slow[1].data.dtype
    else:
        assert fast == slow


def test_fast_path_reads_both_layouts_into_columns():
    t = levi_civita(GF3)
    for layout in LAYOUTS:
        obj = serialize._read_canonical(layout(tensor_to_obj(t)))
        assert type(obj["entries"]) is serialize._EntryColumns
        assert obj["entries"].index.dtype == obj["entries"].value.dtype == np.int64
        assert tensor_from_obj(obj) == t
        terms = serialize._read_canonical(layout(decomposition_to_obj(levi_civita_decomposition(GF3))))
        assert [type(term["v"]["entries"]) for term in terms] == [serialize._EntryColumns] * len(terms)
        assert evaluate_decomposition(decomposition_from_obj(terms)) == t


TENSOR_TEXT = json.dumps({"prime": 5, "shape": [2, 3],
                          "entries": [{"index": [1, 2], "value": 3}, {"index": [2, 3], "value": 1}]})
TERM_TEXT = json.dumps([{"axis": 1, "u": [1, 4], "v": json.loads(TENSOR_TEXT)}])
# (text, substring, replacement): each mutation leaves the canonical grammar
HOSTILE_MUTATIONS = {
    "leading-zero": (TENSOR_TEXT, '"value": 3', '"value": 03'),
    "negative": (TENSOR_TEXT, '"value": 3', '"value": -1'),
    "negative-u": (TERM_TEXT, "[1, 4]", "[-1, 4]"),
    "fraction": (TENSOR_TEXT, '"value": 3', '"value": 1.0'),
    "exponent": (TENSOR_TEXT, '"value": 3', '"value": 1e2'),
    "boolean": (TENSOR_TEXT, '"value": 3', '"value": true'),
    "19-digit-value": (TENSOR_TEXT, '"value": 3', '"value": 1000000000000000003'),
    "19-digit-coordinate": (TENSOR_TEXT, "[1, 2]", "[1, 1000000000000000002]"),
    "19-digit-prime": (TENSOR_TEXT, '"prime": 5', '"prime": 1000000000000000005'),
    "4301-digit-value": (TENSOR_TEXT, '"value": 3', '"value": ' + "1" * 4301),
    "swapped-keys": (TENSOR_TEXT, '{"index": [1, 2], "value": 3}', '{"value": 3, "index": [1, 2]}'),
    "swapped-top-keys": (TENSOR_TEXT, '"prime": 5, "shape": [2, 3]', '"shape": [2, 3], "prime": 5'),
    "swapped-term-keys": (TERM_TEXT, '"axis": 1, "u": [1, 4]', '"u": [1, 4], "axis": 1'),
    "extra-key": (TENSOR_TEXT, '"value": 3}', '"value": 3, "note": 0}'),
    "extra-top-key": (TENSOR_TEXT, '"prime": 5,', '"prime": 5, "name": "t",'),
    "duplicate-key": (TENSOR_TEXT, '"value": 3', '"value": 4, "value": 3'),
    "duplicate-entries-key": (TENSOR_TEXT, '{"prime"', '{"entries": [], "prime"'),
    "escaped-key": (TENSOR_TEXT, '"index": [1, 2]', '"\\u0069ndex": [1, 2]'),
    "form-feed": (TENSOR_TEXT, '"value": 3', '"value":\f3'),
    "nbsp": (TENSOR_TEXT, '"value": 3', '"value":\u00a03'),
    "trailing-comma": (TENSOR_TEXT, "1}]", "1},]"),
    "trailing-comma-in-index": (TENSOR_TEXT, "[1, 2]", "[1, 2,]"),
    "trailing-text": (TENSOR_TEXT, "1}]}", "1}]} x"),
    "trailing-term-text": (TERM_TEXT, "1}]}}]", "1}]}}]]"),
    "bom": (TENSOR_TEXT, '{"prime"', '\ufeff{"prime"'),
    "index-too-long": (TENSOR_TEXT, "[1, 2]", "[1, 2, 1]"),
    "index-too-short": (TENSOR_TEXT, "[1, 2]", "[1]"),
    "index-lengths-that-cancel": (TENSOR_TEXT, '[1, 2], "value": 3}, {"index": [2, 3]',
                                  '[1], "value": 3}, {"index": [2, 3, 1]'),
    "v-index-too-long": (TERM_TEXT, "[1, 2]", "[1, 2, 1]"),
    "entries-absent": (TENSOR_TEXT, ', "entries": [{"index": [1, 2], "value": 3}, {"index": [2, 3], "value": 1}]', ""),
}


@pytest.mark.parametrize("text,old,new", HOSTILE_MUTATIONS.values(), ids=HOSTILE_MUTATIONS.keys())
def test_hostile_mutations_leave_the_fast_path(text, old, new):
    assert old in text
    mutated = text.replace(old, new, 1)
    assert serialize._read_canonical(text) is not None
    assert serialize._read_canonical(mutated) is None
    fast, slow = _both_paths(mutated)
    assert fast == slow


CANONICAL_FAULTS = {
    "value-is-p": (TENSOR_TEXT, '"value": 3', '"value": 5'),
    "coordinate-zero": (TENSOR_TEXT, '"index": [2, 3]', '"index": [0, 3]'),
    "coordinate-past-axis": (TENSOR_TEXT, '"index": [2, 3]', '"index": [2, 4]'),
    "duplicate-index": (TENSOR_TEXT, '"index": [2, 3]', '"index": [1, 2]'),
    "bad-value-before-duplicate": (TENSOR_TEXT, '"value": 3}, {"index": [2, 3]', '"value": 9}, {"index": [1, 2]'),
    "not-prime": (TENSOR_TEXT, '"prime": 5', '"prime": 4'),
    "order-one": (TENSOR_TEXT.replace("[2, 3]", "[3]"), '"index": [1, 2]', '"index": [2]'),
    "u-is-p": (TERM_TEXT, "[1, 4]", "[1, 5]"),
    "axis-past-order": (TERM_TEXT, '"axis": 1', '"axis": 4'),
    "v-value-is-p": (TERM_TEXT, '"value": 3', '"value": 5'),
    "v-shape-over-the-cell-limit": (TERM_TEXT, '"shape": [2, 3]', '"shape": [4096, 4097]'),
}


@pytest.mark.parametrize("text,old,new", CANONICAL_FAULTS.values(), ids=CANONICAL_FAULTS.keys())
def test_canonical_faults_give_the_json_path_errors(text, old, new):
    # the fast path reads these, and the shared checks refuse them word for word
    mutated = text.replace(old, new, 1)
    assert serialize._read_canonical(mutated) is not None
    fast, slow = _both_paths(mutated)
    assert fast == slow and fast[0] is FormatError


def _traced_peak(load, path):
    tracemalloc.start()
    try:
        load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fast_path_peaks_below_the_json_path(tmp_path):
    # a repeat that backtracks would hold its state for every entry
    path = str(tmp_path / "big.json")
    t = random_tensor(PrimeField(5), (24, 24, 24), np.random.default_rng(13))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(tensor_to_obj(t)))
    assert type(load_json(path)["entries"]) is serialize._EntryColumns
    fast = _traced_peak(load_json, path)
    with _json_path_only():
        slow = _traced_peak(load_json, path)
    assert fast <= slow, (fast, slow)
