"""JSON wire formats for tensors, decompositions, certificates, and traces.

Tensor files are sparse: {"prime": p, "shape": [n1, ...], "entries":
[{"index": [...], "value": v}, ...]} with 1-based indices, values in
[0, p), omitted indices zero, and duplicate indices rejected. Decomposition
files are arrays of {"axis": 1-based, "u": [...], "v": <tensor object of
one order lower>}. Certificate files are {"bound": r, "subspaces":
[{"ambient": n, "basis": [[...], ...]}, ...]} with bases in reduced echelon
form; anything non-canonical is rejected with a distinct error. Dumps are
deterministic, so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np

from .errors import FormatError
from .linalg import FieldMatrix, PrimeField, Subspace
from .rank import DualCertificate, RankResult
from .splitting import SplitTrace
from .tensor import SliceDecomposition, SliceTerm, Tensor

# Most cells a declared dense shape may have, and the longest axis, checked
# before any array is allocated so that a hostile shape cannot exhaust memory.
# The largest tensors in the tests and the benchmark have 24**3 cells.
MAX_DENSE_CELLS = 2**24
# Most axes a shape may have: numpy refuses arrays of more dimensions.
MAX_AXES = 64


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FormatError(message)


def _is_int(x) -> bool:
    """True for a JSON integer; JSON true and false load as bool, a subclass of int."""
    return type(x) is int


def _int_field(obj: dict, key: str) -> int:
    # messages are formatted only on failure: this runs once per tensor entry
    if key not in obj:
        raise FormatError(f"missing field {key!r}")
    value = obj[key]
    if not _is_int(value):
        raise FormatError(f"field {key!r} must be an integer")
    return value


def check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """The shape as a tuple, refused with FormatError if no dense array may take it.

    Sizes must be nonnegative integers, with at most MAX_AXES axes and at most
    MAX_DENSE_CELLS cells in total and on any one axis.
    """
    shape = tuple(shape)
    _require(all(_is_int(n) and n >= 0 for n in shape),
             "shape must be a list of nonnegative integers")
    _require(len(shape) <= MAX_AXES,
             f"shape has {len(shape)} axes, over the limit of {MAX_AXES}")
    _require(
        math.prod(shape) <= MAX_DENSE_CELLS and all(n <= MAX_DENSE_CELLS for n in shape),
        f"shape {list(shape)} is over the limit of {MAX_DENSE_CELLS} cells per tensor and per axis",
    )
    return shape


def _dense_to_obj(field: PrimeField, arr: np.ndarray) -> dict:
    entries = []
    for idx in np.argwhere(arr):
        entries.append(
            {"index": [int(i) + 1 for i in idx], "value": int(arr[tuple(idx)])}
        )
    return {"prime": field.p, "shape": [int(n) for n in arr.shape], "entries": entries}


def _dense_from_obj(obj: dict, expect_field: Optional[PrimeField] = None):
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


def tensor_to_obj(t: Tensor) -> dict:
    return _dense_to_obj(t.field, t.data)


def tensor_from_obj(obj: dict) -> Tensor:
    field, shape, arr = _dense_from_obj(obj)
    _require(len(shape) >= 2, "tensor order must be at least 2")
    return Tensor(field, shape, arr)


def decomposition_to_obj(dec: SliceDecomposition) -> list:
    out = []
    for term in dec.terms:
        out.append(
            {
                "axis": term.axis + 1,
                "u": [int(x) for x in term.u],
                "v": _dense_to_obj(dec.field, term.v),
            }
        )
    return out


def decomposition_from_obj(
    obj: list,
    field: Optional[PrimeField] = None,
    shape: Optional[Sequence[int]] = None,
) -> SliceDecomposition:
    """Parse a decomposition array; empty arrays need explicit field and shape."""
    _require(isinstance(obj, list), "decomposition must be a JSON array")
    if not obj:
        _require(
            field is not None and shape is not None,
            "empty decomposition needs a field and shape from context",
        )
        return SliceDecomposition(field, tuple(shape), ())
    terms = []
    inferred_shape = tuple(shape) if shape is not None else None
    for item in obj:
        _require(isinstance(item, dict), "each term must be an object")
        axis1 = _int_field(item, "axis")
        u = item.get("u")
        _require(isinstance(u, list) and all(_is_int(x) for x in u),
                 "term vector u must be a list of integers")
        v_field, v_shape, v_arr = _dense_from_obj(item.get("v"), expect_field=field)
        if field is None:
            field = v_field
        axis = axis1 - 1
        d = len(v_shape) + 1
        _require(1 <= axis1 <= d, f"axis {axis1} out of range for order {d}")
        term_shape = v_shape[:axis] + (len(u),) + v_shape[axis:]
        if inferred_shape is None:
            inferred_shape = term_shape
        _require(
            term_shape == inferred_shape,
            f"term implies shape {term_shape}, expected {inferred_shape}",
        )
        terms.append(SliceTerm(axis, np.array(u, dtype=np.int64), v_arr))
    return SliceDecomposition(field, inferred_shape, tuple(terms))


def subspace_to_obj(s: Subspace) -> dict:
    return {"ambient": s.ambient_dim, "basis": [[int(x) for x in row] for row in s.basis.data]}


def subspace_from_obj(obj: dict, field: PrimeField) -> Subspace:
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
    # Subspace construction itself rejects non-reduced bases
    return Subspace(field, ambient, FieldMatrix(field, arr))


def certificate_to_obj(c: DualCertificate) -> dict:
    return {"bound": c.bound, "subspaces": [subspace_to_obj(s) for s in c.subspaces]}


def certificate_from_obj(obj: dict, field: PrimeField) -> DualCertificate:
    _require(isinstance(obj, dict), "certificate must be a JSON object")
    bound = _int_field(obj, "bound")
    subs = obj.get("subspaces")
    _require(isinstance(subs, list) and len(subs) >= 2, "certificate needs subspaces per axis")
    cert = DualCertificate(tuple(subspace_from_obj(s, field) for s in subs))
    _require(cert.bound == bound, f"declared bound {bound} differs from computed {cert.bound}")
    return cert


def rank_result_to_obj(r: RankResult) -> dict:
    if r.status != "ok":
        return {"status": r.status, "method": r.method, "sigma": None}
    return {
        "status": r.status,
        "method": r.method,
        "exact": r.exact,
        "sigma": r.sigma,
        "certificate": certificate_to_obj(r.certificate),
        "decomposition": decomposition_to_obj(r.decomposition),
    }


def split_trace_to_obj(trace: SplitTrace) -> dict:
    cert1, cert2 = trace.component_certificates()
    axes = []
    for ax in trace.axes:
        axes.append(
            {
                "w_vectors": [[int(x) for x in row] for row in ax.w_vectors.data],
                "threshold": ax.threshold,
                "block1_dual": subspace_to_obj(ax.block1_dual),
                "block2_dual": subspace_to_obj(ax.block2_dual),
            }
        )
    return {
        "choices": list(trace.choices.choices),
        "axes": axes,
        "certificates": [certificate_to_obj(cert1), certificate_to_obj(cert2)],
    }


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from None


def dump_json(obj, path: Optional[str] = None) -> str:
    text = json.dumps(obj, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
