"""JSON wire formats for tensors, decompositions, certificates, and traces.

Tensor files are sparse: {"prime": p, "shape": [n1, ...], "entries":
[{"index": [...], "value": v}, ...]} with 1-based indices, values in
[0, p), omitted indices zero, and duplicate indices rejected. Decomposition
files are arrays of {"axis": 1-based, "u": [...], "v": <tensor object of
one order lower>}, with u entries in [0, p). Certificate files are
{"bound": r, "subspaces": [{"ambient": n, "basis": [[...], ...]}, ...]}
with bases in reduced echelon form; anything non-canonical is rejected with
a distinct error.

A file whose whole text is a canonical tensor object or decomposition
array, with the keys in the order above, JSON whitespace only, and integers
of at most 18 digits (as both ``dump_json`` and ``json.dumps`` write them),
is read by ``load_json`` straight into int64 columns: a strict grammar
matches the text, and its numbers are read in one pass. Any other text goes
through ``json.loads``, with the same checks and the same errors.

Entries, ``u`` vectors and bases are checked in bulk, by type sets and int64
arrays, the columns of a canonical file by the same array checks; only input
that fails is walked entry by entry, to name the first bad entry in file
order. ``load_json`` refuses what is not UTF-8 JSON, nested too deep
included, and ``dump_json`` an output path it cannot write, both with
FormatError.

``dump_json`` is the one writer of output text. Dumps are exactly
``json.dumps(obj, indent=2)`` plus a newline, written without json's
pure-Python indenting encoder, and deterministic, so identical inputs
serialize byte-identically. A ``Tensor``, ``SliceDecomposition``,
``DualCertificate``, ``Subspace`` or 2-D int64 array anywhere in the value
is written straight from its arrays, as its ``*_to_obj`` object would be:
one ``%`` template per such value, built from pieces cached by order and
indent, filled from one flat list of its integers. The commands pass these
values to ``dump_json`` and build no object per tensor entry.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NamedTuple, Optional, Sequence

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


def _entry_table(arr: np.ndarray) -> np.ndarray:
    """The entries of a dense array, one int64 row per nonzero cell in C order.

    A row holds the cell's 1-based index, then its value.
    """
    cells = arr.nonzero()
    table = np.array(cells + (arr[cells],), dtype=np.int64).T
    table[:, :-1] += 1
    return table


def _dense_to_obj(field: PrimeField, arr: np.ndarray) -> dict:
    entries = [{"index": row[:-1], "value": row[-1]} for row in _entry_table(arr).tolist()]
    return {"prime": field.p, "shape": [int(n) for n in arr.shape], "entries": entries}


def _dense_from_obj(
    obj: dict, expect_field: Optional[PrimeField] = None, max_cells: int = MAX_DENSE_CELLS
):
    """(field, shape, array) of a dense tensor object, refused above ``max_cells`` cells."""
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
    if math.prod(shape) > max_cells:
        raise FormatError(
            f"shape {list(shape)} is over the {max_cells} cells left of the "
            f"{MAX_DENSE_CELLS} one file may hold"
        )
    entries = obj.get("entries", [])
    if type(entries) is _EntryColumns:
        columns = entries
    else:
        _require(isinstance(entries, list), "entries must be a list")
        columns = _entry_columns(entries, len(shape))
    found = None if columns is None else _cell_numbers(columns, shape, p)
    if found is None:
        _raise_entry_error(entries, shape, p)
    cells = np.zeros(math.prod(shape), dtype=np.int64)
    cells[found] = columns.value
    return field, shape, cells.reshape(shape)


def _int64(values) -> Optional[np.ndarray]:
    """The integers as an int64 array, or None if one of them does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


class _EntryColumns(NamedTuple):
    """A tensor's entries as int64 columns: 1-based indices (entries x axes) and values."""

    index: np.ndarray
    value: np.ndarray


def _entry_columns(entries: list, d: int) -> Optional[_EntryColumns]:
    """The decoded entries as columns, or None if one fails a type check.

    Each entry must be an object whose index lists d integers and whose
    value is an integer, all within int64.
    """
    if not set(map(type, entries)) <= {dict}:
        return None
    indices = list(map(dict.get, entries, repeat("index")))
    values = list(map(dict.get, entries, repeat("value")))
    if not (set(map(type, indices)) <= {list} and set(map(len, indices)) <= {d}):
        return None
    flat = list(chain.from_iterable(indices))
    if not (set(map(type, flat)) <= {int} and set(map(type, values)) <= {int}):
        return None
    index, value = _int64(flat), _int64(values)
    if index is None or value is None:
        return None
    return _EntryColumns(index.reshape(len(entries), d), value)


def _cell_numbers(columns: _EntryColumns, shape: tuple, p: int) -> Optional[np.ndarray]:
    """C-order cell numbers of the entries if every entry passes, else None.

    The checks are those of ``_raise_entry_error`` past the types, run over
    all entries at once: indices in range, values residues, no index twice.
    """
    coords, values = columns.index - 1, columns.value
    if not (((coords >= 0) & (coords < shape)).all() and ((values >= 0) & (values < p)).all()):
        return None
    cells = np.zeros(len(values), dtype=np.int64)
    for axis, size in enumerate(shape):
        cells = cells * size + coords[:, axis]
    ordered = np.sort(cells)
    return None if (ordered[1:] == ordered[:-1]).any() else cells


def _raise_entry_error(entries, shape: tuple, p: int) -> None:
    """Raise the error of the first entry in file order that fails a check."""
    if type(entries) is _EntryColumns:
        entries = [{"index": index, "value": value}
                   for index, value in zip(entries.index.tolist(), entries.value.tolist())]
    seen = set()
    for e in entries:
        _require(type(e) is dict, "each entry must be an object")
        index = e.get("index")
        _require(
            type(index) is list and len(index) == len(shape),
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
    # unreachable while both checks agree, which the differential tests pin
    raise FormatError("tensor entries are invalid")


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
                "u": term.u.tolist(),
                "v": _dense_to_obj(dec.field, term.v),
            }
        )
    return out


def decomposition_from_obj(
    obj: list,
    field: Optional[PrimeField] = None,
    shape: Optional[Sequence[int]] = None,
) -> SliceDecomposition:
    """Parse a decomposition array; empty arrays need explicit field and shape.

    The terms' ``v`` arrays may hold at most ``MAX_DENSE_CELLS`` cells
    together; a term over what is left is refused before it is built. Every
    ``u`` entry must be a residue in [0, p) of the field that ``v`` names.
    """
    _require(isinstance(obj, list), "decomposition must be a JSON array")
    if not obj:
        _require(
            field is not None and shape is not None,
            "empty decomposition needs a field and shape from context",
        )
        return SliceDecomposition(field, tuple(shape), ())
    terms = []
    inferred_shape = tuple(shape) if shape is not None else None
    cells_left = MAX_DENSE_CELLS  # across the terms' v arrays, checked before each is built
    for item in obj:
        _require(isinstance(item, dict), "each term must be an object")
        axis1 = _int_field(item, "axis")
        u = item.get("u")
        _require(isinstance(u, list) and set(map(type, u)) <= {int},
                 "term vector u must be a list of integers")
        v_field, v_shape, v_arr = _dense_from_obj(item.get("v"), field, cells_left)
        cells_left -= v_arr.size
        u_arr = _int64(u)
        _require(u_arr is not None and ((u_arr >= 0) & (u_arr < v_field.p)).all(),
                 f"term vector u entries must be residues mod {v_field.p}")
        if field is None:
            field = v_field
        axis = axis1 - 1
        d = len(v_shape) + 1
        _require(1 <= axis1 <= d, f"axis {axis1} out of range for order {d}")
        term_shape = v_shape[:axis] + (len(u),) + v_shape[axis:]
        if inferred_shape is None:
            inferred_shape = check_shape(term_shape)
        _require(
            term_shape == inferred_shape,
            f"term implies shape {term_shape}, expected {inferred_shape}",
        )
        terms.append(SliceTerm(axis, u_arr, v_arr))
    return SliceDecomposition(field, inferred_shape, tuple(terms))


def subspace_to_obj(s: Subspace) -> dict:
    return {"ambient": s.ambient_dim, "basis": s.basis.data.tolist()}


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
        and set(map(type, basis)) <= {list}
        and set(map(type, chain.from_iterable(basis))) <= {int},
        "basis must be a list of integer rows",
    )
    arr = _int64(basis) if set(map(len, basis)) <= {ambient} else None
    if arr is None or not ((arr >= 0) & (arr < field.p)).all():
        # word the error of the first bad row
        for row in basis:
            _require(len(row) == ambient, "basis row length does not match ambient dimension")
            _require(all(0 <= x < field.p for x in row), "basis entries must be residues")
    arr = arr.reshape(len(basis), ambient)
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


def _rank_result_layout(r: RankResult) -> dict:
    """The keys of a rank result, its certificate and decomposition left for ``dump_json``."""
    if r.status != "ok":
        return {"status": r.status, "method": r.method, "sigma": None}
    return {
        "status": r.status,
        "method": r.method,
        "exact": r.exact,
        "sigma": r.sigma,
        "certificate": r.certificate,
        "decomposition": r.decomposition,
    }


def _split_trace_layout(trace: SplitTrace) -> dict:
    """The keys of a split trace, its matrices, subspaces and certificates left for ``dump_json``."""
    axes = [
        {
            "w_vectors": ax.w_vectors.data,
            "threshold": ax.threshold,
            "block1_dual": ax.block1_dual,
            "block2_dual": ax.block2_dual,
        }
        for ax in trace.axes
    ]
    return {
        "choices": list(trace.choices.choices),
        "axes": axes,
        "certificates": list(trace.component_certificates()),
    }


def _plain(layout):
    """A layout as plain JSON values: what ``dump_json`` writes of it, read back."""
    return json.loads(_encode(layout, ""))


def rank_result_to_obj(r: RankResult) -> dict:
    return _plain(_rank_result_layout(r))


def split_trace_to_obj(trace: SplitTrace) -> dict:
    return _plain(_split_trace_layout(trace))


# The canonical layouts ``load_json`` reads straight into int64 columns: a
# tensor object or a decomposition array with exactly the keys the dumps
# write, in their order, JSON whitespace only, and integers of at most 18
# digits, which int64 holds. Every repeat is possessive, so a match keeps no
# backtracking state however many entries it walks.
_WS = r"[ \t\n\r]*+"
_SEP = rf"{_WS},{_WS}"
_INT = r"(?:0|[1-9][0-9]{0,17}+)"
_LIST = rf"\[{_WS}((?:{_INT}(?:{_SEP}{_INT})*+)?+){_WS}\]"  # one group: the integers


def _fields(**values: str) -> str:
    """An object's opening brace and its keys, in order, with their value patterns."""
    return r"\{" + _WS + _SEP.join(rf'"{key}"{_WS}:{_WS}{value}' for key, value in values.items())


# a tensor object up to its first entry; the last group holds the shape
_TENSOR_HEAD = _fields(prime=_INT, shape=_LIST, entries=rf"\[{_WS}")
_TENSOR_FILE = re.compile(_WS + _TENSOR_HEAD)
_DECOMPOSITION_FILE = re.compile(rf"{_WS}\[{_WS}")
# a term up to the first entry of its v; the first group holds u
_TERM_HEAD = re.compile(_fields(axis=_INT, u=_LIST, v=_TENSOR_HEAD))
# past a term's v: the group matches when another term follows
_TERM_END = re.compile(rf"\}}{_WS}(?:(,){_WS}|\]{_WS}\Z)")
_DIGITS_ONLY = bytes(c if 48 <= c <= 57 else 32 for c in range(256))


@lru_cache(maxsize=None)
def _entries_pattern(d: int) -> re.Pattern:
    """The entries of an order-d tensor, then the end of the tensor object."""
    index = rf"\[{_WS}{_INT}(?:{_SEP}{_INT}){{{d - 1}}}+{_WS}\]" if d else rf"\[{_WS}\]"
    entry = _fields(index=index, value=_INT) + rf"{_WS}\}}"
    return re.compile(rf"(?:{entry}(?:{_SEP}{entry})*+{_WS})?+\]{_WS}\}}{_WS}")


def _count(ints: str) -> int:
    """How many integers a ``_LIST`` group holds."""
    return ints.count(",") + 1 if ints else 0


def _tensor_entries(text: str, head: re.Match) -> Optional[tuple]:
    """(order, entry count, end) of the tensor whose head matched, or None."""
    d = _count(head.groups()[-1])
    if d > MAX_AXES:
        return None
    tail = _entries_pattern(d).match(text, head.end())
    if tail is None:
        return None
    # an entry holds the only "{" between the head and the end of the tensor
    return d, text.count("{", head.end(), tail.end()), tail.end()


def _numbers(text: str, count: int) -> Optional[np.ndarray]:
    """The integers of a text that matched the grammar, or None unless there are ``count``.

    np.fromstring saturates past int64 and reads a blank text as [0]; the
    grammar rules both out, and the count would refuse them.
    """
    numbers = np.fromstring(text.encode("ascii").translate(_DIGITS_ONLY), dtype=np.int64, sep=" ")
    return numbers if len(numbers) == count else None


def _tensor_from_numbers(numbers: np.ndarray, at: int, d: int, n: int) -> tuple:
    """(tensor object, next position) of the tensor whose numbers start at ``at``."""
    start, end = at + 1 + d, at + 1 + d + n * (d + 1)
    rows = numbers[start:end].reshape(n, d + 1)
    obj = {"prime": int(numbers[at]), "shape": numbers[at + 1 : start].tolist(),
           "entries": _EntryColumns(rows[:, :d], rows[:, d])}
    return obj, end


def _read_canonical(text: str):
    """The value of a canonical tensor or decomposition text, else None.

    Each tensor's entries come back as ``_EntryColumns``, every other
    integer as an int. The whole text must match the grammar; its numbers
    are then read in one pass.
    """
    head = _TENSOR_FILE.match(text)
    if head is not None:
        found = _tensor_entries(text, head)
        if found is None or found[2] != len(text):
            return None
        d, n, _ = found
        numbers = _numbers(text, 1 + d + n * (d + 1))
        return None if numbers is None else _tensor_from_numbers(numbers, 0, d, n)[0]
    start = _DECOMPOSITION_FILE.match(text)
    if start is None:
        return None
    layout, at, more = [], start.end(), True  # (u length, order, entry count) per term
    while more:
        head = _TERM_HEAD.match(text, at)
        found = None if head is None else _tensor_entries(text, head)
        end = None if found is None else _TERM_END.match(text, found[2])
        if end is None:
            return None
        layout.append((_count(head.group(1)), found[0], found[1]))
        at, more = end.end(), end.group(1) is not None
    numbers = _numbers(text, sum(2 + k + d + n * (d + 1) for k, d, n in layout))
    if numbers is None:
        return None
    terms, at = [], 0
    for k, d, n in layout:
        axis, u = int(numbers[at]), numbers[at + 1 : at + 1 + k].tolist()
        v, at = _tensor_from_numbers(numbers, at + 1 + k, d, n)
        terms.append({"axis": axis, "u": u, "v": v})
    return terms


def load_json(path: str):
    """The JSON value in a file, refused with FormatError if it cannot be read.

    A canonical tensor or decomposition text is read by ``_read_canonical``,
    any other through ``json.loads``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad UTF-8
        raise FormatError(f"invalid JSON in {path}: {exc}") from None
    canonical = _read_canonical(text)
    if canonical is not None:
        return canonical
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer of too many digits, or too deep nesting
        raise FormatError(f"invalid JSON in {path}: {exc}") from None


def _items(items: list, indent: str) -> str:
    """A list of the written items, opened at ``indent``, as json.dumps lays it out."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


# The writers of slicerank's own values. Each returns the ``%`` template of
# its value at ``indent`` and appends the value's integers, in template
# order, to ``ints``: int lists and int64 arrays that one ``tolist()`` of
# their concatenation turns into the template's arguments.


@lru_cache(maxsize=256)
def _tensor_pieces(d: int, indent: str) -> tuple[str, str]:
    """(head, entry) of an order-d tensor at ``indent``: the object up to its entries, and one entry."""
    inner, entry_inner = indent + "  ", indent + "      "
    head = (f'{{\n{inner}"prime": %d,\n{inner}"shape": {_items(["%d"] * d, inner)},\n'
            f'{inner}"entries": ')
    entry = (f'{{\n{entry_inner}"index": {_items(["%d"] * d, entry_inner)},\n'
             f'{entry_inner}"value": %d\n{indent}    }}')
    return head, entry


def _dense_template(p: int, arr: np.ndarray, indent: str, ints: list) -> str:
    head, entry = _tensor_pieces(arr.ndim, indent)
    table = _entry_table(arr)
    ints += ([p, *arr.shape], table.ravel())
    return head + _items([entry] * len(table), indent + "  ") + "\n" + indent + "}"


def _tensor_template(t: Tensor, indent: str, ints: list) -> str:
    return _dense_template(t.field.p, t.data, indent, ints)


def _decomposition_template(dec: SliceDecomposition, indent: str, ints: list) -> str:
    inner = indent + "    "
    terms = []
    for term in dec.terms:
        ints += ([term.axis + 1], term.u)
        v = _dense_template(dec.field.p, term.v, inner, ints)
        terms.append(f'{{\n{inner}"axis": %d,\n{inner}"u": {_items(["%d"] * len(term.u), inner)},\n'
                     f'{inner}"v": {v}\n{indent}  }}')
    return _items(terms, indent)


def _matrix_template(arr: np.ndarray, indent: str, ints: list) -> str:
    rows, cols = arr.shape
    ints.append(arr.ravel())
    return _items([_items(["%d"] * cols, indent + "  ")] * rows, indent)


def _subspace_template(s: Subspace, indent: str, ints: list) -> str:
    inner = indent + "  "
    ints.append([s.ambient_dim])
    basis = _matrix_template(s.basis.data, inner, ints)
    return f'{{\n{inner}"ambient": %d,\n{inner}"basis": {basis}\n{indent}}}'


def _certificate_template(c: DualCertificate, indent: str, ints: list) -> str:
    inner = indent + "  "
    ints.append([c.bound])
    subspaces = [_subspace_template(s, inner + "  ", ints) for s in c.subspaces]
    return f'{{\n{inner}"bound": %d,\n{inner}"subspaces": {_items(subspaces, inner)}\n{indent}}}'


_TEMPLATES = {
    Tensor: _tensor_template,
    SliceDecomposition: _decomposition_template,
    DualCertificate: _certificate_template,
    Subspace: _subspace_template,
    np.ndarray: _matrix_template,
}


def _encode(o, indent: str) -> str:
    """``json.dumps(o, indent=2)`` for a value that starts at ``indent``.

    Lists, dicts with string keys, ints, strings, bools and None are written
    here, and slicerank's values (a ``Tensor``, ``SliceDecomposition``,
    ``DualCertificate``, ``Subspace`` or 2-D int64 array) as their
    ``*_to_obj`` objects would be, straight from their arrays; json's
    indenting encoder is pure Python, so only other values (floats, for
    one) are passed to it.
    """
    t = type(o)
    if t is int:
        return int.__repr__(o)
    if t is str:
        return _encode_str(o)
    if o is None or t is bool:
        return "null" if o is None else "true" if o else "false"
    inner = indent + "  "
    if t is list:
        if not o:
            return "[]"
        if set(map(type, o)) == {int}:
            body = (",\n" + inner).join(map(int.__repr__, o))
        else:
            body = (",\n" + inner).join([_encode(x, inner) for x in o])
        return f"[\n{inner}{body}\n{indent}]"
    if t is dict and set(map(type, o)) <= {str}:
        if not o:
            return "{}"
        body = (",\n" + inner).join([_encode_str(k) + ": " + _encode(v, inner) for k, v in o.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    template = _TEMPLATES.get(t)
    if template is not None and (t is not np.ndarray or (o.ndim == 2 and o.dtype == np.int64)):
        ints = []
        text = template(o, indent, ints)
        return text % tuple(np.concatenate(ints).tolist()) if ints else text
    return json.dumps(o, indent=2).replace("\n", "\n" + indent)


def dump_json(obj, path: Optional[str] = None) -> str:
    """``json.dumps(obj, indent=2)`` and a newline, also written to ``path`` if given.

    slicerank's values in ``obj`` are written as their ``*_to_obj`` objects
    would be, straight from their arrays.
    """
    text = _encode(obj, "") + "\n"
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(f"cannot write {path}: {exc}") from None
    return text
