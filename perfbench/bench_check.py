"""Independent output checks for benchmark jobs.

Everything here is plain numpy arithmetic mod p, written apart from
slicerank, so a defect in the program cannot hide itself by also breaking
the check. Each check returns None when the output is correct and a short
reason otherwise. Checks run outside the timed region.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p and its pivot columns."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for k in range(rows):
            if k != r and m[k, c]:
                m[k] = (m[k] - m[k, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank_mod(mat: np.ndarray, p: int) -> int:
    return len(rref(mat, p)[1])


def annihilator_basis(vectors: np.ndarray, n: int, p: int) -> np.ndarray:
    """Reduced basis of {a in GF(p)^n : a . v = 0 for every row v}."""
    vectors = np.asarray(vectors, dtype=np.int64).reshape(-1, n)
    red, piv = rref(vectors, p)
    free = [c for c in range(n) if c not in piv]
    kernel = np.zeros((len(free), n), dtype=np.int64)
    for k, f in enumerate(free):
        kernel[k, f] = 1
        for i, c in enumerate(piv):
            kernel[k, c] = (-red[i, f]) % p
    red, piv = rref(kernel, p)
    return red[: len(piv)]


def mode_product(arr: np.ndarray, mat: np.ndarray, axis: int, p: int) -> np.ndarray:
    out = np.tensordot(np.asarray(mat, dtype=np.int64), arr, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis) % p


def is_reduced(basis: np.ndarray) -> bool:
    last = -1
    for row in basis:
        nz = np.flatnonzero(row)
        if nz.size == 0 or nz[0] <= last or row[nz[0]] != 1:
            return False
        if np.count_nonzero(basis[:, nz[0]]) != 1:
            return False
        last = int(nz[0])
    return True


def dense_from_obj(obj: dict) -> np.ndarray:
    arr = np.zeros(tuple(obj["shape"]), dtype=np.int64)
    for e in obj["entries"]:
        arr[tuple(i - 1 for i in e["index"])] = e["value"]
    return arr


def dense_to_obj(arr: np.ndarray, p: int) -> dict:
    entries = [
        {"index": [int(i) + 1 for i in idx], "value": int(arr[tuple(idx)])}
        for idx in np.argwhere(arr)
    ]
    return {"prime": p, "shape": [int(n) for n in arr.shape], "entries": entries}


def certificate_obj(bases: Sequence[np.ndarray], shape: Sequence[int]) -> dict:
    bound = sum(n - len(b) for n, b in zip(shape, bases))
    return {
        "bound": bound,
        "subspaces": [
            {"ambient": int(n), "basis": [[int(x) for x in row] for row in b]}
            for n, b in zip(shape, bases)
        ],
    }


def evaluate_terms(terms: list, shape: Sequence[int], p: int) -> np.ndarray:
    total = np.zeros(tuple(shape), dtype=np.int64)
    for term in terms:
        u = np.array(term["u"], dtype=np.int64)
        v = dense_from_obj(term["v"])
        total += np.moveaxis(np.multiply.outer(u, v), 0, term["axis"] - 1)
    return total % p


def certificate_error(cert: dict, tensor: np.ndarray, p: int) -> Optional[str]:
    """Why a certificate object fails for the tensor, or None."""
    subs = cert["subspaces"]
    if [s["ambient"] for s in subs] != list(tensor.shape):
        return "certificate shape differs from the tensor"
    bases = [np.array(s["basis"], dtype=np.int64).reshape(-1, s["ambient"]) for s in subs]
    if not all(is_reduced(b) for b in bases):
        return "certificate basis is not in reduced echelon form"
    if cert["bound"] != sum(s["ambient"] - len(b) for s, b in zip(subs, bases)):
        return "certificate bound differs from its codimensions"
    arr = tensor
    for axis, b in enumerate(bases):
        arr = mode_product(arr, b, axis, p)
    if arr.any():
        return "certificate does not annihilate the tensor"
    return None


def check_rank(
    code: int, out: str, tensor: np.ndarray, p: int,
    expected_sigma: Optional[int] = None, method: str = "dual_search",
) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    res = json.loads(out)
    if res.get("status") != "ok" or res.get("method") != method:
        return f"status {res.get('status')!r} method {res.get('method')!r}"
    sigma = res["sigma"]
    if expected_sigma is not None and sigma != expected_sigma:
        return f"sigma {sigma}, expected {expected_sigma}"
    why = certificate_error(res["certificate"], tensor, p)
    if why:
        return why
    if res["certificate"]["bound"] != sigma:
        return "certificate bound differs from sigma"
    dec = res["decomposition"]
    if len(dec) != sigma:
        return f"decomposition has {len(dec)} terms, sigma is {sigma}"
    if not np.array_equal(evaluate_terms(dec, tensor.shape, p), tensor):
        return "decomposition does not evaluate to the tensor"
    return None


def check_verify(code: int, out: str) -> Optional[str]:
    if code != 0 or out != "ok\n":
        return f"exit {code}, output {out[:40]!r}"
    return None


def check_normalize(code: int, out: str, tensor: np.ndarray, p: int) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    res = json.loads(out)
    if not np.array_equal(evaluate_terms(res["decomposition"], tensor.shape, p), tensor):
        return "normalized decomposition does not evaluate to the tensor"
    return None


def check_split(
    code: int, out: str, blocks: Sequence[np.ndarray], p: int, bound: int
) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    certs = json.loads(out)["certificates"]
    for cert, block in zip(certs, blocks):
        why = certificate_error(cert, block, p)
        if why:
            return "block " + why
    if sum(c["bound"] for c in certs) != bound:
        return "block bounds do not add up to the certificate bound"
    return None


def check_triangular(
    code: int, out: str, tensor: np.ndarray, p: int, parts: Sequence[int]
) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    rep = json.loads(out)
    if rep["status"] not in ("equal", "inequality_holds"):
        return f"status {rep['status']!r}"
    if rep["sigma_parts"] != list(parts) or rep["sigma_sum"] != sum(parts):
        return f"diagonal ranks {rep['sigma_parts']}, expected {list(parts)}"
    if rep["sigma_total"] < rep["sigma_sum"]:
        return "total rank below the sum of the diagonal ranks"
    total_cert = rep["certificates"][-1]
    why = certificate_error(total_cert, tensor, p)
    if why:
        return "total " + why
    if total_cert["bound"] != rep["sigma_total"]:
        return "total certificate bound differs from sigma_total"
    if not all(step["holds"] for step in rep["fold_chain"]):
        return "a fold-chain step fails"
    return None
