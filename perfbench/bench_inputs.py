"""Seeded input files and job lists for the three benchmark workloads.

A job is one ``slicerank`` command line plus the check its output must
pass. Inputs are built here with numpy alone, so the same seed gives
byte-identical files whatever the program under test does. Where a rank is
known by construction (diagonal tensors, the Levi-Civita tensor, direct
sums of 2x2x2 parts, 1x1x1 diagonal blocks), the job checks sigma against
it; certificates handed to the program are also built here.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import bench_check as bc

WORKLOADS = ("dense_search", "direct_sums", "large_witness")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    # (command, shape, p): setup runs one untimed job of each group
    group: tuple
    # (exit code, stdout) -> None when correct, else the reason it is not
    check: Callable[[int, str], Optional[str]]


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
    return path


def _rank_job(path, tensor, p, expected=None, method="dual_search"):
    argv = ("rank", "-i", path) + (("--method", "cover") if method == "cover" else ())
    check = functools.partial(bc.check_rank, tensor=tensor, p=p,
                              expected_sigma=expected, method=method)
    return Job(argv, (argv[0] + ("-cover" if method == "cover" else ""), tensor.shape, p), check)


def dense_search(rng: np.random.Generator, workdir: str) -> list[Job]:
    """Random dense tensors: full rank, so every r below sigma is refuted."""
    classes = [((4, 4, 4), 2, 25), ((3, 3, 3), 5, 25), ((3, 3, 3, 3), 2, 25),
               ((2, 3, 4), 3, 25), ((4, 4, 4), 3, 5)]
    jobs = []
    for shape, p, count in classes:
        for _ in range(count):
            t = rng.integers(0, p, size=shape)
            path = write_json(os.path.join(workdir, f"dense{len(jobs)}.json"), bc.dense_to_obj(t, p))
            jobs.append(_rank_job(path, t, p))
    return jobs


def _sigma_2x2x2(t: np.ndarray, p: int) -> int:
    """Slice rank of a 2x2x2 tensor: 0, 1 when a flattening has rank 1, else 2."""
    if not t.any():
        return 0
    flat = [np.moveaxis(t, a, 0).reshape(2, 4) for a in range(3)]
    return 1 if any(bc.rank_mod(f, p) == 1 for f in flat) else 2


def _certificate_2x2x2(t: np.ndarray, p: int) -> list[np.ndarray]:
    """Per-axis dual bases of a certificate whose bound is the part's rank."""
    full = np.eye(2, dtype=np.int64)
    sigma = _sigma_2x2x2(t, p)
    if sigma == 0:
        return [full, full, full]
    if sigma == 2:
        return [np.zeros((0, 2), dtype=np.int64), full, full]
    for a in range(3):
        flat = np.moveaxis(t, a, 0).reshape(2, 4)
        if bc.rank_mod(flat, p) == 1:
            # t = u (x) v on axis a, with u spanning the flattening's columns
            col = flat[:, np.flatnonzero(flat.any(axis=0))[0]]
            bases = [full, full, full]
            bases[a] = bc.annihilator_basis(col, 2, p)
            return bases
    raise AssertionError("rank-1 part without a rank-1 flattening")


def _block_diag(b1: np.ndarray, b2: np.ndarray, n1: int, n2: int) -> np.ndarray:
    out = np.zeros((len(b1) + len(b2), n1 + n2), dtype=np.int64)
    out[: len(b1), :n1] = b1
    out[len(b1):, n1:] = b2
    return out


def _upper_triangular_1x1(seed: int, p: int) -> np.ndarray:
    """The tensor ``slicerank triangular --blocks 1,1,1;... --seed`` draws for trial 0."""
    rng = np.random.default_rng([seed, 0])
    t = np.zeros((3, 3, 3), dtype=np.int64)
    for alpha in itertools.product(range(3), repeat=3):
        if alpha[0] <= alpha[1] <= alpha[2]:
            t[alpha] = rng.integers(0, p, size=(1, 1, 1))[0, 0, 0]
    return t


def _part_2x2x2(rng: np.random.Generator, p: int, sigma: int) -> np.ndarray:
    """A random 2x2x2 tensor of the given slice rank."""
    if sigma == 0:
        return np.zeros((2, 2, 2), dtype=np.int64)
    if sigma == 1:
        u = np.zeros(2, dtype=np.int64)
        while not u.any():
            u = rng.integers(0, p, size=2)
        v = np.zeros((2, 2), dtype=np.int64)
        while not v.any():
            v = rng.integers(0, p, size=(2, 2))
        return np.moveaxis(np.multiply.outer(u, v), 0, int(rng.integers(0, 3))) % p
    while True:
        t = rng.integers(0, p, size=(2, 2, 2))
        if _sigma_2x2x2(t, p) == 2:
            return t


def direct_sums(rng: np.random.Generator, workdir: str) -> list[Job]:
    """Sparse, structured inputs whose ranks are known by construction.

    The part ranks are fixed so that every seed asks for the same mix of
    refutation depths; the search cost of a sum depends mostly on them.
    """
    jobs = []
    ranks = [(2, 2)] * 4 + [(2, 1), (1, 2), (1, 1), (2, 0)]
    for j, (p, part_ranks) in enumerate([(2, r) for r in ranks * 2] + [(3, r) for r in ranks[2:6] * 2]):
        parts = [_part_2x2x2(rng, p, s) for s in part_ranks]
        t = np.zeros((4, 4, 4), dtype=np.int64)
        t[:2, :2, :2], t[2:, 2:, 2:] = parts
        sigma = sum(_sigma_2x2x2(q, p) for q in parts)
        cert = [_block_diag(b1, b2, 2, 2) for b1, b2 in
                zip(*(_certificate_2x2x2(q, p) for q in parts))]
        path = write_json(os.path.join(workdir, f"sum{j}.json"), bc.dense_to_obj(t, p))
        cpath = write_json(os.path.join(workdir, f"sum{j}.cert.json"),
                           bc.certificate_obj(cert, t.shape))
        jobs.append(_rank_job(path, t, p, expected=sigma))
        argv = ("split", "-i", path, "--certificate", cpath, "--blocks", "2,2;2,2;2,2")
        check = functools.partial(bc.check_split, blocks=parts, p=p, bound=sigma)
        jobs.append(Job(argv, ("split", t.shape, p), check))

    # 40 checks over GF(2) put p50 inside their cluster, away from the
    # cheaper split jobs and the dearer GF(3) checks
    for p in [2] * 40 + [3] * 24:
        seed = int(rng.integers(0, 2**31))
        t = _upper_triangular_1x1(seed, p)
        argv = ("triangular", "--blocks", "1,1,1;1,1,1;1,1,1", "--prime", str(p),
                "--trials", "1", "--seed", str(seed))
        parts = [int(t[i, i, i] != 0) for i in range(3)]
        check = functools.partial(bc.check_triangular, tensor=t, p=p, parts=parts)
        jobs.append(Job(argv, ("triangular", t.shape, p), check))

    for j, (n, p, ones) in enumerate([(3, 2, 2), (4, 2, 3), (4, 2, 4), (3, 3, 3), (4, 3, 1), (4, 3, 2)]):
        t = np.zeros((n, n, n), dtype=np.int64)
        for i in range(ones):
            t[i, i, i] = 1
        path = write_json(os.path.join(workdir, f"diag{j}.json"), bc.dense_to_obj(t, p))
        jobs.append(_rank_job(path, t, p, expected=ones))

    for p in (3, 5):
        t = np.zeros((3, 3, 3), dtype=np.int64)
        for perm in itertools.permutations(range(3)):
            inversions = sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3))
            t[perm] = 1 if inversions % 2 == 0 else p - 1
        path = write_json(os.path.join(workdir, f"levi_civita{p}.json"), bc.dense_to_obj(t, p))
        jobs.append(_rank_job(path, t, p, expected=3))
    return jobs


def _random_decomposition(rng, n: int, p: int, terms: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    return [(int(rng.integers(0, 3)), rng.integers(0, p, size=n), rng.integers(0, p, size=(n, n)))
            for _ in range(terms)]


def large_witness(rng: np.random.Generator, workdir: str) -> list[Job]:
    """Big direct sums shipped with witnesses: parsing and checking, no search."""
    jobs = []
    # 6 jobs on 12^3, 42 on 18^3 and 30 on 24^3 put p50 inside the 18^3
    # cluster and p90 inside the 24^3 one, away from the gaps between sizes
    sizes = [(12, 5), (12, 7)] + [(18, 5), (18, 7)] * 7 + [(24, 5), (24, 7)] * 5
    for j, (n, p) in enumerate(sizes):
        h = n // 2
        parts = [_random_decomposition(rng, h, p, 4) for _ in range(2)]
        terms, blocks, bases = [], [], []
        for k, part in enumerate(parts):
            block = np.zeros((h, h, h), dtype=np.int64)
            for axis, u, v in part:
                block += np.moveaxis(np.multiply.outer(u, v), 0, axis)
                big_u = np.zeros(n, dtype=np.int64)
                big_u[k * h:(k + 1) * h] = u
                big_v = np.zeros((n, n), dtype=np.int64)
                big_v[k * h:(k + 1) * h, k * h:(k + 1) * h] = v
                terms.append({"axis": axis + 1, "u": [int(x) for x in big_u],
                              "v": bc.dense_to_obj(big_v, p)})
            blocks.append(block % p)
            bases.append([bc.annihilator_basis([u for a, u, _ in part if a == axis], h, p)
                          for axis in range(3)])
        t = np.zeros((n, n, n), dtype=np.int64)
        t[:h, :h, :h], t[h:, h:, h:] = blocks
        cert = bc.certificate_obj([_block_diag(b1, b2, h, h) for b1, b2 in zip(*bases)], t.shape)
        path = write_json(os.path.join(workdir, f"big{j}.json"), bc.dense_to_obj(t, p))
        cpath = write_json(os.path.join(workdir, f"big{j}.cert.json"), cert)
        dpath = write_json(os.path.join(workdir, f"big{j}.dec.json"), terms)
        argv = ("verify", "-i", path, "--certificate", cpath, "--decomposition", dpath)
        jobs.append(Job(argv, ("verify", t.shape, p), bc.check_verify))
        argv = ("normalize-d3", "-i", dpath)
        check = functools.partial(bc.check_normalize, tensor=t, p=p)
        jobs.append(Job(argv, ("normalize-d3", t.shape, p), check))
        argv = ("split", "-i", path, "--certificate", cpath, "--blocks", f"{h},{h};{h},{h};{h},{h}")
        check = functools.partial(bc.check_split, blocks=blocks, p=p, bound=cert["bound"])
        jobs.append(Job(argv, ("split", t.shape, p), check))

    # branch-and-bound cost has a heavy tail, so many small covers keep the
    # per-seed total steady
    for j, (n, p, points) in enumerate([(10, 5, 20), (12, 7, 22), (14, 5, 20)] * 8):
        t = np.zeros((n, n, n), dtype=np.int64)
        flat = rng.choice(n ** 3, size=points, replace=False)
        t.reshape(-1)[flat] = rng.integers(1, p, size=points)
        path = write_json(os.path.join(workdir, f"sparse{j}.json"), bc.dense_to_obj(t, p))
        jobs.append(_rank_job(path, t, p, method="cover"))
    return jobs


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write one workload's inputs for a seed into workdir; return one pass of jobs.

    Jobs come in generation order, so the first job of each (command, shape,
    p) group, which set-up runs, has the same kind of input for every seed.
    """
    generate = {"dense_search": dense_search, "direct_sums": direct_sums,
                "large_witness": large_witness}[workload]
    return generate(np.random.default_rng([seed, WORKLOADS.index(workload)]), workdir)
