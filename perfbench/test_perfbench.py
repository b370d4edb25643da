"""Self-tests of the benchmark: seeded inputs, output checks, percentiles, trace counts."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import bench_check
import bench_inputs
import run

slicerank = run.load_program()


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_inputs_follow_the_seed(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    argvs = [[job.argv for job in bench_inputs.make_jobs(workload, seed, str(d))]
             for seed, d in zip((7, 7, 8), dirs)]
    same, again, other = (_files(str(d)) for d in dirs)
    assert same == again
    assert same != other
    assert [[a.replace(str(dirs[0]), "") for a in argv] for argv in argvs[0]] == \
        [[a.replace(str(dirs[1]), "") for a in argv] for argv in argvs[1]]


def _first_rank_job(tmp_path):
    jobs = bench_inputs.make_jobs("direct_sums", 3, str(tmp_path))
    job = next(j for j in jobs if j.argv[0] == "rank" and "sum" in j.argv[2])
    code, out, _ = run.run_cli(slicerank.cli.main, job.argv)
    assert job.check(code, out) is None
    return job, code, json.loads(out)


def _flip(value: int) -> int:
    return (value + 1) % 2 if value < 2 else value - 1


def test_checker_flags_a_flipped_certificate_entry(tmp_path):
    job, code, res = _first_rank_job(tmp_path)
    basis = next(s["basis"] for s in res["certificate"]["subspaces"] if s["basis"])
    basis[0][-1] = _flip(basis[0][-1])
    assert job.check(code, json.dumps(res)) is not None


def test_checker_flags_a_flipped_decomposition_entry(tmp_path):
    job, code, res = _first_rank_job(tmp_path)
    entry = res["decomposition"][0]["v"]["entries"][0]
    entry["value"] = _flip(entry["value"])
    assert job.check(code, json.dumps(res)) is not None


def test_checker_flags_a_wrong_sigma(tmp_path):
    job, code, res = _first_rank_job(tmp_path)
    assert job.check(code, json.dumps(dict(res, sigma=res["sigma"] + 1))) is not None
    assert job.check(4, json.dumps(res)) is not None


def test_annihilator_basis_is_reduced_and_annihilates():
    rng = np.random.default_rng(0)
    vectors = rng.integers(0, 5, size=(2, 6))
    basis = bench_check.annihilator_basis(vectors, 6, 5)
    assert bench_check.is_reduced(basis)
    assert len(basis) == 6 - bench_check.rank_mod(vectors, 5)
    assert not ((basis @ vectors.T) % 5).any()


def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile([float(i) for i in range(100)], 0.9) == 89.0
    with pytest.raises(ValueError):
        run.percentile([float(i) for i in range(99)], 0.9)


def _traced_counts(jobs):
    run.set_up(slicerank.cli.main, run.warmups(jobs))
    outcomes, metrics, _ = run.traced_run(jobs, slicerank.cli.main, 0, slicerank)
    assert outcomes.failed == 0
    return {name: value for name, (value, unit) in metrics.items() if unit not in ("s", "ratio")}


@pytest.mark.parametrize("workload", ["direct_sums", "large_witness"])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    jobs = bench_inputs.make_jobs(workload, 5, str(tmp_path))[::3]
    first = _traced_counts(jobs)
    assert first == _traced_counts(jobs)
    assert first["serialize.bytes_in"] > 0
    if workload == "direct_sums":
        assert first["splitting.triangular_search_calls"] == 10
        assert first["linalg.grassmannian_misses"] > 0
    else:
        assert first["rank.search_calls"] == 0 and first["rank.cover_calls"] > 0
