import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import random_decomposition
from slicerank.cli import build_parser, main
from slicerank.errors import (
    EnumerationLimitError,
    FormatError,
    NonCanonicalBasisError,
    PreconditionError,
    SliceRankError,
    VerificationError,
)
from slicerank.serialize import decomposition_to_obj, dump_json, tensor_to_obj
from slicerank import (
    BlockStructure,
    PrimeField,
    Tensor,
    diagonal_tensor,
    direct_sum,
    evaluate_decomposition,
    levi_civita,
    random_block_upper_triangular,
)

GF3 = PrimeField(3)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_levi_civita(tmp_path):
    path = tmp_path / "eps.json"
    dump_json(tensor_to_obj(levi_civita(GF3)), str(path))
    return str(path)


def test_demo_then_rank_levi_civita(tmp_path, capsys):
    eps_path = str(tmp_path / "eps.json")
    code, _, _ = run(capsys, "demo", "levi-civita", "--prime", "3", "-o", eps_path)
    assert code == 0
    code, out, _ = run(capsys, "rank", "-i", eps_path)
    assert code == 0
    result = json.loads(out)
    assert result["sigma"] == 3
    assert result["method"] == "dual_search"


def test_rank_zero_tensor(tmp_path, capsys):
    path = tmp_path / "zero.json"
    dump_json(tensor_to_obj(Tensor.zeros(GF3, (2, 2, 2))), str(path))
    code, out, _ = run(capsys, "rank", "-i", str(path))
    assert code == 0
    assert json.loads(out)["sigma"] == 0


def test_rank_diagonal_four(tmp_path, capsys):
    diag_path = str(tmp_path / "diag4.json")
    code, _, _ = run(
        capsys, "demo", "diagonal", "--prime", "2", "--size", "4", "--ones", "4", "-o", diag_path
    )
    assert code == 0
    code, out, _ = run(capsys, "rank", "-i", diag_path)
    assert code == 0
    assert json.loads(out)["sigma"] == 4


def test_verify_certificate_and_decomposition(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    code, out, _ = run(capsys, "rank", "-i", eps_path)
    result = json.loads(out)
    cert_path = tmp_path / "cert.json"
    dec_path = tmp_path / "dec.json"
    cert_path.write_text(json.dumps(result["certificate"]))
    dec_path.write_text(json.dumps(result["decomposition"]))
    code, out, _ = run(
        capsys, "verify", "-i", eps_path,
        "--certificate", str(cert_path), "--decomposition", str(dec_path),
    )
    assert code == 0
    assert out.strip() == "ok"


def test_verify_failing_certificate(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    full = {"bound": 0, "subspaces": [{"ambient": 3, "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}] * 3}
    cert_path = tmp_path / "full.json"
    cert_path.write_text(json.dumps(full))
    code, _, err = run(capsys, "verify", "-i", eps_path, "--certificate", str(cert_path))
    assert code == 4
    assert "annihilate" in err


def test_verify_zero_tensor_any_certificate(tmp_path, capsys):
    path = tmp_path / "zero.json"
    dump_json(tensor_to_obj(Tensor.zeros(GF3, (3, 3, 3))), str(path))
    full = {"bound": 0, "subspaces": [{"ambient": 3, "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}] * 3}
    cert_path = tmp_path / "full.json"
    cert_path.write_text(json.dumps(full))
    code, _, _ = run(capsys, "verify", "-i", str(path), "--certificate", str(cert_path))
    assert code == 0


def test_verify_needs_something(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    code, _, err = run(capsys, "verify", "-i", eps_path)
    assert code == 5


@pytest.mark.parametrize("cls, code", [
    (FormatError, 2), (EnumerationLimitError, 3), (VerificationError, 4),
    (PreconditionError, 5), (NonCanonicalBasisError, 5), (SliceRankError, 1),
])
def test_error_class_exit_codes(monkeypatch, capsys, cls, code):
    # each error class a subcommand raises maps to its exit status, with the
    # message on stderr; the shared parser's demo entry point is swapped
    def fail(args):
        raise cls("boom")

    demo = build_parser()._subparsers._group_actions[0].choices["demo"]
    monkeypatch.setitem(demo._defaults, "func", fail)
    assert run(capsys, "demo", "levi-civita") == (code, "", "error: boom\n")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "rank", "-i", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [("rank", "-i", "{bad}"),
                                  ("verify", "-i", "{tensor}", "--certificate", "{bad}")],
                         ids=["rank", "verify"])
@pytest.mark.parametrize(
    "content",
    [b'{"prime": 3, "shape": [2, 2], "entries": [], "note": "\xff"}',
     b"[" * 200000 + b"]" * 200000,
     b"1" * 5000],
    ids=["invalid-utf8", "nested-too-deep", "integer-of-5000-digits"],
)
def test_hostile_json_files_exit_two(tmp_path, capsys, argv, content):
    paths = {"bad": str(tmp_path / "bad.json"), "tensor": write_levi_civita(tmp_path)}
    (tmp_path / "bad.json").write_bytes(content)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: invalid JSON in {paths['bad']}: ")


@pytest.mark.parametrize(
    "argv",
    [("rank", "-i", "{tensor}"),
     ("direct-sum", "--left", "{tensor}", "--right", "{tensor}"),
     ("demo", "levi-civita", "--prime", "3")],
    ids=["rank", "direct-sum", "demo"],
)
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_output_exits_two(tmp_path, capsys, argv, target):
    output = str(tmp_path if target == "directory" else tmp_path / "missing" / "out.json")
    paths = {"tensor": write_levi_civita(tmp_path)}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv), "-o", output)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {output}: ")


@pytest.mark.parametrize(
    "tensor",
    [
        {"prime": 3, "shape": [3, 3, 3], "entries": [{"index": [True, True, True], "value": 1}]},
        {"prime": 3, "shape": [True, 3], "entries": []},
        {"prime": 3, "shape": [100000, 100000, 100000], "entries": []},
        {"prime": 3, "shape": [0, 10**30], "entries": []},
        {"prime": 3, "shape": [1] * 70, "entries": []},
    ],
    ids=["boolean-index", "boolean-shape", "huge-shape", "huge-axis-no-cells", "seventy-axes"],
)
def test_rank_rejects_malformed_tensor_with_exit_two(tmp_path, capsys, tensor):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tensor))
    code, out, err = run(capsys, "rank", "-i", str(path))
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, files",
    [
        (("additivity", "--shape", "2,-1", "--prime", "2", "--trials", "1", "--seed", "0"), {}),
        (("demo", "diagonal", "--size", "1", "--ones", "0", "--order", "70"), {}),
        (("triangular", "--blocks", ";".join(["1"] * 70), "--prime", "2",
          "--trials", "1", "--seed", "0"), {}),
        # shapes the command derives: the sum, the (3m)^3 stack, the term's u and v
        (("direct-sum", "--left", "{part}", "--right", "{part}"),
         {"part": {"prime": 2, "shape": [128, 128, 257],
                   "entries": [{"index": [1, 1, 1], "value": 1}]}}),
        (("demo", "obstruction", "--m", "86"), {}),
        (("normalize-d3", "-i", "{dec}"),
         {"dec": [{"axis": 1, "u": [0] * 17, "v": {"prime": 2, "shape": [1024, 1024], "entries": []}}]}),
        # each term fits, the two together do not
        (("normalize-d3", "-i", "{dec}"),
         {"dec": [{"axis": 1, "u": [0], "v": {"prime": 2, "shape": [4096, 4096], "entries": []}}] * 2}),
    ],
    ids=["additivity-negative-size", "diagonal-seventy-axes", "triangular-seventy-axes",
         "direct-sum-over-cells", "obstruction-over-cells", "decomposition-over-cells",
         "decomposition-terms-over-cells"],
)
def test_shape_flags_no_array_can_take_exit_two(tmp_path, capsys, argv, files):
    paths = {}
    for name, obj in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        dump_json(obj, paths[name])
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("ambient", [-1, 10**30], ids=["negative", "huge"])
def test_verify_rejects_certificate_ambient_out_of_range_with_exit_two(tmp_path, capsys, ambient):
    tensor_path = tmp_path / "zero.json"
    dump_json(tensor_to_obj(Tensor.zeros(GF3, (2, 2, 2))), str(tensor_path))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"bound": 0, "subspaces": [{"ambient": ambient, "basis": []}] * 3}))
    code, out, err = run(capsys, "verify", "-i", str(tensor_path), "--certificate", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "flag, obj",
    [
        ("--certificate", {"bound": 0, "subspaces": [
            {"ambient": 2, "basis": [[True, False], [False, True]]}] * 3}),
        ("--decomposition", [{"axis": 1, "u": [True, False],
                              "v": {"prime": 3, "shape": [2, 2], "entries": []}}]),
    ],
    ids=["certificate-basis", "decomposition-u"],
)
def test_verify_rejects_boolean_integers_with_exit_two(tmp_path, capsys, flag, obj):
    tensor_path = tmp_path / "zero.json"
    dump_json(tensor_to_obj(Tensor.zeros(GF3, (2, 2, 2))), str(tensor_path))
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "-i", str(tensor_path), flag, str(path))
    assert code == 2
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize(
    "argv",
    [("verify", "-i", "{tensor}", "--decomposition", "{dec}"), ("normalize-d3", "-i", "{dec}")],
    ids=["verify", "normalize-d3"],
)
@pytest.mark.parametrize("u", [[10**29, 0], [4, 0]], ids=["beyond-int64", "not-a-residue"])
def test_decomposition_u_outside_the_field_exits_two(tmp_path, capsys, argv, u):
    paths = {"tensor": str(tmp_path / "zero.json"), "dec": str(tmp_path / "dec.json")}
    dump_json(tensor_to_obj(Tensor.zeros(GF3, (2, 2, 2))), paths["tensor"])
    dump_json([{"axis": 1, "u": u, "v": {"prime": 3, "shape": [2, 2], "entries": []}}], paths["dec"])
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert "error:" in err and "residues mod 3" in err


def test_verify_decomposition_of_another_shape_exits_two(tmp_path, capsys):
    tensor_path = str(tmp_path / "eps.json")
    dump_json(tensor_to_obj(levi_civita(GF3)), tensor_path)
    dec_path = str(tmp_path / "dec.json")
    dump_json([{"axis": 1, "u": [1, 2], "v": {"prime": 3, "shape": [2, 2], "entries": []}}],
              dec_path)
    code, out, err = run(capsys, "verify", "-i", tensor_path, "--decomposition", dec_path)
    assert (code, out) == (2, "")
    assert "error:" in err and "term implies shape (2, 2, 2), expected (3, 3, 3)" in err


def test_budget_exit_code(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    code, out, _ = run(capsys, "rank", "-i", eps_path, "--budget", "2")
    assert code == 6
    assert json.loads(out)["status"] == "rank_above_budget"


def test_limit_exit_code(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    sum_path = str(tmp_path / "sum.json")
    code, out, _ = run(capsys, "direct-sum", "--left", eps_path, "--right", eps_path, "-o", sum_path)
    assert code == 0
    info = json.loads(out)
    assert info["blocks"] == [[3, 3], [3, 3], [3, 3]]
    code, _, err = run(capsys, "rank", "-i", sum_path)
    assert code == 3
    assert "enumeration" in err
    # an axis whose subspace count alone is past the limit, with thousands of
    # digits (256) or too slow to compute (2000, also under a 4001-digit
    # limit), is refused at once
    for n, limit in ((256, []), (2000, []), (2000, ["--limit", str(10**4000)])):
        path = tmp_path / f"long{n}.json"
        dump_json({"prime": 2, "shape": [1, 1, n], "entries": [{"index": [1, 1, 1], "value": 1}]},
                  str(path))
        code, out, err = run(capsys, "rank", "-i", str(path), *limit)
        assert (code, out) == (3, ""), n
        assert "error:" in err and "enumeration" in err


def test_rank_method_cover(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    code, out, _ = run(capsys, "rank", "-i", eps_path, "--method", "cover")
    assert code == 0
    result = json.loads(out)
    assert result["sigma"] == 3
    assert result["exact"] is True
    assert result["method"] == "cover"


def test_rank_method_matrix_requires_order_two(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    code, _, _ = run(capsys, "rank", "-i", eps_path, "--method", "matrix")
    assert code == 5


def test_split_command(tmp_path, capsys):
    left = tmp_path / "one.json"
    dump_json(tensor_to_obj(Tensor(PrimeField(2), (1, 1, 1), [[[1]]])), str(left))
    sum_path = str(tmp_path / "sum.json")
    run(capsys, "direct-sum", "--left", str(left), "--right", str(left), "-o", sum_path)
    code, out, _ = run(capsys, "rank", "-i", sum_path)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(json.loads(out)["certificate"]))
    code, out, _ = run(
        capsys, "split", "-i", sum_path, "--certificate", str(cert_path),
        "--blocks", "1,1;1,1;1,1",
    )
    assert code == 0
    trace = json.loads(out)
    assert len(trace["certificates"]) == 2
    assert trace["certificates"][0]["bound"] + trace["certificates"][1]["bound"] == 2


def test_split_rejects_single_option(tmp_path, capsys):
    left = tmp_path / "one.json"
    dump_json(tensor_to_obj(Tensor(PrimeField(2), (1, 1, 1), [[[1]]])), str(left))
    sum_path = str(tmp_path / "sum.json")
    run(capsys, "direct-sum", "--left", str(left), "--right", str(left), "-o", sum_path)
    code, out, _ = run(capsys, "rank", "-i", sum_path)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(json.loads(out)["certificate"]))
    code, _, err = run(
        capsys, "split", "-i", sum_path, "--certificate", str(cert_path),
        "--blocks", "1,1;1,1;1,1", "--options", "first,first,first",
    )
    assert code == 5


def test_split_distinguished_axis_mode_on_direct_sum(tmp_path, capsys):
    left = tmp_path / "one.json"
    dump_json(tensor_to_obj(Tensor(PrimeField(2), (1, 1, 1), [[[1]]])), str(left))
    sum_path = str(tmp_path / "sum.json")
    run(capsys, "direct-sum", "--left", str(left), "--right", str(left), "-o", sum_path)
    code, out, _ = run(capsys, "rank", "-i", sum_path)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(json.loads(out)["certificate"]))
    code, _, _ = run(
        capsys, "split", "-i", sum_path, "--certificate", str(cert_path),
        "--blocks", "1,1;1,1;1,1", "--distinguished-axis", "3",
    )
    assert code == 0


def test_additivity_stream(capsys):
    code, out, _ = run(
        capsys, "additivity", "--shape", "2,2,2", "--prime", "2",
        "--trials", "3", "--seed", "7",
    )
    assert code == 0
    # three pretty-printed JSON reports, all equalities
    assert len(out.strip()) > 0
    assert out.count('"status": "equal"') == 3
    assert out.count('"trial"') == 3


def test_rank_method_cover_refuses_past_the_node_budget(tmp_path, capsys, monkeypatch):
    from slicerank import rank

    # 24 points of a 10x10x10 support: its cover search takes 50 nodes
    rng = np.random.default_rng(1)
    data = np.zeros((10, 10, 10), dtype=np.int64)
    data.reshape(-1)[rng.choice(1000, size=24, replace=False)] = 1
    path = str(tmp_path / "support.json")
    dump_json(tensor_to_obj(Tensor(PrimeField(2), (10, 10, 10), data)), path)
    monkeypatch.setattr(rank, "COVER_NODE_LIMIT", 10)
    code, out, err = run(capsys, "rank", "-i", path, "--method", "cover")
    assert (code, out) == (3, "")
    assert err.startswith("error: slice cover search exceeds 10 nodes")
    monkeypatch.setattr(rank, "COVER_NODE_LIMIT", 50)
    assert run(capsys, "rank", "-i", path, "--method", "cover")[0] == 0


def test_additivity_refuses_shapes_beyond_the_limit(capsys):
    # each 3x3x3 summand is fine, but the 6x6x6 sum exceeds the default
    # enumeration limit, so the harness reports the refusal honestly
    code, _, err = run(
        capsys, "additivity", "--shape", "3,3,3", "--prime", "3",
        "--trials", "1", "--seed", "1",
    )
    assert code == 3
    assert "enumeration" in err


def test_additivity_zero_trials(capsys):
    code, out, _ = run(
        capsys, "additivity", "--shape", "2,2,2", "--prime", "2",
        "--trials", "0", "--seed", "7",
    )
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("flag", ["--seed", "--trials"])
@pytest.mark.parametrize("command", [
    ("additivity", "--shape", "2,2,2"),
    ("triangular", "--blocks", "1,1;1,1;1,1"),
])
def test_harness_refuses_negative_seed_and_trials(capsys, command, flag):
    values = {"--prime": "2", "--seed": "0", "--trials": "1", flag: "-1"}
    with pytest.raises(SystemExit) as exc:
        main([*command, *(x for item in values.items() for x in item)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a nonnegative integer" in captured.err


def test_triangular_stream(capsys):
    code, out, _ = run(
        capsys, "triangular", "--blocks", "1,1;1,1;1,1", "--prime", "2",
        "--trials", "3", "--seed", "5",
    )
    assert code == 0
    assert out.count('"status"') == 3
    assert '"violation"' not in out


def test_demo_obstruction(capsys):
    code, out, _ = run(capsys, "demo", "obstruction", "--m", "1", "--prime", "3")
    assert code == 0
    report = json.loads(out)
    assert report["sigma_true"] == 3
    assert report["rank_contraction"] <= 2


def test_normalize_d3_command(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    code, out, _ = run(capsys, "rank", "-i", eps_path)
    dec_path = tmp_path / "dec.json"
    dec_path.write_text(json.dumps(json.loads(out)["decomposition"]))
    code, out, _ = run(capsys, "normalize-d3", "-i", str(dec_path))
    assert code == 0
    result = json.loads(out)
    assert result["orthogonality_pairs"] == [[1, 2], [1, 3], [2, 3]]
    assert len(result["decomposition"]) == 3


def test_normalize_d3_empty(tmp_path, capsys):
    dec_path = tmp_path / "empty.json"
    dec_path.write_text("[]")
    code, out, _ = run(capsys, "normalize-d3", "-i", str(dec_path))
    assert code == 0
    assert json.loads(out) == {"decomposition": [], "duals": [], "orthogonality_pairs": []}


def test_main_reuses_one_parser_across_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    eps_path = write_levi_civita(tmp_path)
    code, first, _ = run(capsys, "rank", "-i", eps_path)
    assert code == 0
    # a flag given to one call does not stay set for the next
    assert run(capsys, "rank", "-i", eps_path, "--budget", "1")[0] == 6
    assert run(capsys, "rank", "-i", eps_path) == (0, first, "")
    # neither does a usage error
    with pytest.raises(SystemExit) as exc:
        main(["rank"])
    assert exc.value.code == 2
    assert "--input" in capsys.readouterr().err
    assert run(capsys, "rank", "-i", eps_path) == (0, first, "")
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "usage: slicerank" in helps[0]


def test_outputs_are_byte_identical(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    _, out1, _ = run(capsys, "rank", "-i", eps_path)
    _, out2, _ = run(capsys, "rank", "-i", eps_path)
    assert out1 == out2
    _, add1, _ = run(capsys, "additivity", "--shape", "2,2,2", "--prime", "2", "--trials", "2", "--seed", "3")
    _, add2, _ = run(capsys, "additivity", "--shape", "2,2,2", "--prime", "2", "--trials", "2", "--seed", "3")
    assert add1 == add2


def _rank_corpus():
    """(name, tensor, extra argv) for the pinned rank digest, from one seed."""
    rng = np.random.default_rng(2718)
    fields = {p: PrimeField(p) for p in (2, 3, 5)}
    corpus = []

    def add(name, t, *extra):
        corpus.append((f"{len(corpus):02d}-{name}", t, extra))

    for p, shape, count in [
        (2, (4, 4, 4), 4), (3, (4, 4, 4), 2), (5, (3, 3, 3), 3), (2, (3, 3, 3, 3), 3),
        (3, (2, 3, 4), 3), (3, (2, 2, 2, 2), 2), (2, (5, 5, 3), 1), (5, (2, 2, 3), 1),
    ]:
        for _ in range(count):
            add("dense", Tensor(fields[p], shape, rng.integers(0, p, size=shape)))
    for p, shape, density in [(2, (4, 4, 4), 0.2), (2, (4, 4, 4), 0.2), (3, (3, 3, 3), 0.3),
                              (3, (3, 3, 3), 0.3)]:
        data = rng.integers(0, p, size=shape) * (rng.random(shape) < density)
        add("sparse", Tensor(fields[p], shape, data))
    for p, second in [(2, (2, 2, 2)), (2, (2, 2, 2)), (3, (2, 2, 2)), (3, (2, 2, 2)),
                      (2, (1, 1, 1)), (3, (1, 1, 1))]:
        parts = [Tensor(fields[p], s, rng.integers(0, p, size=s)) for s in ((2, 2, 2), second)]
        add("direct-sum", direct_sum(*parts)[0])
    for p, size, ones, order in [(2, 1, 1, 3), (2, 3, 2, 3), (3, 4, 4, 3), (5, 3, 3, 4)]:
        add("diagonal", diagonal_tensor(fields[p], size, ones, order))
    for p in (3, 5):
        add("levi-civita", levi_civita(fields[p]))
    for p, shape in [(2, (3, 3, 3)), (2, (3, 3, 3)), (3, (3, 3, 3)), (2, (3, 3, 3, 3))]:
        dec = random_decomposition(rng, fields[p], shape, max_terms_per_axis=1)
        add("slice-terms", evaluate_decomposition(dec))
    i, j, k = np.indices((3, 3, 3))
    data = rng.integers(1, 3, size=(3, 3, 3)) * ((i <= j) & (j <= k))
    add("upper-triangular", Tensor(fields[3], (3, 3, 3), data))
    dense = Tensor(fields[3], (3, 3, 3), rng.integers(0, 3, size=(3, 3, 3)))
    for budget in ("1", "2", "3"):
        add("budget", dense, "--budget", budget)
    return corpus


# SHA-256 of the concatenated stdout of `slicerank rank` over _rank_corpus.
# The same input must give byte-identical output, so a change that only
# speeds up the search must leave it unchanged
RANK_CORPUS_SHA256 = "b367f9a020365e6723e011e2998f8abc02fab9277ae8bd77a73c13671b921327"


def test_rank_stdout_digest_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    corpus = _rank_corpus()
    assert len(corpus) == 43
    for name, t, extra in corpus:
        path = tmp_path / f"{name}.json"
        dump_json(tensor_to_obj(t), str(path))
        code, out, err = run(capsys, "rank", "-i", str(path), *extra)
        assert code in (0, 6) and not err, (name, code, err)
        digest.update(out.encode())
    assert digest.hexdigest() == RANK_CORPUS_SHA256


def _subcommand_corpus(tmp_path, capsys):
    """(argv, exit status, stdout) of every run of the pinned subcommand digest.

    The inputs come from one seed. Each direct sum is written from the
    `direct-sum` stdout, and `split` and `normalize-d3` read the certificate
    and decomposition that `rank` gives for it.
    """
    rng = np.random.default_rng(1618)
    runs = []

    def call(*argv):
        code, out, _ = run(capsys, *argv)
        runs.append((argv, code, out))
        return out

    def write(name, obj):
        path = str(tmp_path / f"{name}.json")
        dump_json(obj, path)
        return path

    for p in (2, 3, 5):
        call("demo", "levi-civita", "--prime", str(p))
    for p, size, ones, order in [(2, 3, 2, 3), (3, 4, 4, 3), (5, 2, 2, 4)]:
        call("demo", "diagonal", "--prime", str(p), "--size", str(size), "--ones", str(ones),
             "--order", str(order))
    for p, m in [(2, 1), (3, 1), (3, 2)]:
        call("demo", "obstruction", "--prime", str(p), "--m", str(m))
    for k, (p, left, right) in enumerate([
        (2, (2, 2, 2), (1, 1, 1)), (3, (2, 2, 2), (2, 2, 2)),
        (2, (1, 2, 2), (2, 1, 1)), (3, (2, 2, 2), (1, 1, 1)),
    ]):
        parts = [
            write(f"{k}-{side}", tensor_to_obj(Tensor(PrimeField(p), s, rng.integers(0, p, size=s))))
            for side, s in (("left", left), ("right", right))
        ]
        out = call("direct-sum", "--left", parts[0], "--right", parts[1])
        total = write(f"{k}-sum", json.loads(out)["tensor"])
        result = json.loads(run(capsys, "rank", "-i", total)[1])
        cert = write(f"{k}-cert", result["certificate"])
        blocks = ";".join(f"{a},{b}" for a, b in zip(left, right))
        call("split", "-i", total, "--certificate", cert, "--blocks", blocks)
        call("split", "-i", total, "--certificate", cert, "--blocks", blocks,
             "--distinguished-axis", "3")
        call("normalize-d3", "-i", write(f"{k}-dec", result["decomposition"]))
    for k, (p, shape) in enumerate([(2, (2, 3, 2)), (3, (3, 3, 3)), (5, (2, 2, 3))]):
        dec = random_decomposition(rng, PrimeField(p), shape)
        call("normalize-d3", "-i", write(f"random-dec-{k}", decomposition_to_obj(dec)))
    for shape, p, seed in [("2,2,2", 2, 7), ("2,2,2", 3, 11), ("1,2,3", 2, 12)]:
        call("additivity", "--shape", shape, "--prime", str(p), "--trials", "2", "--seed", str(seed))
    for blocks, p, seed in [("1,1;1,1;1,1", 3, 13), ("1,2;2,1;1,1", 2, 14),
                            ("1,1;1,1;1,1;1,1", 2, 15)]:
        call("triangular", "--blocks", blocks, "--prime", str(p), "--trials", "2", "--seed", str(seed))
    return runs


# SHA-256 of the concatenated stdout of the other subcommands over
# _subcommand_corpus, pinned like RANK_CORPUS_SHA256 so that a change to
# output code or to the command line front end must leave every
# subcommand's output byte-identical
SUBCOMMAND_CORPUS_SHA256 = "9dce072436cffd19a15c4dffee4abc01c2baff735afae38f92487df65bac8c30"


def test_subcommand_stdout_digest_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    runs = _subcommand_corpus(tmp_path, capsys)
    assert len(runs) == 34
    for argv, code, out in runs:
        assert code == 0 and out, argv
        digest.update(out.encode())
    assert digest.hexdigest() == SUBCOMMAND_CORPUS_SHA256


def _cover_corpus():
    """(name, tensor) for the pinned `rank --method cover` digest, from one seed."""
    rng = np.random.default_rng(4142)
    corpus = []
    for n, p, points in [(10, 5, 20), (12, 7, 22), (14, 2, 21), (11, 5, 22), (13, 7, 20),
                         (14, 2, 22)]:
        data = np.zeros((n, n, n), dtype=np.int64)
        data.reshape(-1)[rng.choice(n ** 3, size=points, replace=False)] = rng.integers(
            1, p, size=points)
        corpus.append((f"{len(corpus):02d}-sparse", Tensor(PrimeField(p), (n, n, n), data)))
    # a chain of comparable points next to an incomparable pair: not an antichain
    chain = np.zeros((4, 4, 4), dtype=np.int64)
    for idx in [(0, 0, 0), (1, 1, 1), (2, 2, 3), (0, 3, 1), (3, 0, 2)]:
        chain[idx] = 2
    corpus.append(("chain", Tensor(GF3, (4, 4, 4), chain)))
    for p in (3, 5):
        corpus.append((f"levi-civita-{p}", levi_civita(PrimeField(p))))
    corpus.append(("zero", Tensor.zeros(PrimeField(2), (3, 3, 3))))
    return corpus


# SHA-256 of the concatenated stdout of `slicerank rank --method cover` over
# _cover_corpus; neither digest above runs the slice cover
COVER_CORPUS_SHA256 = "3ecfb3cf0d92e841a6fe3a8047baa4296a9eee2748367e2d2b44c9fd49b69666"


def test_cover_stdout_digest_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    exact = set()
    for name, t in _cover_corpus():
        path = tmp_path / f"{name}.json"
        dump_json(tensor_to_obj(t), str(path))
        code, out, err = run(capsys, "rank", "-i", str(path), "--method", "cover")
        assert code == 0 and not err, (name, code, err)
        exact.add(json.loads(out)["exact"])
        digest.update(out.encode())
    assert exact == {True, False}
    assert digest.hexdigest() == COVER_CORPUS_SHA256


def _walk_corpus():
    """(name, tensor, extra argv) for the pinned digest of searches that walk at a known sigma.

    Upper-triangular 3x3x3 tensors with 1,1,1 blocks, dense 2x3x4 tensors
    over GF(3) and sums of slice terms: on these the bound or the least
    flattening rank proves sigma, but the canonical certificate is not the
    all-full prefix tuple, so the search must still locate it. Some run
    with budgets below, at and above sigma.
    """
    rng = np.random.default_rng(31415)
    fields = {p: PrimeField(p) for p in (2, 3)}
    blocks = BlockStructure(((1, 1, 1),) * 3)
    corpus = []

    def add(name, t, *extra):
        corpus.append((f"{len(corpus):02d}-{name}", t, extra))

    for p in (2, 3):
        for _ in range(8):
            add("triangular", random_block_upper_triangular(fields[p], blocks, rng))
    for _ in range(8):
        add("dense", Tensor(fields[3], (2, 3, 4), rng.integers(0, 3, size=(2, 3, 4))))
    for p, shape, count in [(3, (4, 4, 4), 4), (2, (4, 4, 4), 2), (2, (3, 3, 3, 3), 2)]:
        for _ in range(count):
            dec = random_decomposition(rng, fields[p], shape, max_terms_per_axis=1)
            add("slice-terms", evaluate_decomposition(dec))
    for name, t, _ in [corpus[k] for k in (3, 8, 16, 24, 28, 30)]:
        for budget in ("1", "2", "3"):
            add(f"budget-{name}", t, "--budget", budget)
    return corpus


# SHA-256 of the concatenated stdout of `slicerank rank` over _walk_corpus,
# pinned like RANK_CORPUS_SHA256: a search that skips prefixes on its way
# to the canonical certificate must still return that certificate
WALK_CORPUS_SHA256 = "8175807166615e65fa1b36ce0264d6f4edc963fecfb56cae9c35282050bdb046"


def test_walk_stdout_digest_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    corpus = _walk_corpus()
    assert len(corpus) == 50
    for name, t, extra in corpus:
        path = tmp_path / f"{name}.json"
        dump_json(tensor_to_obj(t), str(path))
        code, out, err = run(capsys, "rank", "-i", str(path), *extra)
        assert code in (0, 6) and not err, (name, code, err)
        digest.update(out.encode())
    assert digest.hexdigest() == WALK_CORPUS_SHA256


# --- bounded exit-status fuzz ---

_CONTRACT = {0, 2, 3, 4, 5, 6}

# what a mutation writes over one character or one JSON leaf: small numbers
# only, so that a mutated shape stays cheap to search or is refused by the
# limit at once
_TOKENS = ["0", "1", "3", "-1", "10", "1.5", "[", "]", "{", "}", ",", ":", '"', '"x"',
           "null", "true", ""]
_LEAVES = [-1, 0, 1, 2, 3, 10, 1.5, True, None, "x", [], {}]


def _leaf_paths(obj, path=()):
    """Key paths of every leaf of a JSON value, in document order."""
    items = list(obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ())
    if not items:
        yield path
    for key, value in items:
        yield from _leaf_paths(value, path + (key,))


def _mutate(text, rng):
    """One seeded mutation: one or two characters, or one or two JSON leaves, overwritten."""
    if rng.integers(2):
        chars = list(text)
        for _ in range(int(rng.integers(1, 3))):
            chars[int(rng.integers(len(chars)))] = _TOKENS[int(rng.integers(len(_TOKENS)))]
        return "".join(chars)
    obj = json.loads(text)
    for _ in range(int(rng.integers(1, 3))):
        paths = list(_leaf_paths(obj))  # the files' roots are nonempty containers
        *head, last = paths[int(rng.integers(len(paths)))]
        target = obj
        for key in head:
            target = target[key]
        target[last] = _LEAVES[int(rng.integers(len(_LEAVES)))]
    return json.dumps(obj)


def _exit_status(capsys, argv):
    """Exit status of one in-process run, with no traceback on stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses a flag
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err, (argv, err)
    return code


def test_mutated_files_keep_the_exit_status_contract(tmp_path, capsys):
    # seeded character or JSON-leaf mutations of small canonical tensor,
    # certificate and decomposition files, through every command that reads
    # a file: rank, verify, split, direct-sum and normalize-d3
    files = {name: str(tmp_path / f"{name}.json") for name in ("one", "tensor", "sum")}
    dump_json(tensor_to_obj(Tensor(PrimeField(2), (1, 1, 1), [[[1]]])), files["one"])
    data = np.zeros((2, 2, 2), dtype=np.int64)
    data[0, 0, :] = data[1, 1, :] = data[0, 1, 1] = 1
    dump_json(tensor_to_obj(Tensor(PrimeField(2), (2, 2, 2), data)), files["tensor"])
    assert run(capsys, "direct-sum", "--left", files["one"], "--right", files["one"],
               "-o", files["sum"])[0] == 0
    for name, source in (("cert", "tensor"), ("sumcert", "sum")):
        result = json.loads(run(capsys, "rank", "-i", files[source])[1])
        files[name] = str(tmp_path / f"{name}.json")
        dump_json(result["certificate"], files[name])
        if name == "cert":
            files["dec"] = str(tmp_path / "dec.json")
            dump_json(result["decomposition"], files["dec"])
    commands = [
        ("rank", "-i", "{tensor}"),
        ("verify", "-i", "{tensor}", "--certificate", "{cert}"),
        ("verify", "-i", "{tensor}", "--decomposition", "{dec}"),
        ("split", "-i", "{sum}", "--certificate", "{sumcert}", "--blocks", "1,1;1,1;1,1"),
        ("direct-sum", "--left", "{one}", "--right", "{tensor}"),
        ("normalize-d3", "-i", "{dec}"),
    ]
    texts = {name: Path(path).read_text() for name, path in files.items()}
    rng = np.random.default_rng(20)
    codes = set()
    for argv in commands:
        for name in [arg[1:-1] for arg in argv if arg.startswith("{")]:
            for _ in range(30):
                text = _mutate(texts[name], rng)
                mutated = tmp_path / "mutated.json"
                mutated.write_text(text)
                paths = dict(files, **{name: str(mutated)})
                code = _exit_status(capsys, [arg.format(**paths) for arg in argv])
                assert code in _CONTRACT, (argv, name, text)
                codes.add(code)
    assert {0, 2, 4, 5} <= codes, codes


_TRI = ("triangular", "--seed", "1", "--blocks")
_ADD = ("additivity", "--seed", "1", "--shape")


@pytest.mark.parametrize("argv, expected", [
    # zero-size blocks, one or all, and no trials
    ((*_TRI, "0,0;0,0;0,0", "--prime", "2", "--trials", "2"), 0),
    ((*_TRI, "1,0;0,1;1,1", "--prime", "3", "--trials", "2"), 0),
    ((*_TRI, "1,1;1,1;1,1", "--prime", "2", "--trials", "0"), 0),
    ((*_ADD, "0,2,2", "--prime", "2", "--trials", "2"), 0),
    ((*_ADD, "1,1", "--prime", "2", "--trials", "0"), 0),
    # a modulus that is not a prime in range
    ((*_TRI, "1,1;1,1;1,1", "--prime", "4", "--trials", "1"), 5),
    ((*_TRI, "1,1;1,1;1,1", "--prime", "1", "--trials", "1"), 5),
    ((*_TRI, "1,1;1,1", "--prime", "x", "--trials", "1"), 2),
    ((*_ADD, "1,1,1", "--prime", "6", "--trials", "1"), 5),
    ((*_ADD, "1,1,1", "--prime", "-3", "--trials", "1"), 5),
    # malformed blocks and shapes
    ((*_TRI, "1,1;1", "--prime", "2", "--trials", "1"), 5),
    ((*_TRI, "1,x;1,1", "--prime", "2", "--trials", "1"), 2),
    ((*_TRI, "1,-1;1,1", "--prime", "2", "--trials", "1"), 2),
    ((*_TRI, "", "--prime", "2", "--trials", "1"), 2),
    ((*_TRI, "2", "--prime", "2", "--trials", "1"), 5),
    ((*_ADD, "2", "--prime", "2", "--trials", "1"), 5),
    ((*_ADD, "1,,1", "--prime", "2", "--trials", "1"), 2),
    ((*_ADD, "2,-1", "--prime", "2", "--trials", "1"), 2),
])
def test_harness_flag_edges_keep_the_exit_status_contract(capsys, argv, expected):
    assert _exit_status(capsys, argv) == expected


@pytest.mark.parametrize("blocks, expected", [
    ("1,1;1,1;1,1", 0), ("1,-1;1,1;1,1", 2), ("-1,3;1,1;1,1", 2), ("1,1;1;1,1", 5),
])
def test_split_block_flag_edges_keep_the_exit_status_contract(tmp_path, capsys, blocks, expected):
    # a negative block size is a malformed flag, as in triangular; uneven
    # block counts stay a precondition
    one = tmp_path / "one.json"
    dump_json(tensor_to_obj(Tensor(PrimeField(2), (1, 1, 1), [[[1]]])), str(one))
    sum_path = str(tmp_path / "sum.json")
    run(capsys, "direct-sum", "--left", str(one), "--right", str(one), "-o", sum_path)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(json.loads(run(capsys, "rank", "-i", sum_path)[1])["certificate"]))
    argv = ["split", "-i", sum_path, "--certificate", str(cert_path), "--blocks", blocks]
    assert _exit_status(capsys, argv) == expected
