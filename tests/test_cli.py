import json

import pytest

from slicerank.cli import main
from slicerank.serialize import dump_json, tensor_to_obj
from slicerank import PrimeField, Tensor, levi_civita

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


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "rank", "-i", str(bad))
    assert code == 2
    assert "error" in err


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
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("additivity", "--shape", "2,-1", "--prime", "2", "--trials", "1", "--seed", "0"),
        ("demo", "diagonal", "--size", "1", "--ones", "0", "--order", "70"),
        ("triangular", "--blocks", ";".join(["1"] * 70), "--prime", "2",
         "--trials", "1", "--seed", "0"),
    ],
    ids=["additivity-negative-size", "diagonal-seventy-axes", "triangular-seventy-axes"],
)
def test_shape_flags_no_array_can_take_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


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


def test_outputs_are_byte_identical(tmp_path, capsys):
    eps_path = write_levi_civita(tmp_path)
    _, out1, _ = run(capsys, "rank", "-i", eps_path)
    _, out2, _ = run(capsys, "rank", "-i", eps_path)
    assert out1 == out2
    _, add1, _ = run(capsys, "additivity", "--shape", "2,2,2", "--prime", "2", "--trials", "2", "--seed", "3")
    _, add2, _ = run(capsys, "additivity", "--shape", "2,2,2", "--prime", "2", "--trials", "2", "--seed", "3")
    assert add1 == add2
