import json
from pathlib import Path

import pytest

from flagcodes.cli import (
    EXIT_DECODE_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    main,
)
from conftest import three_flags_f2_7


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_writes_code_file(tmp_path, capsys):
    out = tmp_path / "code.json"
    exit_code, _ = run(
        capsys, "construct", "--p", "2", "--k1", "2", "--r", "1", "--out", str(out)
    )
    assert exit_code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["generators"]) == 9
    assert doc["params"] == {
        "p": 2,
        "m": 1,
        "modulus": [],
        "k1": 2,
        "r": 1,
        "prim_poly": [1, 1, 0, 1],
    }


def test_construct_rejects_bad_r(capsys):
    exit_code, _ = run(capsys, "construct", "--p", "2", "--k1", "2", "--r", "2")
    assert exit_code == EXIT_USAGE


def test_construct_rejects_field_above_the_limit(capsys):
    # The prime p is refused before its trial division, which would run for
    # many seconds.
    for p, m in (("2", "9"), ("1000000000000000003", "1")):
        assert main(["construct", "--p", p, "--m", m, "--k1", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "256" in err
        assert "Traceback" not in err


def test_report_rejects_a_huge_matrix_order_before_factoring(tmp_path, capsys):
    # A bare fixture has no field key, so the header's q names the field.
    levels = ["100000007 1 3\n1 0 0", "100000007 2 3\n1 0 0\n0 1 0"]
    fixture = {"ambient": 3, "flags": [levels]}
    path = tmp_path / "huge_q.json"
    path.write_text(json.dumps(fixture))
    assert main(["report", "--code", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "256" in err
    assert "Traceback" not in err


@pytest.fixture()
def code_file(tmp_path, capsys):
    path = tmp_path / "code221.json"
    exit_code, _ = run(
        capsys, "construct", "--p", "2", "--k1", "2", "--r", "1", "--out", str(path)
    )
    assert exit_code == EXIT_OK
    return path


def test_report(code_file, capsys):
    exit_code, out = run(capsys, "report", "--code", str(code_file))
    assert exit_code == EXIT_OK
    doc = json.loads(out)
    assert doc["d_f"] == 12
    assert doc["classification"] == "ODFC"
    assert doc["projected_cardinalities"] == [9, 9, 9, 9]


# The report JSON of the north-star grid codes, generated with `report` and
# committed, so a change to the pairwise sweep cannot drift silently.
DATA = Path(__file__).parent / "data"
# Name -> (p, m, k1, r), over F_{p^m}.
GRID = {
    "2-3-2": (2, 1, 3, 2),
    "2-4-2": (2, 1, 4, 2),
    "3-3-1": (3, 1, 3, 1),
    "4-3-0": (2, 2, 3, 0),
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_report_on_the_grid_is_pinned(name, tmp_path, capsys):
    p, m, k1, r = GRID[name]
    path = tmp_path / f"code-{name}.json"
    exit_code, _ = run(
        capsys,
        "construct", "--p", str(p), "--m", str(m), "--k1", str(k1), "--r", str(r),
        "--out", str(path),
    )
    assert exit_code == EXIT_OK
    exit_code, out = run(capsys, "report", "--code", str(path))
    assert exit_code == EXIT_OK
    assert out == (DATA / f"report-{name}.json").read_text()


# The (2,1) code over each field whose channel stream is pinned: F_8 by
# x^3 + x + 1, the others by their default modulus.
PINNED_FIELDS = {
    "f2": ("--p", "2"),
    "f4": ("--p", "2", "--m", "2"),
    "f8": ("--p", "2", "--m", "3", "--modulus", "1,1,0,1"),
    "f5": ("--p", "5"),
    "f9": ("--p", "3", "--m", "2"),
}


@pytest.mark.parametrize("name", list(PINNED_FIELDS))
def test_channel_erase_is_pinned(name, tmp_path, capsys):
    # `erase --seed 9` on codeword 7 of the (2,1) code, levels 2..4 cut to a
    # proper subspace, is the committed received file byte for byte: the
    # channel keeps its seeded stream over every characteristic.
    code, received = tmp_path / "code.json", tmp_path / "received.json"
    exit_code, _ = run(
        capsys, "construct", *PINNED_FIELDS[name], "--k1", "2", "--r", "1", "--out", str(code),
    )
    assert exit_code == EXIT_OK
    exit_code, _ = run(
        capsys,
        "erase", "--code", str(code), "--codeword", "7", "--erasures", "1,1,1,2",
        "--seed", "9", "--out", str(received),
    )
    assert exit_code == EXIT_OK
    assert received.read_text() == (DATA / f"received-{name}.json").read_text()


@pytest.mark.parametrize(
    "argv, flag, token",
    [
        (("construct", "--k1", "2", "--modulus", "1,a,1"), "--modulus", "a"),
        (("construct", "--k1", "2", "--prim-poly", "1,x"), "--prim-poly", "x"),
        (("erase", "--codeword", "1", "--erasures", "a,b"), "--erasures", "a"),
    ],
    ids=["modulus", "prim-poly", "erasures"],
)
def test_an_integer_list_error_names_its_flag_and_token(argv, flag, token, tmp_path, capsys):
    # A bad token of a comma-separated flag is a usage error (exit 2) that
    # names the flag and the token, not a bare `int()` message.
    code = tmp_path / "code.json"
    assert main(["construct", "--k1", "2", "--r", "1", "--out", str(code)]) == EXIT_OK
    if argv[0] == "erase":
        argv = (*argv, "--code", str(code))
    capsys.readouterr()
    assert main(list(argv)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {flag}: {token!r} is not an integer\n"


def test_report_example_fixture(tmp_path, capsys):
    from flagcodes.linalg import dump_matrix

    fixture = {
        "ambient": 7,
        "flags": [
            [dump_matrix(sub.basis) for sub in flag.subspaces]
            for flag in three_flags_f2_7()
        ],
    }
    path = tmp_path / "example.json"
    path.write_text(json.dumps(fixture))
    exit_code, out = run(capsys, "report", "--code", str(path))
    assert exit_code == EXIT_OK
    doc = json.loads(out)
    assert doc["d_f"] == 18
    assert doc["projected_cardinalities"] == [2, 3, 3, 3, 3, 2]


def test_report_refuses_a_fixture_over_two_fields(tmp_path, capsys, code_221, code_321):
    # Without a field key each matrix's q names its field: F_2 and F_3 here.
    from flagcodes.linalg import dump_matrix

    fixture = {
        "ambient": 5,
        "flags": [
            [dump_matrix(sub.basis) for sub in flag.subspaces]
            for flag in code_221.flags + code_321.flags
        ],
    }
    path = tmp_path / "two-fields.json"
    path.write_text(json.dumps(fixture))
    assert main(["report", "--code", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "subspaces live in different ambient spaces" in captured.err
    assert "Traceback" not in captured.err


def test_report_fixture_over_non_default_modulus(tmp_path, capsys):
    # Six flags over F_8 built from x^3 + x + 1, not the default x^3 + x^2 + 1
    from flagcodes import classify, code_from_json
    from flagcodes.linalg import dump_matrix

    code_path = tmp_path / "code.json"
    exit_code, _ = run(
        capsys,
        "construct", "--p", "2", "--m", "3", "--modulus", "1,1,0,1",
        "--k1", "2", "--out", str(code_path),
    )
    assert exit_code == EXIT_OK
    code = code_from_json(code_path.read_text())
    flags = code.flags[:6]
    fixture = {
        "ambient": code.ambient,
        "field": code.params.field.spec(),
        "flags": [[dump_matrix(sub.basis) for sub in flag.subspaces] for flag in flags],
    }
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture))
    exit_code, out = run(capsys, "report", "--code", str(path))
    assert exit_code == EXIT_OK
    assert json.loads(out) == classify(list(flags)).to_dict()


def test_verify_passes(code_file, capsys):
    exit_code, out = run(capsys, "verify", "--code", str(code_file))
    assert exit_code == EXIT_OK
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert statuses["spread_maximal"] == "PASS"
    assert all(s in ("PASS", "SKIPPED") for s in statuses.values())


def test_verify_respects_enumeration_cap(code_file, capsys):
    exit_code, out = run(
        capsys, "verify", "--code", str(code_file), "--max-enumeration", "10"
    )
    assert exit_code == EXIT_OK
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert statuses["spread_maximal"] == "SKIPPED"


def test_verify_rejects_a_negative_enumeration_cap(code_file, capsys):
    exit_code = main(["verify", "--code", str(code_file), "--max-enumeration", "-1"])
    captured = capsys.readouterr()
    assert (exit_code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.startswith("error:") and "-1" in captured.err


def test_verify_tampered_file_fails(code_file, tmp_path, capsys):
    doc = json.loads(code_file.read_text())
    lines = doc["generators"][0].splitlines()
    lines[1] = "0 0 0 0 0"  # zero out one generator row
    doc["generators"][0] = "\n".join(lines)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    exit_code, out = run(capsys, "verify", "--code", str(bad))
    assert exit_code == EXIT_VERIFY_FAIL
    [check] = json.loads(out)["checks"]
    assert (check["name"], check["status"]) == ("load", "FAIL")


def test_generators_of_the_wrong_shape_fail_to_load(code_file, tmp_path, capsys):
    # (2,2,1) has n = 5; 4x4 identities once loaded as a code in F^4.
    doc = json.loads(code_file.read_text())
    doc["generators"] = ["2 4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1"] * 9
    bad = tmp_path / "square4.json"
    bad.write_text(json.dumps(doc))
    for command in (["report"], ["simulate", "--trials", "5"]):
        assert main([*command, "--code", str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: generator 1 is 4x4, want 5x5\n"
    exit_code, out = run(capsys, "verify", "--code", str(bad))
    assert exit_code == EXIT_VERIFY_FAIL
    assert json.loads(out) == {
        "checks": [
            {"name": "load", "status": "FAIL", "detail": "generator 1 is 4x4, want 5x5"}
        ]
    }


def test_matrices_that_are_not_text_fail_to_load(code_file, tmp_path, capsys):
    # Generators or shots given as numbers, not matrix text: exit 2 with an
    # error line, and a `load` FAIL from verify.
    doc = json.loads(code_file.read_text())
    doc["generators"] = [1] * len(doc["generators"])
    bad = tmp_path / "numbers.json"
    bad.write_text(json.dumps(doc))
    detail = "malformed code document: generator 1: matrix text must be a string, not int"
    for command in (["report"], ["simulate", "--trials", "5"]):
        assert main([*command, "--code", str(bad)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {detail}\n"
    exit_code, out = run(capsys, "verify", "--code", str(bad))
    assert exit_code == EXIT_VERIFY_FAIL
    assert json.loads(out) == {"checks": [{"name": "load", "status": "FAIL", "detail": detail}]}
    received = tmp_path / "received.json"
    received.write_text(json.dumps({"ambient": 3, "shots": [1, 2]}))
    assert main(["decode", "--code", str(code_file), "--received", str(received)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: malformed received-sequence file: shot 1: matrix text must be a string, not int\n"
    )


@pytest.mark.parametrize(
    "doc, detail",
    [
        ([{"ambient": 5, "shots": []}], "the top level is not a JSON object"),
        ({"ambient": 5, "shots": "abc"}, "shots is not a list"),
    ],
    ids=["top-level-array", "shots-string"],
)
def test_a_malformed_received_file_names_its_problem(code_file, tmp_path, capsys, doc, detail):
    # The error names what is wrong with the document, not a Python
    # TypeError text or the first character of a string read as a matrix.
    received = tmp_path / "received.json"
    received.write_text(json.dumps(doc))
    assert main(["decode", "--code", str(code_file), "--received", str(received)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: malformed received-sequence file: {detail}\n"


@pytest.mark.parametrize(
    "fields, detail",
    [
        ({"generators": "abc"}, "malformed code document: generators is not a list"),
        ({"params": [1]}, "malformed code document: params is not an object"),
        ({"ambient": 3, "flags": "abc"}, "malformed flag fixture {path}: flags is not a list"),
    ],
    ids=["generators-string", "params-array", "flags-string"],
)
def test_a_malformed_code_file_names_its_problem(code_file, tmp_path, capsys, fields, detail):
    # As for a received file: a code file with these fields replaced, or a
    # bare flag fixture of them alone, names the field of the wrong type.
    doc = fields if "flags" in fields else {**json.loads(code_file.read_text()), **fields}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--code", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {detail.format(path=path)}\n"


def test_a_float_parameter_fails_to_load(code_file, tmp_path, capsys):
    # "k1": 2.0 is refused on load: exit 2 with an error line, and a `load`
    # FAIL from verify, never a traceback from deep inside a command.
    doc = json.loads(code_file.read_text())
    doc["params"]["k1"] = 2.0
    bad = tmp_path / "float_k1.json"
    bad.write_text(json.dumps(doc))
    detail = "k1 = 2.0 is not an integer"
    for command in (["report"], ["simulate", "--trials", "5"]):
        assert main([*command, "--code", str(bad)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {detail}\n"
    exit_code, out = run(capsys, "verify", "--code", str(bad))
    assert exit_code == EXIT_VERIFY_FAIL
    assert json.loads(out) == {"checks": [{"name": "load", "status": "FAIL", "detail": detail}]}


@pytest.mark.parametrize(
    "construct, key, value, detail",
    [
        (["--p", "2", "--k1", "2", "--r", "1"], "prim_poly", [1.5, 1, 0, 1],
         "prim_poly coefficient 1.5 is not an integer"),
        (["--p", "2", "--k1", "2", "--r", "1"], "prim_poly", [True, 1, 0, 1],
         "prim_poly coefficient True is not an integer"),
        (["--p", "2", "--m", "2", "--k1", "2"], "modulus", [1.5, 1, 1],
         "modulus coefficient 1.5 is not an integer"),
        (["--p", "2", "--m", "2", "--k1", "2"], "modulus", [1, True, 1],
         "modulus coefficient True is not an integer"),
    ],
    ids=["poly-float", "poly-bool", "modulus-float", "modulus-bool"],
)
def test_a_non_integer_coefficient_fails_to_load(tmp_path, capsys, construct, key, value, detail):
    # Each value would truncate to the coefficients the file was written
    # with, so it is refused as "k1": 2.0 is: exit 2 from report, a `load`
    # FAIL from verify.
    path = tmp_path / "code.json"
    assert run(capsys, "construct", *construct, "--out", str(path))[0] == EXIT_OK
    doc = json.loads(path.read_text())
    doc["params"][key] = value
    path.write_text(json.dumps(doc))
    assert main(["report", "--code", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {detail}\n"
    exit_code, out = run(capsys, "verify", "--code", str(path))
    assert exit_code == EXIT_VERIFY_FAIL
    assert json.loads(out) == {"checks": [{"name": "load", "status": "FAIL", "detail": detail}]}


def test_a_bool_ambient_fails_to_load(code_file, tmp_path, capsys):
    # "ambient": true would otherwise load as ambient 1 with no shots and
    # fail later on the wrong ambient dimension: exit 2 naming the value.
    received = tmp_path / "bool_ambient.json"
    received.write_text(json.dumps({"ambient": True, "shots": []}))
    assert main(["decode", "--code", str(code_file), "--received", str(received)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: ambient True is not an integer\n"


def _with_token(text, token):
    """Matrix text with row 2's first entry written as `token`."""
    lines = text.splitlines()
    lines[2] = " ".join([token, *lines[2].split()[1:]])
    return "\n".join(lines)


@pytest.mark.parametrize("token", ["x", "1.0"])
def test_a_non_integer_entry_fails_to_load(code_file, tmp_path, capsys, token):
    # As an out-of-range entry does: exit 2 with an error line naming the
    # matrix, the row and the token, and a `load` FAIL from verify.
    doc = json.loads(code_file.read_text())
    doc["generators"][3] = _with_token(doc["generators"][3], token)
    bad = tmp_path / "token.json"
    bad.write_text(json.dumps(doc))
    detail = f"malformed code document: generator 4: row 2 has the non-integer entry {token!r}"
    for command in (["report"], ["simulate", "--trials", "5"]):
        assert main([*command, "--code", str(bad)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {detail}\n"
    exit_code, out = run(capsys, "verify", "--code", str(bad))
    assert exit_code == EXIT_VERIFY_FAIL
    assert json.loads(out) == {"checks": [{"name": "load", "status": "FAIL", "detail": detail}]}
    received = tmp_path / "received.json"
    shot = _with_token("2 2 5\n1 0 0 0 0\n0 1 0 0 0", token)
    received.write_text(json.dumps({"ambient": 5, "shots": [shot]}))
    assert main(["decode", "--code", str(code_file), "--received", str(received)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: malformed received-sequence file: shot 1: row 2 has the non-integer entry {token!r}\n"
    )
    fixture = tmp_path / "fixture.json"
    level2 = _with_token("2 2 3\n1 0 0\n0 1 0", token)
    fixture.write_text(json.dumps({"ambient": 3, "flags": [["2 1 3\n1 0 0", level2]]}))
    assert main(["report", "--code", str(fixture)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: flag 1 level 2: row 2 has the non-integer entry {token!r}\n"
    )


def test_verify_load_failure_on_a_bare_fixture(tmp_path, capsys):
    from flagcodes.linalg import dump_matrix

    fixture = {
        "ambient": 7,
        "flags": [
            [dump_matrix(sub.basis) for sub in flag.subspaces]
            for flag in three_flags_f2_7()
        ],
    }
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture))
    exit_code, out = run(capsys, "verify", "--code", str(path))
    assert exit_code == EXIT_VERIFY_FAIL
    assert json.loads(out) == {
        "checks": [
            {
                "name": "load",
                "status": "FAIL",
                "detail": "malformed code document: 'params'",
            }
        ]
    }
    exit_code, out = run(capsys, "verify", "--code", str(path), "--format", "text")
    assert exit_code == EXIT_VERIFY_FAIL
    assert out == "FAIL load: malformed code document: 'params'\n"


def test_bounds_by_parameters(capsys):
    exit_code, out = run(capsys, "bounds", "--p", "2", "--n", "5", "--k", "2")
    assert exit_code == EXIT_OK
    doc = json.loads(out)
    assert (doc["lemma21"], doc["lemma22"], doc["D_n"]) == (10, 9, 12)


def test_bounds_inapplicable_case(capsys):
    exit_code, out = run(capsys, "bounds", "--p", "2", "--n", "8", "--k", "3")
    assert exit_code == EXIT_OK
    doc = json.loads(out)
    assert doc["lemma22"] == "n/a"
    assert doc["lemma21"] == 36


def test_bounds_large_exact(capsys):
    exit_code, out = run(capsys, "bounds", "--p", "2", "--n", "10", "--k", "4")
    assert json.loads(out)["lemma22"] == 65


def test_bounds_refuses_an_n_past_the_digit_limit(capsys, monkeypatch):
    # Refused before any bound is computed, so nothing of size q^n is built.
    import flagcodes.cli as cli

    def never(*args):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(cli, "aq_exact", never)
    monkeypatch.setattr(cli, "partial_spread_bound", never)
    for argv in (("--n", "100000", "--k", "3"), ("--n", "30000000", "--k", "29999999")):
        assert main(["bounds", "--p", "2", *argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"n = {argv[1]}" in err and "q = 2" in err
        assert "Traceback" not in err


def test_bounds_on_code_file(code_file, capsys):
    exit_code, out = run(capsys, "bounds", "--code", str(code_file))
    doc = json.loads(out)
    assert doc["cardinality"] == 9
    assert doc["equality"] is True


def test_erase_decode_round_trip(code_file, tmp_path, capsys):
    received = tmp_path / "received.json"
    exit_code, _ = run(
        capsys,
        "erase", "--code", str(code_file), "--codeword", "3",
        "--erasures", "0,0,0,0", "--seed", "5", "--out", str(received),
    )
    assert exit_code == EXIT_OK
    exit_code, out = run(
        capsys, "decode", "--code", str(code_file), "--received", str(received)
    )
    assert exit_code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "DECODED"
    assert doc["flag_index"] == 3
    assert doc["step"] == 1


def test_erase_decode_round_trip_non_default_modulus(tmp_path, capsys):
    # F_8 built from x^3 + x + 1 rather than the default x^3 + x^2 + 1
    code = tmp_path / "code.json"
    received = tmp_path / "received.json"
    exit_code, _ = run(
        capsys,
        "construct", "--p", "2", "--m", "3", "--modulus", "1,1,0,1",
        "--k1", "2", "--out", str(code),
    )
    assert exit_code == EXIT_OK
    exit_code, _ = run(
        capsys,
        "erase", "--code", str(code), "--codeword", "3",
        "--erasures", "1,0,0", "--out", str(received),
    )
    assert exit_code == EXIT_OK
    exit_code, out = run(
        capsys, "decode", "--code", str(code), "--received", str(received)
    )
    assert exit_code == EXIT_OK
    doc = json.loads(out)
    assert (doc["status"], doc["flag_index"]) == ("DECODED", 3)


def test_decode_rejects_a_received_file_over_another_modulus(tmp_path, capsys):
    # The received file records x^3 + x + 1; the code is over x^3 + x^2 + 1.
    paths = {}
    for modulus in ("1,1,0,1", "1,0,1,1"):
        paths[modulus] = tmp_path / f"code-{modulus}.json"
        run(
            capsys,
            "construct", "--p", "2", "--m", "3", "--modulus", modulus,
            "--k1", "2", "--out", str(paths[modulus]),
        )
    received = tmp_path / "received.json"
    exit_code, _ = run(
        capsys,
        "erase", "--code", str(paths["1,1,0,1"]), "--codeword", "3",
        "--erasures", "1,0,0", "--out", str(received),
    )
    assert exit_code == EXIT_OK
    assert json.loads(received.read_text())["field"] == "2 3 1 1 0 1"
    exit_code = main(["decode", "--code", str(paths["1,0,1,1"]), "--received", str(received)])
    assert exit_code == EXIT_USAGE
    assert "field" in capsys.readouterr().err


def test_decode_failure_exit_code(code_file, tmp_path, capsys):
    received = tmp_path / "received.json"
    run(
        capsys,
        "erase", "--code", str(code_file), "--codeword", "1",
        "--erasures", "1,2,3,4", "--seed", "5", "--out", str(received),
    )
    exit_code, out = run(
        capsys, "decode", "--code", str(code_file), "--received", str(received)
    )
    assert exit_code == EXIT_DECODE_FAIL
    assert json.loads(out)["status"] == "FAILURE"


def test_cli_decode_matches_in_process(code_file, tmp_path, capsys):
    from flagcodes import code_from_json, decode, erase

    code = code_from_json(code_file.read_text())
    received_path = tmp_path / "r.json"
    run(
        capsys,
        "erase", "--code", str(code_file), "--codeword", "7",
        "--erasures", "1,2,0,0", "--seed", "11", "--out", str(received_path),
    )
    exit_code, out = run(
        capsys, "decode", "--code", str(code_file), "--received", str(received_path)
    )
    in_process = decode(code, erase(code.flags[6], [1, 2, 0, 0], seed=11))
    assert json.loads(out) == in_process.to_dict()


def test_simulate(code_file, capsys):
    exit_code, out = run(
        capsys, "simulate", "--code", str(code_file), "--trials", "200", "--seed", "42"
    )
    assert exit_code == EXIT_OK
    doc = json.loads(out)
    assert doc["successes"] == 200
    assert doc["misdecodes"] == 0
    assert doc["seed"] == 42


def test_simulate_rejects_a_negative_budget(code_file, capsys):
    exit_code, out = run(
        capsys, "simulate", "--code", str(code_file), "--trials", "5", "--budget", "-1"
    )
    assert exit_code == EXIT_USAGE
    assert out == ""


@pytest.fixture()
def repeated_flag_file(code_file, tmp_path):
    """The (2,2,1) code file with generator 1 copied over generator 2, so
    that codewords 1 and 2 are the same flag."""
    doc = json.loads(code_file.read_text())
    doc["generators"][1] = doc["generators"][0]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    return path


def test_decode_on_repeated_flags_is_a_usage_error(code_file, repeated_flag_file, tmp_path, capsys):
    received = tmp_path / "received.json"
    run(
        capsys,
        "erase", "--code", str(code_file), "--codeword", "1", "--out", str(received),
    )
    argv = ["decode", "--code", str(repeated_flag_file), "--received", str(received)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step 1: 2 codewords contain the shot-1 subspace\n"


def test_simulate_on_repeated_flags_is_a_usage_error(repeated_flag_file, capsys):
    argv = ["simulate", "--code", str(repeated_flag_file), "--trials", "20"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: step ") and "codewords contain" in captured.err


def test_commands_deterministic(code_file, capsys):
    _, first = run(capsys, "report", "--code", str(code_file))
    _, second = run(capsys, "report", "--code", str(code_file))
    assert first == second


def test_text_format(code_file, capsys):
    exit_code, out = run(
        capsys, "report", "--code", str(code_file), "--format", "text"
    )
    assert exit_code == EXIT_OK
    assert "classification: ODFC" in out


def test_erase_rejects_bad_vector(code_file, capsys):
    exit_code, _ = run(
        capsys,
        "erase", "--code", str(code_file), "--codeword", "1", "--erasures", "9,0,0,0",
    )
    assert exit_code == EXIT_USAGE


@pytest.mark.parametrize("text", ["5", "null", "[]", '"x"'])
def test_report_rejects_a_document_that_is_not_an_object(text, tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    assert main(["report", "--code", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "not a JSON object" in err


NOT_OBJECTS = ["5", "null", "true", "[]", '"x"']


@pytest.mark.parametrize("text", NOT_OBJECTS)
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--trials", "1"],
        ["bounds"],
        ["erase", "--codeword", "1"],
        ["decode", "--received", "unread.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_loading_a_code_that_is_not_an_object_is_a_usage_error(argv, text, tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    assert main([argv[0], "--code", str(path), *argv[1:]]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the top level is not a JSON object\n"


@pytest.mark.parametrize("text", NOT_OBJECTS)
def test_verify_reports_a_code_that_is_not_an_object_as_a_load_failure(text, tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    exit_code, out = run(capsys, "verify", "--code", str(path))
    assert exit_code == EXIT_VERIFY_FAIL
    detail = "the top level is not a JSON object"
    assert json.loads(out) == {"checks": [{"name": "load", "status": "FAIL", "detail": detail}]}
    exit_code, out = run(capsys, "verify", "--code", str(path), "--format", "text")
    assert exit_code == EXIT_VERIFY_FAIL
    assert out == f"FAIL load: {detail}\n"


def test_malformed_code_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}")
    exit_code, _ = run(capsys, "report", "--code", str(bad))
    assert exit_code == EXIT_USAGE
