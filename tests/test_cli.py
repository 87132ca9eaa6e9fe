import json
import os
import subprocess
import sys

import pytest

from staircase import cli
from staircase.cli import main, run

import corpus


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def ideal_file(tmp_path):
    return write(tmp_path, "i.json", {"vars": 2, "gens": [[2, 0], [1, 1]]})


@pytest.fixture
def matrix_file(tmp_path):
    return write(tmp_path, "m.json", {"rows": 1, "cols": 2, "entries": [[1, 1]]})


def test_ideal_default_payload(ideal_file):
    report = run(["ideal", "-I", ideal_file])
    assert report.command == "ideal"
    assert report.status is None
    assert report.payload["ideal"] == {"vars": 2, "gens": [[1, 1], [2, 0]]}
    assert report.payload["is_artinian"] is False


def test_ideal_ops(tmp_path, ideal_file):
    other = write(tmp_path, "j.json", {"vars": 2, "gens": [[1, 0]]})
    assert run(["ideal", "-I", other, "--contains", ideal_file]).payload == {
        "contains": True
    }
    assert run(["ideal", "-I", ideal_file, "--quotient", "1,0"]).payload == {
        "vars": 2,
        "gens": [[0, 1], [1, 0]],
    }
    assert run(["ideal", "-I", ideal_file, "--member", "2,1"]).payload == {"member": True}
    std = run(["ideal", "-I", ideal_file, "--standard-up-to", "2"]).payload["standard"]
    assert [0, 2] in std and [2, 0] not in std


def test_ideal_vector_of_wrong_length_names_flag_and_ideal(ideal_file, capsys):
    cases = [
        ("--quotient", "1,0,0", "--quotient: (1, 0, 0) has length 3"),
        ("--member", "1", "--member: (1,) has length 1"),
    ]
    for flag, text, message in cases:
        assert main(["ideal", "-I", ideal_file, flag, text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"{message}, the ideal has 2 variables" in err


def test_vector_of_wrong_length_names_its_flag(tmp_path, capsys):
    two_rows = write(tmp_path, "a.json", {"rows": 2, "cols": 3, "entries": [[1, 1, 1], [0, 1, 2]]})
    cases = [
        (["fiber", "-A", two_rows, "-b", "1"], "-b: (1,) has length 1, the matrix has 2 rows"),
        (
            ["lift", "-G", two_rows, "--degree", "1,1", "--degree", "1", "--bound", "2"],
            "--degree: (1,) has length 1, the matrix has 2 rows",
        ),
        (
            ["sagbi", "-A", two_rows, "--coeffs", "1,2", "--bound", "2"],
            "--coeffs: (1, 2) has length 2, the matrix has 3 columns",
        ),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"error: {message}\n" == err


def test_vector_with_negative_entry_names_its_flag(ideal_file, matrix_file, capsys):
    cases = [
        (["ideal", "-I", ideal_file, "--quotient", "0,-2"], "--quotient: (0, -2)"),
        (["ideal", "-I", ideal_file, "--member", "1,-1"], "--member: (1, -1)"),
        (["ideal", "-I", ideal_file, "--member", "-1,0"], "--member: (-1, 0)"),
        (["fiber", "-A", matrix_file, "-b", "-1"], "-b: (-1,)"),
        (["lift", "-G", matrix_file, "--degree", "-3", "--bound", "2"], "--degree: (-3,)"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"error: {message} has a negative entry\n" == err
    # coefficients may be negative
    assert run(["sagbi", "-A", matrix_file, "--coeffs=-2,3", "--bound", "2"]).payload == [[1, [1]]]
    assert run(["sagbi", "-A", matrix_file, "--coeffs", "-2,3", "--bound", "2"]).payload == [[1, [1]]]


def test_file_of_another_ring_names_its_flag(tmp_path, ideal_file, matrix_file, capsys):
    three = write(tmp_path, "i3.json", {"vars": 3, "gens": [[1, 0, 0]]})
    grading = write(tmp_path, "a3.json", {"rows": 1, "cols": 3, "entries": [[1, 1, 1]]})
    cases = [
        *(
            (["ideal", "-I", ideal_file, flag, three], f"{flag}: {three} has 3 variables, the ideal has 2 variables")
            for flag in ("--contains", "--intersect", "--sum")
        ),
        (
            ["atomic-scan", "-A", matrix_file, "--bound", "3", "--mode", "lattice", "--ideal", three],
            f"--ideal: {three} has 3 variables, the matrix has 2 columns",
        ),
        (
            ["hilbert", "-I", ideal_file, "--table-bound", "2", "--grading", grading],
            f"--grading: {grading} has 3 columns, the ideal has 2 variables",
        ),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"error: {message}\n" == err


def test_bound_flags_name_the_flag(ideal_file, matrix_file, capsys):
    # (arguments before the bound flag, the flag, its least value)
    cases = [
        (["hilbert", "-I", ideal_file], "--table-bound", 0),
        (["ideal", "-I", ideal_file], "--standard-up-to", 0),
        (["vertex-ideal", "-A", matrix_file], "--bound", 0),
        (["lift", "-G", matrix_file, "--degree", "1"], "--bound", 0),
        (["atomic-scan", "-A", matrix_file], "--bound", 1),
        (["sagbi", "-A", matrix_file, "--coeffs", "1,1"], "--bound", 1),
        (["posetx"], "--check-antichain", 2),
    ]
    for argv, flag, least in cases:
        for value in (least - 1, -4):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, str(value)])
            assert exc.value.code == 2, (argv, value)
            out, err = capsys.readouterr()
            assert out == "" and "Traceback" not in err
            assert f"argument {flag}: must be at least {least}, got {value}" in err
        assert main([*argv, flag, str(least)]) in (0, 1), argv
        capsys.readouterr()


def test_family_member_errors_name_the_member(tmp_path, capsys):
    bad_gens = [{"vars": 2, "gens": [[1, 0]]}, {"vars": 2, "gens": [[0, 1]]}, {"vars": 2, "gens": 5}]
    mixed = [{"vars": 2, "gens": [[1, 0]]}, {"vars": 3, "gens": [[0, 1, 0]]}]
    cases = [
        (bad_gens, 'member 2: "gens" must be a list of lists, got 5'),
        (mixed, "member 1 has 3 variables, member 0 has 2"),
    ]
    for payload, message in cases:
        fam = write(tmp_path, "fam.json", payload)
        assert main(["chain", "-F", fam]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert message in err


def test_vector_with_empty_field_exits_2(ideal_file, matrix_file, capsys):
    cases = [
        (["ideal", "-I", ideal_file, "--member"], "1,,2"),
        (["ideal", "-I", ideal_file, "--quotient"], ",1,0"),
        (["fiber", "-A", matrix_file, "-b"], "3,"),
    ]
    for argv, text in cases:
        assert main([*argv, text]) == 2, text
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"{argv[-1]}: expected comma-separated integers, got {text!r}" in err
    # spaces around the fields stay allowed
    assert run(["ideal", "-I", ideal_file, "--member", " 2, 1 "]).payload == {"member": True}


def test_decompose_payloads(ideal_file):
    primary = run(["decompose", "-I", ideal_file]).payload
    assert primary == [
        {"gens": [[1, 0]], "tau": [1]},
        {"gens": [[0, 1], [2, 0]], "tau": []},
    ]
    irr = run(["decompose", "-I", ideal_file, "--irreducible"]).payload
    assert {"gens": [[1, 0]], "vars": 2} in irr
    primes = run(["decompose", "-I", ideal_file, "--primes"]).payload
    assert primes == [{"tau": [1]}, {"tau": []}]


def test_hilbert_payload(ideal_file):
    payload = run(["hilbert", "-I", ideal_file, "--table-bound", "2"]).payload
    assert [[0, 0], 1] in payload["numerator"]
    assert [[2, 1], 1] in payload["numerator"]
    table = dict((tuple(b), n) for b, n in payload["table"])
    assert table[(0, 0)] == 1 and table[(1, 1)] == 0 and table[(0, 2)] == 1


def test_antichain_pass_and_fail(tmp_path):
    good = write(
        tmp_path, "good.json", [{"vars": 2, "gens": [[a, 0], [0, 6 - a]]} for a in (1, 2, 3)]
    )
    bad = write(
        tmp_path, "bad.json", [{"vars": 2, "gens": [[1, 0]]}, {"vars": 2, "gens": [[2, 0]]}]
    )
    ok = run(["antichain", "-F", good])
    assert ok.status == "pass" and ok.payload["is_antichain"] is True
    fail = run(["antichain", "-F", bad])
    assert fail.status == "fail" and fail.payload["witness"] == [1, 0]
    assert main(["antichain", "-F", good]) == 0
    assert main(["antichain", "-F", bad]) == 1


def test_chain_modes(tmp_path):
    fam = write(
        tmp_path,
        "fam.json",
        [
            {"vars": 2, "gens": [[1, 0], [0, 1]]},
            {"vars": 2, "gens": [[2, 0], [0, 1]]},
            {"vars": 2, "gens": [[2, 0], [0, 2]]},
        ],
    )
    payload = run(["chain", "-F", fam]).payload
    assert payload == {"chain": [0, 1, 2], "length": 3}
    pivot = write(tmp_path, "pivot.json", {"vars": 2, "gens": [[2, 0], [0, 1]]})
    refined = run(["chain", "-F", fam, "--refine", pivot]).payload
    assert refined == {"blocks": [[0], [1, 2]]}
    grouped = run(["chain", "-F", fam, "--group-primes"]).payload
    assert grouped == {"blocks": [[0, 1, 2]]}


def test_chain_refine_pivot_from_another_ring_exits_2(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", [{"vars": 2, "gens": [[1, 0]]}])
    pivot = write(tmp_path, "pivot.json", {"vars": 3, "gens": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    assert main(["chain", "-F", fam, "--refine", pivot]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "pivot has 3 variables, family members have 2" in err


def test_chain_refine_error_names_flag_and_pivot_file(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", [{"vars": 2, "gens": [[1, 0]]}])
    other_ring = write(tmp_path, "pivot3.json", {"vars": 3, "gens": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    not_artinian = write(tmp_path, "pivot2.json", {"vars": 2, "gens": [[1, 0]]})
    cases = [
        (other_ring, "pivot has 3 variables, family members have 2"),
        (not_artinian, "pivot must be artinian (finite standard set)"),
    ]
    for pivot, message in cases:
        assert main(["chain", "-F", fam, "--refine", pivot]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --refine: {pivot}: {message}\n"


def test_rejected_ideal_or_family_names_the_file(tmp_path, capsys):
    zero = write(tmp_path, "zero.json", {"vars": 2, "gens": []})
    g21 = write(tmp_path, "g21.json", {"vars": 2, "gens": [[k, 20 - k] for k in range(21)]})
    fam = write(tmp_path, "fam.json", [{"vars": 2, "gens": [[1, 0]]}, {"vars": 2, "gens": []}])
    line = write(tmp_path, "line.json", {"vars": 2, "gens": [[1, 1]]})
    cases = [
        (["decompose", "-I", zero], zero, "zero ideal does not decompose"),
        (["decompose", "-I", zero, "--irreducible"], zero, "zero ideal does not decompose"),
        (["decompose", "-I", zero, "--primes"], zero, "zero ideal does not decompose"),
        (["hilbert", "-I", g21], g21, "21 generators exceed the 20-generator expansion limit"),
        (["chain", "-F", fam, "--group-primes"], fam, "member 1 is degenerate (zero or unit ideal)"),
        (
            ["young", "--to-order-ideal", line],
            line,
            "ideal must be artinian (else the complement is infinite)",
        ),
    ]
    for argv, path, message in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: {message}\n"


def test_hilbert_grading_without_table_bound_exits_2(tmp_path, ideal_file, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["hilbert", "-I", ideal_file, "--grading", missing]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "--grading" in err and "--table-bound" in err


def test_fiber_payload(matrix_file):
    payload = run(["fiber", "-A", matrix_file, "-b", "3"]).payload
    assert payload["points"] == [[0, 3], [1, 2], [2, 1], [3, 0]]
    assert payload["vertices"] == [[0, 3], [3, 0]]


def test_fiber_outside_na_exits_2(tmp_path, capsys):
    g = write(tmp_path, "g.json", {"rows": 1, "cols": 2, "entries": [[2, 3]]})
    assert main(["fiber", "-A", g, "-b", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty fiber over (1,)" in captured.err
    assert "Traceback" not in captured.err


def test_atomic_scan_payload(matrix_file):
    assert run(["atomic-scan", "-A", matrix_file, "--bound", "5"]).payload == [[1]]
    assert (
        run(["atomic-scan", "-A", matrix_file, "--bound", "5", "--mode", "lattice"]).payload
        == [[1]]
    )


def test_atomic_scan_lattice_with_ideal_skips_empty_fibers(tmp_path):
    identity = write(tmp_path, "id.json", {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]})
    x0 = write(tmp_path, "x0.json", {"vars": 2, "gens": [[1, 0]]})
    report = run(["atomic-scan", "-A", identity, "--bound", "3", "--mode", "lattice", "--ideal", x0])
    assert report.payload == [[0, 1]]
    assert main(["atomic-scan", "-A", identity, "--bound", "3", "--mode", "lattice", "--ideal", x0]) == 0


def test_atomic_scan_rejects_ideal_in_vertex_mode(matrix_file, tmp_path):
    zero = write(tmp_path, "zero.json", {"vars": 2, "gens": []})
    assert main(["atomic-scan", "-A", matrix_file, "--bound", "3", "--ideal", zero]) == 2


def test_sagbi_payload(matrix_file):
    assert run(["sagbi", "-A", matrix_file, "--coeffs", "2,3", "--bound", "5"]).payload == [
        [1, [1]]
    ]


def test_vertex_ideal_payload(matrix_file):
    payload = run(["vertex-ideal", "-A", matrix_file, "--bound", "3"]).payload
    assert payload["gens"] == {"vars": 2, "gens": [[1, 1]]}
    assert [0, 0] in payload["standard"]


def test_lift_payload(tmp_path):
    g = write(tmp_path, "g.json", {"rows": 1, "cols": 2, "entries": [[2, 3]]})
    payload = run(["lift", "-G", g, "--degree", "2", "--bound", "3"]).payload
    assert payload == {"vars": 2, "gens": [[0, 2], [1, 0]]}


def test_posetx_checks():
    ok = run(["posetx", "--check-antichain", "12"])
    assert ok.status == "pass" and ok.payload["ok"] is True
    bound = run(["posetx", "--chain-bound", "6"])
    assert bound.status == "pass" and bound.payload["violations"] == []
    deep = run(["posetx", "--chain-bound", "1200"])
    assert deep.status == "pass" and deep.payload["ok"] is True


def test_posetx_rejects_chain_bound_below_1(capsys):
    for bound in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["posetx", "--chain-bound", bound])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--chain-bound: must be at least 1" in err


def test_young_directions(tmp_path):
    oi = write(tmp_path, "oi.json", {"vars": 2, "points": [[0, 0], [1, 0], [0, 1]]})
    assert run(["young", "--to-ideal", oi]).payload == {
        "vars": 2,
        "gens": [[0, 2], [1, 1], [2, 0]],
    }
    art = write(tmp_path, "art.json", {"vars": 2, "gens": [[2, 0], [1, 1], [0, 2]]})
    assert run(["young", "--to-order-ideal", art]).payload == {
        "vars": 2,
        "points": [[0, 0], [0, 1], [1, 0]],
    }


def test_example35_passes():
    report = run(["example35"])
    assert report.status == "pass"
    assert report.payload["witness"] == [1, 1, 4, 2, 2, 2]
    assert report.payload["minkowski_decomposes"] is True
    assert report.payload["is_atomic"] is False
    assert all(report.payload["checks"].values())
    assert main(["example35"]) == 0


def test_exit_codes_and_errors(tmp_path, capsys):
    assert main(["ideal", "-I", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "missing.json" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ideal", "-I", str(bad)]) == 2
    assert "bad.json" in capsys.readouterr().err
    negative = write(tmp_path, "neg.json", {"vars": 2, "gens": [[-1, 0]]})
    assert main(["ideal", "-I", negative]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_deeply_nested_json_exits_2_and_names_the_file(tmp_path, capsys):
    # the JSON decoder recurses once per bracket
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["decompose", "-I", str(deep)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"error: {deep}: JSON nested too deeply" in err


def test_inputs_with_1200_variables_or_columns_need_no_deep_recursion(tmp_path):
    # the enumerators went one recursion level per variable or column
    ideal = write(tmp_path, "wide.json", {"vars": 1200, "gens": [[1] + [0] * 1199]})
    ones = write(tmp_path, "ones.json", {"rows": 1, "cols": 1200, "entries": [[1] * 1200]})
    standard = run(["ideal", "-I", ideal, "--standard-up-to", "0"]).payload["standard"]
    assert standard == [[0] * 1200]
    units = [[int(j == i) for j in range(1200)] for i in reversed(range(1200))]
    payload = run(["fiber", "-A", ones, "-b", "1"]).payload
    assert payload["points"] == payload["vertices"] == units


def test_json_count_fields_reject_bools(tmp_path, capsys):
    cases = [
        ("ideal", "-I", {"vars": True, "gens": [[1]]}, "vars"),
        ("fiber", "-A", {"rows": True, "cols": 2, "entries": [[1, 1]]}, "rows"),
        ("fiber", "-A", {"rows": 1, "cols": True, "entries": [[1]]}, "cols"),
        ("young", "--to-ideal", {"vars": True, "points": [[0]]}, "vars"),
    ]
    for command, flag, payload, field in cases:
        path = write(tmp_path, f"{field}.json", payload)
        extra = ["-b", "1"] if command == "fiber" else []
        assert main([command, flag, path, *extra]) == 2, payload
        err = capsys.readouterr().err
        assert f'"{field}" must be a nonnegative integer, got true' in err
        assert "Traceback" not in err


# (commands reading the file, the rest of its JSON, the field made malformed)
VECTOR_FIELDS = (
    ((["fiber", "-b", "1"], ["atomic-scan", "--bound", "2"]), "-A", {}, "entries"),
    ((["ideal"], ["decompose"]), "-I", {"vars": 2}, "gens"),
    ((["young"],), "--to-ideal", {"vars": 2}, "points"),
)


def _not_vectors(rng):
    """A JSON value that is not a list of lists."""
    scalars = [rng.randint(-3, 9), True, None, "ab", 1.5, {"a": [1]}]
    if rng.random() < 0.4:
        return rng.choice(scalars)
    items = [[rng.randint(0, 3) for _ in range(2)] for _ in range(rng.randint(0, 2))]
    items.insert(rng.randint(0, len(items)), rng.choice(scalars))
    return items


def _bad_vectors(rng):
    """A list of lists whose entries are still malformed."""
    bad = rng.choice([-1, True, None, "ab", 1.5, [1], {"a": 1}])
    items = [[rng.randint(0, 3) for _ in range(2)] for _ in range(rng.randint(1, 3))]
    row = rng.choice(items)
    row[rng.randrange(len(row))] = bad
    return items


def test_malformed_vector_fields_exit_2(tmp_path, capsys):
    rng = corpus.make_rng("cli-malformed")
    for commands, flag, rest, field in VECTOR_FIELDS:
        cases = [(5, True), ([5, 6], True)]
        cases += [(_not_vectors(rng), True) for _ in range(8)]
        cases += [(_bad_vectors(rng), False) for _ in range(8)]
        for value, names_field in cases:
            path = write(tmp_path, "bad.json", {**rest, field: value})
            for command, *extra in commands:
                assert main([command, flag, path, *extra]) == 2, (command, value)
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("error: ") and "Traceback" not in err
                if names_field:
                    assert f'"{field}" must be a list of lists' in err, err


def test_atomic_scan_has_no_workers_flag(matrix_file, capsys):
    # every scan runs one serial loop, with no option to pick another
    with pytest.raises(SystemExit) as exc:
        main(["atomic-scan", "-A", matrix_file, "--bound", "3", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


# (matrix, ideal or None, arguments, stdout): scans whose output is pinned
# byte for byte, that of the ((2, 3, 5, 7),) vertex scan at bound 20 being
# its 68 atomic degrees [2] ... [140]
PINNED_SCANS = [
    (
        {"rows": 2, "cols": 4, "entries": [[1, 1, 1, 1], [0, 1, 2, 3]]},
        None,
        ["--bound", "5", "--mode", "lattice"],
        "[[1, 0], [1, 1], [1, 2], [1, 3], [2, 2], [2, 3], [2, 4], [3, 3], "
        "[3, 4], [3, 5], [3, 6], [4, 4], [4, 6], [4, 8], [5, 6], [5, 9]]",
    ),
    (
        {"rows": 2, "cols": 3, "entries": [[1, 1, 1], [0, 17, 40]]},
        {"vars": 3, "gens": [[0, 2, 1], [1, 0, 2]]},
        ["--bound", "6", "--mode", "lattice"],
        "[[1, 0], [1, 17], [1, 40]]",
    ),
    (
        {"rows": 1, "cols": 4, "entries": [[2, 3, 5, 7]]},
        None,
        ["--bound", "20", "--mode", "vertex"],
        "[[2], [3], [5], [6], [7], [8], [9], [10], [11], [12], [13], [14], [15], "
        "[16], [17], [18], [19], [20], [21], [22], [23], [24], [25], [26], [27], "
        "[28], [30], [32], [33], [34], [35], [36], [37], [38], [39], [40], [42], "
        "[45], [46], [48], [49], [50], [53], [54], [55], [56], [60], [63], [64], "
        "[66], [68], [69], [70], [75], [76], [78], [80], [84], [90], [96], [98], "
        "[105], [108], [110], [120], [126], [138], [140]]",
    ),
]


def test_atomic_scans_print_the_pinned_bytes(tmp_path, capsys):
    for entries, ideal, argv, expected in PINNED_SCANS:
        extra = ["--ideal", write(tmp_path, "M.json", ideal)] if ideal else []
        assert main(["atomic-scan", "-A", write(tmp_path, "A.json", entries), *argv, *extra]) == 0
        assert capsys.readouterr().out == expected + "\n", argv


def test_zero_coefficient_names_its_flag_and_vector(matrix_file, capsys):
    assert main(["sagbi", "-A", matrix_file, "--coeffs", "0,3", "--bound", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --coeffs: (0, 3) has a zero entry\n"


def test_stdout_deterministic(matrix_file, capsys):
    main(["fiber", "-A", matrix_file, "-b", "2"])
    first = capsys.readouterr().out
    main(["fiber", "-A", matrix_file, "-b", "2"])
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # stdout is exactly one JSON document


def test_shared_parser_leaks_no_state(tmp_path, ideal_file, capsys, monkeypatch):
    g = write(tmp_path, "g.json", {"rows": 1, "cols": 2, "entries": [[2, 3]]})
    calls = [
        # --degree is action="append" with default=[]: later calls must not see earlier lists
        ["lift", "-G", g, "--degree", "2", "--bound", "4"],
        ["lift", "-G", g, "--degree", "3", "--degree", "5", "--bound", "4"],
        ["lift", "-G", g, "--bound", "4"],
        ["ideal", "-I", ideal_file, "--member", "2,1"],
        ["ideal", "-I", ideal_file],
        ["decompose", "-I", ideal_file, "--irreducible", "--primes"],  # usage error
        ["decompose", "-I", ideal_file],
    ]

    def run_all():
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            seen.append((code, capsys.readouterr().out))
        return seen

    shared = run_all()
    again = run_all()  # a handler that mutated a shared default would show here
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli._build_parser)
    fresh = run_all()
    assert shared == again == fresh
    assert shared[5] == (("SystemExit", 2), "")
    lifts = [json.loads(out) for _, out in shared[:3]]
    assert lifts[0] != lifts[1] and lifts[2] == {"vars": 2, "gens": []}
    assert json.loads(shared[3][1]) == {"member": True}
    assert "ideal" in json.loads(shared[4][1])


def test_cli_import_loads_neither_fractions_nor_decimal():
    # a fresh interpreter, since this test process has imported Fraction itself
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, staircase.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
