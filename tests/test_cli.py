import json
import time

import pytest

from superchar import builtin_group, dixon_character_table, enumerate_subgroups, maximal_theory
from superchar import fileio
from superchar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_check_builtin(capsys):
    code, out, _ = run(capsys, "group", "check", "--builtin", "s3")
    assert code == 0
    assert "order 6" in out


def test_group_check_rejects_bad_cayley(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "group/v1", "name": "X", "cayley": [[0, 1], [1, 1]]}))
    code, out, _ = run(capsys, "group", "check", "--group", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and "reason" in payload["witness"]


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "group", "check", "--builtin", "z9")
    assert code == 2
    code, _, err = run(capsys, "group", "info")  # neither --group nor --builtin
    assert code == 2
    garbled = tmp_path / "g.json"
    garbled.write_text("{")
    code, _, err = run(capsys, "table", "compute", "--group", str(garbled))
    assert code == 2
    code, out, err = run(capsys, "table", "compute", "--builtin", "d2", "--prime", "3")
    assert code == 2 and out == ""
    assert err == "error: 3 is not greater than 2*sqrt(4)\n"


def test_group_info_lists_subgroups(capsys):
    code, out, _ = run(capsys, "group", "info", "--builtin", "s3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert len(payload["subgroups"]) == 6


def test_table_compute_and_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "tab.json"
    code, out, _ = run(
        capsys, "table", "compute", "--builtin", "s4", "--output", str(path)
    )
    assert code == 0 and "degrees: 1 1 2 3 3" in out
    code, out, _ = run(
        capsys, "table", "verify", "--builtin", "s4", "--table", str(path)
    )
    assert code == 0


def test_table_verify_failure_has_witness(capsys, tmp_path):
    table = dixon_character_table(builtin_group("s3"))
    obj = fileio.table_to_obj(table)
    obj["rows"][2][1]["coeffs"][0][0] += 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(
        capsys, "table", "verify", "--builtin", "s3", "--table", str(path), "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["witness"]


def test_sct_enumerate_counts(capsys):
    code, out, _ = run(capsys, "sct", "enumerate", "--builtin", "c5", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_sct_verify_accepts_and_rejects(capsys, tmp_path):
    table = dixon_character_table(builtin_group("c3"))
    good = tmp_path / "good.json"
    fileio.save_theory(maximal_theory(table), good)
    code, out, _ = run(capsys, "sct", "verify", "--builtin", "c3", "--theory", str(good))
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "schema": "sct/v1",
                "irr_partition": [[1], [0, 2]],
                "class_partition": [[0], [1, 2]],
            }
        )
    )
    code, out, _ = run(
        capsys, "sct", "verify", "--builtin", "c3", "--theory", str(bad), "--format", "json"
    )
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness["condition"] == 3
    assert witness["x_block"] == [0, 2] and witness["k_block"] == [1, 2]


def test_sct_compat_exit_codes(capsys):
    code, _, _ = run(
        capsys, "sct", "compat", "--builtin", "s3", "--subgroup", "A3"
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "sct", "compat", "--builtin", "d4", "--subgroup", "#7",
        "--sub-theory", "maximal", "--format", "json",
    )
    # subgroup #7 is the cyclic C4 inside D4: maximal theory is incompatible
    payload = json.loads(out)
    if payload["ok"]:
        pytest.skip("subgroup #7 is not the cyclic C4 on this ordering")
    assert code == 1 and "element" in payload["witness"]


def test_sind_values(capsys):
    code, out, _ = run(
        capsys, "sind", "--builtin", "s3", "--subgroup", "0,3,4", "--values", "1,1,1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["values"] == {"K0": "2", "K1": "0", "K2": "2"}


def test_family_check(capsys):
    code, out, _ = run(
        capsys, "family", "check", "--builtin", "s3", "--family", "maximal", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["label"] == "maximal"


def test_nsys_build_and_theta(capsys, tmp_path):
    path = tmp_path / "ns.json"
    code, out, _ = run(
        capsys, "nsys", "build", "--builtin", "s3", "--family", "classical",
        "--base", "1,1,1", "--output", str(path), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["theta"] == {"K0": "3", "K1": "0", "K2": "3/2"}
    code, out, _ = run(
        capsys, "nsys", "theta", "--builtin", "s3", "--family", "classical",
        "--nsys", str(path), "--subgroup", "A3", "--format", "json",
    )
    assert code == 0
    assert "theta" in json.loads(out)


def test_nsys_verify_theorems(capsys):
    common = ["--builtin", "s3", "--family", "classical", "--base", "1,0,2"]
    for theorem in ("artin-takagi", "ach3"):
        code, _, _ = run(capsys, "nsys", "verify", "--theorem", theorem, *common)
        assert code == 0
    code, _, _ = run(
        capsys, "nsys", "verify", "--theorem", "heilbronn-stark", *common, "--subgroup", "A3"
    )
    assert code == 0
    code, _, _ = run(capsys, "nsys", "verify", "--theorem", "heilbronn-stark", *common)
    assert code == 0  # all subgroups
    code, _, _ = run(
        capsys, "nsys", "verify", "--theorem", "uvdw", *common, "--subgroup", "trivial"
    )
    assert code == 0


def test_nsys_verify_failure_exit_1(capsys):
    code, out, _ = run(
        capsys, "nsys", "verify", "--theorem", "ach3", "--builtin", "s3",
        "--family", "classical", "--base", "0,-1,0", "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["witness"]


def test_uvdw_find_and_verify_via_file(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "uvdw", "find", "--builtin", "s3", "--subgroup", "trivial",
        "--output", str(cert), "--format", "json",
    )
    assert code == 0 and json.loads(out)["found"]
    code, _, _ = run(
        capsys, "nsys", "verify", "--theorem", "uvdw", "--builtin", "s3",
        "--family", "classical", "--base", "2,1,3", "--cert", str(cert),
    )
    assert code == 0


@pytest.mark.parametrize(
    "blocks,message",
    [([], "certificate term with no supercharacter blocks"), (["X99"], "block index 99 out of range for term")],
    ids=["no-blocks", "block-out-of-range"],
)
def test_nsys_verify_invalid_certificate_exits_2(capsys, tmp_path, blocks, message):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(
        {"schema": "uvdw/v1", "H": [0], "terms": [{"Hi": [0, 1], "sigma_blocks": blocks}]}
    ))
    code, out, err = run(
        capsys, "nsys", "verify", "--theorem", "uvdw", "--builtin", "s3",
        "--base", "1,1,1", "--cert", str(cert),
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


SCT = {"schema": "sct/v1", "irr_partition": [[0], [1, 2]], "class_partition": [[0], [1, 2]]}
UVDW_VERIFY = ["nsys", "verify", "--theorem", "uvdw", "--builtin", "s3", "--base", "1,1,1", "--cert"]
# (id, argv, file written and appended to argv, or None)
MALFORMED = [
    ("sind-element-99", ["sind", "--builtin", "s3", "--subgroup", "0,99", "--values", "1,1"], None),
    ("uvdw-find-element-7", ["uvdw", "find", "--builtin", "s3", "--subgroup", "0,7"], None),
    ("family-subgroup-float", ["family", "check", "--builtin", "s3", "--family"],
     {"schema": "family/v1", "entries": [{"subgroup": [0, 1.5], "theory": SCT}]}),
    *[
        (f"sct-{key}-{name}", ["sct", "verify", "--builtin", "c3", "--theory"], dict(SCT, **{key: bad}))
        for key in ("irr_partition", "class_partition")
        for name, bad in (("str", [[0], ["a", 1, 2]]), ("nested", [[0], [1, [2]]]), ("int", 5))
    ],
    ("uvdw-H-int", UVDW_VERIFY, {"schema": "uvdw/v1", "H": 5, "terms": []}),
    ("uvdw-terms-int", UVDW_VERIFY, {"schema": "uvdw/v1", "H": [0], "terms": 5}),
    ("group-cayley-str", ["group", "check", "--group"],
     {"schema": "group/v1", "cayley": [[0, 1], [1, "a"]]}),
    ("group-generators-str", ["group", "check", "--group"],
     {"schema": "group/v1", "degree": 3, "generators": [[1, 2, "x"]]}),
    ("nsys-base-bool", ["nsys", "build", "--builtin", "s3", "--nsys"],
     {"schema": "nsys/v1", "base": {"X0": True, "X1": 1, "X2": 1}}),
]


@pytest.mark.parametrize("argv,obj", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_2_without_traceback(capsys, tmp_path, argv, obj):
    if obj is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,obj",
    [
        (["sct", "verify", "--builtin", "c3", "--theory"], dict(SCT, class_partition=[[0], [1]])),
        (["group", "check", "--group"], {"schema": "group/v1", "degree": 3, "generators": [[1, 2, 2]]}),
    ],
    ids=["sct-not-a-partition", "group-not-a-permutation"],
)
def test_well_typed_invalid_input_stays_verified_false(capsys, tmp_path, argv, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, _, _ = run(capsys, *argv, str(path))
    assert code == 1


def test_uvdw_find_budget_exhausted(capsys):
    code, out, _ = run(
        capsys, "uvdw", "find", "--builtin", "s4", "--subgroup", "trivial",
        "--budget", "2", "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload == {"exhausted": True, "found": False, "nodes": payload["nodes"]}


def test_structured_output_is_byte_stable(capsys):
    outs = set()
    for _ in range(3):
        code, out, _ = run(
            capsys, "table", "compute", "--builtin", "d4", "--format", "json"
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_max_order_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCHAR_MAX_ORDER", "5")
    code, _, err = run(capsys, "group", "check", "--builtin", "s3")
    assert code == 2
    assert "exceeds cap" in err


def test_order_cap_is_checked_before_the_group_is_built(capsys, monkeypatch):
    def build(spec):
        raise AssertionError(f"{spec} was built")

    monkeypatch.setattr("superchar.cli.builtin_group", build)
    monkeypatch.delenv("SUPERCHAR_MAX_ORDER", raising=False)
    for spec in ("s6", "a7"):
        code, out, err = run(capsys, "group", "check", "--builtin", spec)
        assert code == 2 and out == ""
        assert "exceeds cap" in err


def test_max_order_reaches_the_subgroup_lattice(capsys, monkeypatch):
    import superchar.cli as cli

    seen = []

    def lattice(G, max_order):
        seen.append((G.order, max_order))
        return enumerate_subgroups(G, max_order=max_order) if G.order <= 24 else ()

    monkeypatch.setattr(cli, "enumerate_subgroups", lattice)
    code, _, _ = run(capsys, "group", "info", "--builtin", "d101", "--max-order", "300")
    assert code == 0
    code, _, _ = run(
        capsys, "sct", "compat", "--builtin", "s3", "--subgroup", "#1", "--max-order", "6"
    )
    assert code == 0
    code, _, _ = run(capsys, "family", "check", "--builtin", "s4", "--max-order", "30")
    assert code == 0
    assert seen == [(202, 300), (6, 6), (24, 30)]


def test_factorial_orders_are_capped_without_being_multiplied_out(capsys, monkeypatch):
    monkeypatch.delenv("SUPERCHAR_MAX_ORDER", raising=False)
    start = time.perf_counter()
    for spec in ("s2000", "a1000000"):
        code, out, err = run(capsys, "group", "check", "--builtin", spec)
        assert code == 2 and out == ""
        assert "exceeds cap" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "compute", "--builtin", "s3"],
        ["family", "check", "--builtin", "s3"],
        ["nsys", "build", "--builtin", "s3", "--base", "1,1,1"],
        ["uvdw", "find", "--builtin", "s3", "--subgroup", "trivial"],
    ],
    ids=["table-compute", "family-check", "nsys-build", "uvdw-find"],
)
def test_output_write_failure_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err


def test_order_cap_is_checked_before_a_group_file_is_validated(capsys, tmp_path, monkeypatch):
    import superchar.fileio
    import superchar.groups

    validated = []

    def spy(table, name="G"):
        validated.append(len(table))
        raise AssertionError("table was validated")

    monkeypatch.setattr(superchar.fileio, "group_from_cayley", spy)
    monkeypatch.setattr(superchar.groups, "group_from_cayley", spy)
    monkeypatch.delenv("SUPERCHAR_MAX_ORDER", raising=False)
    cayley = tmp_path / "c201.json"
    table = [[(i + j) % 201 for j in range(201)] for i in range(201)]
    cayley.write_text(json.dumps({"schema": "group/v1", "name": "C201", "cayley": table}))
    code, out, err = run(capsys, "group", "check", "--group", str(cayley))
    assert code == 2 and out == "" and "exceeds cap" in err
    # C2 wr C4 has order 64: generated past a cap of 50, never tabulated
    gens = tmp_path / "wreath.json"
    wreath = [[1, 0, 2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 0, 1]]
    gens.write_text(json.dumps({"schema": "group/v1", "degree": 8, "generators": wreath}))
    code, out, err = run(capsys, "group", "check", "--group", str(gens), "--max-order", "50")
    assert code == 2 and out == "" and "exceeded cap 50" in err
    assert validated == []
