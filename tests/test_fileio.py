import json

import pytest

from superchar import (
    NSystem,
    SchemaError,
    builtin_group,
    dixon_character_table,
    find_uvdw_certificate,
    group_from_permutations,
    maximal_theory,
)
from superchar.cyclo import Cyclotomic, zeta
from superchar import fileio


def test_canonical_json_is_sorted_and_compact():
    assert fileio.canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_cyclotomic_round_trip():
    for v in (Cyclotomic.rational(0), Cyclotomic.rational(-7), zeta(5), zeta(12) * 3 + 1):
        assert fileio.decode_cyclotomic(fileio.encode_cyclotomic(v)) == v


def test_decode_cyclotomic_rejects_garbage():
    with pytest.raises(SchemaError):
        fileio.decode_cyclotomic({"order": 0, "coeffs": []})
    with pytest.raises(SchemaError):
        fileio.decode_cyclotomic({"order": 3, "coeffs": [[1, 0]]})
    with pytest.raises(SchemaError):
        fileio.decode_cyclotomic({"coeffs": [[1, 1]]})


def test_group_round_trip(tmp_path):
    G = builtin_group("d4")
    path = tmp_path / "d4.json"
    fileio.save_group(G, path)
    H = fileio.load_group(path)
    assert H.mul == G.mul and H.name == G.name
    # byte-stable
    before = path.read_bytes()
    fileio.save_group(G, path)
    assert path.read_bytes() == before


def test_group_from_generators_schema():
    G = fileio.load_group(
        {"schema": "group/v1", "name": "S3", "degree": 3, "generators": [[1, 0, 2], [0, 2, 1]]}
    )
    assert G.order == 6


def test_group_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        fileio.load_group({"schema": "sct/v1"})
    with pytest.raises(SchemaError):
        fileio.load_group({"name": "X"})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SchemaError):
        fileio.load_group(bad)
    with pytest.raises(SchemaError):
        fileio.load_group(tmp_path / "missing.json")


def test_table_round_trip_and_fingerprint(s3, s3_table, tmp_path):
    path = tmp_path / "t.json"
    fileio.save_table(s3_table, path)
    loaded = fileio.load_table(s3, path)
    assert loaded.rows == s3_table.rows
    assert fileio.table_fingerprint(loaded) == fileio.table_fingerprint(s3_table)


def test_load_table_rejects_non_orthogonal(s3, s3_table, tmp_path):
    obj = fileio.table_to_obj(s3_table)
    obj["rows"][1][2]["coeffs"][0][0] += 1
    with pytest.raises(SchemaError):
        fileio.load_table(s3, obj)
    # but decode_table accepts it, for explicit verification flows
    assert fileio.decode_table(s3, obj) is not None


def test_theory_round_trip(s3, s3_table, tmp_path):
    theory = maximal_theory(s3_table)
    path = tmp_path / "th.json"
    fileio.save_theory(theory, path)
    loaded = fileio.load_theory(s3_table, path)
    assert loaded == theory


def test_theory_fingerprint_mismatch(s3_table):
    c4_table = dixon_character_table(builtin_group("c4"))
    obj = fileio.theory_to_obj(maximal_theory(c4_table))
    with pytest.raises(SchemaError):
        fileio.load_theory(s3_table, obj)


def test_family_round_trip(s3, s3_classical, tmp_path):
    path = tmp_path / "fam.json"
    fileio.save_family(s3_classical, path)
    loaded = fileio.load_family(s3, path)
    assert {s.element_set for s in loaded.subgroups} == {
        s.element_set for s in s3_classical.subgroups
    }
    for sub in loaded.subgroups:
        assert loaded.theory_for(sub).class_blocks == s3_classical.theory_for(
            s3_classical.subgroup_by_elements(sub.elements)
        ).class_blocks


def test_nsystem_round_trip(s3_classical, tmp_path):
    ns = NSystem(s3_classical, [1, 0, 2])
    path = tmp_path / "ns.json"
    fileio.save_nsystem(ns, path)
    obj = json.loads(path.read_text())
    assert obj["base"] == {"X0": 1, "X1": 0, "X2": 2}
    loaded = fileio.load_nsystem(s3_classical, path)
    assert loaded.base == ns.base
    assert loaded.theta_top.fn == ns.theta_top.fn


def test_nsystem_schema_errors(s3_classical):
    with pytest.raises(SchemaError):
        fileio.load_nsystem(s3_classical, {"schema": "nsys/v1", "base": {"X0": 1}})
    with pytest.raises(SchemaError):
        fileio.load_nsystem(
            s3_classical,
            {"schema": "nsys/v1", "base": {"X0": 1, "X1": 0, "X2": "2"}},
        )


def test_certificate_round_trip(s3_classical, tmp_path):
    fam = s3_classical
    cert = find_uvdw_certificate(fam, fam.subgroup_by_elements([0])).certificate
    path = tmp_path / "cert.json"
    fileio.save_certificate(cert, path)
    obj = json.loads(path.read_text())
    assert obj["schema"] == "uvdw/v1"
    assert all(b.startswith("X") for t in obj["terms"] for b in t["sigma_blocks"])
    loaded = fileio.load_certificate(fam, path)
    assert loaded.subgroup.element_set == cert.subgroup.element_set
    assert [(hi.elements, b) for hi, b in loaded.terms] == [
        (hi.elements, b) for hi, b in cert.terms
    ]


def _agl1_7():
    # AGL(1, 7): x -> x + 1 and x -> 3x, 3 a primitive root mod 7
    return group_from_permutations(
        7, [[(x + 1) % 7 for x in range(7)], [(3 * x) % 7 for x in range(7)]], name="agl1_7"
    )


@pytest.mark.parametrize(
    "build,fingerprint",
    [
        (lambda: builtin_group("c7"), "7265c48ebcefd1bb"),
        (lambda: builtin_group("q16"), "924006ad23084f4d"),
        (_agl1_7, "0d28983c8dfce2a6"),
        (lambda: builtin_group("d30"), "898e1fce0969c347"),
    ],
    ids=["c7", "q16", "agl1_7", "d30"],
)
def test_pinned_table_fingerprints(build, fingerprint):
    # chartable/v1 bytes must not drift with changes to the arithmetic
    assert fileio.table_fingerprint(dixon_character_table(build())) == fingerprint
