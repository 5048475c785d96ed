"""Golden CLI output: the exit code and the sha256 of stdout of every
subcommand, in ``--format text`` and ``--format json``.

The cases cover every subcommand, every exit-1 refusal (a witness on
stdout) and the exit-2 paths (nothing on stdout).  Groups stay at order
24 or below so the whole table runs in a few seconds.
"""

import hashlib
import json

import pytest

from superchar import (
    NSystem,
    builtin_group,
    dixon_character_table,
    enumerate_subgroups,
    find_uvdw_certificate,
    fileio,
    make_family,
    maximal_theory,
)
from superchar.cli import main

# (argv, exit code, sha256 of text stdout, sha256 of json stdout); "{d}" is
# the directory of the input files the fixture writes
CASES = (
    # group
    ("group check --builtin s4", 0,
     "62fb13315b24e7c1d60c56fbd1d249a1b10b8d0a676875db79a05b4a373ba443",
     "c55f474e316994b5ac022e0fd1b1344399ba69ed6d97a4845bcba7658f8cfbc7"),
    ("group check --group {d}/s3.group.json", 0,
     "c45a053d7a5b503956b371e001b6a34685e1ba73e6b1a143cacc44ee7d9bd688",
     "62cd890f9d9b548b4cbc6cadf526166fa2ee2d9313c62e9ba8982f237531e180"),
    ("group check --group {d}/bad.group.json", 1,
     "a106dc11d7fbad0c6f8a58bcfb81fa6f9820a0f9fcb57bfb09f2fbddc5250f1a",
     "9061e6f23a0b899f29626bdacebeb34010bdac34de28ff64294c458ec69a8cfd"),
    ("group check --builtin c0", 1,
     "0fc63044e9678623b5babe635b7ca9e18712985ba3d88a1e5999090f4fc467fe",
     "12dd39e3b07981fde2b5b87a088d7902d37f878f11325df75c660c5f30bd34a5"),
    ("group info --builtin s3", 0,
     "9542cf8a89c73a655c263e9f9d0bed74c0392208ef17679b189af8f805cf6cf0",
     "b9bd8671f6b8fe76109213c1dc7f38820c097b9107e0d0bd621205e3dbb1a310"),
    ("group info --builtin q8 --max-order 8", 0,
     "67e17735926b4c766e3920f31a0f4575662c053a9fa747539db6eb29506a677a",
     "a8476231ec01b53cdbf30dfc65fbe510adb4db5b04271e95267c0031f6ca407f"),
    # table
    ("table compute --builtin s4", 0,
     "a86f84292c55b516330aac65270724585ef7cefc9158fb22185a271e6382c18f",
     "62b4bc92851ce08443999eef762e27e71ba49731924fe21616cbae98895ae7bc"),
    ("table compute --builtin d5 --seed 3 --output {d}/out.table.json", 0,
     "da6aba484453279a62a75b70b48104081ca61993693c7d7a8c112aed8d579c0d",
     "a3f6936a619aa3d85c89954e3316a3e75fdd37860a0012cfe6c3234d71796d14"),
    ("table verify --builtin s3 --table {d}/s3.table.json", 0,
     "8ae891eddc79044683cbb7ace48109323d3f2f1c39c2fdd5dbbbb9057a063948",
     "3cebcb8f89197c132003d046ab2235d4ed46e764ef3f667a8544c6da2ee17490"),
    ("table verify --builtin s3 --table {d}/bad.table.json", 1,
     "7ace9ab1a62461226fc8feb6fe65b89f5b293c3b30cb1b58f49751a3a172a658",
     "00e4705e6747ecbdd75c88b2dee9dee8efd1ca11ab0c2637ad8b58b80eae4d91"),
    # sct
    ("sct verify --builtin c3 --theory {d}/c3-max.sct.json", 0,
     "cd25f97ef3ccf98f054d666ccdf19e2cab71a7476c882e712ca674dc0b1af6d8",
     "1de34d0a1c26ca937e7fe49f2fc6fe62c9e71b060d60606582a27382ac9747d9"),
    ("sct verify --builtin c3 --theory {d}/c3-bad.sct.json", 1,
     "bfa80227dde0a9eabbc6963e5245faa114706e8f88443558fdc0bd334977fff7",
     "e595cbc5629273c03116292e2a3110f8127f28417f23ce9bf0191521d11b4a26"),
    ("sct verify --builtin c3 --theory {d}/notpart.sct.json", 1,
     "d03a9b645586f2fe4e3f7962c4e6ce8c972cb7461449f155d010d1e8f96176eb",
     "34ddd343fecfc37a95c64ce796c22967d574e284de1293849e0b81e1ade897c0"),
    ("sct enumerate --builtin c5", 0,
     "33531166de9ed57e52f75fe497777fac45a19d66fc1d2260d77d3b832b7cdcad",
     "287765e72b95598c1968c1e4c41bf58f3eed99c534309253a56be98bebae8e28"),
    ("sct enumerate --builtin d4", 0,
     "e85f16b6f7f8e9af28276ab1f310d0bc07771f2348ce5fccb73e70d449d369e2",
     "e034bc3923e27d91d45d900affacf0c765871257157b436414d993fe73f6e268"),
    ("sct compat --builtin s3 --subgroup A3", 0,
     "014bdf88a66a66b2f748ca3c3b15673c4cc956d9fd3c13a3a17dc308c6957ee4",
     "c50269a33a040f687906fc891230154e9033802ccdac51f9cc3bf23d15e6f3c4"),
    ("sct compat --builtin s4 --subgroup derived --theory maximal", 0,
     "adc44bf29635d49aef998a63e097c8f325145c787d222a371f5fe418914d1201",
     "f8652c73565a33f52201e9cdb115f03f7817b57a6774f032928b955df4f33033"),
    ("sct compat --builtin d4 --subgroup #7 --sub-theory maximal", 1,
     "0793432ae6bff8ddc74edbbee3811c470530606cb489dd4585a10f76281e6658",
     "e9d12b9181a6636099f687f42c485430cbfadae0099e983f0849c31b114bd822"),
    # sind
    ("sind --builtin s3 --subgroup 0,3,4 --values 1,1,1", 0,
     "2932ad2bf1f953cefb9f3ae5de59f64b79a7a225468889a09c266afd8d81e6c4",
     "8096d5ecc8fdea2c12fe892333c3d205e5d5fc1df87f138c1fe19f24ca3df0ea"),
    ("sind --builtin s4 --subgroup derived --values 1,0,2,1", 0,
     "1997a0c2bb92365b3b04a44146b90265edef50f323011e286f896e8d4d59fa37",
     "32a668310ffba9374931c586ce36747e9a6428a71687b2b9868b2f9837c03a67"),
    ("sind --builtin s3 --subgroup whole --theory maximal --sub-theory maximal"
     " --values 1,1/2", 0,
     "602eb2dd9637dd642b13184a2dfc6633551736c05ab4488f2c8724f71e3aec8f",
     "47a6d149448f70fb68d7c5aad66a54a3f05fe2147189e3d4f2120aa10cd0937e"),
    # family
    ("family check --builtin s3 --family maximal", 0,
     "2d9e3e77a411bc41a8d0a9613e9b9e327fe40b3cc63db85031b5220bc9cea7e0",
     "b80721e38f274ec3136cde6abcf948c42bd423bdb066157277810ccefd4abf80"),
    ("family check --builtin s4 --output {d}/out.family.json", 0,
     "3b1f3f1611b24f1063ea88b097c3cc5a5b5cede99b6cc18b854a8144dd6abe1f",
     "a411078f5a1e758f4c4bbf3aeefb5aa6130bfffb670d0e3351682192413d9b84"),
    ("family check --builtin s3 --family {d}/s3.family.json", 0,
     "750b3a3331923ebb1963ce6016ca9ae3594875dd81220a62122caf6f44b083ff",
     "92e1b176ea6fa8f0157119684692d3300c609d958e2a1ad38e3b333d43618e85"),
    ("family check --builtin d4 --family {d}/bad.family.json", 1,
     "c8f673923fadfe5577a59fecce6b22a6c73c1b707ff59169b8847afdfa0b1cf5",
     "9e1a6149f9dcf71912fe9977a6bc53aceeb47f68d6c6ee1aad3dee3d04b444bb"),
    # nsys
    ("nsys build --builtin s3 --base 1,1,1 --output {d}/out.nsys.json", 0,
     "6f081b79cf4a1453f1851925222681e2b44127c6281be2fac5b28b80a1f14782",
     "abd50aa1646e2806980448bf798fe1f13bb9dbb39ec15edf536012222338f5e0"),
    ("nsys build --builtin s3 --family maximal --base 2,1", 0,
     "9fac11f10091ce582b66af5b2b60be1f39eec633f57115e89f5a1a2dac73d8d6",
     "88244a681c2eeb51ded9c93911e025a3a7e3df95b4ab289aa116113cdca292cf"),
    ("nsys theta --builtin s3 --nsys {d}/s3.nsys.json --subgroup A3", 0,
     "1044bb24461849d46a3e9807163c939588a7bd330713d6b397680494bdf835b3",
     "1ae4ececfa778108397738400b042057ec7840174806f91952e3f9fa33f092ef"),
    ("nsys theta --builtin s4 --base 1,0,2,1,3 --subgroup derived", 0,
     "bfce511e562f31f99e87c796075feb6b7607a75f9390d8d005bd6cb15e9084af",
     "326a49f47c4353a2f3a88abf7e423568508386ba75b7cc4ef378c33e1c2ff716"),
    ("nsys verify --builtin s3 --base 1,0,2 --theorem artin-takagi", 0,
     "67d6ca01ee7b33bab82cb1f9f58ab7cbf1d3bcf0ea39e06756d5136024c4f358",
     "651a49ae3fe9ce4dcf7436818b3010169a094bf5df62ea555f641b6284a327ff"),
    ("nsys verify --builtin s3 --base 1,0,2 --theorem ach3", 0,
     "111bf76cb02a8445a08ae9b9f862c0458c0c4ab10c08dd6ef2e753884883323f",
     "d38713e570d7f996c2b4e18fd6e4214a1d30da0cbc508a396bb791d6ee75f1ae"),
    ("nsys verify --builtin s3 --base 0,-1,0 --theorem ach3", 1,
     "a4d47fd62ed3d0a1d48eb090bb529a47512495e4c900f9973af93570e10512ad",
     "50bca8ae937e015f085f07a93e0c19706bfb3af6584d46a44792bfa916c18337"),
    ("nsys verify --builtin s3 --base 1,0,2 --theorem heilbronn-stark --subgroup A3", 0,
     "29f85fdea3bfda61b42ba2b0e3bcd93b4c3a3736f7de2a99fcdfacfbe6898b3c",
     "b37f46eec77d51cba5bd075d98caf60d0f7aeeced2b633a35be89e9dbe78f54c"),
    ("nsys verify --builtin s4 --base 1,0,2,1,3 --theorem heilbronn-stark", 0,
     "d15dc6ba4839e290088d8a1bcf1fe2e67b7db8fa288a2166e61123b82276c52d",
     "591bce847b97cfd5e3481f7dde40f2249ae559623596afb94c7cf21f779331a3"),
    ("nsys verify --builtin s3 --base 1,0,2 --theorem uvdw --subgroup trivial", 0,
     "ba1d250318d34052a98210d69247e6c95adeed30750af5a25518f1f6360ebac5",
     "141fd52220fdf50c442d4d2884d2205764d1f3221129a61512be958ff2586871"),
    ("nsys verify --builtin s3 --base 2,1,3 --theorem uvdw --cert {d}/s3.uvdw.json", 0,
     "62b944f24362d3311920ba2c610d3bffcc8b643b6794b5a702e59145ba2622fa",
     "6cb46ecfbcc41d2a502a3f2f9556123abe78d1034e8b2ed46dd568fceef7fb40"),
    ("nsys verify --builtin s4 --base 1,0,2,1,3 --theorem uvdw --subgroup trivial"
     " --budget 2", 1,
     "63be4b8622f85b444a7894c50bea50b12ac8cd2cb0c539ee58ce4b9c868708ae",
     "74305ffab1b8a8bee6a5f25e5d326e1ed28f17a06a8209fe670dc6dffc48b081"),
    # uvdw
    ("uvdw find --builtin s3 --subgroup trivial --output {d}/out.uvdw.json", 0,
     "627f4b564951c9a91c6103495d393d6a41a1bf330d32d5546c490cb47f4f94b6",
     "de3959e7b5fbd5291317f952a876f08c8e8af210cb03c6f185736de9ee17b75e"),
    ("uvdw find --builtin q16 --subgroup #4", 0,
     "871a20916a08786e524152c9d9cf1f9f311f802bfb0d348458a75bae67c0f193",
     "2f8650f8191c1c18e319260f659a98f3f16e73d1b099bacd520f08486c99f51e"),
    ("uvdw find --builtin s4 --subgroup trivial --budget 2", 1,
     "2d33314b56cea1b75ceffc9a830fa631b2eec1fb1422bae5ad93c581f9ba1173",
     "18756bae760f1daba95b14386cffdab682bf106790c70c0416af16f50ae7a3f0"),
    # usage and validation errors
    ("group info", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("group info --builtin s3 --group {d}/s3.group.json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("group check --builtin z9", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("group check --group {d}/garbled.json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("group check --builtin s4 --max-order 23", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("table compute --builtin s3 --max-order 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("table compute --builtin s3 --prime 4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sct enumerate --builtin c5 --budget 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sct enumerate --builtin c5 --budget 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sct compat --builtin s3 --subgroup A3 --theory {d}/notpart.sct.json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sct compat --builtin s3 --subgroup A4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sct compat --builtin s4 --subgroup #99", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sct compat --builtin s3 --subgroup 0,x", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sind --builtin s3 --subgroup A3 --values 1,1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sind --builtin s3 --subgroup A3 --values 1,x,1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("family check --builtin s3 --family {d}/notpart.sct.json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("nsys build --builtin s3 --base 1,x,2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("nsys build --builtin s3 --base 1,0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("nsys build --builtin s3", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("nsys verify --builtin s3 --base 1,0,2 --theorem uvdw", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("nsys verify --builtin s3 --base 1,0,2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("uvdw find --builtin s3 --subgroup trivial --budget 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
)


def write_inputs(d):
    """Write the input files the cases read into directory ``d``."""
    s3, d4 = builtin_group("s3"), builtin_group("d4")
    fileio.save_group(s3, d / "s3.group.json")
    (d / "bad.group.json").write_text(
        json.dumps({"schema": "group/v1", "name": "X", "cayley": [[0, 1], [1, 1]]})
    )
    (d / "garbled.json").write_text("{")
    table = dixon_character_table(s3)
    fileio.save_table(table, d / "s3.table.json")
    bad = fileio.table_to_obj(table)
    bad["rows"][2][1]["coeffs"][0][0] += 1
    (d / "bad.table.json").write_text(json.dumps(bad))
    fileio.save_theory(maximal_theory(dixon_character_table(builtin_group("c3"))),
                       d / "c3-max.sct.json")
    (d / "c3-bad.sct.json").write_text(json.dumps(
        {"schema": "sct/v1", "irr_partition": [[1], [0, 2]], "class_partition": [[0], [1, 2]]}
    ))
    (d / "notpart.sct.json").write_text(json.dumps(
        {"schema": "sct/v1", "irr_partition": [[0]], "class_partition": [[0]]}
    ))
    fileio.save_family(make_family(s3, "maximal"), d / "s3.family.json")
    # the classical family of D4 with the maximal theory on its cyclic C4
    family = fileio.family_to_obj(make_family(d4, "classical"))
    c4 = enumerate_subgroups(d4)[7]
    for entry in family["entries"]:
        if entry["subgroup"] == list(c4.elements):
            entry["theory"] = fileio.theory_to_obj(maximal_theory(dixon_character_table(c4.local)))
    (d / "bad.family.json").write_text(json.dumps(family))
    classical = make_family(s3, "classical")
    fileio.save_nsystem(NSystem(classical, [1, 1, 1]), d / "s3.nsys.json")
    search = find_uvdw_certificate(classical, classical.subgroups[0])
    fileio.save_certificate(search.certificate, d / "s3.uvdw.json")
    return d


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_cli_golden(case, files, capsys, monkeypatch):
    command, code, text_digest, json_digest = case
    monkeypatch.delenv("SUPERCHAR_MAX_ORDER", raising=False)
    argv = [token.format(d=files) for token in command.split()]
    assert _run(argv + ["--format", "text"], capsys) == (code, text_digest)
    assert _run(argv + ["--format", "json"], capsys) == (code, json_digest)
