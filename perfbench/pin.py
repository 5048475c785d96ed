"""Regenerate perfbench/pins.json from the program as it stands.

    python3 perfbench/pin.py

Pins are reference answers: table fingerprints, subgroup and theory
counts, certificate found-sets, and each CLI command's exit code and
stdout digest.  Counts with a closed form (see workloads.py) are checked
against it here, so a pin never disagrees with one.  Re-pin only when an
output is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys

from run import load_program
from workloads import (
    CLI_COMMANDS,
    FAMILIES_ZOO,
    PINS_PATH,
    TABLES_ZOO,
    Cli,
    build_group,
    closed_form_subgroup_count,
    closed_form_theory_count,
    run_cli,
    ENUMERATE_MAX_CLASSES,
)


def main() -> int:
    sc, _oracles = load_program()
    from superchar import fileio

    pins = {"tables": {}, "families": {}, "cli": {}}
    for name in TABLES_ZOO:
        table = sc.dixon_character_table(build_group(sc, name))
        pins["tables"][name] = {"fingerprint": fileio.table_fingerprint(table)}

    problems = []
    for name in FAMILIES_ZOO:
        G = build_group(sc, name)
        fam = sc.make_family(G, "classical")
        entry = {
            "subgroups": len(fam.subgroups),
            "classes": len(sc.conjugacy_classes(G)),
            "found": [
                i
                for i, sub in enumerate(fam.subgroups)
                if sc.find_uvdw_certificate(fam, sub).certificate is not None
            ],
        }
        if entry["classes"] <= ENUMERATE_MAX_CLASSES:
            entry["theories"] = len(sc.enumerate_theories(fam.top_theory.table))
        for key, closed in (
            ("subgroups", closed_form_subgroup_count(name)),
            ("theories", closed_form_theory_count(name)),
        ):
            if closed is not None and entry.get(key, closed) != closed:
                problems.append(f"{name}: {key} {entry[key]} != closed form {closed}")
        pins["families"][name] = entry

    cli = Cli(sc, None, {"cli": {}})
    state = cli.setup(0)
    for _group, variants in CLI_COMMANDS:
        for variant in variants:
            commands = variant.format(work=state["work"]).split(" && ")
            pins["cli"][variant] = [list(run_cli(c.split(), state["env"])) for c in commands]

    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
