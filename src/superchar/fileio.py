"""Schema-versioned structured files for groups, tables, theories,
families, n-systems and certificates.

All payloads are JSON with canonical key ordering so identical inputs
produce byte-identical files.  Cyclotomic values are serialized as
{"order": e, "coeffs": [[num, den], ...]}.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Union

from .chartab import CharacterTable, ClassFunction, verify_orthogonality
from .cyclo import Cyclotomic
from .errors import OrderCapExceeded, SchemaError
from .groups import (
    DEFAULT_SUBGROUP_CAP,
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    group_from_cayley,
    group_from_permutations,
    subgroup_from_elements,
)
from .nsystems import DecompositionCertificate, NSystem
from .theories import (
    CompatibleFamily,
    SupercharacterTheory,
    make_family,
    theory_from_class_blocks,
)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _int_list(value, what: str) -> list:
    ok = isinstance(value, list) and all(type(x) is int for x in value)
    _require(ok, f"{what} must be a list of integers")
    return value


def _int_lists(value, what: str) -> list:
    _require(isinstance(value, list), f"{what} must be a list of integer lists")
    return [_int_list(v, f"each entry of {what}") for v in value]


def _load_obj(source: Union[str, Path, dict]) -> dict:
    if isinstance(source, dict):
        return source
    try:
        text = Path(source).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {source}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source}: not valid JSON ({exc})") from None
    _require(isinstance(obj, dict), f"{source}: top level must be an object")
    return obj


def _check_schema(obj: dict, schema: str):
    _require(obj.get("schema", schema) == schema, f"expected schema {schema!r}, got {obj.get('schema')!r}")


# -- cyclotomic values --------------------------------------------------------


def encode_cyclotomic(v: Cyclotomic) -> dict:
    return {
        "order": v.order,
        "coeffs": [[c.numerator, c.denominator] for c in v.coeffs],
    }


def decode_cyclotomic(obj: dict) -> Cyclotomic:
    _require(isinstance(obj, dict) and "order" in obj and "coeffs" in obj, "bad cyclotomic value")
    _require(isinstance(obj["coeffs"], list), "cyclotomic coefficients must be a list")
    e = obj["order"]
    _require(type(e) is int and e >= 1, "cyclotomic order must be a positive integer")
    terms = {}
    for k, pair in enumerate(obj["coeffs"]):
        _require(
            isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair),
            "cyclotomic coefficients must be [num, den] integer pairs",
        )
        _require(pair[1] != 0, "zero denominator in cyclotomic coefficient")
        terms[k] = Fraction(pair[0], pair[1])
    return Cyclotomic.from_terms(e, terms)


# -- group files ("group/v1") --------------------------------------------------


def group_to_obj(G: FiniteGroup) -> dict:
    return {
        "schema": "group/v1",
        "name": G.name,
        "cayley": [list(row) for row in G.mul],
    }


def load_group(source: Union[str, Path, dict], max_order: Optional[int] = None) -> FiniteGroup:
    """Load and validate a group file.  With ``max_order``, a larger group
    is refused with ``OrderCapExceeded`` before it is validated (a Cayley
    table) or closed past the cap (generators)."""
    obj = _load_obj(source)
    _check_schema(obj, "group/v1")
    name = obj.get("name", "G")
    _require(isinstance(name, str), "group name must be a string")
    if "cayley" in obj:
        table = obj["cayley"]
        _require(isinstance(table, list) and table, "cayley must be a nonempty matrix")
        if max_order is not None and len(table) > max_order:
            raise OrderCapExceeded(f"group order {len(table)} exceeds cap {max_order}")
        return group_from_cayley(_int_lists(table, "cayley"), name)
    if "generators" in obj:
        degree = obj.get("degree")
        _require(type(degree) is int and degree >= 0, "degree must be a nonnegative integer")
        gens = _int_lists(obj["generators"], "generators")
        cap = DEFAULT_SUBGROUP_CAP if max_order is None else max_order
        return group_from_permutations(degree, gens, name, cap=cap)
    raise SchemaError("group file needs either 'cayley' or 'degree'+'generators'")


def save_group(G: FiniteGroup, path: Union[str, Path]):
    Path(path).write_text(canonical_json(group_to_obj(G)) + "\n")


# -- character table files ("chartable/v1") ------------------------------------


def table_to_obj(table: CharacterTable) -> dict:
    cls = table.classes
    return {
        "schema": "chartable/v1",
        "group": table.group.name,
        "class_reps": list(cls.representatives),
        "class_sizes": list(cls.sizes),
        "rows": [[encode_cyclotomic(v) for v in row.values] for row in table.rows],
    }


def table_fingerprint(table: CharacterTable) -> str:
    obj = table_to_obj(table)
    payload = canonical_json(
        {k: obj[k] for k in ("class_reps", "class_sizes", "rows")}
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def decode_table(G: FiniteGroup, source: Union[str, Path, dict]) -> CharacterTable:
    """Decode a table file without the orthogonality gate."""
    obj = _load_obj(source)
    _check_schema(obj, "chartable/v1")
    cls = conjugacy_classes(G)
    _require(
        obj.get("class_reps") == list(cls.representatives),
        "class representatives do not match the group's canonical classes",
    )
    _require(
        obj.get("class_sizes") == list(cls.sizes),
        "class sizes do not match the group's canonical classes",
    )
    rows_obj = obj.get("rows")
    _require(isinstance(rows_obj, list) and len(rows_obj) == len(cls), "row count must equal class count")
    rows = []
    degrees = []
    for row in rows_obj:
        _require(isinstance(row, list) and len(row) == len(cls), "bad row length")
        values = tuple(decode_cyclotomic(v) for v in row)
        deg = values[0].as_rational()
        _require(deg is not None and deg.denominator == 1 and deg > 0, "bad character degree")
        rows.append(ClassFunction(cls, values))
        degrees.append(int(deg))
    return CharacterTable(cls, tuple(rows), tuple(degrees))


def load_table(G: FiniteGroup, source: Union[str, Path, dict]) -> CharacterTable:
    """Load a user-supplied table; accepted only if orthogonality passes."""
    table = decode_table(G, source)
    report = verify_orthogonality(table)
    if not report.ok:
        raise SchemaError(
            f"supplied table fails orthogonality: {report.violations[:3]}"
        )
    return table


def save_table(table: CharacterTable, path: Union[str, Path]):
    Path(path).write_text(canonical_json(table_to_obj(table)) + "\n")


# -- supercharacter theory files ("sct/v1") -------------------------------------


def theory_to_obj(theory: SupercharacterTheory) -> dict:
    return {
        "schema": "sct/v1",
        "group": theory.group.name,
        "table_fingerprint": table_fingerprint(theory.table),
        "irr_partition": [list(b) for b in theory.irr_blocks],
        "class_partition": [list(b) for b in theory.class_blocks],
    }


def load_theory(table: CharacterTable, source: Union[str, Path, dict]) -> SupercharacterTheory:
    obj = _load_obj(source)
    _check_schema(obj, "sct/v1")
    fp = obj.get("table_fingerprint")
    if fp is not None:
        _require(
            fp == table_fingerprint(table),
            "theory file was written against a differently-ordered table",
        )
    _require("irr_partition" in obj and "class_partition" in obj, "theory file needs both partitions")
    irr, blocks = (_int_lists(obj[k], k) for k in ("irr_partition", "class_partition"))
    return theory_from_class_blocks(table, irr, blocks)


def save_theory(theory: SupercharacterTheory, path: Union[str, Path]):
    Path(path).write_text(canonical_json(theory_to_obj(theory)) + "\n")


# -- family files ("family/v1") ---------------------------------------------------


def family_to_obj(family: CompatibleFamily) -> dict:
    return {
        "schema": "family/v1",
        "group": family.group.name,
        "label": family.label,
        "entries": [
            {
                "subgroup": list(sub.elements),
                "theory": theory_to_obj(family.theory_for(sub)),
            }
            for sub in family.subgroups
        ],
    }


def load_family(
    G: FiniteGroup,
    source: Union[str, Path, dict],
    prime: Optional[int] = None,
) -> CompatibleFamily:
    obj = _load_obj(source)
    _check_schema(obj, "family/v1")
    entries = obj.get("entries")
    _require(isinstance(entries, list) and entries, "family file needs entries")
    wanted: Dict[frozenset, dict] = {}
    for entry in entries:
        _require(
            isinstance(entry, dict) and "subgroup" in entry and "theory" in entry,
            "each family entry needs 'subgroup' and 'theory'",
        )
        wanted[frozenset(_int_list(entry["subgroup"], "family entry subgroup"))] = entry["theory"]

    subgroups = tuple(
        subgroup_from_elements(G, els) for els in sorted(wanted, key=lambda s: (len(s), sorted(s)))
    )

    def pick(sub: Subgroup, table: CharacterTable) -> SupercharacterTheory:
        return load_theory(table, wanted[sub.element_set])

    return make_family(G, pick, subgroups=subgroups, prime=prime)


def save_family(family: CompatibleFamily, path: Union[str, Path]):
    Path(path).write_text(canonical_json(family_to_obj(family)) + "\n")


# -- n-system files ("nsys/v1") -----------------------------------------------------


def nsystem_to_obj(ns: NSystem) -> dict:
    return {
        "schema": "nsys/v1",
        "group": ns.family.group.name,
        "table_fingerprint": table_fingerprint(ns.family.top_theory.table),
        "family_ref": ns.family.label,
        "base": {f"X{x}": b for x, b in enumerate(ns.base)},
    }


def load_nsystem(family: CompatibleFamily, source: Union[str, Path, dict]) -> NSystem:
    obj = _load_obj(source)
    _check_schema(obj, "nsys/v1")
    fp = obj.get("table_fingerprint")
    if fp is not None:
        _require(
            fp == table_fingerprint(family.top_theory.table),
            "n-system file was written against a different table",
        )
    base_obj = obj.get("base")
    _require(isinstance(base_obj, dict), "n-system file needs a base map")
    n_blocks = family.top_theory.n_blocks
    base = []
    for x in range(n_blocks):
        key = f"X{x}"
        _require(key in base_obj, f"missing base value for block {key}")
        _require(type(base_obj[key]) is int, f"base value for {key} must be an integer")
        base.append(base_obj[key])
    _require(len(base_obj) == n_blocks, "extra base entries for unknown blocks")
    return NSystem(family, base)


def save_nsystem(ns: NSystem, path: Union[str, Path]):
    Path(path).write_text(canonical_json(nsystem_to_obj(ns)) + "\n")


# -- certificate files ("uvdw/v1") ----------------------------------------------------


def certificate_to_obj(cert: DecompositionCertificate) -> dict:
    return {
        "schema": "uvdw/v1",
        "H": list(cert.subgroup.elements),
        "terms": [
            {
                "Hi": list(hi.elements),
                "sigma_blocks": [f"X{b}" for b in blocks],
            }
            for hi, blocks in cert.terms
        ],
    }


def load_certificate(
    family: CompatibleFamily, source: Union[str, Path, dict]
) -> DecompositionCertificate:
    obj = _load_obj(source)
    _check_schema(obj, "uvdw/v1")
    _require("H" in obj and "terms" in obj, "certificate file needs 'H' and 'terms'")
    sub = family.subgroup_by_elements(_int_list(obj["H"], "certificate H"))
    _require(isinstance(obj["terms"], list), "certificate terms must be a list")
    terms = []
    for term in obj["terms"]:
        _require(
            isinstance(term, dict) and "Hi" in term and "sigma_blocks" in term,
            "each term needs 'Hi' and 'sigma_blocks'",
        )
        hi = family.subgroup_by_elements(_int_list(term["Hi"], "certificate term Hi"))
        _require(isinstance(term["sigma_blocks"], list), "sigma_blocks must be a list")
        blocks = []
        for b in term["sigma_blocks"]:
            _require(
                isinstance(b, str) and b.startswith("X") and b[1:].isdigit(),
                f"bad sigma block id {b!r}",
            )
            blocks.append(int(b[1:]))
        terms.append((hi, tuple(blocks)))
    return DecompositionCertificate(sub, tuple(terms))


def save_certificate(cert: DecompositionCertificate, path: Union[str, Path]):
    Path(path).write_text(canonical_json(certificate_to_obj(cert)) + "\n")
