"""Document loading, validation, and canonical serialization."""

import hashlib
import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit.documents import (
    DocumentSet,
    document_digest,
    gallery_documents,
    load_documents,
    serialize_document,
)
from sheafkit.errors import ParseError, SemanticError, UnresolvedReference
from sheafkit.fincat import poset_category
from sheafkit.gallery import (
    PC_UX,
    PC_UY,
    PC_WHOLE,
    const2_full_presheaf,
    const2_presheaf,
    discrete2_site,
    pc_double_cover,
    pseudocircle_site,
    sign_cocycle,
    trivial_torsor,
    unit_cocycle,
    z2_local_system,
)
from sheafkit.labels import show_label


def test_gallery_loads_and_builds_every_kind():
    ds = load_documents([])
    assert len(ds.names()) == len(gallery_documents())
    builders = {
        "category": ds.category,
        "space": ds.space,
        "presheaf": ds.presheaf,
        "group-sheaf": ds.group_sheaf,
        "action": ds.action,
        "cocycle": ds.cocycle,
        "formula": ds.formula,
        "diagram": ds.diagram,
    }
    for kind, build in builders.items():
        for name in ds.names(kind):
            build(name)
    for name in ds.names("space") + ds.names("topology"):
        ds.site(name)


def test_gallery_matches_programmatic_builders():
    ds = load_documents([])
    T = ds.action("pc-action")
    glued = pc_double_cover()
    for u in glued.site.category.objects:
        assert len(T.space.value[u]) == len(glued.torsor.space.value[u])


def test_round_trip_is_byte_idempotent(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    for doc in gallery_documents().values():
        (first / f"{doc['name']}.json").write_text(serialize_document(doc), encoding="utf-8")
    ds = load_documents([str(first)], include_gallery=False)
    for name in ds.names():
        (second / f"{name}.json").write_text(serialize_document(ds.raw[name]), encoding="utf-8")
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_parse_error_carries_line_and_column(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "space",\n  "oops}', encoding="utf-8")
    with pytest.raises(ParseError, match=r"bad\.json:2:"):
        load_documents([str(bad)])


def test_unresolved_reference_names_the_id(tmp_path):
    doc = {
        "schema": 1, "kind": "presheaf", "name": "orphan",
        "base": "no-such-category", "values": {}, "restrictions": {},
    }
    p = tmp_path / "orphan.json"
    p.write_text(serialize_document(doc), encoding="utf-8")
    ds = load_documents([str(p)], include_gallery=False)
    with pytest.raises(UnresolvedReference, match="no-such-category"):
        ds.presheaf("orphan")


def test_semantic_error_for_unknown_morphism_reference(tmp_path):
    doc = {
        "schema": 1, "kind": "category", "name": "broken",
        "objects": ["u"],
        "morphisms": [{"name": "f", "src": "u", "tgt": "v"}],
        "identities": {"u": "f"},
        "compose": [],
    }
    p = tmp_path / "broken.json"
    p.write_text(serialize_document(doc), encoding="utf-8")
    ds = load_documents([str(p)], include_gallery=False)
    with pytest.raises(SemanticError, match="unknown target"):
        ds.category("broken")


def test_duplicate_names_rejected(tmp_path):
    doc = {"schema": 1, "kind": "space", "name": "dup", "points": [], "opens": [[]]}
    for stem in ("a", "b"):
        (tmp_path / f"{stem}.json").write_text(serialize_document(doc), encoding="utf-8")
    with pytest.raises(SemanticError, match="duplicate"):
        load_documents([str(tmp_path)], include_gallery=False)


def test_user_documents_shadow_gallery(tmp_path):
    doc = {
        "schema": 1, "kind": "space", "name": "sierpinski",
        "points": ["p"], "opens": [[], ["p"]],
    }
    p = tmp_path / "s.json"
    p.write_text(serialize_document(doc), encoding="utf-8")
    ds = load_documents([str(p)])
    assert ds.space("sierpinski").points == ("p",)


def test_unknown_kind_and_schema_rejected():
    ds = DocumentSet()
    with pytest.raises(SemanticError, match="schema"):
        ds.add({"schema": 9, "kind": "space", "name": "x"}, "here")
    with pytest.raises(SemanticError, match="kind"):
        ds.add({"schema": 1, "kind": "frob", "name": "x"}, "here")


def test_digest_is_stable():
    docs = gallery_documents()
    d1 = document_digest(docs["sierpinski"])
    d2 = document_digest(json.loads(serialize_document(docs["sierpinski"])))
    assert d1 == d2


def test_topology_document_with_generating_families(tmp_path):
    from sheafkit.site import generate_sieve, maximal_sieve, validate_topology

    # the walking arrow with the sieve generated by its one arrow covering "1"
    doc = {
        "schema": 1, "kind": "topology", "name": "arrow-dense",
        "category": "arrow",
        "covers": {"1": [["0->1"]]},
    }
    p = tmp_path / "t.json"
    p.write_text(serialize_document(doc), encoding="utf-8")
    ds = load_documents([str(p)])
    site = ds.site("arrow-dense")
    assert validate_topology(site.topology).ok
    C = site.category
    dense = generate_sieve(C, "1", ["0->1"])
    assert dense in set(site.topology.covers["1"])
    assert maximal_sieve(C, "1") in set(site.topology.covers["1"])
    # saturation must add the empty sieve on "0": its pullback along 0->1
    # is itself and the dense sieve's pullback along 0->1 is maximal
    from sheafkit.site import pullback_sieve

    assert pullback_sieve(C, "0->1", dense) in set(site.topology.covers["0"])


def test_enumeration_bound_env_override(monkeypatch):
    from sheafkit.config import enumeration_bound
    from sheafkit.errors import IntractableSize
    from sheafkit.fincat import enumerate_naturals

    site = discrete2_site()
    F = const2_presheaf(site)
    monkeypatch.setenv("WORKBENCH_BOUND", "3")
    assert enumeration_bound() == 3
    with pytest.raises(IntractableSize):
        enumerate_naturals(F, F)
    assert enumeration_bound(1000) == 1000  # explicit argument wins


def test_malformed_enumeration_bound_env_is_a_usage_error(monkeypatch):
    from sheafkit.cli import run
    from sheafkit.config import enumeration_bound
    from sheafkit.errors import UsageError

    monkeypatch.setenv("WORKBENCH_BOUND", "abc")
    with pytest.raises(UsageError, match="WORKBENCH_BOUND"):
        enumeration_bound()
    code, text = run(["limit", "--diagram", "z2-tower4", "--certify", "2"])
    assert code == 2
    assert "WORKBENCH_BOUND" in text


# -- malformed category documents end in exit code 2, never a traceback ---------

def malformed_category(tmp_path, change):
    doc = {
        "schema": 1, "kind": "category", "name": "mal",
        "objects": ["u"],
        "morphisms": [{"name": "id", "src": "u", "tgt": "u"}],
        "identities": {"u": "id"},
        "compose": [["id", "id", "id"]],
    }
    change(doc)
    p = tmp_path / "mal.json"
    p.write_text(serialize_document(doc), encoding="utf-8")
    return p


def assert_load_error(path, capsys, message):
    from sheafkit.cli import main

    assert main(["validate-category", "--category", "mal", "--docs", str(path)]) == 2
    assert capsys.readouterr().err == f"error: MalformedDocument: {path}: mal: {message}\n"
    ds = load_documents([str(path)], include_gallery=False)
    with pytest.raises(SemanticError):
        ds.category("mal")


def test_morphism_without_target_is_a_semantic_error(tmp_path, capsys):
    p = malformed_category(tmp_path, lambda doc: doc["morphisms"][0].pop("tgt"))
    assert_load_error(p, capsys, 'morphisms[0] has no "tgt"')


def test_two_element_compose_entry_is_a_semantic_error(tmp_path, capsys):
    p = malformed_category(tmp_path, lambda doc: doc["compose"][0].pop())
    assert_load_error(p, capsys, "compose[0] must be a [g, f, g∘f] triple")


def test_list_valued_object_label_is_a_semantic_error(tmp_path, capsys):
    p = malformed_category(tmp_path, lambda doc: doc["objects"].append(["v"]))
    assert_load_error(p, capsys, "objects[1]: a JSON array is not a label")


def parallel_arrows(doc, n=65):
    doc["objects"] = ["u", "v"]
    arrows = [f"f{i}" for i in range(n)]
    doc["morphisms"] = [{"name": m, "src": s, "tgt": t}
                        for m, s, t in [("id", "u", "u"), ("idv", "v", "v"), *((f, "u", "v") for f in arrows)]]
    doc["identities"] = {"u": "id", "v": "idv"}
    doc["compose"] = [["id", "id", "id"], ["idv", "idv", "idv"],
                      *(["idv", f, f] for f in arrows), *([f, "id", f] for f in arrows)]


@pytest.mark.parametrize("argv", [
    ["validate-category", "--category", "mal"],
    ["yoneda", "--category", "mal", "--at", "u"],
])
def test_a_hom_set_over_the_hom_bound_is_a_load_error(tmp_path, argv):
    from sheafkit.cli import run

    p = malformed_category(tmp_path, parallel_arrows)
    assert run([*argv, "--docs", str(p)]) == (
        2, f"error: IntractableSize: {p}: mal: Hom('u', 'v'): size 65 exceeds bound 64\n"
    )


def parallel_pair(doc):
    doc["objects"] = ["u", "v"]
    doc["morphisms"] = [{"name": m, "src": s, "tgt": t}
                        for m, s, t in [("id", "u", "u"), ("idv", "v", "v"), ("f", "u", "v"), ("g", "u", "v")]]
    doc["identities"] = {"u": "id", "v": "idv"}
    doc["compose"] = [["id", "id", "id"], ["idv", "idv", "idv"],
                      ["f", "id", "f"], ["g", "id", "g"], ["idv", "f", "f"], ["idv", "g", "g"]]


def test_a_compose_pair_listed_twice_is_refused_unless_repeated_exactly(tmp_path):
    from sheafkit.cli import run

    p = malformed_category(tmp_path, lambda doc: (parallel_pair(doc), doc["compose"].append(["f", "id", "f"])))
    code, out = run(["validate-category", "--category", "mal", "--docs", str(p)])
    assert code == 0 and "verdict: pass" in out
    p = malformed_category(tmp_path, lambda doc: (parallel_pair(doc), doc["compose"].append(["f", "id", "g"])))
    code, out = run(["validate-category", "--category", "mal", "--docs", str(p)])
    assert code == 1
    assert f"details.error: {p}: mal: compose entry ('f', 'id') is listed twice, as 'f' and 'g'\n" in out
    with pytest.raises(SemanticError, match="listed twice"):
        load_documents([str(p)], include_gallery=False).category("mal")


def test_a_bound_hit_while_building_a_document_stays_intractable_size(monkeypatch):
    from sheafkit.cli import run
    from sheafkit.errors import IntractableSize

    monkeypatch.setenv("WORKBENCH_BOUND", "3")
    message = "gallery:sierpinski: sierpinski: sieves on '{b,t}': size 8 exceeds bound 3"
    assert run(["omega", "--site", "sierpinski"]) == (2, f"error: IntractableSize: {message}\n")
    with pytest.raises(IntractableSize) as info:
        load_documents([]).site("sierpinski")
    err = info.value
    assert (str(err), err.search, err.size, err.bound) == (message, "sieves on '{b,t}'", 8, 3)


# -- malformed space, presheaf, diagram and cocycle documents exit 2 as well ----

def run_malformed(tmp_path, gallery_name, change, *argv):
    """Run the CLI on a copy of a gallery document, renamed "mal" and changed."""
    from sheafkit.cli import run

    doc = json.loads(serialize_document(gallery_documents()[gallery_name]))
    doc["name"] = "mal"
    change(doc)
    p = tmp_path / "mal.json"
    p.write_text(serialize_document(doc), encoding="utf-8")
    return p, run([*argv, "--docs", str(p)])


def test_presheaf_without_values_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "sier-one", lambda doc: doc.pop("values"),
        "check-sheaf", "--presheaf", "mal", "--site", "sierpinski",
    )
    assert got == (2, f'error: MalformedDocument: {p}: mal: missing field "values"\n')


def test_diagram_without_values_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "eq-pair", lambda doc: doc.pop("values"), "equalizer", "--diagram", "mal",
    )
    assert got == (2, f'error: MalformedDocument: {p}: mal: missing field "values"\n')


LIMIT_MAL = ("limit", "--diagram", "mal", "--certify", "2")


def test_diagram_value_at_an_object_outside_the_shape_is_a_semantic_error(tmp_path):
    p, got = run_malformed(tmp_path, "c2", lambda doc: doc["values"].update(zz=["1"]), *LIMIT_MAL)
    assert got == (2, f"error: SemanticError: {p}: mal: diagram value at unknown object 'zz'\n")


def test_diagram_action_on_an_element_outside_its_source_is_a_semantic_error(tmp_path):
    p, got = run_malformed(tmp_path, "c2", lambda doc: doc["actions"]["l<m"].update(ghost="*"), *LIMIT_MAL)
    assert got == (2, f"error: SemanticError: {p}: mal: action along 'l<m' defined on unknown 'ghost'\n")


def test_diagram_action_along_an_arrow_outside_the_shape_is_a_semantic_error(tmp_path):
    p, got = run_malformed(tmp_path, "c2", lambda doc: doc["actions"].update(nope={"1": "*", "2": "*"}), *LIMIT_MAL)
    assert got == (2, f"error: SemanticError: {p}: mal: diagram action along unknown arrow 'nope'\n")


def test_presheaf_restriction_along_an_arrow_outside_the_base_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "const2", lambda doc: doc["restrictions"].update(nope={"0": "0", "1": "1"}),
        "check-sheaf", "--presheaf", "mal", "--site", "discrete2",
    )
    assert got == (2, f"error: SemanticError: {p}: mal: presheaf restriction along unknown arrow 'nope'\n")


def test_nested_list_in_space_opens_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "sierpinski", lambda doc: doc["opens"].append(["b", ["t"]]),
        "omega", "--site", "mal",
    )
    assert got == (2, f"error: MalformedDocument: {p}: mal: opens[3]: a JSON array is not a label\n")


def test_two_element_cocycle_value_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "pc-sign", lambda doc: doc["values"][0].pop(), "check-cocycle", "--cocycle", "mal",
    )
    assert got == (2, f"error: MalformedDocument: {p}: mal: values[0] must be an [i, j, g] triple\n")


def test_presheaf_with_a_list_of_restrictions_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "sier-one", lambda doc: doc.update(restrictions=[]),
        "check-sheaf", "--presheaf", "mal", "--site", "sierpinski",
    )
    assert got == (2, f'error: MalformedDocument: {p}: mal: "restrictions" must be an object\n')


def test_diagram_with_a_list_of_actions_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "eq-pair", lambda doc: doc.update(actions=[]), "equalizer", "--diagram", "mal",
    )
    assert got == (2, f'error: MalformedDocument: {p}: mal: "actions" must be an object\n')


def test_cocycle_without_cover_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "pc-sign", lambda doc: doc.pop("cover"), "check-cocycle", "--cocycle", "mal",
    )
    assert got == (2, f'error: MalformedDocument: {p}: mal: missing field "cover"\n')


def test_cocycle_value_with_a_non_integer_index_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "pc-sign", lambda doc: doc["values"][1].__setitem__(0, "x"),
        "check-cocycle", "--cocycle", "mal",
    )
    assert got == (2, f"error: MalformedDocument: {p}: mal: values[1] must have integer indices, got 'x', 1\n")


def test_cocycle_value_outside_the_cover_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "pc-sign", lambda doc: doc["values"][1].__setitem__(0, 7),
        "check-cocycle", "--cocycle", "mal",
    )
    assert got == (2, f"error: SemanticError: {p}: mal: cocycle value (7, 1) names no pair of the 2 cover members\n")


def test_action_without_action_table_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "pc-action", lambda doc: doc.pop("action"),
        "torsor-check", "--site", "pseudocircle", "--action", "mal",
    )
    assert got == (2, f'error: MalformedDocument: {p}: mal: missing field "action"\n')


def test_formula_without_text_is_a_semantic_error(tmp_path):
    p, got = run_malformed(
        tmp_path, "sier-em", lambda doc: doc.pop("text"),
        "force", "--formula", "mal", "--at", "{b,t}", "--env", "x=*",
    )
    assert got == (2, f'error: MalformedDocument: {p}: mal: missing field "text"\n')


@pytest.mark.parametrize("gallery_name, field, argv", [
    ("sier-one", "base", ("check-sheaf", "--presheaf", "mal", "--site", "sierpinski")),
    ("eq-pair", "shape", ("equalizer", "--diagram", "mal")),
    ("arrow-trivial", "category", ("validate-topology", "--site", "mal")),
    ("pc-action", "space-presheaf", ("torsor-check", "--site", "pseudocircle", "--action", "mal")),
    ("pc-action", "group", ("torsor-check", "--site", "pseudocircle", "--action", "mal")),
    ("pc-sign", "site", ("check-cocycle", "--cocycle", "mal")),
    ("pc-sign", "target", ("check-cocycle", "--cocycle", "mal")),
    ("sier-em", "site", ("force", "--formula", "mal", "--at", "{b,t}", "--env", "x=*")),
])
def test_document_without_a_named_reference_is_a_semantic_error(tmp_path, gallery_name, field, argv):
    p, got = run_malformed(tmp_path, gallery_name, lambda doc: doc.pop(field), *argv)
    assert got == (2, f'error: MalformedDocument: {p}: mal: missing field "{field}"\n')


# -- malformed inner entries: every document is walked against its schema -------

def run_shadowed(tmp_path, gallery_name, change, *argv):
    """Run the CLI with a changed copy of a gallery document shadowing the original."""
    from sheafkit.cli import run

    doc = json.loads(serialize_document(gallery_documents()[gallery_name]))
    change(doc)
    p = tmp_path / f"{gallery_name}.json"
    p.write_text(serialize_document(doc), encoding="utf-8")
    return p, run([*argv, "--docs", str(p)])


PC_X = "{a,b,x}"
TORSOR_CHECK = ("torsor-check", "--site", "pseudocircle", "--action", "pc-action")
FORCE_EM = ("force", "--formula", "sier-em", "--at", "{b,t}", "--env", "x=*")
ARROW_TOPOLOGY = ("validate-topology", "--site", "arrow-trivial")


@pytest.mark.parametrize("gallery_name, change, argv, message", [
    pytest.param("pc-action", lambda d: d["action"][PC_X][0].pop(), TORSOR_CHECK,
                 "action.{a,b,x}[0] must be a [p, g, pg] triple", id="action-entry-of-two"),
    pytest.param("pc-action", lambda d: d["action"][PC_X][0].__setitem__(1, ["(0)"]), TORSOR_CHECK,
                 "action.{a,b,x}[0]: a JSON array is not a label", id="action-entry-with-an-array"),
    pytest.param("pc-action", lambda d: d["action"].update({PC_X: "x"}), TORSOR_CHECK,
                 "action.{a,b,x} must be a list", id="action-value-a-string"),
    pytest.param("pc-z2", lambda d: d["mult"][PC_X][0].pop(), TORSOR_CHECK,
                 "mult.{a,b,x}[0] must be a [g, h, gh] triple", id="mult-entry-of-two"),
    pytest.param("pc-z2", lambda d: d["mult"].update({PC_X: "x"}), TORSOR_CHECK,
                 "mult.{a,b,x} must be a list", id="mult-value-a-string"),
    pytest.param("pc-z2", lambda d: d.update(unit=["(0)"]), TORSOR_CHECK,
                 '"unit" must be an object', id="unit-a-list"),
    pytest.param("pc-z2", lambda d: d.update(unit="(0)"), TORSOR_CHECK,
                 '"unit" must be an object', id="unit-a-string"),
    pytest.param("pc-z2", lambda d: d["unit"].update({PC_X: ["(0)"]}), TORSOR_CHECK,
                 "unit.{a,b,x}: a JSON array is not a label", id="unit-with-an-array"),
    pytest.param("sier-em", lambda d: d["predicates"].update(A="F"), FORCE_EM,
                 "predicates.A must be an object", id="predicate-a-string"),
    pytest.param("sier-em", lambda d: d["predicates"]["A"].pop("sort"), FORCE_EM,
                 'predicates.A has no "sort"', id="predicate-without-sort"),
    pytest.param("sier-em", lambda d: d["predicates"]["A"].update(sort=["F"]), FORCE_EM,
                 "predicates.A.sort must be a string", id="predicate-sort-a-list"),
    pytest.param("sier-em", lambda d: d["predicates"]["A"].update(parts=["*"]), FORCE_EM,
                 "predicates.A.parts must be an object", id="predicate-parts-a-list"),
    pytest.param("sier-em", lambda d: d["predicates"]["A"]["parts"].update({"{t}": [["*"]]}), FORCE_EM,
                 "predicates.A.parts.{t}[0]: a JSON array is not a label", id="predicate-parts-with-an-array"),
    pytest.param("sier-em", lambda d: d["sorts"].update(F=["sier-one"]), FORCE_EM,
                 "sorts.F must be a string", id="sort-reference-a-list"),
    pytest.param("sier-em", lambda d: d["context"][0].pop(), FORCE_EM,
                 "context[0] must be a [variable, sort] pair", id="context-entry-of-one"),
    pytest.param("arrow-trivial", lambda d: d.update(covers={"1": [5]}), ARROW_TOPOLOGY,
                 "covers.1[0] must be a list of arrows", id="covers-family-an-int"),
    pytest.param("arrow-trivial", lambda d: d.update(covers={"1": [[["0->1"]]]}), ARROW_TOPOLOGY,
                 "covers.1[0]: a JSON array is not a label", id="covers-family-with-an-array"),
    pytest.param("sier-em", lambda d: d["context"].__setitem__(0, "xF"), FORCE_EM,
                 "context[0] must be a [variable, sort] pair", id="context-entry-a-string"),
    pytest.param("sier-em", lambda d: d["context"][0].__setitem__(1, 5), FORCE_EM,
                 "context[0][1] must be a string", id="context-sort-a-number"),
    pytest.param("arrow-trivial", lambda d: d.update(covers={"1": ["0->1"]}), ARROW_TOPOLOGY,
                 "covers.1[0] must be a list of arrows", id="covers-family-a-string"),
])
def test_malformed_inner_entry_is_a_semantic_error(tmp_path, gallery_name, change, argv, message):
    p, got = run_shadowed(tmp_path, gallery_name, change, *argv)
    assert got == (2, f"error: MalformedDocument: {p}: {gallery_name}: {message}\n")


# -- crashes found by mutating gallery fixtures, as tests/test_document_fuzz.py does --

def test_cocycle_target_that_is_no_open_is_a_semantic_error(tmp_path):
    p, got = run_shadowed(tmp_path, "pc-sign", lambda d: d.update(target="(0)"),
                          "check-cocycle", "--cocycle", "pc-sign")
    assert got == (2, f"error: SemanticError: {p}: pc-sign: cocycle names unknown open '(0)'\n")


def test_declared_unit_that_is_no_section_is_a_semantic_error(tmp_path):
    p, got = run_shadowed(tmp_path, "d2-z2", lambda d: d["unit"].update({"{a}": 0}),
                          "torsor-check", "--site", "discrete2", "--action", "d2-trivial-action")
    assert got == (2, f"error: SemanticError: {p}: d2-z2: declared unit at '{{a}}' is not a unit\n")


@pytest.mark.parametrize("command", ["check-sheaf", "sheafify", "classify", "heyting"])
def test_sections_mixing_numbers_and_strings_are_ordered_by_label(tmp_path, command):
    _, (code, text) = run_shadowed(tmp_path, "two-one", lambda d: d["values"]["0"].__setitem__(1, 0),
                                   command, "--presheaf", "two-one", "--site", "arrow-trivial")
    assert (code, text.splitlines()[-1]) == (0, "verdict: pass")


def test_space_with_number_and_string_points_is_built(tmp_path):
    _, (code, text) = run_shadowed(
        tmp_path, "discrete2", lambda d: d.update(points=["a", 1], opens=[[], ["a"], [1], ["a", 1]]),
        "omega", "--site", "discrete2",
    )
    assert (code, text.splitlines()[-1]) == (0, "verdict: pass")


def test_opens_not_closed_are_named_in_label_order(tmp_path):
    p, got = run_shadowed(
        tmp_path, "discrete2", lambda d: d.update(points=["a", 1, "b"], opens=[[], ["a", 1], [1, "b"], ["a", 1, "b"]]),
        "omega", "--site", "discrete2",
    )
    assert got == (2, f"error: SemanticError: {p}: discrete2: opens not closed under intersection: [1, 'a'] ∩ [1, 'b']\n")


def test_context_variables_of_mixed_types_are_named_in_label_order(tmp_path):
    # force --env assigns strings only, so a numeric variable is rejected when the document loads
    p, got = run_shadowed(tmp_path, "sier-em", lambda d: d.update(context=[[1, "F"], ["x", "F"]]), *FORCE_EM)
    assert got == (2, f"error: MalformedDocument: {p}: sier-em: context[0][0] must be a string\n")


def test_unknown_point_is_named_in_document_order(tmp_path):
    p, got = run_shadowed(tmp_path, "discrete2", lambda d: d["opens"].append(["p", "q", "r", "s"]),
                          "omega", "--site", "discrete2")
    assert got == (2, f"error: SemanticError: {p}: discrete2: open set names unknown point 'p'\n")


def test_bundled_fixtures_are_their_own_canonical_serialization():
    root = resources.files("sheafkit") / "fixtures"
    entries = [e for e in root.iterdir() if e.name.endswith(".json")]
    assert len(entries) == 33
    for entry in entries:
        text = entry.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert entry.name == f"{doc['name']}.json"
        assert serialize_document(doc) == text


def shown_triples(table):
    """{(a, b): c} as the sorted list of shown [a, b, c] triples."""
    return sorted([show_label(a), show_label(b), show_label(c)] for (a, b), c in table.items())


def test_derived_fixtures_are_what_the_builders_compute():
    docs = gallery_documents()
    d2, pc = discrete2_site(), pseudocircle_site()
    Gd2, Gpc = z2_local_system(d2), z2_local_system(pc)
    glued = pc_double_cover()
    presheaves = {
        "const2": const2_presheaf(d2), "const2-full": const2_full_presheaf(d2),
        "d2-z2-sections": Gd2.sections, "pc-z2-sections": Gpc.sections, "pc-double": glued.torsor.space,
    }
    for name, F in presheaves.items():
        C = F.base
        assert docs[name]["values"] == {show_label(u): [show_label(x) for x in F.value[u]] for u in C.objects}
        assert docs[name]["restrictions"] == {
            show_label(f): {show_label(x): show_label(y) for x, y in F.restrict[f].items()}
            for f in C.morphisms
            if not C.is_identity(f)
        }
    for name, G in {"d2-z2": Gd2, "pc-z2": Gpc}.items():
        objects = G.sections.base.objects
        assert docs[name]["mult"] == {show_label(u): shown_triples(G.mult[u]) for u in objects}
        assert docs[name]["unit"] == {show_label(u): show_label(G.unit[u]) for u in objects}
    for name, T in {"pc-action": glued.torsor, "d2-trivial-action": trivial_torsor(Gd2)}.items():
        assert docs[name]["action"] == {show_label(u): shown_triples(T.action[u]) for u in T.space.base.objects}
    cocycles = {"pc-sign": sign_cocycle(pc, Gpc), "pc-unit": unit_cocycle(pc, Gpc, PC_WHOLE, (PC_UX, PC_UY))}
    for name, c in cocycles.items():
        assert docs[name]["values"] == sorted([i, j, show_label(g)] for (i, j), g in c.values.items())


# -- the canonical writer ------------------------------------------------------

def indented_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


TEXT = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["", "\"", "\\", "\n\t\x00\x1f", "\u2028", "\ud800", "\ud7ff", "é∘", "\U0001f600", "</script>"]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 1e300, -1e-300, math.inf, -math.inf, math.nan, 1.5])
    | TEXT
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(TEXT, inner, max_size=4)
        | st.lists(st.lists(TEXT, min_size=1, max_size=3), max_size=4)
        | st.lists(st.lists(TEXT, min_size=2, max_size=2), max_size=4)
        # records of strings that share one key set, and objects of
        # non-empty string objects: the writer's other bulk shapes
        | st.lists(TEXT, min_size=1, max_size=3, unique=True).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, TEXT)), min_size=1, max_size=4)
        )
        | st.dictionaries(TEXT, st.dictionaries(TEXT, TEXT, min_size=1, max_size=4), min_size=1, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
def test_the_writer_matches_indented_json_dumps(value):
    assert serialize_document(value) == indented_dumps(value)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.recursive(
    SCALARS,
    lambda inner: (
        st.tuples(inner, inner)
        | st.dictionaries(st.integers(), inner, max_size=3)
        | st.lists(inner, max_size=3)
        | st.dictionaries(TEXT, inner, max_size=3)
    ),
    max_leaves=12,
))
def test_the_writer_hands_other_values_to_json_dumps(value):
    # tuples and non-string keys are rendered by json.dumps itself, at their depth
    assert serialize_document(value) == indented_dumps(value)


@pytest.mark.parametrize("value", [
    # rows: unequal lengths, and an int among the strings
    [["a", "b"], ["c"]],
    [["a", 1], ["b", "c"]],
    # records: one missing a key, and an int value
    [{"name": "f", "src": "a", "tgt": "b"}, {"name": "g", "src": "a"}],
    [{"name": "f", "src": "a"}, {"name": "g", "src": 1}],
    # objects of objects: an empty one, and an int value
    {"f": {"x": "y"}, "g": {}},
    {"f": {"x": "y", "z": "w"}, "g": {"x": 1}},
])
def test_a_value_that_misses_a_bulk_shape_by_one_member_is_written_as_json_dumps_writes_it(value):
    assert serialize_document(value) == indented_dumps(value)
    assert serialize_document({"outer": [value, value]}) == indented_dumps({"outer": [value, value]})


def test_the_writer_matches_json_dumps_on_every_gallery_fixture():
    docs = gallery_documents()
    assert len(docs) == 33
    for doc in docs.values():
        assert serialize_document(doc) == indented_dumps(doc)


def test_the_writer_matches_json_dumps_on_a_64_object_lattice():
    points = "abcdef"
    opens = ["".join(p for i, p in enumerate(points) if mask >> i & 1) for mask in range(64)]
    C = poset_category(opens, lambda a, b: set(a) <= set(b), name=lambda a, b: f"{a}<{b}")
    doc = {
        "schema": 1, "kind": "category", "name": "lattice6",
        "objects": list(C.objects),
        "morphisms": [{"name": m, "src": C.src[m], "tgt": C.tgt[m]} for m in C.morphisms],
        "identities": dict(C.identity),
        "compose": sorted([g, f, gf] for (g, f), gf in C.table.items()),
    }
    assert len(C.morphisms) == 729 and len(doc["compose"]) == 4096
    text = serialize_document(doc)
    assert text == indented_dumps(doc)
    assert document_digest(doc) == hashlib.sha256(text.encode("utf-8")).hexdigest()
    psh = {
        "schema": 1, "kind": "presheaf", "name": "psh6", "base": "lattice6",
        "values": {u: [f"{u}.{i}" for i in range(len(u) + 1)] for u in C.objects},
        "restrictions": {
            m: {f"{C.tgt[m]}.{i}": f"{C.src[m]}.{min(i, len(C.src[m]))}" for i in range(len(C.tgt[m]) + 1)}
            for m in C.morphisms if not C.is_identity(m)
        },
    }
    assert serialize_document(psh) == indented_dumps(psh)
