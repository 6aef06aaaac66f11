"""Document loading, validation, and canonical serialization."""

import json

import pytest

from sheafkit.documents import (
    DocumentSet,
    document_digest,
    gallery_documents,
    load_documents,
    serialize_document,
)
from sheafkit.errors import ParseError, SemanticError, UnresolvedReference
from sheafkit.gallery import build_documents, pc_double_cover


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
    for doc in build_documents():
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
    docs = {d["name"]: d for d in build_documents()}
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
    from sheafkit.gallery import const2_presheaf, discrete2_site

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
    _, got = run_shadowed(tmp_path, "sier-em", lambda d: d.update(context=[[1, "F"], ["x", "F"]]), *FORCE_EM)
    assert got == (2, "error: IllSorted: environment must assign exactly the context variables [1, 'x']\n")


def test_unknown_point_is_named_in_document_order(tmp_path):
    p, got = run_shadowed(tmp_path, "discrete2", lambda d: d["opens"].append(["p", "q", "r", "s"]),
                          "omega", "--site", "discrete2")
    assert got == (2, f"error: SemanticError: {p}: discrete2: open set names unknown point 'p'\n")


def test_bundled_fixtures_are_what_the_generator_writes(tmp_path):
    from importlib import resources

    from sheafkit.gallery import write_gallery

    write_gallery(tmp_path)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    root = resources.files("sheafkit") / "fixtures"
    bundled = {e.name: e.read_bytes() for e in root.iterdir() if e.name.endswith(".json")}
    assert len(written) == 33
    assert written == bundled
