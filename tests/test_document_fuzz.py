"""Mutation fuzzing of the bundled documents through the command line.

Each example takes one gallery fixture, applies one mutation to it (delete
a field or item, retype it, shorten a list, nest a value in a list, swap
a label for another label of the same document, or add an entry to an
object, a copy of one of its entries under a new key), and runs a
subcommand that reads the fixture with the mutated file shadowing the
gallery copy.  Whatever the mutation, the command must give a verdict
(exit 0 or 1) or reject the input (exit 2); no exception may escape.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheafkit.cli import run
from sheafkit.documents import gallery_documents, load_documents, serialize_document
from sheafkit.errors import SemanticError

GALLERY = gallery_documents()
# a site for each presheaf base that is not a site itself
SITE_OF = {"arrow": "arrow-trivial"}


def consumers(name: str, doc: dict) -> list[list[str]]:
    """Subcommands that read the named document, directly or through one that references it."""
    kind = doc["kind"]
    if kind == "category":
        return [["validate-category", "--category", name]]
    if kind == "space":
        return [["omega", "--site", name]]
    if kind == "topology":
        return [["validate-topology", "--site", name]]
    if kind == "presheaf":
        return [["check-sheaf", "--presheaf", name, "--site", SITE_OF.get(doc["base"], doc["base"])]]
    if kind == "group-sheaf":
        return [argv for other, d in GALLERY.items() if d.get("group") == name for argv in consumers(other, d)]
    if kind == "action":
        site = GALLERY[doc["space-presheaf"]]["base"]
        return [["torsor-check", "--site", site, "--action", name]]
    if kind == "cocycle":
        return [["check-cocycle", "--cocycle", name]]
    if kind == "formula":
        return [["interpret", "--formula", name]]
    return [["limit", "--diagram", name]]


COMMANDS = {name: consumers(name, doc) for name, doc in GALLERY.items()}


def places(value, path=()):
    """Every (path, value) inside a document, containers before their items."""
    if path:
        yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from places(v, (*path, k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from places(v, (*path, i))


def parent_of(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


OTHER_TYPES = [0, 2.5, "x", None, True, [], {}]


@st.composite
def mutations(draw):
    """A gallery fixture name and its JSON text after one mutation."""
    name = draw(st.sampled_from(sorted(GALLERY)))
    doc = json.loads(serialize_document(GALLERY[name]))
    spots = list(places(doc))
    leaves = [(p, v) for p, v in spots if not isinstance(v, (list, dict))]
    lists = [(p, v) for p, v in spots if isinstance(v, list) and v]
    objects = [(p, v) for p, v in spots if isinstance(v, dict) and v]
    where = {"delete": spots, "retype": spots, "shorten": lists, "nest": spots, "swap": leaves, "add": objects}
    how = draw(st.sampled_from([how for how, at in where.items() if at]))
    path, value = draw(st.sampled_from(where[how]))
    parent, key = parent_of(doc, path), path[-1]
    if how == "delete":
        del parent[key]
    elif how == "retype":
        parent[key] = draw(st.sampled_from([t for t in OTHER_TYPES if type(t) is not type(value)]))
    elif how == "shorten":
        value.pop()
    elif how == "nest":
        parent[key] = [value]
    elif how == "add":
        value["nope"] = copy.deepcopy(value[draw(st.sampled_from(sorted(value)))])
    else:
        labels = sorted({json.dumps(v) for _, v in leaves})
        parent[key] = json.loads(draw(st.sampled_from([s for s in labels if s != json.dumps(value)] or labels)))
    return name, serialize_document(doc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutations())
def test_a_mutated_fixture_gives_a_verdict_or_exit_two(tmp_path_factory, mutation):
    name, text = mutation
    root = tmp_path_factory.mktemp("fuzz")
    path = root / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    for argv in COMMANDS[name]:
        code, _ = run([*argv, "--docs", str(path)])
        assert code in (0, 1, 2), argv
    try:
        ds = load_documents([str(path)], include_gallery=False)
    except SemanticError:  # a header the loader rejects: the document never loads
        return
    (loaded,) = ds.raw.values()
    again = root / "again.json"
    again.write_text(serialize_document(loaded), encoding="utf-8")
    reloaded = load_documents([str(again)], include_gallery=False)
    assert serialize_document(loaded) == text
    assert serialize_document(next(iter(reloaded.raw.values()))) == text
