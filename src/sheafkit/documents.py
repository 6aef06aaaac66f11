"""Document schema, loader, and canonical serializer.

Documents are UTF-8 JSON files, one document per file, carrying a
``"schema": 1`` version field, a ``"kind"`` discriminator, and a unique
``"name"``.  References between documents are by name.  Serialization is
canonical (sorted keys, two-space indent, trailing newline), so loading
and re-serializing a document set is byte-idempotent.

``SCHEMA`` declares the fields of each kind once; a document is checked
against it before its first build, by one walker that names the first bad
value by a JSON path such as ``action.{a,b,x}[0]``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .errors import (
    MalformedDocument,
    ParseError,
    SemanticError,
    UnresolvedReference,
    WorkbenchError,
)
from .fincat import FinCategory, Presheaf, presheaf, validate_category
from .limits import Diagram, diagram
from .logic import Formula, LogicModel, check_sorting, logic_model, parse_formula
from .classifier import subobject
from .site import (
    FiniteSpace,
    Site,
    finite_space,
    open_cover_topology,
    presheaf_site,
    saturate_topology,
)
from .torsor import Cocycle, GroupSheaf, TorsorCandidate, cocycle, group_sheaf, torsor_candidate

SCHEMA_VERSION = 1


def serialize_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def document_digest(doc: dict) -> str:
    return hashlib.sha256(serialize_document(doc).encode("utf-8")).hexdigest()


def _check_header(doc: dict, where: str) -> None:
    if not isinstance(doc, dict):
        raise SemanticError(f"{where}: document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SemanticError(f"{where}: unsupported schema version {doc.get('schema')!r}")
    if doc.get("kind") not in KINDS:
        raise SemanticError(f"{where}: unknown kind {doc.get('kind')!r}")
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        raise SemanticError(f"{where}: missing document name")


# -- the document schema ------------------------------------------------------
# A path names a value in a document: the document's place ("file: name"),
# the top-level field, then object keys and list indices.  Each shape checks
# many values in bulk with ``fits`` (labels hashed in C, entry lengths in one
# pass) and one value with ``walk``, which raises at the first violation; a
# container walks its items one by one only to name the first bad one.

def _at(path) -> str:
    return path[1] + "".join(f"[{s}]" if type(s) is int else f".{s}" for s in path[2:])


def _all_are(kind: type, values) -> bool:
    return set(map(type, values)) <= {kind}


def _must(path, what: str) -> MalformedDocument:
    at = f'"{path[1]}"' if len(path) == 2 else _at(path)
    return MalformedDocument(f"{path[0]}: {at} must be {what}")


class _Label:
    """Any JSON value but an array or an object, which do not hash."""

    def fits(self, values) -> bool:
        try:
            hash(tuple(values))
        except TypeError:
            return False
        return True

    def walk(self, value, path) -> None:
        if isinstance(value, (list, dict)):
            kind = "array" if isinstance(value, list) else "object"
            raise MalformedDocument(f"{path[0]}: {_at(path)}: a JSON {kind} is not a label")


class _String:
    """A name reference, a formula text or a cover target."""

    def fits(self, values) -> bool:
        return _all_are(str, values)

    def walk(self, value, path) -> None:
        if type(value) is not str:
            raise _must(path, "a string")


LABEL, STRING = _Label(), _String()


class _Entry:
    """A list of ``n`` labels, or of any number when ``n`` is None, described as ``what``."""

    def __init__(self, n: int | None, what: str):
        self.n, self.what = n, what

    def fits(self, values) -> bool:
        if not _all_are(list, values) or self.n is not None and not set(map(len, values)) <= {self.n}:
            return False
        return LABEL.fits(chain.from_iterable(values))

    def walk(self, value, path) -> None:
        if type(value) is not list or self.n not in (None, len(value)):
            raise _must(path, self.what)
        for x in value:
            LABEL.walk(x, path)


class _ListOf:
    """A list whose items all have one shape."""

    def __init__(self, item):
        self.item = item

    def fits(self, values) -> bool:
        return _all_are(list, values) and self.item.fits(list(chain.from_iterable(values)))

    def walk(self, value, path) -> None:
        if type(value) is not list:
            raise _must(path, "a list")
        if not self.item.fits(value):
            for i, x in enumerate(value):
                self.item.walk(x, (*path, i))


class _MapOf:
    """An object whose values all have one shape."""

    def __init__(self, item):
        self.item = item

    def fits(self, values) -> bool:
        return _all_are(dict, values) and self.item.fits(list(chain.from_iterable(map(dict.values, values))))

    def walk(self, value, path) -> None:
        if type(value) is not dict:
            raise _must(path, "an object")
        if not self.item.fits(value.values()):
            for k, x in value.items():
                self.item.walk(x, (*path, k))


class _Record:
    """An object with named fields: each a shape, or ``(shape, default)`` when optional.
    A field that is absent or equal to its default is not walked."""

    def __init__(self, fields: dict):
        self.fields = {k: f if type(f) is tuple else (f, ...) for k, f in fields.items()}  # ...: required
        self.defaults = {k: d for k, (_, d) in self.fields.items() if d is not ...}
        self.required = self.fields.keys() - self.defaults.keys()

    def fits(self, values) -> bool:
        return _all_are(dict, values) and all(self.required <= v.keys() for v in values) and all(
            shape.fits([v[k] for v in values if v.get(k, default) != default])
            for k, (shape, default) in self.fields.items()
        )

    def walk(self, value, path) -> None:
        if type(value) is not dict:
            raise _must(path, "an object")
        for key, (shape, default) in self.fields.items():
            if key in value:
                if value[key] != default:
                    shape.walk(value[key], (*path, key))
            elif default is ...:
                missing = "missing field" if len(path) == 1 else f"{_at(path)} has no"
                raise MalformedDocument(f'{path[0]}: {missing} "{key}"')


_LABELS = _ListOf(LABEL)
_ARROW_TABLES = (_MapOf(_MapOf(LABEL)), {})  # each arrow to its map of labels to labels

SCHEMA = {
    "category": _Record({
        "objects": _LABELS,
        "morphisms": _ListOf(_Record({"name": LABEL, "src": LABEL, "tgt": LABEL})),
        "identities": _MapOf(LABEL),
        "compose": (_ListOf(_Entry(3, "a [g, f, g∘f] triple")), []),
    }),
    "space": _Record({"points": _LABELS, "opens": _ListOf(_Entry(None, "a list of points"))}),
    "topology": _Record({
        "category": STRING,
        "covers": (_MapOf(_ListOf(_Entry(None, "a list of arrows"))), "trivial"),
    }),
    "presheaf": _Record({"base": STRING, "values": _MapOf(_LABELS), "restrictions": _ARROW_TABLES}),
    "group-sheaf": _Record({
        "presheaf": STRING,
        "mult": _MapOf(_ListOf(_Entry(3, "a [g, h, gh] triple"))),
        "unit": (_MapOf(LABEL), None),
    }),
    "action": _Record({
        "space-presheaf": STRING,
        "group": STRING,
        "action": _MapOf(_ListOf(_Entry(3, "a [p, g, pg] triple"))),
    }),
    "cocycle": _Record({
        "site": STRING,
        "group": STRING,
        "target": STRING,
        "cover": _LABELS,
        "values": _ListOf(_Entry(3, "an [i, j, g] triple")),
    }),
    "formula": _Record({
        "site": STRING,
        "text": STRING,
        "sorts": (_MapOf(STRING), {}),
        "predicates": (_MapOf(_Record({"sort": STRING, "parts": (_MapOf(_LABELS), {})})), {}),
        "context": (_ListOf(_Entry(2, "a [variable, sort] pair")), []),
    }),
    "diagram": _Record({"shape": STRING, "values": _MapOf(_LABELS), "actions": _ARROW_TABLES}),
}

KINDS = tuple(SCHEMA)


@dataclass
class FormulaDocument:
    model: LogicModel
    formula: Formula
    context: tuple[tuple[str, str], ...]


@dataclass
class DocumentSet:
    """A resolved collection of documents with lazily built objects."""

    raw: dict[str, dict] = field(default_factory=dict)
    origin: dict[str, str] = field(default_factory=dict)
    _built: dict = field(default_factory=dict)

    def add(self, doc: dict, where: str, allow_shadow: bool = False) -> None:
        _check_header(doc, where)
        name = doc["name"]
        if name in self.raw and not allow_shadow:
            raise SemanticError(
                f"{where}: duplicate document name {name!r} (also in {self.origin[name]})"
            )
        self.raw[name] = doc
        self.origin[name] = where

    def _doc(self, name: str, kinds: tuple[str, ...]) -> dict:
        if name not in self.raw:
            raise UnresolvedReference(f"no document named {name!r}")
        doc = self.raw[name]
        if doc["kind"] not in kinds:
            raise UnresolvedReference(
                f"{name!r} is a {doc['kind']} document; expected one of {kinds}"
            )
        return doc

    def names(self, kind: str | None = None):
        return tuple(
            sorted(n for n, d in self.raw.items() if kind is None or d["kind"] == kind)
        )

    def digest(self, name: str) -> str:
        return document_digest(self._doc(name, KINDS))

    # -- builders ------------------------------------------------------------

    def _memo(self, kinds: tuple[str, ...], name: str, build):
        """Check the named document against SCHEMA, then build it once, defaults filled in.

        A library error from the build is raised as a ``SemanticError``
        prefixed with the file and document, and marked ``located``.
        Errors that already name their document pass through unchanged:
        ``MalformedDocument`` and the located errors of a nested build.
        """
        doc = self._doc(name, kinds)
        if (kinds, name) not in self._built:
            where = f"{self.origin[name]}: {name}"
            schema = SCHEMA[doc["kind"]]
            schema.walk(doc, (where,))
            try:
                self._built[kinds, name] = build({**schema.defaults, **doc})
            except (UnresolvedReference, MalformedDocument):
                raise
            except WorkbenchError as err:
                if getattr(err, "located", False):
                    raise
                located = SemanticError(f"{where}: {err}")
                located.located = True
                raise located from err
        return self._built[kinds, name]

    def category(self, name: str) -> FinCategory:
        def build(doc):
            morphisms = [(m["name"], m["src"], m["tgt"]) for m in doc["morphisms"]]
            compose = {(g, f): gf for g, f, gf in doc["compose"]}
            return validate_category(doc["objects"], morphisms, doc["identities"], compose)

        return self._memo(("category",), name, build)

    def space(self, name: str) -> FiniteSpace:
        return self._memo(("space",), name, lambda doc: finite_space(doc["points"], doc["opens"]))

    def site(self, name: str) -> Site:
        def build(doc):
            if doc["kind"] == "space":
                return open_cover_topology(self.space(name))
            cat = self.category(doc["category"])
            if doc["covers"] == "trivial":
                return presheaf_site(cat)
            return Site(cat, saturate_topology(cat, doc["covers"]))

        return self._memo(("space", "topology"), name, build)

    def base_category(self, name: str) -> FinCategory:
        """The category behind a base reference: a category, space, or topology doc."""
        doc = self._doc(name, ("category", "space", "topology"))
        if doc["kind"] == "category":
            return self.category(name)
        return self.site(name).category

    def presheaf(self, name: str) -> Presheaf:
        def build(doc):
            return presheaf(self.base_category(doc["base"]), doc["values"], doc["restrictions"])

        return self._memo(("presheaf",), name, build)

    def group_sheaf(self, name: str) -> GroupSheaf:
        def build(doc):
            mult = {u: {(a, b): ab for a, b, ab in triples} for u, triples in doc["mult"].items()}
            return group_sheaf(self.presheaf(doc["presheaf"]), mult, doc["unit"], None)

        return self._memo(("group-sheaf",), name, build)

    def action(self, name: str) -> TorsorCandidate:
        def build(doc):
            P = self.presheaf(doc["space-presheaf"])
            G = self.group_sheaf(doc["group"])
            action = {u: {(p, g): pg for p, g, pg in triples} for u, triples in doc["action"].items()}
            return torsor_candidate(P, G, action)

        return self._memo(("action",), name, build)

    def cocycle(self, name: str) -> Cocycle:
        def build(doc):
            for k, (i, j, _) in enumerate(doc["values"]):
                if type(i) is not int or type(j) is not int:
                    raise MalformedDocument(
                        f"{self.origin[name]}: {name}: values[{k}] must have integer indices, got {i!r}, {j!r}"
                    )
            values = {(i, j): g for i, j, g in doc["values"]}
            site, G = self.site(doc["site"]), self.group_sheaf(doc["group"])
            return cocycle(site, G, doc["target"], tuple(doc["cover"]), values)

        return self._memo(("cocycle",), name, build)

    def formula(self, name: str) -> FormulaDocument:
        def build(doc):
            site = self.site(doc["site"])
            sorts = {alias: self.presheaf(ref) for alias, ref in doc["sorts"].items()}
            predicates = {}
            for pname, spec in doc["predicates"].items():
                sort_name = spec["sort"]
                if sort_name not in sorts:
                    raise UnresolvedReference(f"predicate {pname!r} names unknown sort {sort_name!r}")
                parts = {u: frozenset(v) for u, v in spec.get("parts", {}).items()}
                predicates[pname] = (sort_name, subobject(sorts[sort_name], parts))
            model = logic_model(site, sorts, predicates)
            phi = parse_formula(doc["text"])
            context = tuple((v, s) for v, s in doc["context"])
            check_sorting(model, phi, context)
            return FormulaDocument(model, phi, context)

        return self._memo(("formula",), name, build)

    def diagram(self, name: str) -> Diagram:
        def build(doc):
            return diagram(self.base_category(doc["shape"]), doc["values"], doc["actions"])

        return self._memo(("diagram",), name, build)


def load_documents(paths, include_gallery: bool = True) -> DocumentSet:
    """Load JSON documents from files and directories.

    Bundled gallery fixtures are available by name unless shadowed by a
    user document of the same name.
    """
    ds = DocumentSet()
    if include_gallery:
        for name, doc in gallery_documents().items():
            ds.add(doc, f"gallery:{name}")
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        elif path.exists():
            files.append(path)
        else:
            raise ParseError(f"{path}: no such file or directory")
    for path in files:
        text = path.read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
        ds.add(doc, str(path), allow_shadow=include_gallery)
    return ds


_GALLERY_CACHE: dict[str, dict] | None = None


def gallery_documents() -> dict[str, dict]:
    global _GALLERY_CACHE
    if _GALLERY_CACHE is None:
        from importlib import resources

        docs = {}
        root = resources.files("sheafkit") / "fixtures"
        for entry in sorted(root.iterdir(), key=lambda e: e.name):
            if entry.name.endswith(".json"):
                doc = json.loads(entry.read_text(encoding="utf-8"))
                docs[doc["name"]] = doc
        _GALLERY_CACHE = docs
    return dict(_GALLERY_CACHE)
