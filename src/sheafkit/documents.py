"""Document schema, loader, and canonical serializer.

Documents are UTF-8 JSON files, one document per file, carrying a
``"schema": 1`` version field, a ``"kind"`` discriminator, and a unique
``"name"``.  References between documents are by name.  Serialization is
canonical (sorted keys, two-space indent, trailing newline), so loading
and re-serializing a document set is byte-idempotent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
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
from .logic import Formula, LogicModel, logic_model, parse_formula
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

KINDS = (
    "category",
    "space",
    "topology",
    "presheaf",
    "group-sheaf",
    "action",
    "cocycle",
    "formula",
    "diagram",
)

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


_JSON_TYPES = {list: "a list", dict: "an object", str: "a string"}


def _entries(doc: dict, key: str, where: str, required: bool = True, kind: type = list):
    """The list (or, with ``kind=dict``, the object; with ``kind=str``, the
    string) under ``key``; a missing or mistyped field names the document."""
    if key not in doc:
        if required:
            raise MalformedDocument(f'{where}: missing field "{key}"')
        return kind()
    if not isinstance(doc[key], kind):
        raise MalformedDocument(f'{where}: "{key}" must be {_JSON_TYPES[kind]}')
    return doc[key]


def _check_labels(entries, where: str) -> None:
    """Every label in a list or dict of entries must hash; JSON arrays and
    objects do not, and cannot name anything.

    The entries are hashed in one pass; only when that fails are they
    searched, to name the first bad one.
    """
    is_map = isinstance(entries, dict)
    try:
        frozenset(entries.values() if is_map else entries)
    except TypeError:
        for key, entry in entries.items() if is_map else enumerate(entries):
            for label in entry if isinstance(entry, tuple) else (entry,):
                if isinstance(label, (list, dict)):
                    kind = "array" if isinstance(label, list) else "object"
                    at = f"{where}.{key}" if is_map else f"{where}[{key}]"
                    raise MalformedDocument(f"{at}: a JSON {kind} is not a label") from None
        raise


def _category_tables(doc: dict, where: str):
    """Field and type checks for a category document, ahead of the axioms."""
    objects = _entries(doc, "objects", where)
    rows = _entries(doc, "morphisms", where)
    for i, m in enumerate(rows):
        if not isinstance(m, dict):
            raise MalformedDocument(f'{where}: morphisms[{i}] must be an object with "name", "src" and "tgt"')
        for key in ("name", "src", "tgt"):
            if key not in m:
                raise MalformedDocument(f'{where}: morphisms[{i}] has no "{key}"')
    identities = doc.get("identities")
    if not isinstance(identities, dict):
        raise MalformedDocument(f'{where}: "identities" must map each object to its identity morphism')
    triples = _entries(doc, "compose", where, required=False)
    for i, entry in enumerate(triples):
        if not isinstance(entry, list) or len(entry) != 3:
            raise MalformedDocument(f"{where}: compose[{i}] must be a [g, f, g∘f] triple")
    morphisms = [(m["name"], m["src"], m["tgt"]) for m in rows]
    compose = [tuple(entry) for entry in triples]
    _check_labels(objects, f"{where}: objects")
    _check_labels(morphisms, f"{where}: morphisms")
    _check_labels(identities, f"{where}: identities")
    _check_labels(compose, f"{where}: compose")
    return objects, morphisms, identities, {(g, f): gf for g, f, gf in compose}


def _value_table(doc: dict, where: str) -> dict:
    """The "values" of a presheaf or diagram document: each object to a list of labels."""
    values = _entries(doc, "values", where, kind=dict)
    for u, v in values.items():
        if not isinstance(v, list):
            raise MalformedDocument(f'{where}: values.{u} must be a list')
        _check_labels(v, f"{where}: values.{u}")
    return {u: tuple(v) for u, v in values.items()}


def _arrow_tables(doc: dict, key: str, where: str) -> dict:
    """The "restrictions" of a presheaf or "actions" of a diagram: each arrow
    to an object that maps labels to labels."""
    tables = _entries(doc, key, where, required=False, kind=dict)
    for f, tab in tables.items():
        if not isinstance(tab, dict):
            raise MalformedDocument(f"{where}: {key}.{f} must be an object")
        _check_labels(tab, f"{where}: {key}.{f}")
    return {f: dict(tab) for f, tab in tables.items()}


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

    def _memo(self, key, build):
        if key not in self._built:
            try:
                self._built[key] = build()
            except (UnresolvedReference, SemanticError):
                raise
            except WorkbenchError as err:
                raise SemanticError(f"{self.origin.get(key[1], '?')}: {key[1]}: {err}") from err
        return self._built[key]

    def category(self, name: str) -> FinCategory:
        doc = self._doc(name, ("category",))

        def build():
            return validate_category(*_category_tables(doc, f"{self.origin[name]}: {name}"))

        return self._memo(("category", name), build)

    def space(self, name: str) -> FiniteSpace:
        doc = self._doc(name, ("space",))

        def build():
            where = f"{self.origin[name]}: {name}"
            points = _entries(doc, "points", where)
            opens = _entries(doc, "opens", where)
            for i, o in enumerate(opens):
                if not isinstance(o, list):
                    raise MalformedDocument(f"{where}: opens[{i}] must be a list of points")
            opens = [tuple(o) for o in opens]
            _check_labels(points, f"{where}: points")
            _check_labels(opens, f"{where}: opens")
            return finite_space(points, opens)

        return self._memo(("space", name), build)

    def site(self, name: str) -> Site:
        doc = self._doc(name, ("space", "topology"))

        def build():
            if doc["kind"] == "space":
                return open_cover_topology(self.space(name))
            where = f"{self.origin[name]}: {name}"
            cat = self.category(_entries(doc, "category", where, kind=str))
            if doc.get("covers", "trivial") == "trivial":
                return presheaf_site(cat)
            covers = _entries(doc, "covers", where, kind=dict)
            families = {u: [tuple(fam) for fam in fams] for u, fams in covers.items()}
            return Site(cat, saturate_topology(cat, families))

        return self._memo(("site", name), build)

    def base_category(self, name: str) -> FinCategory:
        """The category behind a base reference: a category, space, or topology doc."""
        doc = self._doc(name, ("category", "space", "topology"))
        if doc["kind"] == "category":
            return self.category(name)
        return self.site(name).category

    def presheaf(self, name: str) -> Presheaf:
        doc = self._doc(name, ("presheaf",))

        def build():
            where = f"{self.origin[name]}: {name}"
            values = _value_table(doc, where)
            base = self.base_category(_entries(doc, "base", where, kind=str))
            return presheaf(base, values, _arrow_tables(doc, "restrictions", where))

        return self._memo(("presheaf", name), build)

    def group_sheaf(self, name: str) -> GroupSheaf:
        doc = self._doc(name, ("group-sheaf",))

        def build():
            where = f"{self.origin[name]}: {name}"
            G = self.presheaf(_entries(doc, "presheaf", where, kind=str))
            mult = {
                u: {(a, b): ab for a, b, ab in triples}
                for u, triples in _entries(doc, "mult", where, kind=dict).items()
            }
            return group_sheaf(G, mult, doc.get("unit"), None)

        return self._memo(("group-sheaf", name), build)

    def action(self, name: str) -> TorsorCandidate:
        doc = self._doc(name, ("action",))

        def build():
            where = f"{self.origin[name]}: {name}"
            P = self.presheaf(_entries(doc, "space-presheaf", where, kind=str))
            G = self.group_sheaf(_entries(doc, "group", where, kind=str))
            action = {
                u: {(p, g): pg for p, g, pg in triples}
                for u, triples in _entries(doc, "action", where, kind=dict).items()
            }
            return torsor_candidate(P, G, action)

        return self._memo(("action", name), build)

    def cocycle(self, name: str) -> Cocycle:
        doc = self._doc(name, ("cocycle",))

        def build():
            where = f"{self.origin[name]}: {name}"
            values = {}
            for k, entry in enumerate(_entries(doc, "values", where)):
                if not isinstance(entry, list) or len(entry) != 3:
                    raise MalformedDocument(f"{where}: values[{k}] must be an [i, j, g] triple")
                i, j, g = entry
                if not all(type(x) is int for x in (i, j)):
                    raise MalformedDocument(f"{where}: values[{k}] must have integer indices, got {i!r}, {j!r}")
                values[(i, j)] = g
            cover = _entries(doc, "cover", where)
            _check_labels(cover, f"{where}: cover")
            site = self.site(_entries(doc, "site", where, kind=str))
            G = self.group_sheaf(_entries(doc, "group", where, kind=str))
            target = _entries(doc, "target", where, kind=str)
            return cocycle(site, G, target, tuple(cover), values)

        return self._memo(("cocycle", name), build)

    def formula(self, name: str) -> FormulaDocument:
        doc = self._doc(name, ("formula",))

        def build():
            where = f"{self.origin[name]}: {name}"
            site = self.site(_entries(doc, "site", where, kind=str))
            sorts = {
                alias: self.presheaf(ref)
                for alias, ref in _entries(doc, "sorts", where, required=False, kind=dict).items()
            }
            predicates = {}
            for pname, spec in _entries(doc, "predicates", where, required=False, kind=dict).items():
                sort_name = spec["sort"]
                if sort_name not in sorts:
                    raise UnresolvedReference(
                        f"predicate {pname!r} names unknown sort {sort_name!r}"
                    )
                amb = sorts[sort_name]
                parts = {u: frozenset(v) for u, v in spec.get("parts", {}).items()}
                predicates[pname] = (sort_name, subobject(amb, parts))
            model = logic_model(site, sorts, predicates)
            phi = parse_formula(_entries(doc, "text", where, kind=str))
            context = tuple((v, s) for v, s in _entries(doc, "context", where, required=False))
            from .logic import check_sorting

            check_sorting(model, phi, context)
            return FormulaDocument(model, phi, context)

        return self._memo(("formula", name), build)

    def diagram(self, name: str) -> Diagram:
        doc = self._doc(name, ("diagram",))

        def build():
            where = f"{self.origin[name]}: {name}"
            values = _value_table(doc, where)
            shape = self.base_category(_entries(doc, "shape", where, kind=str))
            return diagram(shape, values, _arrow_tables(doc, "actions", where))

        return self._memo(("diagram", name), build)


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
