"""Command-line interface.

Every subcommand loads documents (bundled gallery plus ``--docs`` paths),
runs one check or construction, and prints a deterministic report:
human-readable lines by default, canonical JSON with ``--format json``.
Exit code 0 means the verdict passed, 1 means it failed, 2 means the
invocation or the documents were unusable.

``run`` builds its parser on its first call and reuses it for every later
call in the process, so an in-process caller pays only for its own command.
``build_parser`` still returns a fresh parser on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .classifier import classify_round_trip, heyting_report, omega, omega_open_iso
from .documents import load_documents
from .errors import (
    IntractableSize,
    MalformedDocument,
    UnknownObject,
    UnresolvedReference,
    UsageError,
    WorkbenchError,
)
from .fincat import natural_index_families, yoneda_presheaf
from .labels import label_key, show_label
from .limits import (
    certify_colimit,
    certify_limit,
    coequalizer,
    colimit,
    equalizer,
    kan_to_point,
    limit,
    pullback,
    set_fun,
)
from .logic import forces, format_formula, interpret
from .sheaf import family_from_cover, glue, is_sheaf, sheafify
from .site import validate_topology
from .torsor import (
    LocalSections,
    canonical_map_check,
    check_cocycle,
    cocycles_equivalent,
    extract_cocycle,
    glue_torsor,
    is_torsor,
)

def _sieve_arrows(S):
    return [show_label(f) for f in S.ordered]


def _parse_pairs(pairs, what):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise UsageError(f"{what} entries look like NAME=VALUE, got {item!r}")
        k, v = item.split("=", 1)
        if k in out:
            raise UsageError(f"{what} names {k!r} more than once")
        out[k] = v
    return out


def _report(command, inputs, options, verdict, details):
    return {
        "command": command,
        "inputs": inputs,
        "options": options,
        "verdict": "pass" if verdict else "fail",
        "details": details,
    }


def _render_text(report) -> str:
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            if not value:
                lines.append(f"{prefix}: []")
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix}: {value}")

    lines.append(f"command: {report['command']}")
    for item in report["inputs"]:
        lines.append(f"input: {item['name']} sha256={item['digest']}")
    walk("options", report["options"])
    walk("details", report["details"])
    lines.append(f"verdict: {report['verdict']}")
    if "timing_ms" in report:
        lines.append(f"timing_ms: {report['timing_ms']}")
    return "\n".join(lines) + "\n"


# -- per-subcommand handlers ----------------------------------------------------
# each returns (verdict: bool, details: dict, input names: list[str])

def _h_validate_category(ds, args):
    try:
        C = ds.category(args.category)
    except (MalformedDocument, IntractableSize, UnresolvedReference):
        raise  # a load error, not a verdict on the category
    except WorkbenchError as err:
        return False, {"error": str(err)}, [args.category]
    return True, {
        "objects": len(C.objects),
        "morphisms": len(C.morphisms),
    }, [args.category]


def _h_validate_topology(ds, args):
    site = ds.site(args.site)
    report = validate_topology(site.topology, args.bound)
    details = {
        "sieves_checked": report.sieves_checked,
        "violations": [
            {"axiom": v.axiom, "at": show_label(v.at), "detail": v.detail}
            for v in report.violations
        ],
        "covering_sieves": {
            show_label(u): len(site.topology.covers[u]) for u in site.category.objects
        },
    }
    return report.ok, details, [args.site]


def _h_check_sheaf(ds, args):
    site = ds.site(args.site)
    F = ds.presheaf(args.presheaf)
    report = is_sheaf(F, site.topology, args.bound)
    details = {
        "pairs_checked": report.pairs_checked,
        "failures": [
            {
                "at": show_label(f.at),
                "sieve": _sieve_arrows(f.sieve),
                "kind": f.kind,
                "sections": f.sections,
                "families": f.families,
                "witness": f.witness,
            }
            for f in report.failures
        ],
    }
    return report.ok, details, [args.presheaf, args.site]


def _h_glue(ds, args):
    from .errors import IncompatibleFamily, NoSuchFamily, NotASheafHere

    site = ds.site(args.site)
    F = ds.presheaf(args.presheaf)
    sections = _parse_pairs(args.section, "--section")
    try:
        sieve_, fam = family_from_cover(site, F, args.at, sections)
        glued = glue(F, site.topology, sieve_, fam)
    except (IncompatibleFamily, NoSuchFamily, NotASheafHere) as err:
        return False, {"at": show_label(args.at), "error": str(err)}, [args.presheaf, args.site]
    details = {
        "at": show_label(args.at),
        "sieve": _sieve_arrows(sieve_),
        "section": show_label(glued),
    }
    return True, details, [args.presheaf, args.site]


def _h_sheafify(ds, args):
    site = ds.site(args.site)
    F = ds.presheaf(args.presheaf)
    sh, unit = sheafify(F, site.topology, args.bound)
    report = is_sheaf(sh, site.topology, args.bound)
    details = {
        "sections_before": {show_label(u): len(F.value[u]) for u in F.base.objects},
        "sections_after": {show_label(u): len(sh.value[u]) for u in sh.base.objects},
        "unit_injective": all(
            len(set(unit.components[u].values())) == len(unit.components[u])
            for u in F.base.objects
        ),
        "result_is_sheaf": report.ok,
    }
    return report.ok, details, [args.presheaf, args.site]


def _h_omega(ds, args):
    site = ds.site(args.site)
    om = omega(site, args.bound)
    sheaf_report = is_sheaf(om.presheaf, site.topology, args.bound)
    iso = omega_open_iso(om)
    details = {
        "truth_values": {
            show_label(u): len(om.presheaf.value[u]) for u in site.category.objects
        },
        "is_sheaf": sheaf_report.ok,
        "open_isomorphism": iso.ok,
    }
    if iso.ok:
        details["opens"] = {
            show_label(u): [[show_label(t), o] for t, o in iso.table[u]]
            for u in site.category.objects
        }
    verdict = sheaf_report.ok and (iso.ok or not site.is_open_cover_site())
    return verdict, details, [args.site]


def _h_classify(ds, args):
    site = ds.site(args.site)
    X = ds.presheaf(args.presheaf)
    report = classify_round_trip(site, X, args.bound)
    details = {
        "subobjects": report.subobjects,
        "arrows_into_omega": report.arrows,
        "failures": list(report.failures),
    }
    return report.ok, details, [args.site, args.presheaf]


def _h_heyting(ds, args):
    site = ds.site(args.site)
    F = ds.presheaf(args.presheaf)
    report = heyting_report(site, F, args.bound)
    details = {
        "subobjects": report.size,
        "axioms": {name: ok for name, ok in report.checks},
        "excluded_middle_fails": report.excluded_middle_fails,
        "double_negation_strict": report.double_negation_strict,
        "witnesses": list(report.witnesses),
    }
    return report.ok, details, [args.site, args.presheaf]


def _formula(ds, args):
    """The formula document ``--formula``; a ``--site`` other than its
    own site is a usage error."""
    fd = ds.formula(args.formula)
    if args.site and fd.model.site is not ds.site(args.site):
        raise UsageError(
            f"formula {args.formula!r} is pinned to its own site document"
        )
    return fd


def _h_force(ds, args):
    fd = _formula(ds, args)
    env = _parse_pairs(args.env, "--env")
    forced = forces(fd.model, args.at, fd.formula, env, fd.context, args.bound)
    details = {
        "formula": format_formula(fd.formula),
        "at": show_label(args.at),
        "forced": forced,
        "sections": {
            name: [show_label(x) for x in sort.value[args.at]]
            for name, sort in sorted(fd.model.sorts.items())
        },
    }
    return forced, details, [args.formula]


def _h_interpret(ds, args):
    fd = _formula(ds, args)
    sub = interpret(fd.model, fd.formula, fd.context, args.bound)
    details = {
        "formula": format_formula(fd.formula),
        "context": [[v, s] for v, s in fd.context],
        "subobject": {
            show_label(u): [show_label(x) for x in sorted(sub.parts[u], key=label_key)]
            for u in fd.model.site.category.objects
        },
    }
    return True, details, [args.formula]


def _h_torsor_check(ds, args):
    site = ds.site(args.site)
    T = ds.action(args.action)
    report = is_torsor(T, site, nonempty_everywhere=not args.existential)
    canonical = canonical_map_check(T, site)
    details = {
        "locally_nonempty": report.locally_nonempty,
        "uniquely_transitive": report.uniquely_transitive,
        "canonical_map": canonical.ok,
        "agreement": report.ok == canonical.ok,
        "failures": list(report.failures) + list(canonical.failures),
        "sections": {
            show_label(u): len(T.space.value[u]) for u in T.space.base.objects
        },
    }
    return report.ok, details, [args.site, args.action]


def _h_extract_cocycle(ds, args):
    site = ds.site(args.site)
    T = ds.action(args.action)
    cover = tuple(args.cover)
    for u in cover:
        if u not in T.space.value:
            raise UnknownObject(f"no object {u!r}")
    picked = _parse_pairs(args.section, "--section")
    sections = {}
    for key, val in picked.items():
        if not (key.isdecimal() and int(key) < len(cover)):
            raise UsageError(
                f"--section {key}={val}: INDEX must be 0 to {len(cover) - 1},"
                f" a position in the {len(cover)} --cover entries"
            )
        if int(key) in sections:
            raise UsageError(f"--section names index {int(key)} more than once")
        sections[int(key)] = _find_label(T.space.value[cover[int(key)]], val)
    c = extract_cocycle(T, site, args.target, LocalSections(cover, sections))
    report = check_cocycle(c)
    details = {
        "cover": list(cover),
        "values": sorted(
            [i, j, show_label(g)] for (i, j), g in c.values.items()
        ),
        "cocycle_valid": report.ok,
    }
    return report.ok, details, [args.site, args.action]


def _find_label(labels, rendered):
    hits = [x for x in labels if show_label(x) == rendered]
    if len(hits) != 1:
        raise UsageError(f"{rendered!r} does not name a unique section")
    return hits[0]


def _h_check_cocycle(ds, args):
    c = ds.cocycle(args.cocycle)
    report = check_cocycle(c)
    details = {
        "triples_checked": report.triples_checked,
        "failures": list(report.failures),
    }
    return report.ok, details, [args.cocycle]


def _h_glue_torsor(ds, args):
    c = ds.cocycle(args.cocycle)
    glued = glue_torsor(c.site, c.group, c, args.bound)
    torsor_report = is_torsor(glued.torsor, glued.site)
    extracted = extract_cocycle(
        glued.torsor, glued.site, c.target, glued.canonical_sections
    )
    equiv = cocycles_equivalent(extracted, c, args.bound)
    details = {
        "sections": {
            show_label(u): len(glued.torsor.space.value[u])
            for u in glued.site.category.objects
        },
        "is_torsor": torsor_report.ok,
        "extracted_equivalent": equiv.equivalent,
    }
    return torsor_report.ok and equiv.equivalent, details, [args.cocycle]


def _h_cocycle_equiv(ds, args):
    c1 = ds.cocycle(args.left)
    c2 = ds.cocycle(args.right)
    res = cocycles_equivalent(c1, c2, args.bound)
    details = {"equivalent": res.equivalent}
    if res.witness is not None:
        details["witness"] = {
            str(i): show_label(h) for i, h in sorted(res.witness.items())
        }
    return res.equivalent, details, [args.left, args.right]


def _check_certify(args):
    # a negative size would check no test cone and still pass
    if args.certify < 0:
        raise UsageError(f"--certify takes a test apex size of at least 0, got {args.certify}")


def _h_cone(ds, args, construct, certify):
    """``limit`` or ``colimit`` of --diagram, certified against test apexes
    of size up to --certify."""
    _check_certify(args)
    res = construct(ds.diagram(args.diagram))
    details = {
        "apex_size": len(res.apex),
        "apex": [show_label(t) for t in res.apex],
    }
    ok = True
    if args.certify:
        cert = certify(res, max_apex=args.certify, bound=args.bound)
        details["certificate"] = {"ok": cert.ok, "cones_checked": cert.cones_checked}
        ok = cert.ok
    return ok, details, [args.diagram]


def _cospan_legs(D):
    shape = D.shape
    non_id = [f for f in shape.morphisms if not shape.is_identity(f)]
    if len(non_id) != 2 or shape.tgt[non_id[0]] != shape.tgt[non_id[1]]:
        raise UsageError("pullback needs a cospan-shaped diagram")
    f, g = sorted(non_id, key=label_key)
    mid = shape.tgt[f]
    ff = set_fun(D.value[shape.src[f]], D.value[mid], D.action[f])
    gg = set_fun(D.value[shape.src[g]], D.value[mid], D.action[g])
    return ff, gg


def _h_pullback(ds, args):
    name = args.diagram or args.fixture
    if not name:
        raise UsageError("pullback needs --diagram or --fixture")
    D = ds.diagram(name)
    f, g = _cospan_legs(D)
    P, _, _ = pullback(f, g)
    details = {"size": len(P), "pairs": [show_label(t) for t in P]}
    return True, details, [name]


def _parallel_legs(D):
    shape = D.shape
    non_id = sorted(
        (f for f in shape.morphisms if not shape.is_identity(f)), key=label_key
    )
    if len(non_id) != 2:
        raise UsageError("need a parallel pair of arrows")
    f, g = non_id
    if shape.src[f] != shape.src[g] or shape.tgt[f] != shape.tgt[g]:
        raise UsageError("arrows are not parallel")
    ff = set_fun(D.value[shape.src[f]], D.value[shape.tgt[f]], D.action[f])
    gg = set_fun(D.value[shape.src[g]], D.value[shape.tgt[g]], D.action[g])
    return ff, gg


def _h_equalizer(ds, args):
    D = ds.diagram(args.diagram)
    f, g = _parallel_legs(D)
    E, _ = equalizer(f, g)
    return True, {"size": len(E), "elements": [show_label(x) for x in E]}, [args.diagram]


def _h_coequalizer(ds, args):
    D = ds.diagram(args.diagram)
    f, g = _parallel_legs(D)
    Q, q = coequalizer(f, g)
    details = {
        "size": len(Q),
        "classes": {show_label(b): show_label(q(b)) for b in f.cod},
    }
    return True, details, [args.diagram]


def _h_kan(ds, args):
    D = ds.diagram(args.diagram)
    res = kan_to_point(args.direction, D, args.bound)
    direct = colimit(D) if args.direction == "left" else limit(D)
    agrees = set(res.apex) == set(direct.apex) and all(
        res.legs[j] == direct.legs[j] for j in D.shape.objects
    )
    details = {
        "direction": args.direction,
        "apex_size": len(res.apex),
        "apex": [show_label(t) for t in res.apex],
        "agrees_with_direct_path": agrees,
    }
    return agrees, details, [args.diagram]


def _h_yoneda(ds, args):
    C = ds.category(args.category)
    h = yoneda_presheaf(C, args.at)
    fully_faithful = True
    table = {}
    for b in C.objects:
        hb = yoneda_presheaf(C, b)
        nats = natural_index_families(h, hb, args.bound)
        table[show_label(b)] = {
            "hom": len(C.hom(args.at, b)),
            "naturals": len(nats),
        }
        if len(nats) != len(C.hom(args.at, b)):
            fully_faithful = False
    details = {
        "at": show_label(args.at),
        "sections": {show_label(u): len(h.value[u]) for u in C.objects},
        "embedding": table,
    }
    return fully_faithful, details, [args.category]


_REQUIRED = {"required": True}
_CERTIFY = {"type": int, "default": 0, "metavar": "MAX_APEX",
            "help": "certify universality with test apexes up to this size"}

# subcommand -> (handler, the arguments it adds beyond the common ones);
# each argument is a flag with its add_argument keywords
COMMANDS = {
    "validate-category": (_h_validate_category, {"--category": _REQUIRED}),
    "validate-topology": (_h_validate_topology, {"--site": _REQUIRED}),
    "check-sheaf": (_h_check_sheaf, {"--presheaf": _REQUIRED, "--site": _REQUIRED}),
    "glue": (_h_glue, {
        "--presheaf": _REQUIRED, "--site": _REQUIRED, "--at": _REQUIRED,
        "--section": {"action": "append", "required": True, "help": "OPEN=SECTION, repeatable"},
    }),
    "sheafify": (_h_sheafify, {"--presheaf": _REQUIRED, "--site": _REQUIRED}),
    "omega": (_h_omega, {"--site": _REQUIRED}),
    "classify": (_h_classify, {"--site": _REQUIRED, "--presheaf": _REQUIRED}),
    "heyting": (_h_heyting, {"--site": _REQUIRED, "--presheaf": _REQUIRED}),
    "force": (_h_force, {
        "--formula": _REQUIRED,
        "--site": {"default": None, "help": "optional; must name the formula's own site"},
        "--at": _REQUIRED,
        "--env": {"action": "append", "default": [], "help": "VAR=SECTION, repeatable"},
    }),
    "interpret": (_h_interpret, {
        "--formula": _REQUIRED,
        "--site": {"default": None, "help": "optional; must name the formula's own site"},
    }),
    "torsor-check": (_h_torsor_check, {
        "--site": _REQUIRED, "--action": _REQUIRED,
        "--existential": {"action": "store_true",
                          "help": "check local nonemptiness only at top objects"},
    }),
    "extract-cocycle": (_h_extract_cocycle, {
        "--site": _REQUIRED, "--action": _REQUIRED, "--target": _REQUIRED,
        "--cover": {"action": "append", "required": True},
        "--section": {"action": "append", "required": True, "help": "INDEX=SECTION, repeatable"},
    }),
    "check-cocycle": (_h_check_cocycle, {"--cocycle": _REQUIRED}),
    "glue-torsor": (_h_glue_torsor, {"--cocycle": _REQUIRED}),
    "cocycle-equiv": (_h_cocycle_equiv, {"--left": _REQUIRED, "--right": _REQUIRED}),
    # the lambdas look the constructions up per call, so perfbench's tracer,
    # which rebinds them in this module, sees them
    "limit": (lambda ds, args: _h_cone(ds, args, limit, certify_limit),
              {"--diagram": _REQUIRED, "--certify": _CERTIFY}),
    "colimit": (lambda ds, args: _h_cone(ds, args, colimit, certify_colimit),
                {"--diagram": _REQUIRED, "--certify": _CERTIFY}),
    "pullback": (_h_pullback, {
        "--diagram": {}, "--fixture": {"help": "bundled cospan fixture name, e.g. c2"},
    }),
    "equalizer": (_h_equalizer, {"--diagram": _REQUIRED}),
    "coequalizer": (_h_coequalizer, {"--diagram": _REQUIRED}),
    "kan": (_h_kan, {
        "--direction": {"choices": ("left", "right"), "required": True},
        "--diagram": _REQUIRED,
    }),
    "yoneda": (_h_yoneda, {"--category": _REQUIRED, "--at": _REQUIRED}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafkit",
        description="finite sheaf and topos workbench",
    )
    parser.add_argument("--version", action="version", version=f"sheafkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = {
        "--docs": {"action": "append", "default": [], "help": "document file or directory"},
        "--format": {"choices": ("text", "json"), "default": "text"},
        "--seed": {"type": int, "default": 0,
                   "help": "recorded in the report's options; no command samples, so none reads it"},
        "--bound": {"type": int, "default": None,
                    "help": "enumeration bound (overrides WORKBENCH_BOUND)"},
        "--timing": {"action": "store_true", "help": "include timing in the report"},
    }
    for name, (_, own) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, keywords in (*common.items(), *own.items()):
            p.add_argument(flag, **keywords)
    return parser


# Reuse keeps calls independent: parse_args makes a fresh namespace, append
# actions copy their default before appending, and help reads the terminal
# width when it is printed.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv=None) -> tuple[int, str]:
    """Parse, execute, and render; returns (exit code, report text)."""
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        ds = load_documents(args.docs)
        verdict, details, input_names = COMMANDS[args.command][0](ds, args)
        inputs = [{"name": n, "digest": ds.digest(n)} for n in input_names]
    except UsageError as err:
        return 2, f"usage error: {err}\n"
    except WorkbenchError as err:
        return 2, f"error: {type(err).__name__}: {err}\n"
    options = {"seed": args.seed, "bound": args.bound, "format": args.format}
    report = _report(args.command, inputs, options, verdict, details)
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    else:
        text = _render_text(report)
    return (0 if verdict else 1), text


def main(argv=None) -> int:
    code, text = run(argv)
    stream = sys.stdout if code in (0, 1) else sys.stderr
    stream.write(text)
    return code
