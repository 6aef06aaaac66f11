"""Builders for the objects of the bundled fixture gallery.

The JSON documents shipped under ``sheafkit/fixtures`` are the source of
the gallery: the CLI reads them, and the named site builders below build
them afresh.  The other builders compute the derived objects (the constant
presheaves, the Z/2 local systems, torsors and cocycles) from any site;
the tests compare what they compute on the gallery sites with the bundled
documents.
"""

from __future__ import annotations

from .documents import load_documents
from .fincat import presheaf
from .labels import label_key
from .site import Site, overlap
from .torsor import Cocycle, GluedTorsor, GroupSheaf, cocycle, glue_torsor, group_sheaf, torsor_candidate


def sierpinski_site() -> Site:
    """Two points, one of them open: the minimal non-Boolean space."""
    return load_documents([]).site("sierpinski")


def discrete2_site() -> Site:
    return load_documents([]).site("discrete2")


def discrete3_site() -> Site:
    return load_documents([]).site("discrete3")


def chain3_site() -> Site:
    """Three-point chain: opens are initial segments."""
    return load_documents([]).site("chain3")


def pseudocircle_site() -> Site:
    """Four-point model of the circle; carries a nontrivial double cover."""
    return load_documents([]).site("pseudocircle")


def arrow_site() -> Site:
    """The walking arrow with its trivial topology: a presheaf topos."""
    return load_documents([]).site("arrow-trivial")


def const2_presheaf(site: Site):
    """Value {0,1} on nonempty opens, a point over the empty open.

    Fails gluing on disconnected covers; its sheafification is the sheaf
    of locally constant two-valued sections.
    """
    cat = site.category
    value = {}
    restrict = {}
    for u in cat.objects:
        value[u] = ("*",) if not site.open_of[u] else ("0", "1")
    for f in cat.morphisms:
        u, v = cat.tgt[f], cat.src[f]
        if cat.is_identity(f):
            continue
        if not site.open_of[v]:
            restrict[f] = {x: "*" for x in value[u]}
        else:
            restrict[f] = {x: x for x in value[u]}
    return presheaf(cat, value, restrict)


def const2_full_presheaf(site: Site):
    """Honestly constant {0,1}, including over the empty open."""
    cat = site.category
    value = {u: ("0", "1") for u in cat.objects}
    restrict = {
        f: {x: x for x in ("0", "1")}
        for f in cat.morphisms
        if not cat.is_identity(f)
    }
    return presheaf(cat, value, restrict)


# -- connected components and the Z/2 local system -------------------------------

def connected_components(site: Site, u: str) -> tuple[frozenset, ...]:
    """Components of the open u in the subspace topology; finite spaces are
    Alexandrov, so adjacency through minimal neighbourhoods decides it."""
    pts = sorted(site.open_of[u], key=label_key)
    nbhd = {}
    for p in pts:
        mins = [o & site.open_of[u] for o in site.space.opens if p in (o & site.open_of[u])]
        cur = site.open_of[u]
        for m in mins:
            cur = cur & m
        nbhd[p] = cur
    parent = {p: p for p in pts}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for p in pts:
        for q in pts:
            if q in nbhd[p] or p in nbhd[q]:
                rp, rq = find(p), find(q)
                if rp != rq:
                    parent[rq] = rp
    comps = {}
    for p in pts:
        comps.setdefault(find(p), set()).add(p)
    return tuple(
        frozenset(c) for c in sorted(comps.values(), key=lambda c: min(map(str, c)))
    )


def z2_local_system(site: Site) -> GroupSheaf:
    """The sheaf of locally constant Z/2-valued functions.

    Sections over U are bit tuples indexed by the components of U; the
    group is componentwise addition mod 2.
    """
    cat = site.category
    comps = {u: connected_components(site, u) for u in cat.objects}
    value = {}
    for u in cat.objects:
        elems = [()]
        for _ in comps[u]:
            elems = [t + (b,) for t in elems for b in ("0", "1")]
        value[u] = tuple(elems)
    restrict = {}
    for f in cat.morphisms:
        if cat.is_identity(f):
            continue
        u, v = cat.tgt[f], cat.src[f]
        placement = []
        for c in comps[v]:
            hosts = [i for i, d in enumerate(comps[u]) if c <= d]
            placement.append(hosts[0])
        restrict[f] = {
            t: tuple(t[i] for i in placement) for t in value[u]
        }
    G = presheaf(cat, value, restrict)
    xor = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    mult = {
        u: {
            (a, b): tuple(xor[(x, y)] for x, y in zip(a, b))
            for a in value[u]
            for b in value[u]
        }
        for u in cat.objects
    }
    unit = {u: tuple("0" for _ in comps[u]) for u in cat.objects}
    inverse = {u: {a: a for a in value[u]} for u in cat.objects}
    return group_sheaf(G, mult, unit, inverse)


def trivial_torsor(G: GroupSheaf):
    """The group acting on itself by right multiplication."""
    P = G.sections
    action = {
        u: {(p, g): G.mul(u, p, g) for p in P.value[u] for g in P.value[u]}
        for u in P.base.objects
    }
    return torsor_candidate(P, G, action)


# -- the pseudocircle double cover -------------------------------------------------

PC_WHOLE = "{a,b,x,y}"
PC_UX = "{a,b,x}"
PC_UY = "{a,b,y}"
PC_OVERLAP = "{a,b}"


def sign_cocycle(site: Site | None = None, G: GroupSheaf | None = None) -> Cocycle:
    """Unit over the component {a}, the flip over {b}: the Mobius-style twist."""
    site = site or pseudocircle_site()
    G = G or z2_local_system(site)
    values = {(0, 1): ("0", "1")}
    return cocycle(site, G, PC_WHOLE, (PC_UX, PC_UY), values)


def unit_cocycle(site: Site, G: GroupSheaf, target: str, cover) -> Cocycle:
    cover = tuple(cover)
    values = {
        (i, j): G.unit[overlap(site, cover[i], cover[j])]
        for i in range(len(cover))
        for j in range(len(cover))
    }
    return cocycle(site, G, target, cover, values)


def pc_double_cover() -> GluedTorsor:
    """The nontrivial Z/2 torsor on the pseudocircle, glued from the sign cocycle."""
    site = pseudocircle_site()
    G = z2_local_system(site)
    return glue_torsor(site, G, sign_cocycle(site, G))
