"""Every guarded search raises IntractableSize at one threshold, from one check.

Each case runs one guarded search on a small fixture with an explicit
bound.  T is the largest candidate count the search checks against its
bound on that fixture, so the search passes at bound T and raises at
bound T - 1, reporting the count T it reached.  Where a search had a
hand-written guard before the single check replaced it, T is that
guard's threshold, so no raise decision moved.  ``forces`` is guarded
by the context products ``interpret`` would build for the same formula.
"""

import ast
from pathlib import Path
from unittest import mock

import pytest

import sheafkit
from sheafkit import classifier, config, limits, logic, sheaf, site, torsor
from sheafkit.classifier import classify_round_trip, enumerate_subobjects, heyting_report, omega
from sheafkit.cli import run
from sheafkit.config import check_bound, enumeration_bound
from sheafkit.documents import load_documents
from sheafkit.errors import IntractableSize, UsageError
from sheafkit.fincat import (
    arrow_category,
    enumerate_naturals,
    poset_category,
    presheaf,
    to_point_functor,
    validate_category,
)
from sheafkit.gallery import (
    PC_UX,
    PC_UY,
    PC_WHOLE,
    const2_presheaf,
    discrete2_site,
    pseudocircle_site,
    sierpinski_site,
    sign_cocycle,
    unit_cocycle,
    z2_local_system,
)
from sheafkit.limits import (
    _enumerate_diagrams,
    certify_colimit,
    certify_limit,
    colimit,
    comma_category,
    diagram,
    diagram_naturals,
    limit,
)
from sheafkit.sheaf import exponential, is_sheaf, plus_construction, sheafify, terminal_presheaf
from sheafkit.site import Site, all_sieves, saturate_topology, trivial_topology, validate_topology
from sheafkit.torsor import cocycles_equivalent, glue_torsor

from naive import under_bounds


def arrow_diagram():
    return diagram(
        arrow_category(),
        {"0": ("p", "q", "s"), "1": ("r", "t")},
        {"0->1": {"p": "r", "q": "r", "s": "t"}},
    )


def naturals(bound):
    F = const2_presheaf(discrete2_site())
    enumerate_naturals(F, F, bound)


def hom_set(bound):
    validate_category(
        ["a", "b"],
        [("ida", "a", "a"), ("idb", "b", "b"), ("f", "a", "b"), ("g", "a", "b"), ("h", "a", "b")],
        {"a": "ida", "b": "idb"},
        {
            ("ida", "ida"): "ida",
            ("idb", "idb"): "idb",
            **{("idb", m): m for m in "fgh"},
            **{(m, "ida"): m for m in "fgh"},
        },
        hom_bound=bound,
    )


def exponential_sierpinski(bound):
    F = const2_presheaf(sierpinski_site())
    exponential(F, F, bound)


def diagram_naturals_arrow(bound):
    D = arrow_diagram()
    diagram_naturals(D, D, bound)


def certify_limit_arrow(bound):
    certify_limit(limit(arrow_diagram()), max_apex=2, bound=bound)


def certify_colimit_arrow(bound):
    certify_colimit(colimit(arrow_diagram()), max_apex=2, bound=bound)


def chain3():
    return poset_category(["c1", "c2", "c3"], lambda a, b: a <= b)


def comma_chain(bound):
    comma_category(to_point_functor(chain3()), "pt", "left", bound)


def functors_chain(bound):
    list(_enumerate_diagrams(chain3(), 2, bound))


def sieves_sierpinski(bound):
    all_sieves(sierpinski_site().category, "{b,t}", bound)


def subobjects_sierpinski(bound):
    site = sierpinski_site()
    enumerate_subobjects(site.topology, const2_presheaf(site), bound)


def heyting_sierpinski(bound):
    site = sierpinski_site()
    heyting_report(site, terminal_presheaf(site.category), bound)


def glue_sign(bound):
    site = pseudocircle_site()
    glue_torsor(site, z2_local_system(site), sign_cocycle(), bound)


def glue_three_fold_cover(bound):
    # the whole of discrete2 covered three times: 4**3 candidate sections
    # over {a,b} outnumber the sheaf check's 16 natural transformations
    site = discrete2_site()
    G = z2_local_system(site)
    glue_torsor(site, G, unit_cocycle(site, G, "{a,b}", ("{a,b}",) * 3), bound)


def trivializations(bound):
    site = pseudocircle_site()
    G = z2_local_system(site)
    cocycles_equivalent(sign_cocycle(), unit_cocycle(site, G, PC_WHOLE, (PC_UX, PC_UY)), bound)


def forces_nested(bound):
    # three nested quantifiers over a two-section sort: 2**3 tuples at each object
    site = discrete2_site()
    two = presheaf(site.category, {u: ("p", "q") for u in site.category.objects},
                   {f: {"p": "p", "q": "q"} for f in site.category.morphisms})
    model = logic.logic_model(site, {"S": two}, {})
    phi = logic.Forall("v0", "S", logic.Exists("v1", "S", logic.Forall("v2", "S", logic.Top())))
    logic.forces(model, "{a,b}", phi, {}, (), bound)


def formula_depth(bound):
    fd = load_documents([]).formula("pc-exists-section")
    with mock.patch.object(logic, "DEFAULT_FORMULA_DEPTH", bound):
        logic.check_sorting(fd.model, logic.Not(logic.Not(fd.formula)), fd.context)


# (search, threshold T, name the error gives the search)
CASES = {
    "natural_index_families": (naturals, 64, "natural transformations"),
    "validate_category hom bound": (hom_set, 3, "Hom('a', 'b')"),
    "exponential": (exponential_sierpinski, 16, "natural transformations"),
    "diagram_naturals": (diagram_naturals_arrow, 108, "diagram natural transformations"),
    "certify_limit": (certify_limit_arrow, 36, "test cones"),
    "certify_colimit": (certify_colimit_arrow, 32, "test cocones"),
    "comma_category": (comma_chain, 3, "comma category at 'pt'"),
    "_enumerate_diagrams": (functors_chain, 64, "test functors"),
    "all_sieves": (sieves_sierpinski, 8, "sieves on '{b,t}'"),
    "enumerate_subobjects": (subobjects_sierpinski, 32, "subobjects"),
    "heyting_report": (heyting_sierpinski, 27, "Heyting triples"),
    "glue_torsor": (glue_sign, 128, "natural transformations"),
    "glue_torsor glued sections": (glue_three_fold_cover, 64, "glued sections"),
    "cocycles_equivalent": (trivializations, 4, "trivializations"),
    "formula depth": (formula_depth, 3, "formula depth"),
    "forces": (forces_nested, 8, "context product"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bound_threshold_decides(case):
    search, T, _ = CASES[case]
    search(T)
    with pytest.raises(IntractableSize):
        search(T - 1)


@pytest.mark.parametrize("case", sorted(CASES))
def test_bound_error_names_search_size_and_bound(case):
    search, T, name = CASES[case]
    with pytest.raises(IntractableSize) as info:
        search(T - 1)
    err = info.value
    assert (err.search, err.size, err.bound) == (name, T, T - 1)
    assert str(err) == f"{name}: size {T} exceeds bound {T - 1}"


class _Builders(ast.NodeVisitor):
    """Records the enclosing function of every ``IntractableSize(...)`` call."""

    def __init__(self, module):
        self.module, self.stack, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "IntractableSize":
            self.found.append((self.module, ".".join(self.stack)))
        self.generic_visit(node)


def test_only_check_bound_builds_intractable_size():
    found = []
    for path in sorted(Path(sheafkit.__file__).parent.glob("*.py")):
        builders = _Builders(path.name)
        builders.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.extend(builders.found)
    assert found == [("config.py", "check_bound")]


@pytest.mark.parametrize("case", sorted(CASES))
def test_negative_bound_is_a_usage_error(case):
    search, _, _ = CASES[case]
    with pytest.raises(UsageError, match=r"^the enumeration bound must be at least 0, got -1$"):
        search(-1)


def test_zero_bound_is_legal():
    assert enumeration_bound(0) == 0
    check_bound("no candidates", [0], 0)
    with pytest.raises(IntractableSize, match=r"^one candidate: size 1 exceeds bound 0$"):
        check_bound("one candidate", [1], 0)


def test_negative_bound_on_the_command_line_exits_2():
    argv = ["check-sheaf", "--presheaf", "const2", "--site", "discrete2"]
    assert run(argv + ["--bound", "-5"]) == (
        2, "usage error: the enumeration bound must be at least 0, got -5\n"
    )
    code, text = run(argv + ["--bound", "0"])
    assert (code, text) == (2, "error: IntractableSize: natural transformations: size 1 exceeds bound 0\n")


def test_glue_torsor_guards_its_glued_sections_after_the_sheaf_check():
    """Below 16 the sheaf check on the coefficients refuses first; from 16
    to 63 the sheaf check passes and the 64 candidate sections over {a,b}
    are refused by gluing's own guard; 64 passes."""
    found = under_bounds(glue_three_fold_cover)
    assert [search for search, _, _ in found[:16]] == ["natural transformations"] * 16
    assert found[16:64] == [("glued sections", 64, bound) for bound in range(16, 64)]
    assert found[64:] == [None]


def test_glue_torsor_on_the_command_line_keeps_its_bound():
    # the sheaf check on the coefficients needs 128 natural transformations
    argv = ["glue-torsor", "--cocycle", "pc-sign", "--bound"]
    assert run(argv + ["64"]) == (
        2, "error: IntractableSize: natural transformations: size 128 exceeds bound 64\n"
    )
    assert run(argv + ["128"])[0] == 0


@pytest.mark.parametrize("env, message", [
    ("-3", "WORKBENCH_BOUND must be at least 0, got '-3'"),
    ("abc", "WORKBENCH_BOUND must be an integer, got 'abc'"),
])
def test_a_bad_bound_env_met_while_building_a_gallery_site_is_a_usage_error(monkeypatch, env, message):
    # discrete2's topology is saturated from all sieves, under the bound
    # the environment sets; the document does not take the blame
    monkeypatch.setenv("WORKBENCH_BOUND", env)
    assert run(["check-sheaf", "--presheaf", "const2", "--site", "discrete2"]) == (2, f"usage error: {message}\n")


def test_negative_enumeration_bound_env_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("WORKBENCH_BOUND", "-3")
    with pytest.raises(UsageError, match=r"^WORKBENCH_BOUND must be at least 0, got '-3'$"):
        enumeration_bound()
    assert enumeration_bound(5) == 5  # an explicit bound wins
    code, text = run(["cocycle-equiv", "--left", "pc-sign", "--right", "pc-unit"])
    assert code == 2
    assert "WORKBENCH_BOUND must be at least 0, got '-3'" in text
    monkeypatch.setenv("WORKBENCH_BOUND", "0")
    assert enumeration_bound() == 0


def topology_entry_points():
    """Saturation, an open-cover site, validation and Omega, each run once."""
    sier = sierpinski_site()
    yield lambda: saturate_topology(sier.category, {"{b,t}": [["{t}<{b,t}"]]})
    yield lambda: pseudocircle_site()
    yield lambda: validate_topology(sier.topology)
    yield lambda: omega(sier)


def count_bound_reads(monkeypatch) -> list:
    """Record the override of every ``enumeration_bound`` call; None is
    a read of the bound in force."""
    reads = []
    real = config.enumeration_bound

    def counted(override=None):
        reads.append(override)
        return real(override)

    for module in (config, site, sheaf, classifier, limits, torsor):
        monkeypatch.setattr(module, "enumeration_bound", counted)
    return reads


def test_each_topology_entry_point_reads_the_bound_once(monkeypatch):
    """The bound in force is read once per call, not once per object."""
    reads = count_bound_reads(monkeypatch)
    for entry in topology_entry_points():
        reads.clear()
        entry()
        assert reads.count(None) == 1


def certificate_and_gluing_entry_points():
    """Both certificates, over test apexes of sizes 0 to 2, and gluing,
    whose sheaf check, slice and glued sections are each bounded; the
    inputs are built before the reads are counted."""
    lim, col = limit(arrow_diagram()), colimit(arrow_diagram())
    yield lambda: certify_limit(lim, max_apex=2)
    yield lambda: certify_colimit(col, max_apex=2)
    pc = pseudocircle_site()
    G, sign = z2_local_system(pc), sign_cocycle()
    yield lambda: glue_torsor(pc, G, sign)


def test_certificates_and_gluing_read_the_bound_once(monkeypatch):
    """The bound in force is read once per call, not once per test apex
    or once per bounded step."""
    reads = count_bound_reads(monkeypatch)
    for entry in certificate_and_gluing_entry_points():
        reads.clear()
        entry()
        assert reads.count(None) == 1


def multi_search_entry_points(site, X):
    """The entry points that run one bounded search per object or per
    covering sieve, or several searches in a row, each run once; the
    last two run a search even on a category with no objects."""
    J = site.topology
    yield lambda: is_sheaf(X, J)
    yield lambda: plus_construction(X, J)
    yield lambda: sheafify(X, J)
    yield lambda: exponential(X, X)
    yield lambda: classify_round_trip(site, X)
    yield lambda: heyting_report(site, X)


def test_each_multi_search_entry_point_reads_the_bound_once(monkeypatch):
    """The bound in force is read once per call, not once per inner
    search; on a category with no objects the sheaf entry points read
    none, while classification and the Heyting check, which compare one
    subobject with one arrow and check one triple, read it once."""
    sier = sierpinski_site()
    empty = validate_category([], [], {}, {})
    empty_site = Site(empty, saturate_topology(empty, {}))
    reads = count_bound_reads(monkeypatch)
    for entry in multi_search_entry_points(sier, const2_presheaf(sier)):
        reads.clear()
        entry()
        assert reads.count(None) == 1
    counts = []
    for entry in multi_search_entry_points(empty_site, terminal_presheaf(empty)):
        reads.clear()
        entry()
        counts.append(reads.count(None))
    assert counts == [0, 0, 0, 0, 1, 1]


def test_a_category_with_no_objects_reads_no_bound(monkeypatch):
    """A category with no objects runs no search, so a bad
    WORKBENCH_BOUND does not stop its topology or its Omega."""
    empty = validate_category([], [], {}, {})
    sier = sierpinski_site().category
    monkeypatch.setenv("WORKBENCH_BOUND", "abc")
    J = saturate_topology(empty, {})
    assert J.covers == {}
    assert validate_topology(trivial_topology(empty)).ok
    assert omega(Site(empty, J)).presheaf.value == {}
    with pytest.raises(UsageError, match="WORKBENCH_BOUND must be an integer"):
        saturate_topology(sier, {})
