"""CLI contract: subcommands, exit codes, deterministic reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sheafkit
from sheafkit import cli
from sheafkit.cli import build_parser, run
from sheafkit.documents import gallery_documents, serialize_document

# the subcommands the README promises, written out apart from the CLI's own table
SPEC_SUBCOMMANDS = (
    "validate-category", "validate-topology", "check-sheaf", "glue", "sheafify",
    "omega", "classify", "heyting", "force", "interpret", "torsor-check",
    "extract-cocycle", "check-cocycle", "glue-torsor", "cocycle-equiv",
    "limit", "colimit", "pullback", "equalizer", "coequalizer", "kan", "yoneda",
)


def invoke(*argv):
    return run(list(argv))


SOURCE_ENV = dict(os.environ, PYTHONPATH=str(Path(sheafkit.__file__).resolve().parents[1]))


def test_python_dash_m_runs_the_cli_from_the_source_tree():
    argv = ["yoneda", "--category", "arrow", "--at", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "sheafkit", *argv], env=SOURCE_ENV, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == run(argv)


def test_every_spec_subcommand_is_registered():
    parser = build_parser()
    names = set()
    for action in parser._subparsers._group_actions:
        names |= set(action.choices)
    assert names == set(SPEC_SUBCOMMANDS)


@pytest.mark.parametrize("command", SPEC_SUBCOMMANDS)
def test_every_subcommand_without_arguments_exits_two(command, capsys):
    if command == "pullback":  # both of its arguments are optional
        assert invoke(command) == (2, "usage error: pullback needs --diagram or --fixture\n")
        return
    with pytest.raises(SystemExit) as exit_:
        invoke(command)
    assert exit_.value.code == 2
    assert "the following arguments are required" in capsys.readouterr().err


def test_check_sheaf_failure_exits_one_with_witness():
    code, text = invoke("check-sheaf", "--presheaf", "const2", "--site", "discrete2")
    assert code == 1
    assert "verdict: fail" in text
    assert "families: 4" in text and "sections: 2" in text
    assert "{a,b}" in text


def test_check_sheaf_pass_exits_zero():
    code, text = invoke("check-sheaf", "--presheaf", "pc-double", "--site", "pseudocircle")
    assert code == 0
    assert "verdict: pass" in text


def test_load_error_exits_two():
    code, text = invoke("omega", "--site", "no-such-site")
    assert code == 2
    assert "no-such-site" in text


def test_validate_category_of_an_unknown_name_exits_two():
    code, text = invoke("validate-category", "--category", "no-such-category")
    assert (code, text) == (2, "error: UnresolvedReference: no document named 'no-such-category'\n")


def test_validate_category_of_a_document_of_another_kind_exits_two():
    code, text = invoke("validate-category", "--category", "sierpinski")
    assert (code, text) == (
        2, "error: UnresolvedReference: 'sierpinski' is a space document; expected one of ('category',)\n"
    )


@pytest.mark.parametrize("extra", [(), ("--at", "{}", "--env", "x=*")], ids=["interpret", "force"])
def test_a_formula_refuses_a_site_other_than_its_own(extra):
    command = "force" if extra else "interpret"
    code, text = invoke(command, "--formula", "sier-implication", "--site", "discrete2", *extra)
    assert (code, text) == (2, "usage error: formula 'sier-implication' is pinned to its own site document\n")
    code, text = invoke(command, "--formula", "sier-implication", "--site", "sierpinski", *extra)
    assert code == 0 and "verdict: pass" in text  # its own site is accepted


def test_usage_error_in_sections_exits_two():
    code, text = invoke(
        "glue", "--presheaf", "const2", "--site", "discrete2",
        "--at", "{a,b}", "--section", "oops",
    )
    assert code == 2
    assert "NAME=VALUE" in text


def test_negative_certify_is_a_usage_error():
    for command in ("limit", "colimit"):
        code, text = invoke(command, "--diagram", "z2-tower4", "--certify", "-1")
        assert code == 2
        assert text.startswith("usage error:") and "--certify" in text


def test_pullback_fixture_c2_lists_the_four_pairs():
    code, text = invoke("pullback", "--fixture", "c2", "--format", "json")
    assert code == 0
    report = json.loads(text)
    assert report["details"]["pairs"] == ["(1,a)", "(1,b)", "(2,a)", "(2,b)"]


def test_force_reports_local_existence_and_empty_sections():
    code, text = invoke(
        "force", "--formula", "pc-exists-section", "--at", "{a,b,x,y}",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(text)
    assert report["details"]["forced"] is True
    assert report["details"]["sections"]["P"] == []


def test_em_formula_not_forced_at_the_top_of_sierpinski():
    code, text = invoke(
        "force", "--formula", "sier-em", "--at", "{b,t}", "--env", "x=*",
    )
    assert code == 1
    assert "details.forced: False" in text


def test_omega_json_report_counts():
    code, text = invoke("omega", "--site", "sierpinski", "--format", "json")
    assert code == 0
    report = json.loads(text)
    assert report["details"]["truth_values"] == {"{b,t}": 3, "{t}": 2, "{}": 1}
    assert report["details"]["open_isomorphism"] is True


def test_glue_torsor_and_equivalence_pipeline():
    code, text = invoke("glue-torsor", "--cocycle", "pc-sign", "--format", "json")
    assert code == 0
    report = json.loads(text)
    assert report["details"]["sections"]["{a,b,x,y}"] == 0
    assert report["details"]["is_torsor"] is True
    assert report["details"]["extracted_equivalent"] is True

    code, _ = invoke("cocycle-equiv", "--left", "pc-sign", "--right", "pc-unit")
    assert code == 1
    code, _ = invoke("cocycle-equiv", "--left", "pc-sign", "--right", "pc-sign")
    assert code == 0


def test_limit_and_colimit_counts():
    code, text = invoke("limit", "--diagram", "z2-tower4", "--format", "json")
    assert code == 0
    assert json.loads(text)["details"]["apex_size"] == 16
    code, text = invoke("colimit", "--diagram", "incl-chain5", "--format", "json")
    assert code == 0
    assert json.loads(text)["details"]["apex_size"] == 5


def test_kan_agrees_with_direct_path():
    for direction in ("left", "right"):
        code, text = invoke(
            "kan", "--direction", direction, "--diagram", "c2-span", "--format", "json"
        )
        assert code == 0
        assert json.loads(text)["details"]["agrees_with_direct_path"] is True


def test_equalizer_golden_from_documents():
    code, text = invoke("equalizer", "--diagram", "eq-pair", "--format", "json")
    assert code == 0
    assert json.loads(text)["details"]["elements"] == ["1", "3"]


def test_reports_are_byte_identical_across_runs():
    invocations = [
        ("check-sheaf", "--presheaf", "const2", "--site", "discrete2"),
        ("omega", "--site", "pseudocircle", "--format", "json"),
        ("heyting", "--site", "sierpinski", "--presheaf", "sier-one", "--seed", "3"),
        ("classify", "--site", "sierpinski", "--presheaf", "sier-one"),
        ("glue-torsor", "--cocycle", "pc-sign"),
        ("interpret", "--formula", "sier-implication", "--format", "json"),
    ]
    for argv in invocations:
        code1, text1 = invoke(*argv)
        code2, text2 = invoke(*argv)
        assert (code1, text1.encode()) == (code2, text2.encode())


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("site, presheaf", [("discrete2", "const2"), ("pseudocircle", "pc-double")])
def test_heyting_json_report_matches_its_golden(site, presheaf):
    golden = (GOLDEN / f"heyting-{site}-{presheaf}.json").read_text(encoding="utf-8")
    assert invoke("heyting", "--site", site, "--presheaf", presheaf, "--format", "json") == (0, golden)


def test_timing_flag_adds_the_only_nondeterministic_field():
    code, text = invoke("omega", "--site", "sierpinski", "--timing", "--format", "json")
    assert code == 0
    assert "timing_ms" in json.loads(text)
    code, text = invoke("omega", "--site", "sierpinski", "--format", "json")
    assert "timing_ms" not in json.loads(text)


EXTRACT = (
    "extract-cocycle", "--site", "pseudocircle", "--action", "pc-action",
    "--target", "{a,b,x,y}", "--cover", "{a,b,x}", "--cover", "{a,b,y}",
)


@pytest.mark.parametrize("entry", ["x=0", "5=0"])
def test_extract_cocycle_section_index_outside_the_cover_is_a_usage_error(entry):
    assert invoke(*EXTRACT, "--section", entry) == (
        2, f"usage error: --section {entry}: INDEX must be 0 to 1, a position in the 2 --cover entries\n"
    )


@pytest.mark.parametrize("argv, message", [
    (("glue", "--presheaf", "const2", "--site", "discrete2", "--at", "{a,b}",
      "--section", "{a}=0", "--section", "{b}=1", "--section", "{a}=1"), "--section names '{a}'"),
    (("force", "--formula", "sier-em", "--at", "{b,t}", "--env", "x=*", "--env", "x=*"), "--env names 'x'"),
    ((*EXTRACT, "--section", "0=((0),(0,1))", "--section", "1=((0,1),(0))", "--section", "0=((1),(1,0))"),
     "--section names '0'"),
    ((*EXTRACT, "--section", "0=((0),(0,1))", "--section", "1=((0,1),(0))", "--section", "00=((1),(1,0))"),
     "--section names index 0"),
])
def test_a_repeated_key_is_a_usage_error(argv, message):
    assert invoke(*argv) == (2, f"usage error: {message} more than once\n")


def test_extract_cocycle_with_an_unknown_cover_member_exits_two():
    argv = [*EXTRACT, "--section", "0=((0),(0,1))"]
    argv[argv.index("{a,b,y}")] = "nowhere"
    assert invoke(*argv) == (2, "error: UnknownObject: no object 'nowhere'\n")


def test_extract_cocycle_without_a_section_for_every_member_exits_two():
    assert invoke(*EXTRACT, "--section", "0=((0),(0,1))") == (
        2, "error: DanglingReference: chosen section over '{a,b,y}' does not exist\n"
    )


def test_force_at_an_unknown_object_exits_two():
    assert invoke("force", "--formula", "pc-exists-section", "--at", "nowhere") == (
        2, "error: UnknownObject: no object 'nowhere'\n"
    )


@pytest.mark.parametrize("at, section", [("nope", "{a}=0"), ("{a,b}", "nope=0")])
def test_glue_with_an_unknown_object_exits_two(at, section):
    assert invoke("glue", "--presheaf", "const2", "--site", "discrete2", "--at", at, "--section", section) == (
        2, "error: UnknownObject: no object 'nope'\n"
    )


@pytest.mark.parametrize("argv, message", [
    ("classify --site sierpinski --presheaf const2", "presheaf and topology live over different categories"),
    ("heyting --site discrete2 --presheaf sier-one", "presheaf and topology live over different categories"),
    ("sheafify --presheaf sier-one --site discrete2", "presheaf and topology live over different categories"),
    ("glue --presheaf const2 --site sierpinski --at {a,b} --section {a}=0",
     "presheaf and topology live over different categories"),
    ("torsor-check --site sierpinski --action pc-action", "torsor and site live over different categories"),
])
def test_inputs_over_different_bases_exit_two(argv, message):
    assert invoke(*argv.split()) == (2, f"error: BaseMismatch: {message}\n")


def test_glue_with_an_unknown_section_value_exits_two():
    assert invoke("glue", "--presheaf", "const2", "--site", "discrete2", "--at", "{a,b}", "--section", "{a}=zz") == (
        2, "error: DanglingReference: 'zz' is not a section over '{a}'\n"
    )


def test_interpret_obeys_the_bound():
    assert invoke("interpret", "--formula", "pc-exists-section")[0] == 0
    assert invoke("interpret", "--formula", "pc-exists-section", "--bound", "1") == (
        2, "error: IntractableSize: context product: size 2 exceeds bound 1\n"
    )


def test_force_obeys_the_bound_as_interpret_does():
    argv = ("force", "--formula", "pc-exists-section", "--at", "{a,b,y}")
    assert invoke(*argv)[0] == 0
    assert invoke(*argv, "--bound", "1") == (
        2, "error: IntractableSize: context product: size 2 exceeds bound 1\n"
    )


# -- run reuses one parser per process; its calls stay independent ------------------

def test_twenty_runs_build_the_parser_at_most_once(monkeypatch):
    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    for _ in range(10):
        assert invoke("pullback", "--fixture", "c2")[0] == 0
        assert invoke("yoneda", "--category", "arrow", "--at", "1")[0] == 0
    assert len(builds) <= 1


def test_a_shadowing_docs_run_does_not_leak_into_a_later_run(tmp_path):
    argv = ("check-sheaf", "--presheaf", "const2", "--site", "discrete2")
    gallery_report = invoke(*argv)
    user = dict(gallery_documents()["const2-full"], name="const2")
    path = tmp_path / "const2.json"
    path.write_text(serialize_document(user), encoding="utf-8")
    assert invoke(*argv, "--docs", str(path)) != gallery_report
    assert invoke(*argv) == gallery_report


def test_a_force_env_does_not_leak_into_a_later_force():
    assert invoke("force", "--formula", "sier-em", "--at", "{b,t}", "--env", "x=*")[0] == 1
    code, text = invoke("force", "--formula", "pc-exists-section", "--at", "{a,b,x,y}")
    assert code == 0 and "details.forced: True" in text


def test_a_run_after_an_argparse_exit_is_normal(capsys):
    argv = ("kan", "--direction", "left", "--diagram", "c2-span")
    before = invoke(*argv)
    with pytest.raises(SystemExit) as exit_:
        invoke("kan", "--direction", "up", "--diagram", "c2-span")
    assert exit_.value.code == 2
    assert "invalid choice: 'up'" in capsys.readouterr().err
    assert invoke(*argv) == before


def test_help_follows_the_terminal_width_at_call_time(monkeypatch, capsys):
    helps = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            invoke("--help")
        helps.append(capsys.readouterr().out)
        assert helps[-1] == build_parser().format_help()
    assert helps[0] != helps[1]


def test_importing_the_cli_builds_no_parser():
    done = subprocess.run(
        [sys.executable, "-c", "import sheafkit.cli as c; print(c._parser.cache_info().currsize)"],
        env=SOURCE_ENV, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (0, "0\n")
