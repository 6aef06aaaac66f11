"""CLI reports do not depend on string hashing.

Every report is promised byte-stable for identical inputs, and between
processes that includes a different ``PYTHONHASHSEED``: the iteration
order of a set or frozenset of strings changes with it, so any report
built by walking one would change too.  Each invocation runs in two
subprocesses, under seeds 1 and 2, and must give the same exit code and
the same stdout bytes.  The failing ``glue`` on ``discrete3`` names the
first arrow of the generated sieve on which the sections disagree; it
used to depend on the seed.  ``sheafify`` on ``discrete3`` labels its
sections by the families over the least covering sieves, each the
``frozenset`` intersection of the listed covering sieves.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sheafkit
from sheafkit.documents import serialize_document
from sheafkit.gallery import const2_full_presheaf, discrete3_site
from sheafkit.labels import show_label

SOURCE = str(Path(sheafkit.__file__).resolve().parents[1])


def const2_d3_document():
    """The constant presheaf {0, 1} on the opens of discrete3."""
    F = const2_full_presheaf(discrete3_site())
    C = F.base
    return {
        "schema": 1,
        "kind": "presheaf",
        "name": "const2-d3",
        "base": "discrete3",
        "values": {show_label(u): list(F.value[u]) for u in C.objects},
        "restrictions": {show_label(f): dict(F.restrict[f]) for f in C.morphisms if not C.is_identity(f)},
    }


INVOCATIONS = {
    "readme-glue": (
        "glue", "--presheaf", "pc-double", "--site", "pseudocircle", "--at", "{a,b}",
        "--section", "{a}=((0),(0))", "--section", "{b}=((0),(1))",
    ),
    "check-sheaf-json": ("check-sheaf", "--presheaf", "const2", "--site", "discrete2", "--format", "json"),
    "heyting-json": ("heyting", "--site", "sierpinski", "--presheaf", "sier-one", "--seed", "3", "--format", "json"),
    "failing-glue-docs": (
        "glue", "--presheaf", "const2-d3", "--site", "discrete3", "--at", "{a,b,c}",
        "--section", "{a,b}=0", "--section", "{a,c}=1",
    ),
    "sheafify-docs": ("sheafify", "--presheaf", "const2-d3", "--site", "discrete3"),
}


def run_cli(argv, hash_seed):
    env = dict(os.environ, PYTHONPATH=SOURCE, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run([sys.executable, "-m", "sheafkit", *argv], env=env, capture_output=True, timeout=120)
    return done.returncode, done.stdout


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_bytes_do_not_depend_on_the_hash_seed(name, tmp_path):
    argv = INVOCATIONS[name]
    if name.endswith("-docs"):
        path = tmp_path / "const2-d3.json"
        path.write_text(serialize_document(const2_d3_document()), encoding="utf-8")
        argv = (*argv, "--docs", str(path))
    first = run_cli(argv, 1)
    assert first[0] in (0, 1) and first[1]
    assert run_cli(argv, 2) == first
    if name == "failing-glue-docs":
        assert first[0] == 1
        assert b"seen by '{a}<{a,b,c}'" in first[1]
