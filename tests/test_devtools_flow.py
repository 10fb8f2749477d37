"""Tests of the whole-program rules (`repro.devtools.flow`).

Each rule is exercised against a should-flag/should-pass fixture pair
under ``tests/devtools_fixtures/`` — the flag fixture seeds exactly the
bug class the rule exists for (a cross-call implicit-float64 leak into
a float32 kernel).  They are rules of the one lint
catalogue, so the repo's own ``src`` tree analysing clean is the
``make lint`` gate.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.devtools import lint as lint_cli
from repro.devtools.astlint import (
    Finding,
    ProjectRule,
    all_rules,
    lint_paths,
)
from repro.devtools.flow import Project

FIXTURES = Path(__file__).parent / "devtools_fixtures"
SRC = Path(__file__).parent.parent / "src"

#: pass name → fixture basename
PASS_FIXTURES = {
    "dtype-flow": "flow_dtype_flow",
}


def _run_pass(name: str, path: Path) -> list[Finding]:
    return lint_paths([path], select=[name])


# ----------------------------------------------------------------------
# per-pass fixtures
# ----------------------------------------------------------------------

def test_every_flow_pass_has_fixtures():
    project_rules = {
        name for name, rule in all_rules().items()
        if isinstance(rule, ProjectRule)
    }
    assert project_rules == set(PASS_FIXTURES)


@pytest.mark.parametrize("name", sorted(PASS_FIXTURES))
def test_pass_flags_its_fixture(name):
    findings = _run_pass(name, FIXTURES / f"{PASS_FIXTURES[name]}_flag.py")
    assert findings, f"{name} missed its should-flag fixture"
    assert all(f.rule == name for f in findings)
    assert all(f.line > 0 for f in findings)


@pytest.mark.parametrize("name", sorted(PASS_FIXTURES))
def test_pass_accepts_its_clean_fixture(name):
    findings = _run_pass(name, FIXTURES / f"{PASS_FIXTURES[name]}_pass.py")
    assert findings == [], [f.format() for f in findings]


def test_dtype_flow_reports_the_entry_call_site():
    findings = _run_pass(
        "dtype-flow", FIXTURES / "flow_dtype_flow_flag.py"
    )
    messages = "\n".join(f.message for f in findings)
    # the cross-call leak is reported where the implicit array enters
    assert "driver() passes an implicitly-float64 array" in messages
    assert "axpy_f32()" in messages
    # and the plain in-function mix is reported too
    assert "direct_mix() mixes float32" in messages


def test_unknown_pass_name_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        lint_paths([FIXTURES], select=["no-such-pass"])


# ----------------------------------------------------------------------
# the project symbol table / call graph
# ----------------------------------------------------------------------

def test_project_symbols_and_call_resolution(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "util.py").write_text(
        "def helper():\n    return 1\n"
    )
    (tmp_path / "pkg" / "main.py").write_text(
        "from .util import helper\n"
        "from . import util\n"
        "class C:\n"
        "    def m(self):\n"
        "        return self.other()\n"
        "    def other(self):\n"
        "        return helper()\n"
        "def top():\n"
        "    return util.helper()\n"
    )
    project = Project(
        (str(p), ast.parse(p.read_text()))
        for p in sorted((tmp_path / "pkg").rglob("*.py"))
    )
    names = {fi.qualname for fi in project.all_functions()}
    assert "pkg.util:helper" in names
    assert "pkg.main:C.m" in names and "pkg.main:top" in names

    main = project.modules["pkg.main"]
    # self.other() resolves to the sibling method
    m = main.functions["C.m"]
    call = next(
        n for n in ast.walk(m.node) if isinstance(n, ast.Call)
    )
    assert project.resolve_call(call, m).qualname == "pkg.main:C.other"
    # from-import and module-attribute calls resolve across modules
    other = main.functions["C.other"]
    call = next(n for n in ast.walk(other.node) if isinstance(n, ast.Call))
    assert project.resolve_call(call, other).qualname == "pkg.util:helper"
    top = main.functions["top"]
    call = next(n for n in ast.walk(top.node) if isinstance(n, ast.Call))
    assert project.resolve_call(call, top).qualname == "pkg.util:helper"


# ----------------------------------------------------------------------
# the gate: the repo itself analyzes clean; CLI plumbing
# ----------------------------------------------------------------------

def test_repository_flow_analyzes_clean():
    findings = lint_paths([SRC], select=sorted(PASS_FIXTURES))
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_cli_flow_flag(tmp_path, capsys):
    """The whole-program rules need no flag: a plain run includes them,
    and ``--flow`` is gone."""
    bad = tmp_path / "m.py"
    bad.write_text((FIXTURES / "flow_dtype_flow_flag.py").read_text())
    assert lint_cli.main([str(bad)]) == 1
    assert "[dtype-flow]" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        lint_cli.main([str(bad), "--flow"])


def test_cli_flow_select(tmp_path, capsys):
    bad = tmp_path / "m.py"
    bad.write_text((FIXTURES / "flow_dtype_flow_flag.py").read_text())
    assert lint_cli.main([str(bad), "--select", "dtype-flow"]) == 1
    out = capsys.readouterr().out
    assert "[dtype-flow]" in out
    # a named fixture file is analysed, not skipped like a walked one
    fixture = FIXTURES / "flow_dtype_flow_flag.py"
    assert lint_cli.main([str(fixture), "--select", "dtype-flow"]) == 1
    assert "[dtype-flow]" in capsys.readouterr().out


def test_cli_list_rules_includes_flow_passes(capsys):
    assert lint_cli.main(["--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert listed == set(all_rules())
    assert set(PASS_FIXTURES) <= listed
