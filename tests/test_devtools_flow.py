"""Tests of the whole-program rules (`repro.devtools.flow`).

Each rule is exercised against a should-flag/should-pass fixture pair
under ``tests/devtools_fixtures/`` — the flag fixture seeds exactly the
bug class the rule exists for (a lock-order cycle closed through a
call, a cross-call implicit-float64 leak into a float32 kernel, a
payload aliasing scheduler/arena state).  They are rules of the one lint
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
    lint_source,
)
from repro.devtools.flow import Project

FIXTURES = Path(__file__).parent / "devtools_fixtures"
SRC = Path(__file__).parent.parent / "src"

#: pass name → fixture basename
PASS_FIXTURES = {
    "lock-order": "flow_lock_order",
    "dtype-flow": "flow_dtype_flow",
    "payload-escape": "flow_payload_escape",
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


def test_lock_order_cycle_is_interprocedural():
    """The flag fixture's a→b edge exists only through a call: the
    reported cycle proves the pass propagated holds across the call
    graph, and the message walks the cycle with its acquisition sites."""
    findings = _run_pass(
        "lock-order", FIXTURES / "flow_lock_order_flag.py"
    )
    assert len(findings) == 1
    msg = findings[0].message
    assert "lock_a" in msg and "lock_b" in msg
    assert "potential deadlock" in msg
    assert "->" in msg  # the cycle path
    assert "flow_lock_order_flag.py:" in msg  # acquisition sites


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


def test_payload_escape_names_each_alias():
    findings = _run_pass(
        "payload-escape", FIXTURES / "flow_payload_escape_flag.py"
    )
    messages = "\n".join(f.message for f in findings)
    assert "core.counters" in messages and "scheduler protocol state" in messages
    assert "arena" in messages and "refactorize" in messages
    assert "pending" in messages and "state_lock" in messages  # guarded-by


def test_flow_findings_honour_noqa(tmp_path):
    src = (FIXTURES / "flow_payload_escape_flag.py").read_text()
    silenced = tmp_path / "m.py"
    silenced.write_text("# repro: noqa[payload-escape]\n" + src)
    assert lint_paths([silenced], select=["payload-escape"]) == []


def test_flow_noqa_is_a_known_rule_to_the_hygiene_check():
    """A line noqa over a real payload-escape finding silences it and
    counts as used: the hygiene rule knows the whole-program rules."""
    src = (FIXTURES / "flow_payload_escape_flag.py").read_text().replace(
        "post_result(snapshot())",
        "post_result(snapshot())  # repro: noqa[payload-escape]",
    )
    findings = lint_source(src, path="m.py")
    assert [f.line for f in findings if f.rule == "payload-escape"] == [23, 23]
    assert not [f for f in findings if f.rule == "unused-noqa"]


def test_stale_flow_noqa_is_reported_stale():
    src = (FIXTURES / "flow_lock_order_pass.py").read_text()
    stale = "# repro: noqa[lock-order]\n" + src
    findings = lint_source(stale, rules=[all_rules()["unused-noqa"]])
    assert [f.message.split(":")[0] for f in findings] == ["stale suppression"]
    assert "lock-order no longer fires" in findings[0].message


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
    bad.write_text((FIXTURES / "flow_lock_order_flag.py").read_text())
    assert lint_cli.main([str(bad)]) == 1
    assert "[lock-order]" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        lint_cli.main([str(bad), "--flow"])


def test_cli_flow_select(tmp_path, capsys):
    bad = tmp_path / "m.py"
    bad.write_text((FIXTURES / "flow_dtype_flow_flag.py").read_text())
    assert lint_cli.main([str(bad), "--select", "dtype-flow"]) == 1
    out = capsys.readouterr().out
    assert "[dtype-flow]" in out
    # a named fixture file is analysed, not skipped like a walked one
    fixture = FIXTURES / "flow_payload_escape_flag.py"
    assert lint_cli.main([str(fixture), "--select", "payload-escape"]) == 1
    assert "[payload-escape]" in capsys.readouterr().out


def test_cli_list_rules_includes_flow_passes(capsys):
    assert lint_cli.main(["--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert listed == set(all_rules())
    assert set(PASS_FIXTURES) <= listed
