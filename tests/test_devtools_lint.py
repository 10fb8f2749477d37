"""Tests of the project-specific AST lint (`repro.devtools`).

Every rule is exercised against a pair of fixtures under
``tests/devtools_fixtures/``: a *should-flag* snippet containing the
violation the rule exists for, and a *should-pass* snippet showing the
sanctioned way to write the same thing.  The repo itself must lint clean
— that is the gate ``make lint`` / ``scripts/check.sh`` enforce.
"""

from pathlib import Path

import pytest

from repro.devtools import lint as lint_cli
from repro.devtools.astlint import (
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)

FIXTURES = Path(__file__).parent / "devtools_fixtures"
SRC = Path(__file__).parent.parent / "src"

#: rule name → fixture basename
RULE_FIXTURES = {
    "lock-discipline": "lock_discipline",
    "counter-protocol": "counter_protocol",
    "kernel-purity": "kernel_purity",
    "no-bare-except-in-runtime": "bare_except",
    "no-implicit-float64": "no_implicit_float64",
}


def _run_rule(rule_name: str, path: Path):
    """Lint one fixture with exactly one rule (bypassing path filters)."""
    rule = all_rules()[rule_name]
    return lint_file(path, rules=[rule])


# ----------------------------------------------------------------------
# per-rule fixtures
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rule_name", sorted(RULE_FIXTURES))
def test_rule_flags_its_fixture(rule_name):
    findings = _run_rule(
        rule_name, FIXTURES / f"{RULE_FIXTURES[rule_name]}_flag.py"
    )
    assert findings, f"{rule_name} missed its should-flag fixture"
    assert all(f.rule == rule_name for f in findings)
    assert all(f.line > 0 for f in findings)


@pytest.mark.parametrize("rule_name", sorted(RULE_FIXTURES))
def test_rule_passes_its_clean_fixture(rule_name):
    findings = _run_rule(
        rule_name, FIXTURES / f"{RULE_FIXTURES[rule_name]}_pass.py"
    )
    assert findings == [], [f.format() for f in findings]


#: keep tests: seed → (rule, the real module it guards, text in that
#: module, the violation seeded in its place).  Each seeded copy of the
#: tree but the float32 one (that rule's verdict waits on the float32
#: path) passed tier-1 and every run-time check — docs/devtools.md has
#: the verdict table — so only the rule stands between it and a merge.
SEEDED = {
    "lock-discipline:complete-outside-gate": (
        "lock-discipline", "runtime/lanes.py",
        "        with gate:\n            newly_ready = core.complete(tid)\n",
        "        newly_ready = core.complete(tid)\n        with gate:\n",
    ),
    "lock-discipline:slot-locks-under-gate": (
        "lock-discipline", "runtime/lanes.py",
        "        with gate:\n            newly_ready = core.complete(tid)\n",
        "        with gate, writing(tid):\n"
        "            newly_ready = core.complete(tid)\n",
    ),
    "lock-discipline:build-under-cache-lock": (
        "lock-discipline", "core/numeric.py",
        "            image = build()\n            with self._lock:\n",
        "            with self._lock:\n                image = build()\n",
    ),
    "counter-protocol:reforked-loop": (
        "counter-protocol", "core/numeric.py",
        "    return run_lanes(\n",
        "    if n_lanes == 1 and recorder is None and not collect_timings:\n"
        "        import time\n"
        "        from ..kernels.base import Workspace\n"
        "        ws, report, t0 = Workspace(), RunReport(n_workers=1), time.perf_counter()\n"
        "        while (tid := core.pop()) is not None:\n"
        "            report.count(tid, *job.execute(tid, ws))\n"
        "            core.complete(tid)\n"
        "        core.check(job.name)\n"
        "        report.max_ready_depth = core.max_ready_depth\n"
        "        report.seconds = time.perf_counter() - t0\n"
        "        job.finish(report)\n"
        "        return report\n"
        "    return run_lanes(\n",
    ),
    "kernel-purity:operand-as-scratch": (
        "kernel-purity", "kernels/ssssm.py",
        "        rows, cols = c.rows_cols()\n",
        "        rows, cols = c.rows_cols()\n"
        "        a.data[...] *= -1.0  # A as scratch for the sign ...\n"
        "        a.data[...] *= -1.0  # ... and restored\n",
    ),
    "kernel-purity:write-through-conditional-unpack": (
        "kernel-purity", "kernels/ssssm.py",
        "    pa, a_img = box_image(a, 0) if a_dense is None else a_dense[:2]\n",
        "    pa, a_img = box_image(a, 0) if a_dense is None else a_dense[:2]\n"
        "    a_img[0, 0] = 0.0\n",
    ),
    "kernel-purity:block-product-writes-a-block": (
        "kernel-purity", "kernels/tsolve_kernels.py",
        "    parts = [(blk.indices, blk.cols_expanded(), blk.data) for blk in blocks]\n",
        "    blocks[0].data[...] = 0.0\n"
        "    parts = [(blk.indices, blk.cols_expanded(), blk.data) for blk in blocks]\n",
    ),
    "no-bare-except-in-runtime:silent-post-failure": (
        "no-bare-except-in-runtime", "runtime/distributed.py",
        "        except (OSError, ValueError, TransportStopped) as post_exc:\n",
        "        except Exception:\n            pass\n"
        "        except (OSError, ValueError, TransportStopped) as post_exc:\n",
    ),
    "no-implicit-float64:inverse-in-default-dtype": (
        "no-implicit-float64", "sparse/csc.py",
        "        out = np.zeros(self.shape, dtype=self._dtype)\n",
        "        out = np.zeros(self.shape)\n",
    ),
}


@pytest.mark.parametrize("seed", sorted(SEEDED))
def test_rule_flags_its_seeded_module(seed):
    """The rule is silent on the live module and fires on a copy of it
    carrying its keep test's violation."""
    rule_name, rel, live, seeded = SEEDED[seed]
    path = SRC / "repro" / rel
    source = path.read_text()
    assert source.count(live) == 1, f"{rel} changed: re-anchor seed {seed}"
    rule = all_rules()[rule_name]
    assert lint_source(source, str(path), [rule]) == []
    findings = lint_source(source.replace(live, seeded), str(path), [rule])
    assert findings and {f.rule for f in findings} == {rule_name}


def test_every_per_file_rule_has_a_seeded_module():
    assert {rule for rule, *_ in SEEDED.values()} == set(RULE_FIXTURES)


def test_every_registered_rule_has_fixtures():
    assert set(all_rules()) == set(RULE_FIXTURES)


def test_rule_finding_details():
    findings = _run_rule("lock-discipline", FIXTURES / "lock_discipline_flag.py")
    messages = "\n".join(f.message for f in findings)
    assert "core.pop" in messages
    assert "errors" in messages
    assert "total.merge" in messages
    flagged_lines = {f.line for f in findings if "outside `with" in f.message}
    assert len(flagged_lines) == 3  # the call, the mutation, the merge


def test_lock_discipline_keeps_guarding_locks_leaves():
    """Under a declared lock nothing takes a lock: a nested ``with``, a
    later item of the same ``with``, a module function that locks and a
    callable handed in are each named; the slot lock → ``cond`` nesting
    and a build outside the lock pass."""
    findings = _run_rule("lock-discipline", FIXTURES / "lock_discipline_flag.py")
    leaves = [f.message.split(" while holding cond")[0]
              for f in findings if "leaf of the lock order" in f.message]
    assert leaves == [
        "`with slot_locks[slot]`",
        "`with slot_locks[tid]`",
        "release(), which takes a lock,",
        "build(), a callable handed in,",
    ]


def test_kernel_purity_flags_tsolve_roles():
    """The phase-5 segment-kernel roles are covered: a block product
    mutating its source segment or factor block, and a diag solve
    mutating the factor block, are all named with the right designated
    output."""
    findings = _run_rule("kernel-purity", FIXTURES / "kernel_purity_flag.py")
    messages = "\n".join(f.message for f in findings)
    assert "prod_bad() mutates read-only operand 'src'" in messages
    assert "prod_bad() mutates read-only operand 'blocks'" in messages
    assert "designated output is None" in messages
    assert "diag_bad() mutates read-only operand 'diag'" in messages
    assert "designated output is 'x'" in messages


def test_kernel_purity_treats_cached_images_as_read_only():
    """The keyword-only image parameters of the dense-mapped variants are
    operands shared across lanes: writing one is flagged, reading is not.
    Only the target's own ``image`` is writable, by name — not keyword-only
    parameters as a kind."""
    findings = _run_rule("kernel-purity", FIXTURES / "kernel_purity_flag.py")
    messages = [f.message for f in findings]
    assert any("gessm_bad() mutates read-only operand 'inv'" in m for m in messages)
    assert any(
        "ssssm_image_bad() mutates read-only operand 'a_dense'" in m
        for m in messages
    )
    # ... and through a name a conditional expression unpacks it into
    assert any(
        "ssssm_unpack_bad() mutates read-only operand 'a_dense'" in m
        for m in messages
    )
    assert not any("'image'" in m for m in messages)


def test_kernel_purity_follows_the_writes_into_the_shared_panel_solves():
    """The GESSM/TSTRF names delegate to ``panel_*`` functions: the rule
    knows their role (second positional parameter is the block written,
    the triangle of the diagonal block is read-only)."""
    findings = _run_rule("kernel-purity", FIXTURES / "kernel_purity_flag.py")
    assert any(
        "panel_bad() mutates read-only operand 'tri'" in f.message
        and "designated output is 'b'" in f.message
        for f in findings
    )
    passing = _run_rule("kernel-purity", FIXTURES / "kernel_purity_pass.py")
    assert passing == []


def test_kernel_purity_scopes_cover_tsolve_kernels():
    """The rule's path filter includes the phase-5 kernel module (and the
    module itself lints clean)."""
    rule = all_rules()["kernel-purity"]
    path = SRC / "repro" / "kernels" / "tsolve_kernels.py"
    assert rule.applies_to(str(path))
    assert lint_file(path, rules=[rule]) == []


def test_counter_protocol_flags_reforked_task_loops(tmp_path):
    """A ``.pop()``/``.complete()`` call on a scheduler core outside the
    lane driver is a hand-written task loop; the same source *is* allowed
    under the driver's path, and non-core receivers never match."""
    findings = _run_rule(
        "counter-protocol", FIXTURES / "counter_protocol_flag.py"
    )
    loops = [f for f in findings if "outside the lane driver" in f.message]
    assert [f.message.split("(")[0] for f in loops] == [
        "core.pop", "core.complete", "job.core.complete",
    ]
    rule = all_rules()["counter-protocol"]
    driver = SRC / "repro" / "runtime" / "lanes.py"
    assert rule.applies_to(str(driver))
    assert lint_file(driver, rules=[rule]) == []
    elsewhere = tmp_path / "repro" / "runtime" / "threaded.py"
    elsewhere.parent.mkdir(parents=True)
    elsewhere.write_text(driver.read_text())
    moved = lint_file(elsewhere, rules=[rule])
    assert moved and all("outside the lane driver" in f.message for f in moved)
    # the protocol module alone is exempt; devtools/ is policed too
    assert not rule.applies_to(str(SRC / "repro" / "runtime" / "scheduler.py"))
    devtools = SRC / "repro" / "devtools"
    assert all(rule.applies_to(str(p)) for p in devtools.rglob("*.py"))


def test_counter_protocol_clean_on_tsolve_engines():
    """The real solve-engine modules obey the protocol rule."""
    rule = all_rules()["counter-protocol"]
    for rel in (
        ("core", "tsolve.py"),
        ("core", "numeric.py"),
        ("core", "schur.py"),
        ("runtime", "lanes.py"),
        ("runtime", "distributed.py"),
        ("runtime", "engines.py"),
    ):
        path = SRC.joinpath("repro", *rel)
        assert rule.applies_to(str(path))
        assert lint_file(path, rules=[rule]) == [], rel


# ----------------------------------------------------------------------
# no suppression
# ----------------------------------------------------------------------

BAD_EXCEPT = (
    "def f(endpoint):\n"
    "    try:\n"
    "        endpoint.post_result(1)\n"
    "    except Exception:\n"
    "        pass\n"
)


def _bare_rule():
    return [all_rules()["no-bare-except-in-runtime"]]


def test_line_suppression_other_rule_does_not_apply():
    """There is no suppression comment: a ``noqa``-shaped comment is a
    plain comment, and the finding on its line stands."""
    src = BAD_EXCEPT.replace(
        "except Exception:",
        "except Exception:  # repro: noqa[kernel-purity]",
    )
    assert lint_source(src, rules=_bare_rule())
    blanket = BAD_EXCEPT.replace(
        "except Exception:", "except Exception:  # repro: noqa"
    )
    assert lint_source(blanket, rules=_bare_rule())


# ----------------------------------------------------------------------
# framework behaviour
# ----------------------------------------------------------------------

def test_syntax_error_is_reported_not_raised():
    findings = lint_source("def f(:\n")
    assert [f.rule for f in findings] == ["syntax-error"]


def test_path_filters_keep_rules_off_foreign_files():
    # kernel-purity is scoped to the kernel modules: the same source
    # linted under a non-kernel path produces nothing
    bad = (FIXTURES / "kernel_purity_flag.py").read_text()
    assert lint_source(bad, path="somewhere/else.py") == []


def test_lint_paths_skips_fixture_directory():
    findings = lint_paths([FIXTURES.parent])
    assert not any("devtools_fixtures" in f.path for f in findings)
    # a fixture named explicitly is analysed, not skipped like a walked one
    named = FIXTURES / "counter_protocol_flag.py"
    assert lint_paths([named], select=["counter-protocol"])


def test_unknown_select_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        lint_paths([FIXTURES], select=["no-such-rule"])


def test_renderers():
    findings = _run_rule("counter-protocol", FIXTURES / "counter_protocol_flag.py")
    text = render_text(findings)
    assert "[counter-protocol]" in text and "findings" in text
    import json

    parsed = json.loads(render_json(findings))
    assert parsed and parsed[0]["rule"] == "counter-protocol"


# ----------------------------------------------------------------------
# the gate: the repo itself is clean, and the CLI exit codes work
# ----------------------------------------------------------------------

def test_repository_lints_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_cli_exit_codes(capsys, tmp_path):
    assert lint_cli.main([str(SRC / "repro" / "devtools")]) == 0
    assert "0 findings" in capsys.readouterr().out
    bad = tmp_path / "bad.py"
    bad.write_text((FIXTURES / "counter_protocol_flag.py").read_text())
    assert lint_cli.main([str(bad), "--select", "counter-protocol"]) == 1
    assert "[counter-protocol]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "select", [[], ["lock-discipline"], ["no-implicit-float64"]]
)
def test_cli_missing_path_is_a_usage_error(select, capsys):
    argv = ["no/such/dir"] + [a for name in select for a in ("--select", name)]
    with pytest.raises(SystemExit) as exc:
        lint_cli.main(argv)
    assert exc.value.code == 2
    assert "no such file or directory: no/such/dir" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert lint_cli.main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == sorted(RULE_FIXTURES)


def test_cli_json_format(capsys, tmp_path):
    import json

    # the bare-except rule is scoped to */repro/runtime/*.py, so give
    # the temporary copy a matching path
    bad = tmp_path / "repro" / "runtime" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text((FIXTURES / "bare_except_flag.py").read_text())
    assert lint_cli.main(
        [str(bad), "--select", "no-bare-except-in-runtime",
         "--format", "json"]
    ) == 1
    parsed = json.loads(capsys.readouterr().out)
    assert parsed
    assert all(f["rule"] == "no-bare-except-in-runtime" for f in parsed)
