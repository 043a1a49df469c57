"""The pcsan lint pass: every rule fires on its fixture, suppressions
silence them, and the repo itself is PC-rule-clean."""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.analysis import iter_rules, run_lint
from repro.analysis.lint import (
    ARCHITECTURE,
    format_json,
    format_text,
    lint_source,
    module_of,
    references_in,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def codes_in(path, select=None):
    return [f.code for f in run_lint([path], select=select)]


def marked_lines(name):
    """Line numbers of a fixture's ``# fires`` comments."""
    with open(fixture(name)) as handle:
        return [n for n, text in enumerate(handle, 1) if "# fires" in text]


# -- each rule fires on its fixture ------------------------------------------


def test_pc001_fires_on_every_escape_pattern():
    findings = run_lint([fixture("pc001_handle_escape.py")])
    assert [f.code for f in findings] == ["PC001"] * 4
    messages = " ".join(f.message for f in findings)
    assert "instance state" in messages
    assert "module level" in messages
    assert "returned from inside" in messages


def test_pc002_fires_on_subscript_write_and_alias():
    findings = run_lint([fixture("pc002_raw_buf.py")])
    assert [f.code for f in findings] == ["PC002"] * 7
    messages = " ".join(f.message for f in findings)
    assert "getattr()" in messages  # the getattr(block, "buf") dodge
    assert "alias" in messages  # subscripts through unpacked aliases


def test_pc003_fires_only_on_impure_lambdas():
    findings = run_lint([fixture("pc003_impure_lambda.py")])
    assert [f.code for f in findings] == ["PC003"] * 3
    reasons = " ".join(f.message for f in findings)
    assert "print" in reasons
    assert "random" in reasons
    assert "seen" in reasons  # the mutated closure name


def test_pc005_fires_on_swallowing_excepts_only():
    findings = run_lint([fixture("cluster", "pc005_swallow.py")])
    assert [f.code for f in findings] == ["PC005"] * 3


def test_pc006_fires_in_kernel_scopes_only():
    findings = run_lint([fixture("pc006_kernel_deref.py")])
    assert [f.code for f in findings] == ["PC006"] * 4
    messages = " ".join(f.message for f in findings)
    assert "deref" in messages and "facade" in messages
    # A method passed as ``kernel=Cls.method`` and the helper it calls; a
    # ``*_batch`` definition no ``kernel=`` in its module names.
    assert "make_object" in messages
    source = open(fixture("pc006_kernel_deref.py")).read().splitlines()
    assert sorted(
        source[f.line - 1].split("# fires ")[1] for f in findings
    ) == ["(deref in a *_batch)", "(deref in kernel def)",
          "(facade in kernel)", "(helper)"]


def test_pc006_covers_the_kernel_library_module():
    source = "def apply_kernel(batch):\n    return batch.deref()\n"
    assert [
        f.code for f in lint_source(source, "repro/engine/kernels.py")
    ] == ["PC006"]
    assert lint_source(source, "repro/engine/pipeline.py") == []


def test_pc010_fires_on_every_stray_reference():
    findings = run_lint([fixture("pc010_stray_reference.py")])
    assert {f.code for f in findings} == {"PC010"}
    assert [f.line for f in findings] == marked_lines(
        "pc010_stray_reference.py")
    messages = "\n".join(f.message for f in findings)
    # A caller is module-qualified, a nested function is its enclosing
    # function's, and a class body is the module's.
    assert "run_task referenced from " \
        "pc010_stray_reference.DistributedScheduler._place;" in messages
    assert "ship_page referenced from pc010_stray_reference.copy_page;" \
        in messages
    assert "run_stages referenced from pc010_stray_reference;" in messages


def test_pc010_fires_on_a_confined_name_outside_its_package():
    findings = run_lint([fixture("pc010_confined_name.py")])
    assert [f.line for f in findings] == marked_lines(
        "pc010_confined_name.py")
    assert all("frombuffer outside repro/memory" in f.message
               for f in findings)
    with open(fixture("pc010_confined_name.py")) as handle:
        source = handle.read()
    assert lint_source(source, "src/repro/memory/gather.py") == []


def _over_by(path, lines):
    """A stand-in for ``path`` that is ``lines`` past its ceiling."""
    ceiling = ARCHITECTURE["ceilings"][path]
    return '"""A module."""\n' + "\n" * (ceiling - 1 + lines)


def test_pc010_fires_on_a_module_over_its_line_ceiling():
    path = os.path.join(SRC, "repro", "cluster", "worker.py")
    assert lint_source(_over_by("repro/cluster/worker.py", 0), path) == []
    over = _over_by("repro/cluster/worker.py", 1)
    findings = lint_source(over, path)
    assert [(f.code, f.line) for f in findings] == [("PC010", 1)]
    assert findings[0].message == (
        "repro/cluster/worker.py is %d lines, over its ceiling of %d"
        % (ARCHITECTURE["ceilings"]["repro/cluster/worker.py"] + 1,
           ARCHITECTURE["ceilings"]["repro/cluster/worker.py"])
    )
    assert lint_source("# pcsan: disable=PC010\n" + over, path) == []


def test_pc010_totals_a_package_at_its_init():
    folder = os.path.join(SRC, "repro", "obs")
    init = os.path.join(folder, "__init__.py")
    with open(init) as handle:
        source = handle.read()
    others = 0
    for name in os.listdir(folder):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(folder, name)) as handle:
                others += handle.read().count("\n")
    spare = ARCHITECTURE["ceilings"]["repro/obs"] - others \
        - source.count("\n")
    assert lint_source(source + "\n" * spare, init) == []
    findings = lint_source(source + "\n" * (spare + 1), init)
    assert [f.message for f in findings] == [
        "repro/obs is %d lines, over its ceiling of %d"
        % (ARCHITECTURE["ceilings"]["repro/obs"] + 1,
           ARCHITECTURE["ceilings"]["repro/obs"])
    ]


@pytest.mark.parametrize("module,added,expected", [
    ("repro/cluster/scheduler.py",
     "def _stray(transport, data):\n"
     "    return transport.ship_page('a', 'b', data)\n",
     "ship_page referenced from repro.cluster.scheduler._stray;"),
    ("repro/cluster/scheduler.py",
     "def _stray(engine, stages, batches, sink):\n"
     "    engine.run_stages(stages, batches, sink)\n",
     "run_stages referenced from repro.cluster.scheduler._stray;"),
    ("repro/storage/dataset.py",
     "def _stray(data):\n"
     "    return np.frombuffer(data, dtype='<u4')\n",
     "frombuffer outside repro/memory;"),
    ("repro/storage/dataset.py",
     "def _stray(block, cls, records):\n"
     "    return plan_objects(block, cls, records).covered\n",
     "plan_objects referenced from repro.storage.dataset._stray;"),
])
def test_pc010_catches_a_second_path_in_the_real_module(
        module, added, expected):
    path = os.path.join(SRC, *module.split("/"))
    with open(path) as handle:
        source = handle.read()
    assert lint_source(source, path) == []
    messages = [f.message for f in lint_source(source + "\n\n" + added, path)
                if f.code == "PC010"]
    assert any(message.startswith(expected) for message in messages), \
        messages


def test_architecture_table_cannot_go_stale():
    # Every listed name is still defined, every allowed caller still
    # references it (so it still exists), every confined name is still
    # used at home, and every capped module is still there.
    table = ARCHITECTURE["references"]
    confined = ARCHITECTURE["confined"]
    defined, callers, at_home = set(), {}, set()
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as handle:
                tree = ast.parse(handle.read())
            defined.update(
                node.name for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
            parts = set(os.path.relpath(path, SRC).split(os.sep))
            for caller, ref, _node in references_in(tree, module_of(path)):
                if ref in table:
                    callers.setdefault(ref, set()).add(caller)
                if confined.get(ref) in parts:
                    at_home.add(ref)
    for name, allowed in table.items():
        assert name in defined, name
        assert callers.get(name) == set(allowed), name
    assert at_home == set(confined)
    for capped in ARCHITECTURE["ceilings"]:
        assert os.path.exists(os.path.join(SRC, *capped.split("/"))), capped


def test_pc005_is_scoped_to_cluster_paths():
    source = "try:\n    ping()\nexcept ValueError:\n    pass\n"
    assert lint_source(source, "repro/cluster/foo.py") != []
    assert lint_source(source, "repro/engine/foo.py") == []


# -- suppressions -------------------------------------------------------------


def test_suppression_comment_silences_each_rule():
    assert run_lint([fixture("cluster", "suppressed.py")]) == []


def test_suppression_honors_multiline_statement_span():
    # The comment sits on a continuation line, not the line the finding
    # anchors at — the full lineno..end_lineno span must be honored.
    source = (
        "def peek(block):\n"
        "    return getattr(\n"
        "        block,\n"
        '        "buf",  # pcsan: disable=PC002\n'
        "    )\n"
    )
    assert lint_source(source, "repro/engine/foo.py") == []


def test_suppression_on_multiline_lambda():
    # PC003 anchors at the lambda, which itself wraps onto the next
    # line — the comment on the continuation line must count.
    source = (
        "def mk(arg):\n"
        "    return lambda_from_native(\n"
        "        [arg],\n"
        "        lambda v:\n"
        "            print(v),  # pcsan: disable=PC003\n"
        "    )\n"
    )
    assert lint_source(source, "repro/core/foo.py") == []


def test_span_of_includes_decorator_lines():
    import ast

    from repro.analysis.lint import span_of

    tree = ast.parse("@deco(\n    1,\n)\ndef f():\n    pass\n")
    assert span_of(tree.body[0]) == (1, 5)


def test_unrelated_suppression_does_not_silence():
    source = "x = block.buf[0]  # pcsan: disable=PC001\n"
    findings = lint_source(source, "repro/engine/foo.py")
    assert [f.code for f in findings] == ["PC002"]


# -- the fixture tree as a whole, and the repo -------------------------------


def test_pc007_fires_on_leaky_paths_only():
    findings = run_lint([fixture("pc007_pin_leak.py")])
    assert [f.code for f in findings] == ["PC007"] * 2
    messages = " ".join(f.message for f in findings)
    assert "pool.pin(page_id)" in messages
    assert "block.retain(handle)" in messages
    assert "exception" in messages  # the unwind-only leak names its path


def test_pc008_fires_on_unclosed_segments_only():
    findings = run_lint([fixture("pc008_shm_leak.py")])
    assert [f.code for f in findings] == ["PC008"] * 2
    messages = " ".join(f.message for f in findings)
    assert "'shm'" in messages  # the named binding
    assert "ShmRegistry" in messages  # the dropped-on-the-floor create


def test_pc009_fires_on_late_writes_only():
    findings = run_lint([fixture("pc009_write_after_seal.py")])
    assert [f.code for f in findings] == ["PC009"] * 2
    messages = " ".join(f.message for f in findings)
    assert "'page'" in messages and "'block'" in messages


def test_fixture_tree_violates_every_rule():
    codes = {f.code for f in run_lint([FIXTURES])}
    assert codes == {
        "PC001", "PC002", "PC003", "PC005", "PC006",
        "PC007", "PC008", "PC009", "PC010",
    }


def test_repo_is_pc_rule_clean():
    assert run_lint([SRC]) == []


def test_repo_is_flow_rule_clean():
    # Explicitly the path-sensitive rules, so a regression in the CFG
    # engine cannot hide behind a pattern rule's findings.
    assert run_lint([SRC], select={"PC007", "PC008", "PC009"}) == []


# -- registry, select, reporters, CLI ----------------------------------------


def test_rule_catalog_is_complete(capsys):
    from repro.analysis.__main__ import main

    codes = [code for code, _name, _summary in iter_rules()]
    assert codes == [
        "PC001", "PC002", "PC003", "PC005", "PC006",
        "PC007", "PC008", "PC009", "PC010",
    ]
    assert main(["rules"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in listed] == codes
    assert listed[-1].split()[1] == "architecture"


def test_select_runs_only_requested_rules():
    codes = codes_in(FIXTURES, select={"PC002"})
    assert codes and set(codes) == {"PC002"}


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings = run_lint([str(bad)])
    assert [f.code for f in findings] == ["PC000"]


def test_reporters():
    findings = lint_source(
        "x = block.buf\ny = transport.ship_rows\n", "repro/engine/foo.py")
    text = format_text(findings)
    assert "PC002" in text and "PC010" in text
    assert text.endswith("2 findings")
    payload = json.loads(format_json(findings))
    assert payload["count"] == 2
    assert [f["code"] for f in payload["findings"]] == ["PC002", "PC010"]
    assert payload["findings"][1]["message"].startswith(
        "ship_rows referenced from repro.engine.foo;")


@pytest.mark.parametrize(
    "target,expected_exit", [(FIXTURES, 1), (SRC, 0)],
)
def test_cli_exit_codes(target, expected_exit):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", target,
         "--format", "json"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == expected_exit, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["count"] > 0) == (expected_exit == 1)


# -- SARIF --------------------------------------------------------------------


def test_sarif_document_shape_and_validation():
    from repro.analysis import to_sarif, validate_sarif

    findings = run_lint([FIXTURES])
    doc = to_sarif(findings)
    assert validate_sarif(doc) == []
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "pcsan"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == [code for code, _n, _s in iter_rules()]
    assert "PC010" in rule_ids
    assert len(run["results"]) == len(findings)
    assert {r["ruleId"] for r in run["results"]} >= {"PC002", "PC010"}
    result = run["results"][0]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_validator_catches_broken_documents():
    from repro.analysis import to_sarif, validate_sarif

    doc = to_sarif(run_lint([fixture("pc002_raw_buf.py")]))
    del doc["runs"][0]["results"][0]["message"]
    assert validate_sarif(doc)
    assert validate_sarif({"version": "2.1.0"})  # no runs at all


def test_cli_sarif_output_is_valid(tmp_path):
    from repro.analysis import validate_sarif

    env = dict(os.environ, PYTHONPATH=SRC)
    out = str(tmp_path / "pcsan.sarif")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", FIXTURES,
         "--format", "sarif", "--output", out],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 1, proc.stderr  # findings still gate
    with open(out) as handle:
        doc = json.load(handle)
    assert doc["version"] == "2.1.0"
    assert validate_sarif(doc) == []
    assert doc["runs"][0]["results"]
