"""The pcsan lint pass: every rule fires on its fixture, suppressions
silence them, and the repo itself is PC-rule-clean."""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.lint import (
    ARCHITECTURE,
    format_json,
    format_text,
    iter_rules,
    lint_source,
    module_of,
    references_in,
    run_lint,
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


def _package_spare(package):
    """Lines ``package`` can still grow by (at its ``__init__``) before
    its ceiling, with the ``__init__`` source itself."""
    folder = os.path.join(SRC, *package.split("/"))
    with open(os.path.join(folder, "__init__.py")) as handle:
        source = handle.read()
    others = 0
    for name in os.listdir(folder):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(folder, name)) as handle:
                others += handle.read().count("\n")
    spare = ARCHITECTURE["ceilings"][package] - others - source.count("\n")
    return spare, source


def test_pc010_totals_a_package_at_its_init():
    init = os.path.join(SRC, "repro", "obs", "__init__.py")
    spare, source = _package_spare("repro/obs")
    assert lint_source(source + "\n" * spare, init) == []
    findings = lint_source(source + "\n" * (spare + 1), init)
    assert [f.message for f in findings] == [
        "repro/obs is %d lines, over its ceiling of %d"
        % (ARCHITECTURE["ceilings"]["repro/obs"] + 1,
           ARCHITECTURE["ceilings"]["repro/obs"])
    ]


@pytest.mark.parametrize("capped", sorted(ARCHITECTURE["ceilings"]))
def test_every_ceiling_fires_one_line_over(capped):
    ceiling = ARCHITECTURE["ceilings"][capped]
    expected = "%s is %d lines, over its ceiling of %d" % (
        capped, ceiling + 1, ceiling)
    if capped.endswith(".py"):
        path = os.path.join(SRC, *capped.split("/"))
        at, over = _over_by(capped, 0), _over_by(capped, 1)
    else:
        path = os.path.join(SRC, *capped.split("/"), "__init__.py")
        spare, source = _package_spare(capped)
        assert spare >= 0, (capped, spare)
        at = source + "\n" * spare
        over = at + "\n"
    assert lint_source(at, path) == []
    assert [f.message for f in lint_source(over, path)] == [expected]


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
    ("repro/storage/dataset.py",
     "def _stray(pool, page_id):\n"
     "    return pool.pin(page_id)\n",
     "pin referenced from repro.storage.dataset._stray;"),
    ("repro/cluster/scheduler.py",
     "def _stray(block, offset):\n"
     "    block.retain(offset)\n",
     "retain outside repro/memory;"),
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


def test_fixture_tree_violates_every_rule():
    codes = {f.code for f in run_lint([FIXTURES])}
    assert codes == {
        "PC001", "PC002", "PC003", "PC005", "PC006", "PC010",
    }


def test_repo_is_pc_rule_clean():
    assert run_lint([SRC]) == []


# -- registry, select, reporters, CLI ----------------------------------------


def test_rule_catalog_is_complete(capsys):
    from repro.analysis.__main__ import main

    codes = [code for code, _name, _summary in iter_rules()]
    assert codes == [
        "PC001", "PC002", "PC003", "PC005", "PC006", "PC010",
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


@pytest.mark.parametrize("target,expected_exit", [
    pytest.param(FIXTURES, 1, id="fixtures"),
    pytest.param(SRC, 0, id="src"),
])
def test_cli_text_format_gates_on_exit_code(target, expected_exit):
    # The CI lint job runs the default text report and gates on the exit
    # code alone.
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", target],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == expected_exit, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert (last == "0 findings") == (expected_exit == 0), last


def test_cli_rejects_the_sarif_format(capsys):
    from repro.analysis.__main__ import main

    with pytest.raises(SystemExit) as raised:
        main(["lint", SRC, "--format", "sarif"])
    assert raised.value.code == 2
    assert "invalid choice: 'sarif'" in capsys.readouterr().err


# -- the runtime loads the sanitizer, never the lint --------------------------


@pytest.mark.parametrize("root,sanitizer", [
    ("repro.analysis", False),
    ("repro.memory.block", True),
    ("repro.cluster", True),
    ("repro.cluster.procworker", True),
])
def test_runtime_imports_load_no_linter(root, sanitizer):
    # Every coordinator and back-end child imports the memory and cluster
    # layers; they must not pay for the lint's import.
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (
        "import importlib, sys\n"
        "importlib.import_module(%r)\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.startswith('repro.analysis'))))\n"
        % root
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "repro.analysis.lint" not in loaded, loaded
    assert "repro.analysis.__main__" not in loaded, loaded
    assert ("repro.analysis.sanitizer" in loaded) == sanitizer, loaded
