"""Full-repo static-analysis wall clock: the CI latency budget.

The pcsan lint runs over the entire ``src`` tree on every CI push, so
its wall time is a latency budget, not just a curiosity: the acceptance
bar is under ten seconds for the whole repository.  The rendered table
splits the architecture table (PC010) from the other pattern rules so a
regression points at the rule that caused it.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.lint import run_lint

from bench_utils import fmt_seconds, render_table, report, timed

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

BUDGET_SECONDS = 10.0


@pytest.mark.benchmark(group="analysis")
def test_full_repo_lint_within_budget(benchmark):
    pattern_rules = {"PC001", "PC002", "PC003", "PC005", "PC006"}
    table_rules = {"PC010"}

    pattern_s, pattern_findings = timed(
        run_lint, [SRC], select=pattern_rules
    )
    table_s, table_findings = timed(run_lint, [SRC], select=table_rules)
    total_s, findings = timed(run_lint, [SRC])

    n_files = sum(
        len([f for f in files if f.endswith(".py")])
        for _root, _dirs, files in os.walk(SRC)
    )

    table = render_table(
        "Full-repo pcsan lint (%d Python files)" % n_files,
        ["pass", "rules", "wall", "findings"],
        [
            ["pattern (AST)", "PC001-PC006", fmt_seconds(pattern_s),
             len(pattern_findings)],
            ["architecture", "PC010", fmt_seconds(table_s),
             len(table_findings)],
            ["all", "PC001-PC010", fmt_seconds(total_s), len(findings)],
        ],
    )
    report("analysis_runtime", table)

    assert findings == []  # the repo stays rule-clean
    assert total_s < BUDGET_SECONDS, (
        "full-repo lint took %.2fs, budget is %.1fs" % (total_s,
                                                        BUDGET_SECONDS)
    )

    # One representative operation for pytest-benchmark stats.
    benchmark(lambda: run_lint([SRC]))
