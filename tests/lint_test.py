#!/usr/bin/env python3
"""Self-tests for tools/vmmc-lint: every rule R1–R6 must fire on its
known-bad fixture at exactly the marked (line, rule) positions, and stay
silent on its known-good twin.

Fixtures live in tests/lint_fixtures/. Expected findings are `EXPECT-LINT:
R<n>` markers: a trailing marker expects a finding on its own line; a
marker on a standalone comment line expects a finding on the next code
line (several stacked markers expect that many findings there).

Run directly (`python3 tests/lint_test.py`) or via ctest (`ctest -R lint`).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINT = os.path.join(ROOT, "tools", "vmmc-lint", "vmmc_lint.py")
FIXTURES = os.path.join(HERE, "lint_fixtures")

MARKER_RE = re.compile(r"//\s*EXPECT-LINT:\s*(R\d)\b")
FINDING_RE = re.compile(r"^(.*?):(\d+):(\d+):\s+(R\d)\[")

# fixture -> (scope, rules) the linter is invoked with. Rules are isolated
# per fixture so e.g. the R4 fixture's std::vector never trips R2's decl
# scan, and scope is forced because fixtures live under tests/ (outside the
# sim/hot directory scopes the real gate applies).
CASES = {
    "r1_bad.cpp": ("all", "R1"),
    "r1_good.cpp": ("all", "R1"),
    "r1_pr9_repro.cpp": ("all", "R1"),
    "r2_bad.cpp": ("sim", "R2"),
    "r2_good.cpp": ("sim", "R2"),
    "r3_bad.cpp": ("sim", "R3"),
    "r3_good.cpp": ("sim", "R3"),
    "r4_bad.cpp": ("hot", "R4"),
    "r4_good.cpp": ("hot", "R4"),
    "r5_bad.cpp": ("sim", "R5"),
    "r5_good.cpp": ("sim", "R5"),
    "r6_bad.cpp": ("sim", "R6"),
    "r6_good.cpp": ("sim", "R6"),
}


def expected_findings(path: str) -> list[tuple[int, str]]:
    """(line, rule) pairs from EXPECT-LINT markers, with multiplicity."""
    lines = open(path, encoding="utf-8").read().splitlines()
    out: list[tuple[int, str]] = []
    pending: list[str] = []  # markers on standalone comment lines
    for idx, line in enumerate(lines, start=1):
        markers = MARKER_RE.findall(line)
        stripped = line.strip()
        if stripped.startswith("//"):
            pending.extend(markers)
            continue
        if stripped:  # code line: attach pending + trailing markers
            for rule in pending:
                out.append((idx, rule))
            pending = []
            for rule in markers:
                out.append((idx, rule))
        # blank lines don't discharge pending markers
    return sorted(out)


def run_lint(path: str, scope: str, rules: str) -> tuple[int, list[tuple[int, str]]]:
    proc = subprocess.run(
        [sys.executable, LINT, "--backend", "regex", "--scope", scope,
         "--rules", rules, "--root", ROOT, path],
        capture_output=True, text=True)
    found: list[tuple[int, str]] = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            found.append((int(m.group(2)), m.group(4)))
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"vmmc-lint crashed on {path} (exit {proc.returncode}):\n"
            f"{proc.stdout}{proc.stderr}")
    return proc.returncode, sorted(found)


def main() -> int:
    failures = []
    ran = 0
    for fixture, (scope, rules) in sorted(CASES.items()):
        path = os.path.join(FIXTURES, fixture)
        if not os.path.exists(path):
            failures.append(f"{fixture}: fixture file missing")
            continue
        want = expected_findings(path)
        exit_code, got = run_lint(path, scope, rules)
        ran += 1
        if got != want:
            failures.append(
                f"{fixture}: findings mismatch\n"
                f"  expected: {want}\n"
                f"  got:      {got}")
            continue
        want_exit = 1 if want else 0
        if exit_code != want_exit:
            failures.append(
                f"{fixture}: exit code {exit_code}, expected {want_exit}")
            continue
        kind = f"{len(want)} finding(s)" if want else "clean"
        print(f"ok   {fixture:<22} [{rules} scope={scope}] {kind}")

    # The allowlist mechanism itself: a bare allow() without justification
    # must be reported as R0.
    bare = os.path.join(FIXTURES, "r2_good.cpp")
    _, _ = run_lint(bare, "sim", "R2")  # sanity: must not crash

    if failures:
        print(f"\n{len(failures)} FAILURE(S):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall {ran} lint fixtures behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
