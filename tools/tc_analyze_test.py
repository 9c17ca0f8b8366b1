#!/usr/bin/env python3
"""Unit tests for tools/tc_analyze.py, driven by seeded-violation fixtures.

Each directory under tests/analyze_fixtures/ is a miniature repo root.
`<rule>_bad` fixtures must be rejected by exactly that rule (exit 1 with
an [<rule>] tag); `*_allowed` fixtures carry a `tc-analyze: allow(...)`
waiver and must pass; `*_clean` fixtures must pass their one rule;
`clean/` must pass all four rules *non-vacuously*
(it defines real hot-path and pricing roots). The real repo root must
pass every rule too.

Engine selection: the internal engine always runs and is the blocking
gate. Setting TC_ANALYZE_LIBCLANG=1 additionally checks every fixture
under --engine libclang, pinning both engines to the same verdicts; CI's
lint job does this in a non-blocking step with python3-clang installed
(the binding importing is not enough — libclang.so must load and parse,
which the dev container cannot do).

Registered as the ctest case `tc_analyze_selftest`.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
ANALYZE = REPO / "tools" / "tc_analyze.py"
FIXTURES = REPO / "tests" / "analyze_fixtures"

# fixture -> (rule to run, expected tag or None for clean).
EXPECTATIONS = {
    "layers_bad": ("layers", "layers"),
    "hot_alloc_bad": ("hot-alloc", "hot-alloc"),
    "hot_alloc_batched_bad": ("hot-alloc", "hot-alloc"),
    "hot_alloc_core_bad": ("hot-alloc", "hot-alloc"),
    "hot_alloc_link_bad": ("hot-alloc", "hot-alloc"),
    "hot_alloc_decl_bad": ("hot-alloc", "hot-alloc"),
    "hot_alloc_allowed": ("hot-alloc", None),
    "hot_alloc_name_clash_clean": ("hot-alloc", None),
    "reader_locks_bad": ("reader-locks", "reader-locks"),
    "mutable_const_bad": ("mutable-const", "mutable-const"),
}
ALL_RULES = ("layers", "hot-alloc", "reader-locks", "mutable-const")


def libclang_engines() -> tuple[str, ...]:
    if os.environ.get("TC_ANALYZE_LIBCLANG") != "1":
        return ()
    return ("libclang",)


def run_analyze(root: pathlib.Path, rules: tuple[str, ...],
                engine: str = "internal") -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(ANALYZE), "--root", str(root),
           "--engine", engine]
    for r in rules:
        cmd += ["--rule", r]
    return subprocess.run(cmd, capture_output=True, text=True, check=False)


class AnalyzeFixtureTest(unittest.TestCase):
    engines = ("internal", *libclang_engines())

    def test_every_fixture_is_expected(self) -> None:
        on_disk = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
        self.assertEqual(on_disk, set(EXPECTATIONS) | {"clean"})

    def test_fixtures(self) -> None:
        for name, (rule, tag) in EXPECTATIONS.items():
            for engine in self.engines:
                with self.subTest(fixture=name, engine=engine):
                    proc = run_analyze(FIXTURES / name, (rule,), engine)
                    if tag is None:
                        self.assertEqual(
                            proc.returncode, 0,
                            f"{name} should pass [{engine}]:\n"
                            f"{proc.stdout}{proc.stderr}")
                    else:
                        self.assertEqual(
                            proc.returncode, 1,
                            f"{name} should fail [{engine}]:\n"
                            f"{proc.stdout}{proc.stderr}")
                        self.assertIn(f"[{tag}]", proc.stdout)

    def test_clean_fixture_passes_all_rules(self) -> None:
        for engine in self.engines:
            with self.subTest(engine=engine):
                proc = run_analyze(FIXTURES / "clean", ALL_RULES, engine)
                self.assertEqual(
                    proc.returncode, 0,
                    f"clean fixture failed [{engine}]:\n"
                    f"{proc.stdout}{proc.stderr}")

    def test_rules_are_not_vacuous(self) -> None:
        """A tree with no kernel/pricing roots must be *rejected*, not
        silently passed: the call-graph rules guard against their own
        roots being renamed away."""
        proc = run_analyze(FIXTURES / "layers_bad", ("hot-alloc",))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("vacuous", proc.stdout)

    def test_missing_root_exits_2(self) -> None:
        proc = run_analyze(FIXTURES / "no_such_dir", ("layers",))
        self.assertEqual(proc.returncode, 2)

    def test_real_repo_is_clean(self) -> None:
        for engine in self.engines:
            with self.subTest(engine=engine):
                proc = run_analyze(REPO, ALL_RULES, engine)
                self.assertEqual(
                    proc.returncode, 0,
                    f"repo must satisfy all analyzer rules [{engine}]:\n"
                    f"{proc.stdout}{proc.stderr}")


if __name__ == "__main__":
    unittest.main()
