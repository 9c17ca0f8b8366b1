#!/usr/bin/env python3
"""truthcast repo lint: project rules clang-tidy cannot express.

Registered as a ctest case (see tests/CMakeLists.txt) and run in CI, so a
violation fails the build. Rules:

  rng          No rand()/srand()/std::rand or <random> engines outside
               src/util/rng.*: experiments must be reproducible bit-for-bit,
               so all randomness flows through tc::util::Rng streams.
  new-delete   No naked new/delete in src/: ownership goes through
               containers and values; the payment engines never allocate
               manually.
  float        No `float` in the payment/price arithmetic layers (src/core,
               src/mech, src/distsim): payments are exact identities
               (p^k = ||P_{-v_k}|| - ||P|| + d_k) and float narrows them
               silently; Cost is double everywhere.
  pragma-once  Every header uses `#pragma once` (no #ifndef guards), and it
               appears before any other preprocessor directive.
  nodiscard    Every function returning a payment / price / verdict type
               (PaymentResult, UnicastOutcome, AuditReport, ...) or a Cost
               named like a payment must be [[nodiscard]]: silently dropping
               a payment profile is exactly the bug class this repo exists
               to prevent.
  deprecated   No new uses of retired API shims. A retiring alias lives
               one PR for out-of-tree migration (only its defining header
               may say its name), then both the shim and its entry here
               are deleted. Currently empty: core::RouteQuote and the
               routable()/total_per_packet() shims completed their cycle.
  net-draw     No stochastic draws (bernoulli/next_*/uniform/shuffle or a
               util::Rng instance) in src/distsim outside src/distsim/net/:
               every delivery, loss, and activation draw must flow through
               the radio substrate's single seeded stream so a chaos run
               replays bit-for-bit from its FaultSchedule seed. This
               explicitly covers the adversary/trust layer
               (src/distsim/adversary.*, src/distsim/trust.*): Byzantine
               decisions — who drops, who replays — must be seeded
               util::mix64 hash chains, never a second RNG. (Seedless
               hashing like util::mix64 is fine.)
  spath-loop   No allocating spath::dijkstra_* calls inside for/while loops
               under src/core or src/svc: repeated runs over one graph (and
               the serving hot path in particular) must go through the
               workspace kernels (dijkstra_*_into / MaskedSptDelta /
               spath::CostDelta / spath::batch), which reuse arrays instead
               of reallocating O(n) state per iteration.
  svc-graph-copy
               No full NodeGraph/LinkGraph copies inside src/svc outside
               snapshot construction (src/svc/snapshot.*): the serving
               layer publishes re-declarations as O(1) copy-on-write
               overlays, and an accidental graph copy on the quote or
               declare path silently reintroduces the O(n + m) publish
               this PR removed. The few sanctioned copies (eager non-COW
               mode, bulk declarations, warm-cache rebuilds) carry a
               `tc-lint: allow(svc-graph-copy)` comment on the same line
               or the line above.

Usage: tools/tc_lint.py [--root REPO_ROOT] [--list-rules]
Exit status: 0 when clean, 1 when violations were found, 2 when no
source files were found under --root (almost certainly a wrong path).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Directories scanned per rule (relative to the repo root).
CODE_DIRS = ("src", "tests", "examples", "bench", "tools")
# Seeded-violation trees: lint/analyzer fixtures break rules on purpose,
# and tests/negative holds deliberately ill-disciplined lock code that
# must *fail* compilation under -Werror=thread-safety-analysis.
EXCLUDE_DIRS = ("tests/lint_fixtures", "tests/analyze_fixtures",
                "tests/negative")
FLOAT_BAN_DIRS = ("src/core", "src/mech", "src/distsim")

# Types whose values must never be silently dropped: payment profiles,
# audit verdicts, truthfulness reports, shortest-path results.
NODISCARD_TYPES = (
    "PaymentResult",
    "UnicastOutcome",
    "AuditReport",
    "EdgeVcgResult",
    "TruthfulnessReport",
    "CollusionReport",
    "SptResult",
    "AvoidingPath",
    "OverpaymentResult",
    "OverpaymentMetrics",
    "LevelLabels",
    "PricedQuote",
    "MetricsSnapshot",
    "FleetMetricsSnapshot",
    "SettlementResult",
    "Response",
)

# Retired aliases kept one PR for migration: (name, replacement, defining
# file allowed to mention the name). Empty between deprecation cycles.
DEPRECATED_SHIMS: tuple[tuple[str, str, str], ...] = ()

RNG_BANNED = re.compile(
    r"\b(?:std::)?(?:rand|srand)\s*\("
    r"|\bstd::(?:mt19937(?:_64)?|minstd_rand0?|random_device|default_random_engine)\b"
)
NEW_DELETE = re.compile(r"\bnew\s+[A-Za-z_:(]|\bdelete(?:\[\])?\s+[A-Za-z_:(*]")
FLOAT_USE = re.compile(r"\bfloat\b")
IFNDEF_GUARD = re.compile(r"#\s*ifndef\s+\w*_(?:H|HPP|H_|HPP_)\b")

_type_alt = "|".join(NODISCARD_TYPES)
NODISCARD_DECL = re.compile(
    r"^\s*(?P<attr>\[\[nodiscard\]\]\s+)?"
    r"(?:virtual\s+|static\s+|constexpr\s+|inline\s+|friend\s+)*"
    r"(?:const\s+)?"
    rf"(?:\w+::)*(?P<type>{_type_alt})(?:\s*&)?\s+\w+\s*\("
)
NODISCARD_COST_DECL = re.compile(
    r"^\s*(?P<attr>\[\[nodiscard\]\]\s+)?"
    r"(?:virtual\s+|static\s+|constexpr\s+|inline\s+|friend\s+)*"
    r"(?:const\s+)?"
    r"(?:\w+::)*Cost\s+"
    r"(?P<name>\w*(?:payment|price|utility|overpayment)\w*)\s*\(",
    re.IGNORECASE,
)

# Stochastic draws banned in src/distsim outside src/distsim/net/: the
# protocol layers must not roll their own delivery/loss/activation dice.
# util::mix64 does not match (it is a pure hash, not a stream draw).
NET_DRAW = re.compile(
    r"\b(?:bernoulli|next_double|next_u64|next_below|uniform|uniform_int"
    r"|normal|shuffle)\s*\("
    r"|\butil::Rng\b"
)

# Allocating Dijkstra entry points; the `_into` workspace kernels do not
# match (the regex requires "(" right after the bare name).
SPATH_ALLOC_CALL = re.compile(
    r"\bspath::dijkstra_(?:node|link|link_to_target)"
    r"\s*\("
)
LOOP_KEYWORD = re.compile(r"\b(?:for|while)\s*\(")

# Full graph copies banned in src/svc outside snapshot construction:
# copy-declaring a graph value, or assigning from a snapshot's
# materializing node()/link() accessor. Reference binds
# (`const graph::NodeGraph& g = snap.node()`) do not copy and are skipped
# via the '&' guard in check_svc_graph_copy.
SVC_GRAPH_COPY_DECL = re.compile(
    r"\bgraph::(?:NodeGraph|LinkGraph)\b\s+\w+\s*[={]")
SVC_GRAPH_COPY_ASSIGN = re.compile(r"=\s*[\w.>\[\]-]*\.(?:node|link)\(\)")
SVC_GRAPH_COPY_ALLOW = "tc-lint: allow(svc-graph-copy)"
SVC_GRAPH_COPY_EXEMPT = ("src/svc/snapshot.cpp", "src/svc/snapshot.hpp")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving layout.

    Keeps every newline and column so reported line numbers match the
    original file. Good enough for this codebase: no raw strings, no
    trigraphs, no multi-line literals.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c in ("\"", "'"):
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.violations: list[str] = []

    def fail(self, path: pathlib.Path, line: int, rule: str, message: str) -> None:
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{line}: [{rule}] {message}")

    # -- rules ------------------------------------------------------------

    def check_rng(self, path: pathlib.Path, code: str) -> None:
        if path.match("src/util/rng.*"):
            return  # the one sanctioned RNG implementation
        for lineno, line in enumerate(code.splitlines(), 1):
            if RNG_BANNED.search(line):
                self.fail(path, lineno, "rng",
                          "banned RNG primitive; use tc::util::Rng streams "
                          "for bit-for-bit reproducibility")

    def check_new_delete(self, path: pathlib.Path, code: str) -> None:
        if not str(path.relative_to(self.root)).startswith("src/"):
            return
        for lineno, line in enumerate(code.splitlines(), 1):
            if NEW_DELETE.search(line):
                self.fail(path, lineno, "new-delete",
                          "naked new/delete; use containers or value types")

    def check_float(self, path: pathlib.Path, code: str) -> None:
        rel = str(path.relative_to(self.root))
        if not any(rel.startswith(d + "/") for d in FLOAT_BAN_DIRS):
            return
        for lineno, line in enumerate(code.splitlines(), 1):
            if FLOAT_USE.search(line):
                self.fail(path, lineno, "float",
                          "float in payment/price arithmetic; Cost is double "
                          "and payments are exact identities")

    def check_pragma_once(self, path: pathlib.Path, code: str) -> None:
        if path.suffix != ".hpp":
            return
        for lineno, line in enumerate(code.splitlines(), 1):
            stripped = line.strip()
            if IFNDEF_GUARD.search(stripped):
                self.fail(path, lineno, "pragma-once",
                          "#ifndef include guard; use #pragma once")
                return
            if not stripped.startswith("#"):
                continue
            if stripped.replace(" ", "").startswith("#pragmaonce"):
                return  # first directive is the guard: good
            self.fail(path, lineno, "pragma-once",
                      "first preprocessor directive must be #pragma once")
            return
        self.fail(path, 1, "pragma-once", "header lacks #pragma once")

    def check_nodiscard(self, path: pathlib.Path, code: str) -> None:
        rel = str(path.relative_to(self.root))
        if path.suffix != ".hpp" or not rel.startswith("src/"):
            return
        for lineno, line in enumerate(code.splitlines(), 1):
            for pattern, what in (
                (NODISCARD_DECL, "payment/verdict type"),
                (NODISCARD_COST_DECL, "payment-named Cost"),
            ):
                m = pattern.match(line)
                if m and not m.group("attr"):
                    self.fail(path, lineno, "nodiscard",
                              f"function returning {what} must be "
                              "[[nodiscard]]")

    def check_deprecated(self, path: pathlib.Path, code: str) -> None:
        rel = str(path.relative_to(self.root))
        for name, replacement, defining in DEPRECATED_SHIMS:
            if rel == defining:
                continue  # the shim's own definition site
            pattern = re.compile(rf"\b{name}\b")
            for lineno, line in enumerate(code.splitlines(), 1):
                if pattern.search(line):
                    self.fail(path, lineno, "deprecated",
                              f"retired shim {name}; use {replacement}")

    def check_net_draw(self, path: pathlib.Path, code: str) -> None:
        rel = str(path.relative_to(self.root))
        if not rel.startswith("src/distsim/"):
            return
        if rel.startswith("src/distsim/net/"):
            return  # the one sanctioned fault-draw site
        for lineno, line in enumerate(code.splitlines(), 1):
            if NET_DRAW.search(line):
                self.fail(path, lineno, "net-draw",
                          "stochastic draw outside src/distsim/net/; all "
                          "delivery/loss/activation randomness must flow "
                          "through net::RadioNet's seeded FaultSchedule "
                          "stream (adversary/trust decisions use seeded "
                          "util::mix64 hash chains)")

    def check_svc_graph_copy(self, path: pathlib.Path, code: str,
                             text: str) -> None:
        rel = str(path.relative_to(self.root))
        if not rel.startswith("src/svc/") or rel in SVC_GRAPH_COPY_EXEMPT:
            return
        # The allow-escape lives in a comment, so it is matched against
        # the raw text (comments are blanked in `code`).
        raw_lines = text.splitlines()
        for lineno, line in enumerate(code.splitlines(), 1):
            hit = SVC_GRAPH_COPY_DECL.search(line) or (
                "&" not in line and SVC_GRAPH_COPY_ASSIGN.search(line))
            if not hit:
                continue
            allowed = any(
                SVC_GRAPH_COPY_ALLOW in raw_lines[i]
                for i in (lineno - 1, lineno - 2)
                if 0 <= i < len(raw_lines))
            if allowed:
                continue
            self.fail(path, lineno, "svc-graph-copy",
                      "full graph copy in the serving layer; publish through "
                      "ProfileSnapshot's copy-on-write derive (or annotate a "
                      "sanctioned copy with tc-lint: allow(svc-graph-copy))")

    def check_spath_loop(self, path: pathlib.Path, code: str) -> None:
        rel = str(path.relative_to(self.root))
        if not (rel.startswith("src/core/") or rel.startswith("src/svc/")):
            return
        # Mark every '{' that opens a for/while body; a brace-less loop body
        # is the single statement up to the next ';'.
        n = len(code)
        loop_opens: set[int] = set()
        for m in LOOP_KEYWORD.finditer(code):
            i = m.end() - 1  # at the header's '('
            depth = 0
            while i < n:
                if code[i] == "(":
                    depth += 1
                elif code[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            j = i + 1
            while j < n and code[j].isspace():
                j += 1
            if j < n and code[j] == "{":
                loop_opens.add(j)
            else:
                end = code.find(";", j)
                call = SPATH_ALLOC_CALL.search(
                    code, j, end if end != -1 else n)
                if call:
                    self._fail_spath_loop(path, code, call.start())
        # One pass over the braces: flag allocating calls while inside at
        # least one loop body.
        calls = [m.start() for m in SPATH_ALLOC_CALL.finditer(code)]
        ci = 0
        loop_depth = 0
        stack: list[bool] = []
        for idx, ch in enumerate(code):
            while ci < len(calls) and calls[ci] == idx:
                if loop_depth > 0:
                    self._fail_spath_loop(path, code, idx)
                ci += 1
            if ch == "{":
                is_loop = idx in loop_opens
                stack.append(is_loop)
                loop_depth += is_loop
            elif ch == "}" and stack:
                loop_depth -= stack.pop()

    def _fail_spath_loop(self, path: pathlib.Path, code: str,
                         pos: int) -> None:
        lineno = code.count("\n", 0, pos) + 1
        self.fail(path, lineno, "spath-loop",
                  "allocating spath::dijkstra_* inside a loop; use the "
                  "workspace kernels (dijkstra_*_into / MaskedSptDelta / "
                  "spath::batch)")

    # -- driver -----------------------------------------------------------

    def run(self) -> int:
        files: list[pathlib.Path] = []
        for d in CODE_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            for ext in ("*.cpp", "*.hpp"):
                files.extend(
                    p for p in sorted(base.rglob(ext))
                    if not any(
                        str(p.relative_to(self.root)).startswith(e + "/")
                        for e in EXCLUDE_DIRS))
        if not files:
            # A mistyped --root must not green-light the build.
            print(f"tc_lint: no source files under {self.root} "
                  f"(wrong --root?)", file=sys.stderr)
            return 2
        for path in files:
            text = path.read_text(encoding="utf-8")
            code = strip_comments_and_strings(text)
            self.check_rng(path, code)
            self.check_new_delete(path, code)
            self.check_float(path, code)
            self.check_pragma_once(path, code)
            self.check_nodiscard(path, code)
            self.check_deprecated(path, code)
            self.check_net_draw(path, code)
            self.check_svc_graph_copy(path, code, text)
            self.check_spath_loop(path, code)
        for v in self.violations:
            print(v)
        if self.violations:
            print(f"tc_lint: {len(self.violations)} violation(s) in "
                  f"{len(files)} files", file=sys.stderr)
            return 1
        print(f"tc_lint: OK ({len(files)} files clean)")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: the script's repo)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args()
    if args.list_rules:
        print("rng new-delete float pragma-once nodiscard deprecated "
              "net-draw svc-graph-copy spath-loop")
        return 0
    return Linter(args.root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
