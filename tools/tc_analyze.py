#!/usr/bin/env python3
"""truthcast project analyzer: whole-program structural rules.

Where tools/tc_lint.py enforces line-local conventions, this tool checks
properties that need the *shape* of the program — the include graph and
the call graph. Registered as ctest cases (see tests/CMakeLists.txt) and
run in CI, so a violation fails the build. Rules:

  layers        The source tree is a layered DAG:

                    util -> geom -> graph -> spath -> mech -> core
                         -> svc -> distsim -> sim

                (each layer may include itself and anything earlier).
                A back-edge include — say util/ reaching into svc/ —
                inverts the dependency order and is rejected. Checked
                over every quoted project include in src/.

  hot-alloc     The workspace kernels exist so the serving hot path never
                allocates per call: dijkstra_*_into, the batched
                spt_multi_into (its SptMatrix is the one grow-only
                allocation for a whole many-roots pass, never per root),
                MaskedSptDelta::eval, CostDelta::apply_* and Algorithm
                1's pricing kernel on its PaymentScratch — the node-cost
                core::fast_payments_into and the link-cost
                core::internal::link_payments_into (node agents) and
                edge_payments_into (edge agents) — reuse grow-only
                arenas instead of building O(n) state per invocation. This rule walks the
                call graph from those roots and rejects any reachable
                function that constructs
                a local std container (default-constructed
                `std::vector<T> v;` included), calls make_unique/make_shared,
                uses a new-expression, or calls an allocating
                spath::dijkstra_* entry point (the non-_into forms).
                Arena growth (.resize/.reserve/.push_back on members) is
                the point, not a violation, and is not matched.
                Memoized boundaries (see HOT_ALLOC_BOUNDARIES) are
                dirty-flag or CAS-gated rebuilds whose cost is amortized
                across calls; traversal does not descend into them.

  reader-locks  QuoteEngine's pricing layer runs against a frozen
                ProfileSnapshot and must stay lock-free: every mutex the
                engine owns (shard locks, warm-cache lock, writer mutex)
                is taken in the caching layers *around* pricing, never
                below it — a lock inside Pricer::price would serialize
                readers and can deadlock against the writer's publish
                order. This rule walks the call graph from the Pricer
                price / price_with_spts entry points in src/svc and
                rejects any reachable lock acquisition (MutexLock,
                lock_guard, unique_lock, .lock(), cv.wait(...)).
                Snapshot materialization and LinkGraph::reverse() stay
                reachable-and-clean by construction: their caches are
                atomic CAS memos, which is what mutable-const enforces.

  mutable-const Every `mutable` member in src/ must be a synchronization
                primitive, an atomic (std::atomic, util::Mutex,
                util::SharedMutex, std::mutex, ...), or carry a
                TC_GUARDED_BY annotation naming the mutex that protects
                it. A bare mutable member is a cache mutated through
                const methods — invisible to callers holding a `const&`,
                and therefore a data race the moment two readers share
                the object (the Clang Thread Safety annotations cannot
                see it either, because no lock is named). The sanctioned
                shapes are the CAS memos in LinkGraph::reverse_ /
                ProfileSnapshot's node_cache_ and the lock-guarded
                Metrics::latencies_ reservoir.

A finding can be waived with a `tc-analyze: allow(<rule>)` comment on the
same line or the line above, with a justification.

Engines (--engine):
  internal   Self-contained tokenizer: comment/string stripping, a
             brace-matching function-definition scanner, and a
             name-keyed call graph. Conservative: a call is resolved by
             name to every same-named definition visible from the
             caller's file (the file itself, the project headers it
             includes transitively, and each such header's same-stem
             .cpp). No third-party dependencies; this is what runs
             locally and in the ctest gate.
  libclang   AST-backed extraction via clang.cindex (python3-clang):
             definitions, call expressions, new-expressions and local
             variable types come from the Clang AST instead of regexes.
             Used in CI where the binding is installed.
  auto       libclang when importable and working, else internal (with a
             note on stderr). The rule logic is engine-independent; the
             engines only differ in how call-graph facts are extracted.

Usage: tools/tc_analyze.py [--root R] [--rule NAME]... [--engine E]
                           [--list-rules]
Exit status: 0 clean, 1 violations, 2 no sources / engine unavailable.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

RULES = ("layers", "hot-alloc", "reader-locks", "mutable-const")

# Allowed *additional* dependencies per layer (every layer may include
# itself). Keep in sync with DESIGN.md section 11 and ROADMAP.md.
LAYER_DEPS: dict[str, tuple[str, ...]] = {
    "util": (),
    "geom": ("util",),
    "graph": ("util", "geom"),
    "spath": ("util", "geom", "graph"),
    "mech": ("util", "geom", "graph", "spath"),
    "core": ("util", "geom", "graph", "spath", "mech"),
    "svc": ("util", "geom", "graph", "spath", "mech", "core"),
    "distsim": ("util", "geom", "graph", "spath", "mech", "core", "svc"),
    "sim": ("util", "geom", "graph", "spath", "mech", "core", "svc",
            "distsim"),
}

# hot-alloc roots: every function named *_into, plus named roots, each
# restricted to definitions under its own directory so an unrelated
# `eval` elsewhere cannot become a root: the repair kernels in spath and
# Algorithm 1's allocation-free pricing cores in core, node-cost and
# link-cost (rooted by name too, so they stay covered whatever the suffix
# rule matches).
HOT_ROOT_SUFFIX = "_into"
HOT_EXTRA_ROOTS = (
    ("eval", "src/spath"),
    ("apply_node_cost", "src/spath"),
    ("apply_arc_cost", "src/spath"),
    ("fast_payments_into", "src/core"),
    ("link_payments_into", "src/core"),
    ("edge_payments_into", "src/core"),
)

# Functions the hot-alloc traversal treats as amortized-O(1) boundaries:
# they rebuild a memoized structure behind a dirty flag / CAS and are
# paid once per invalidation, not per kernel call. Their own cost is
# covered by their unit tests; descending into them would flag the
# one-time rebuild as per-call allocation.
HOT_ALLOC_BOUNDARIES = {
    "reverse": "LinkGraph::reverse(): CAS-memoized reverse CSR",
    "ensure_children": "CostDelta::ensure_children(): dirty-flag rebuild",
}

# reader-locks roots: the pricing entry points, restricted to src/svc.
READER_ROOTS = (("price", "src/svc"), ("price_with_spts", "src/svc"))
READER_BOUNDARIES: dict[str, str] = {}

ALLOW_FMT = "tc-analyze: allow({rule})"

# --------------------------------------------------------------------------
# Textual patterns
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([A-Za-z_]+)/', re.MULTILINE)
INCLUDE_PATH_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

MUTABLE_DECL = re.compile(r"^\s*mutable\b")
MUTABLE_ALLOWED = re.compile(
    r"^\s*mutable\s+(?:const\s+)?"
    r"(?:std::atomic\b|std::atomic_\w+\b|std::mutex\b|std::shared_mutex\b"
    r"|std::recursive_mutex\b|std::once_flag\b|std::condition_variable\b"
    r"|(?:tc::)?util::Mutex\b|(?:tc::)?util::SharedMutex\b)")
# A TC_GUARDED_BY on the declaration names the protecting mutex, and the
# Clang analysis then enforces it — that is the opposite of a hidden race.
MUTABLE_GUARDED = re.compile(r"\bTC_GUARDED_BY\s*\(")

# Allocation sites (hot-alloc). Member-arena growth (resize / reserve /
# push_back) deliberately does not match.
HOT_NEW = re.compile(r"\bnew\s+[A-Za-z_:(]")
HOT_MAKE = re.compile(r"\bmake_(?:unique|shared)\s*<")
HOT_CONTAINER_LOCAL = re.compile(
    r"\b(?:std::)?(?:vector|deque|list|forward_list|map|multimap|set"
    r"|multiset|unordered_map|unordered_multimap|unordered_set"
    r"|unordered_multiset|queue|priority_queue|stack|string|basic_string)"
    r"\s*<[^;&(]*>\s+\w+\s*[({=;]")
# Allocating Dijkstra entry points; `_into` forms do not match because the
# regex requires "(" right after the bare name.
HOT_SPATH_ALLOC = re.compile(
    r"\bspath::dijkstra_(?:node|node_quad|node_pairing|link"
    r"|link_to_target)\s*\(")
HOT_PATTERNS = (
    (HOT_NEW, "new-expression"),
    (HOT_MAKE, "make_unique/make_shared"),
    (HOT_CONTAINER_LOCAL, "local std container construction"),
    (HOT_SPATH_ALLOC, "allocating spath::dijkstra_* call (use _into)"),
)

# Lock acquisitions (reader-locks).
LOCK_USE = re.compile(
    r"\b(?:(?:tc::)?util::)?(?:MutexLock|SharedMutexLock|SharedReaderLock)\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|(?:\.|->)lock(?:_shared)?\s*\(|(?:\.|->)wait\s*\(")
LOCK_PATTERNS = ((LOCK_USE, "lock acquisition"),)

# Identifiers followed by '(' that are never calls worth resolving.
CALL_KEYWORDS = frozenset(
    "if for while switch return sizeof alignof alignas decltype noexcept "
    "static_assert catch throw new delete else do case typeid requires "
    "co_await co_return co_yield assert defined static_cast dynamic_cast "
    "const_cast reinterpret_cast".split())

# A call, optionally with explicit template arguments (`f<Model>(...)`),
# so calls into templated kernels resolve like plain ones.
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:<[^<>;(){}]*>)?\s*\(")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving layout.

    Keeps every newline and column so reported line numbers match the
    original file (same contract as tools/tc_lint.py).
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


# --------------------------------------------------------------------------
# Facts model (engine-independent)
# --------------------------------------------------------------------------

@dataclass
class FunctionFact:
    """One function definition: where it is and what its body does."""
    name: str                 # unqualified spelling
    qualifier: str            # enclosing class when written Class::name
    path: pathlib.Path
    line: int                 # 1-based line of the definition
    calls: set[str] = field(default_factory=set)
    # (line, category, excerpt) per flagged construct, keyed by rule.
    sites: dict[str, list[tuple[int, str, str]]] = field(default_factory=dict)


@dataclass
class Facts:
    """Everything the rules consume."""
    root: pathlib.Path
    files: list[pathlib.Path]
    raw: dict[pathlib.Path, str]
    code: dict[pathlib.Path, str]
    functions: list[FunctionFact] = field(default_factory=list)
    engine: str = "internal"

    def by_name(self) -> dict[str, list[FunctionFact]]:
        index: dict[str, list[FunctionFact]] = {}
        for f in self.functions:
            index.setdefault(f.name, []).append(f)
        return index


def load_files(root: pathlib.Path) -> Facts:
    files: list[pathlib.Path] = []
    base = root / "src"
    if base.is_dir():
        for ext in ("*.cpp", "*.hpp"):
            files.extend(sorted(base.rglob(ext)))
    raw = {p: p.read_text(encoding="utf-8") for p in files}
    code = {p: strip_comments_and_strings(t) for p, t in raw.items()}
    return Facts(root=root, files=files, raw=raw, code=code)


def line_allowed(facts: Facts, path: pathlib.Path, lineno: int,
                 rule: str) -> bool:
    """True when the finding carries an allow comment (same/previous line)."""
    marker = ALLOW_FMT.format(rule=rule)
    lines = facts.raw[path].splitlines()
    return any(marker in lines[i]
               for i in (lineno - 1, lineno - 2) if 0 <= i < len(lines))


# --------------------------------------------------------------------------
# Internal engine: brace-matching definition scanner + name-keyed calls
# --------------------------------------------------------------------------

DEF_CANDIDATE = re.compile(
    r"(?:(?P<qual>[A-Za-z_]\w*)\s*::\s*)?(?P<name>~?[A-Za-z_]\w*)\s*\(")


def _match_paren(code: str, i: int) -> int:
    """Index just past the ')' matching the '(' at `i`; -1 on failure."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def _body_open(code: str, i: int) -> int:
    """Scans past trailing tokens (const, noexcept, TC_* attribute macros,
    -> return types, constructor init lists) looking for the '{' that opens
    a function body. Returns its index, or -1 when the construct turns out
    to be a declaration / expression (hits ';' or '=' at paren depth 0)."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "(" or c == "[":
            depth += 1
        elif c == ")" or c == "]":
            depth -= 1
            if depth < 0:
                return -1  # we were inside an expression, not a signature
        elif depth == 0:
            if c == "{":
                return i
            if c == ";":
                return -1
            if c == "=":
                return -1  # `= default;`, `= delete;`, assignment
        i += 1
    return -1


def _match_brace(code: str, i: int) -> int:
    """Index just past the '}' matching the '{' at `i`; len(code) on EOF."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def internal_extract(facts: Facts) -> None:
    for path in facts.files:
        code = facts.code[path]
        pos = 0
        n = len(code)
        while pos < n:
            m = DEF_CANDIDATE.search(code, pos)
            if not m:
                break
            name = m.group("name")
            if name in CALL_KEYWORDS:
                pos = m.end()
                continue
            # A definition's name is never preceded by an expression
            # operator (member access, arithmetic, comparison, call
            # arguments): those are call sites or casts, not signatures.
            j = m.start() - 1
            while j >= 0 and code[j] in " \t":
                j -= 1
            if j >= 0 and code[j] in ".!&|+-<>=?:(,*%/~^[":
                pos = m.end()
                continue
            paren = code.index("(", m.end() - 1)
            after = _match_paren(code, paren)
            if after < 0:
                pos = m.end()
                continue
            open_brace = _body_open(code, after)
            if open_brace < 0:
                pos = m.end()
                continue
            close = _match_brace(code, open_brace)
            body = code[open_brace:close]
            fact = FunctionFact(
                name=name.lstrip("~"),
                qualifier=m.group("qual") or "",
                path=path,
                line=code.count("\n", 0, m.start()) + 1)
            for cm in CALL_RE.finditer(body):
                callee = cm.group(1)
                if callee not in CALL_KEYWORDS:
                    fact.calls.add(callee)
            base_line = code.count("\n", 0, open_brace) + 1
            for rule, patterns in (("hot-alloc", HOT_PATTERNS),
                                   ("reader-locks", LOCK_PATTERNS)):
                hits: list[tuple[int, str, str]] = []
                for lineoff, line in enumerate(body.splitlines()):
                    for pat, label in patterns:
                        if pat.search(line):
                            hits.append((base_line + lineoff, label,
                                         line.strip()[:80]))
                if hits:
                    fact.sites[rule] = hits
            facts.functions.append(fact)
            # Definitions nested inside this body (local classes, lambdas
            # with named calls) are rare; continue after the header so
            # method definitions inside class bodies are still found.
            pos = open_brace + 1
    facts.engine = "internal"


# --------------------------------------------------------------------------
# libclang engine: AST-backed extraction (CI; python3-clang)
# --------------------------------------------------------------------------

CONTAINER_SPELLINGS = (
    "std::vector<", "std::deque<", "std::list<", "std::map<", "std::set<",
    "std::multimap<", "std::multiset<", "std::unordered_map<",
    "std::unordered_set<", "std::queue<", "std::priority_queue<",
    "std::stack<", "std::string", "std::basic_string<",
)
LOCK_TYPE_SPELLINGS = (
    "MutexLock", "SharedMutexLock", "SharedReaderLock", "lock_guard",
    "unique_lock", "scoped_lock", "shared_lock",
)


def libclang_extract(facts: Facts) -> None:
    from clang import cindex  # noqa: PLC0415 — optional dependency

    index = cindex.Index.create()
    args = ["-x", "c++", "-std=c++20", f"-I{facts.root / 'src'}"]
    fn_kinds = {
        cindex.CursorKind.FUNCTION_DECL,
        cindex.CursorKind.CXX_METHOD,
        cindex.CursorKind.CONSTRUCTOR,
        cindex.CursorKind.DESTRUCTOR,
        cindex.CursorKind.FUNCTION_TEMPLATE,
    }

    def record_body(fact: FunctionFact, cursor) -> None:
        for node in cursor.walk_preorder():
            kind = node.kind
            if kind == cindex.CursorKind.CALL_EXPR and node.spelling:
                fact.calls.add(node.spelling)
                if node.spelling in ("lock", "lock_shared", "wait"):
                    fact.sites.setdefault("reader-locks", []).append(
                        (node.location.line, "lock acquisition",
                         node.spelling))
            elif kind == cindex.CursorKind.CXX_NEW_EXPR:
                fact.sites.setdefault("hot-alloc", []).append(
                    (node.location.line, "new-expression", "new"))
            elif kind == cindex.CursorKind.VAR_DECL:
                spelling = node.type.spelling
                canonical = node.type.get_canonical().spelling
                if any(s in canonical or s in spelling
                       for s in CONTAINER_SPELLINGS) and "&" not in spelling:
                    fact.sites.setdefault("hot-alloc", []).append(
                        (node.location.line,
                         "local std container construction", spelling[:80]))
                if any(s in spelling for s in LOCK_TYPE_SPELLINGS):
                    fact.sites.setdefault("reader-locks", []).append(
                        (node.location.line, "lock acquisition",
                         spelling[:80]))
        # make_unique / make_shared and the allocating dijkstra entry
        # points arrive as CALL_EXPR spellings; classify them as sites.
        for lineno, label, text in _ast_call_sites(fact):
            fact.sites.setdefault("hot-alloc", []).append(
                (lineno, label, text))

    def _ast_call_sites(fact: FunctionFact):
        for callee in fact.calls:
            if callee in ("make_unique", "make_shared"):
                yield fact.line, "make_unique/make_shared", callee
            if callee.startswith("dijkstra_") and not callee.endswith("_into"):
                yield fact.line, \
                    "allocating spath::dijkstra_* call (use _into)", callee

    for path in facts.files:
        tu = index.parse(str(path), args=args)
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind not in fn_kinds or not cursor.is_definition():
                continue
            loc = cursor.location
            if loc.file is None or pathlib.Path(loc.file.name) != path:
                continue
            parent = cursor.semantic_parent
            qualifier = parent.spelling if parent is not None and \
                parent.kind in (cindex.CursorKind.CLASS_DECL,
                                cindex.CursorKind.STRUCT_DECL,
                                cindex.CursorKind.CLASS_TEMPLATE) else ""
            fact = FunctionFact(name=cursor.spelling.split("<")[0],
                                qualifier=qualifier, path=path,
                                line=loc.line)
            record_body(fact, cursor)
            facts.functions.append(fact)
    facts.engine = "libclang"


def extract(facts: Facts, engine: str) -> str | None:
    """Runs the chosen engine; returns an error string on failure."""
    if engine == "internal":
        internal_extract(facts)
        return None
    if engine == "libclang":
        try:
            libclang_extract(facts)
            return None
        except Exception as exc:  # import/parse/ABI failures alike
            return f"libclang engine unavailable: {exc!r}"
    # auto
    try:
        libclang_extract(facts)
        return None
    except Exception as exc:
        print(f"tc_analyze: note: falling back to internal engine "
              f"({exc!r})", file=sys.stderr)
        facts.functions.clear()
        internal_extract(facts)
        return None


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

def layer_of(facts: Facts, path: pathlib.Path) -> str | None:
    rel = path.relative_to(facts.root)
    parts = rel.parts
    if len(parts) >= 2 and parts[0] == "src" and parts[1] in LAYER_DEPS:
        return parts[1]
    return None


def check_layers(facts: Facts) -> list[str]:
    violations = []
    for path in facts.files:
        layer = layer_of(facts, path)
        if layer is None:
            continue
        allowed = {layer, *LAYER_DEPS[layer]}
        # Includes are matched against the raw text: the stripper blanks
        # string literals, and the quoted include path is one.
        for m in INCLUDE_RE.finditer(facts.raw[path]):
            target = m.group(1)
            if target not in LAYER_DEPS or target in allowed:
                continue
            lineno = facts.raw[path].count("\n", 0, m.start()) + 1
            if line_allowed(facts, path, lineno, "layers"):
                continue
            rel = path.relative_to(facts.root)
            violations.append(
                f"{rel}:{lineno}: [layers] {layer}/ must not include "
                f"{target}/ (layer order: "
                f"{' -> '.join(LAYER_DEPS)}); a back-edge inverts the DAG")
    return violations


def check_mutable_const(facts: Facts) -> list[str]:
    violations = []
    for path in facts.files:
        for lineno, line in enumerate(facts.code[path].splitlines(), 1):
            if not MUTABLE_DECL.match(line):
                continue
            if MUTABLE_ALLOWED.match(line) or MUTABLE_GUARDED.search(line):
                continue
            if line_allowed(facts, path, lineno, "mutable-const"):
                continue
            rel = path.relative_to(facts.root)
            violations.append(
                f"{rel}:{lineno}: [mutable-const] mutable member of "
                f"non-atomic, non-mutex type with no TC_GUARDED_BY: a "
                f"cache mutated through const methods is a data race once "
                f"readers share the object; use std::atomic (CAS memo), "
                f"guard it with an annotated mutex, or drop const from "
                f"the accessor")
    return violations


def _visible_files(facts: Facts) -> dict[pathlib.Path, set[pathlib.Path]]:
    """Per file, the files whose definitions its calls can name: itself,
    every project header it includes (transitively), and the same-stem
    .cpp beside each such header, where that header's out-of-line
    definitions live. A name defined only outside this set is a different
    function, however it is spelled: `level.assign(...)` in src/core is
    std::vector::assign, never distsim's AdversarySchedule::assign."""
    by_path = {p.resolve(): p for p in facts.files}
    direct: dict[pathlib.Path, list[pathlib.Path]] = {}
    for path in facts.files:
        found = []
        for m in INCLUDE_PATH_RE.finditer(facts.raw[path]):
            for base in (facts.root / "src", path.parent):
                hit = by_path.get((base / m.group(1)).resolve())
                if hit is not None:
                    found.append(hit)
                    break
        direct[path] = found
    visible: dict[pathlib.Path, set[pathlib.Path]] = {}
    for path in facts.files:
        seen = {path}
        stack = [path]
        while stack:
            for h in direct[stack.pop()]:
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        paired = {by_path.get(h.with_suffix(".cpp").resolve())
                  for h in seen if h.suffix == ".hpp"}
        visible[path] = seen | (paired - {None})
    return visible


# A reachable definition and the definition that first called it.
Reach = dict[int, tuple[FunctionFact, FunctionFact | None]]


def _reachable(facts: Facts, roots: list[FunctionFact],
               boundaries: dict[str, str]) -> Reach:
    """BFS over the call graph, from definition to definition.

    A call resolves by name to the definitions visible from the caller's
    file (_visible_files). Returns id(definition) -> (definition, caller)
    for every reachable definition; boundary names are not expanded.
    """
    index = facts.by_name()
    visible = _visible_files(facts)
    seen: Reach = {}
    queue: list[FunctionFact] = []
    for r in roots:
        if id(r) not in seen:
            seen[id(r)] = (r, None)
            queue.append(r)
    while queue:
        defn = queue.pop(0)
        if defn.name in boundaries:
            continue
        scope = visible[defn.path]
        for callee in sorted(defn.calls):
            for target in index.get(callee, ()):
                if target.path in scope and id(target) not in seen:
                    seen[id(target)] = (target, defn)
                    queue.append(target)
    return seen


def _chain(seen: Reach, defn: FunctionFact) -> str:
    parts = []
    cursor: FunctionFact | None = defn
    while cursor is not None:
        parts.append(cursor.name)
        cursor = seen[id(cursor)][1]
    return " <- ".join(parts)


def _check_callgraph(facts: Facts, rule: str,
                     named_roots: tuple[tuple[str, str], ...],
                     root_suffix: str | None,
                     boundaries: dict[str, str], what: str) -> list[str]:
    roots = []
    for f in facts.functions:
        rel = str(f.path.relative_to(facts.root))
        if root_suffix and f.name.endswith(root_suffix):
            roots.append(f)
        elif any(f.name == name and rel.startswith(d + "/")
                 for name, d in named_roots):
            roots.append(f)
    if not roots:
        expected = ", ".join(f"{name} under {d}" for name, d in named_roots)
        return [f"<project>: [{rule}] no root functions found "
                f"(expected {root_suffix or ''} {expected}); "
                f"the rule would be vacuous"]
    seen = _reachable(facts, roots, boundaries)
    violations = []
    for defn, _caller in sorted(seen.values(),
                                key=lambda e: (str(e[0].path), e[0].line)):
        if defn.name in boundaries:
            continue
        for lineno, label, excerpt in defn.sites.get(rule, ()):
            if line_allowed(facts, defn.path, lineno, rule):
                continue
            rel = defn.path.relative_to(facts.root)
            violations.append(
                f"{rel}:{lineno}: [{rule}] {label} in `{defn.name}`, "
                f"reachable from {what} via {_chain(seen, defn)}"
                f" — {excerpt}")
    return violations


def check_hot_alloc(facts: Facts) -> list[str]:
    return _check_callgraph(
        facts, "hot-alloc", HOT_EXTRA_ROOTS, HOT_ROOT_SUFFIX,
        HOT_ALLOC_BOUNDARIES, "the workspace kernels")


def check_reader_locks(facts: Facts) -> list[str]:
    return _check_callgraph(
        facts, "reader-locks", READER_ROOTS, None,
        READER_BOUNDARIES, "the lock-free pricing path")


CHECKS = {
    "layers": check_layers,
    "hot-alloc": check_hot_alloc,
    "reader-locks": check_reader_locks,
    "mutable-const": check_mutable_const,
}


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: the script's repo)")
    parser.add_argument("--rule", action="append", choices=RULES,
                        help="rule to run (repeatable; default: all)")
    parser.add_argument("--engine", choices=("auto", "internal", "libclang"),
                        default="internal",
                        help="fact-extraction engine (default: internal)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args()
    if args.list_rules:
        print(" ".join(RULES))
        return 0

    root = args.root.resolve()
    facts = load_files(root)
    if not facts.files:
        print(f"tc_analyze: no source files under {root}/src "
              f"(wrong --root?)", file=sys.stderr)
        return 2

    rules = tuple(dict.fromkeys(args.rule)) if args.rule else RULES
    needs_callgraph = any(r in ("hot-alloc", "reader-locks") for r in rules)
    if needs_callgraph:
        err = extract(facts, args.engine)
        if err is not None:
            print(f"tc_analyze: {err}", file=sys.stderr)
            return 2

    violations: list[str] = []
    for rule in rules:
        violations.extend(CHECKS[rule](facts))
    for v in violations:
        print(v)
    if violations:
        print(f"tc_analyze: {len(violations)} violation(s) "
              f"[engine={facts.engine if needs_callgraph else 'textual'}, "
              f"rules={','.join(rules)}]", file=sys.stderr)
        return 1
    print(f"tc_analyze: OK ({len(facts.files)} files, "
          f"rules={','.join(rules)}, "
          f"engine={facts.engine if needs_callgraph else 'textual'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
