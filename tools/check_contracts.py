#!/usr/bin/env python3
"""Lifetime & ownership contract checker for the zero-copy storage layer.

Layer 2 of the lifetime gate (Layer 1 is Clang's -Wdangling family over the
CSC_LIFETIME_BOUND / CSC_VIEW_TYPE / CSC_OWNER_TYPE annotations in
util/lifetime_annotations.h). This tool enforces the project rules the
stock compiler analysis cannot see:

  1. view-return            Every function declared in src/**/*.h whose
                            return type is a view type — `const uint8_t*`
                            or a CSC_VIEW_TYPE-tagged class (the registry
                            is seeded from CSC_VIEW_TYPE uses) — carries
                            CSC_LIFETIME_BOUND somewhere in its
                            declaration, or a waiver:
                            // contracts:allow-view-return(reason)
  2. view-member-keepalive  No class stores a view-typed member (raw
                            uint8_t*/char*/void* pointer or a
                            CSC_VIEW_TYPE-tagged type) without a
                            shared_ptr keep-alive member alongside it in
                            the same class — unless the class itself is
                            CSC_VIEW_TYPE (non-owning by contract) or
                            CSC_OWNER_TYPE (it owns the storage). Same
                            rule for detached tasks: a lambda handed to
                            ThreadPool::Submit / SerialWorker::Submit must
                            not capture a view-typed local (the task can
                            outlive the owner's scope). Waivers:
                            // contracts:allow-view-member(reason)
                            // contracts:allow-detached-view(reason)
  3. blocking-under-lock    No blocking call — fsync/fdatasync,
                            Wal::Append* / AppendRecord, WriteFileAtomic /
                            ReadFileToString (util/env.h), sleeps, or a
                            delay-capable CSC_FAILPOINT site — is
                            reachable while `query_mu_` is held, on either
                            side (it is the reader-facing lock: a blocked
                            holder stalls every query, and a blocked
                            writer-side holder — a snapshot swap — holds
                            off every reader). update_mu_ is deliberately
                            exempt: the writer lock is where the engine's
                            durable I/O contractually happens. Reachability is the transitive call
                            closure within the same translation unit.
                            Waiver: // contracts:allow-blocking-under-lock(reason)
  4. exhaustive-switch      Every `switch` over UpdateVerdict, WaitStatus,
                            ShardState, HealthState, or QueryStatus names
                            every enumerator and has no `default:` —
                            adding an enum value must break the
                            build/lint, not fall into a silent default.
                            Waiver:
                            // contracts:allow-nonexhaustive-switch(reason)

  (meta) waiver-budget      The combined number of lint:allow-* and
                            contracts:allow-* waivers across src/ and
                            bench/ stays <= 5 — the analyses stay
                            load-bearing instead of opted out of.

Engines: the checker prefers parsing real ASTs via libclang
(clang.cindex) over the CMake compile_commands.json, and falls back to a
token-level textual analysis of the same rules when libclang is
unavailable — with a loud notice, so CI (which installs python3-clang)
never silently degrades. The textual engine is authoritative for the exit
code either way; the AST engine cross-checks rule 4 with real semantic
case labels.

Run:   python3 tools/check_contracts.py [--repo PATH]
                                        [--compile-commands PATH]
Self-test (meta-test that every rule actually fires on the committed
negative fixtures): python3 tools/check_contracts.py --selftest FIXTURE...
Exit:  0 clean, 1 violations (listed on stderr), 2 internal error.
"""

import argparse
import json
import pathlib
import re
import sys

WAIVER_BUDGET = 5

# Raw pointer types that are views into someone else's payload bytes.
VIEW_POINTER_RE = re.compile(r"\b(?:uint8_t|char|void)\s*(?:const\s*)?\*")
VIEW_TYPE_DECL_RE = re.compile(r"\b(?:class|struct)\s+CSC_VIEW_TYPE\s+(\w+)")
OWNER_TYPE_DECL_RE = re.compile(r"\b(?:class|struct)\s+CSC_OWNER_TYPE\s+(\w+)")

# Calls that block (durable I/O, sleeps, delay-capable failpoints).
BLOCKING_CALL_RE = re.compile(
    r"\b(?:fsync|fdatasync|WriteFileAtomic|ReadFileToString|SleepFor|"
    r"sleep_for|CSC_FAILPOINT(?:_SHORT_WRITE)?)\s*\("
    r"|\b(?:wal_?->|Wal::|\.)Append(?:Batch|Rollback|Record)?\s*\(")

# The reader-facing lock rule 3 protects. update_mu_ is exempt by design.
PROTECTED_LOCKS = ("query_mu_",)
LOCK_ACQUIRE_RE = re.compile(
    r"\b(?:MutexLock|WriterMutexLock|ReaderMutexLock)\s+\w+\s*\(\s*"
    r"(" + "|".join(PROTECTED_LOCKS) + r")\s*\)")
REQUIRES_LOCK_RE = re.compile(
    r"CSC_REQUIRES(?:_SHARED)?\(\s*(" + "|".join(PROTECTED_LOCKS) + r")\s*\)")

# Enums whose switches must be exhaustive (serving-tier outcome enums: a
# silently defaulted new state is exactly how degraded serving regresses).
TARGET_ENUMS = ("UpdateVerdict", "WaitStatus", "ShardState", "HealthState",
                "QueryStatus")

SUBMIT_CALL_RE = re.compile(r"\bSubmit\s*\(\s*\[([^\]]*)\]")

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "alignof", "decltype", "static_assert", "assert", "defined", "new",
    "delete", "case", "do", "else", "operator",
}


class Violation:
    def __init__(self, rule, path, lineno, message):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def strip_comments(text: str) -> str:
    """Blanks // and /* */ comments and string literals, preserving line
    structure so offsets and line numbers keep matching the original."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"':
            out.append('"')
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                    continue
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append('"')
                i += 1
        elif c == "'":
            out.append("'")
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                    continue
                out.append(" ")
                i += 1
            if i < n:
                out.append("'")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def has_waiver(lines, lineno: int, tag: str) -> bool:
    """True when `contracts:allow-<tag>` appears on the flagged line or the
    line above it (the conventional waiver placement)."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(lines) and f"contracts:allow-{tag}" in lines[ln - 1]:
            return True
    return False


def iter_files(root: pathlib.Path, subdir: str, exts=(".h", ".cc")):
    base = root / subdir
    if not base.exists():
        return
    for path in sorted(base.rglob("*")):
        if path.suffix in exts and path.is_file():
            yield path


def seed_view_types(paths) -> set:
    """The view-type registry: every class tagged CSC_VIEW_TYPE."""
    names = set()
    for path in paths:
        names.update(VIEW_TYPE_DECL_RE.findall(path.read_text()))
    return names


def seed_owner_types(paths) -> set:
    names = set()
    for path in paths:
        names.update(OWNER_TYPE_DECL_RE.findall(path.read_text()))
    return names


# --- Rule 1: view-return -------------------------------------------------

def iter_declarations(stripped: str):
    """Yields (start_offset, chunk) for statement-ish chunks, split on
    ; { } and preprocessor lines. Heuristic but stable over the project's
    header style."""
    start = 0
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c in ";{}":
            yield start, stripped[start:i]
            start = i + 1
        elif c == "#":
            # Preprocessor directive: consume to end of line.
            while i < n and stripped[i] != "\n":
                i += 1
            start = i + 1
        i += 1
    if start < n:
        yield start, stripped[start:]


def check_view_return(path, text, stripped, view_types, errors):
    lines = text.splitlines()
    view_name_re = (re.compile(r"\b(?:" + "|".join(map(re.escape,
                                                       sorted(view_types)))
                               + r")\b")
                    if view_types else None)
    for start, chunk in iter_declarations(stripped):
        paren = chunk.find("(")
        if paren < 0:
            continue
        before = chunk[:paren]
        m = re.search(r"([A-Za-z_]\w*)\s*$", before)
        if not m:
            continue
        name = m.group(1)
        if name in KEYWORDS:
            continue
        ret = before[:m.start()]
        if "=" in ret or "return" in ret.split():
            continue  # local initialization / return expression, not a decl
        is_view_ret = bool(VIEW_POINTER_RE.search(ret)) or bool(
            view_name_re and view_name_re.search(ret))
        if not is_view_ret:
            continue
        if "CSC_LIFETIME_BOUND" in chunk:
            continue
        lineno = line_of(stripped, start + paren)
        if has_waiver(lines, lineno, "view-return"):
            continue
        errors.append(Violation(
            "view-return", path, lineno,
            f"'{name}' returns a view type but is not CSC_LIFETIME_BOUND "
            f"(annotate the source entity, or waive: "
            f"contracts:allow-view-return(reason))"))


# --- Rule 2: view-member-keepalive ---------------------------------------

CLASS_OPEN_RE = re.compile(
    r"\b(class|struct)\s+((?:CSC_(?:VIEW|OWNER)_TYPE)\s+)?([A-Za-z_]\w*)"
    r"(?:\s+final)?\s*(?::[^{;]*)?\{")


def match_brace(stripped: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(stripped)):
        if stripped[i] == "{":
            depth += 1
        elif stripped[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(stripped) - 1


MEMBER_VIEW_PTR_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?(?:std::)?(?:uint8_t|char|void)\s*"
    r"(?:const\s*)?\*\s*(\w+)\s*(?:=[^;]*)?;", re.MULTILINE)


def check_view_members(path, text, stripped, view_types, owner_types,
                       errors):
    lines = text.splitlines()
    member_type_re = (re.compile(
        r"^\s*(?:mutable\s+)?(?:" + "|".join(map(re.escape,
                                                 sorted(view_types)))
        + r")\s+(\w+)\s*(?:=[^;]*)?;", re.MULTILINE)
        if view_types else None)
    for m in CLASS_OPEN_RE.finditer(stripped):
        tag = m.group(2) or ""
        cls = m.group(3)
        if "VIEW" in tag or "OWNER" in tag or cls in view_types \
                or cls in owner_types:
            continue  # non-owning (caller keeps owner alive) or the owner
        open_idx = m.end() - 1
        close_idx = match_brace(stripped, open_idx)
        body = stripped[open_idx + 1:close_idx]
        # Blank nested class/struct bodies: their members are theirs.
        nested = []
        for nm in CLASS_OPEN_RE.finditer(body):
            nested.append((nm.end() - 1, match_brace(body, nm.end() - 1)))
        flat = list(body)
        for s, e in nested:
            for i in range(s, min(e + 1, len(flat))):
                if flat[i] not in "\n":
                    flat[i] = " "
        body = "".join(flat)
        has_keepalive = "shared_ptr" in body
        hits = list(MEMBER_VIEW_PTR_RE.finditer(body))
        if member_type_re:
            hits += list(member_type_re.finditer(body))
        for hit in hits:
            if has_keepalive:
                continue
            lineno = line_of(stripped, open_idx + 1 + hit.start(1))
            if has_waiver(lines, lineno, "view-member"):
                continue
            errors.append(Violation(
                "view-member-keepalive", path, lineno,
                f"class '{cls}' stores view-typed member "
                f"'{hit.group(1)}' with no shared_ptr keep-alive member "
                f"alongside it (store the owner handle, tag the class "
                f"CSC_VIEW_TYPE, or waive: "
                f"contracts:allow-view-member(reason))"))


def check_detached_captures(path, text, stripped, view_types, errors):
    lines = text.splitlines()
    for m in SUBMIT_CALL_RE.finditer(stripped):
        captures = [c.strip().lstrip("&").strip()
                    for c in m.group(1).split(",") if c.strip()]
        lineno = line_of(stripped, m.start())
        window_start = max(0, lineno - 60)
        window = "\n".join(lines[window_start:lineno])
        for cap in captures:
            if cap in ("", "this", "=", "&"):
                continue
            decl_re = re.compile(
                r"(?:\b(?:uint8_t|char|void)\s*(?:const\s*)?\*\s*"
                + re.escape(cap) + r"\b)"
                + ("" if not view_types else
                   r"|(?:\b(?:" + "|".join(map(re.escape,
                                               sorted(view_types)))
                   + r")\s+" + re.escape(cap) + r"\b)"))
            if decl_re.search(window):
                if has_waiver(lines, lineno, "detached-view"):
                    continue
                errors.append(Violation(
                    "view-member-keepalive", path, lineno,
                    f"detached task captures view-typed '{cap}' — the "
                    f"task can outlive the owner's scope; capture the "
                    f"shared_ptr owner instead (or waive: "
                    f"contracts:allow-detached-view(reason))"))


# --- Rule 3: blocking-under-lock -----------------------------------------

FN_DEF_RE = re.compile(
    r"^[ \t]*[A-Za-z_][\w:<>,&*\s\[\]]*?\b(?:[A-Za-z_]\w*::)?([A-Za-z_]\w*)"
    r"\s*\(", re.MULTILINE)


def function_bodies(stripped: str):
    """Yields (name, body_start, body_end) for function definitions (a
    declarator followed — possibly after qualifiers/annotations — by a
    brace at the same nesting)."""
    for m in FN_DEF_RE.finditer(stripped):
        name = m.group(1)
        if name in KEYWORDS:
            continue
        # Walk past the parameter list.
        i = m.end() - 1
        depth = 0
        n = len(stripped)
        while i < n:
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        # Qualifiers / macros / attributes between ')' and '{'.
        j = i + 1
        while j < n and stripped[j] not in "{};":
            j += 1
        if j >= n or stripped[j] != "{":
            continue
        yield name, j, match_brace(stripped, j)


def blocking_functions(stripped: str) -> set:
    """Same-TU transitive closure of 'can block'."""
    bodies = {}
    for name, start, end in function_bodies(stripped):
        bodies.setdefault(name, []).append(stripped[start:end + 1])
    blocking = {name for name, texts in bodies.items()
                if any(BLOCKING_CALL_RE.search(t) for t in texts)}
    changed = True
    while changed:
        changed = False
        for name, texts in bodies.items():
            if name in blocking:
                continue
            for t in texts:
                if any(re.search(r"\b" + re.escape(b) + r"\s*\(", t)
                       for b in blocking):
                    blocking.add(name)
                    changed = True
                    break
    return blocking


def check_blocking_under_lock(path, text, stripped, errors):
    lines = text.splitlines()
    blockers = blocking_functions(stripped)

    def scan_section(start_off, end_off, lock):
        region = stripped[start_off:end_off]
        hits = [(m.start(), m.group(0)) for m in
                BLOCKING_CALL_RE.finditer(region)]
        for b in blockers:
            for m in re.finditer(r"\b" + re.escape(b) + r"\s*\(", region):
                hits.append((m.start(), b + "(...)"))
        for off, what in sorted(hits):
            lineno = line_of(stripped, start_off + off)
            if has_waiver(lines, lineno, "blocking-under-lock"):
                continue
            errors.append(Violation(
                "blocking-under-lock", path, lineno,
                f"blocking call '{what.strip()}' reachable while "
                f"'{lock}' is held — move the I/O outside the "
                f"reader-facing critical section (or waive: "
                f"contracts:allow-blocking-under-lock(reason))"))

    # RAII acquisitions: section runs to the end of the enclosing scope.
    for m in LOCK_ACQUIRE_RE.finditer(stripped):
        lock = m.group(1)
        # Find the enclosing scope's close brace: scan forward, tracking
        # depth; the section ends when depth goes negative.
        i = m.end()
        depth = 0
        n = len(stripped)
        while i < n:
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth < 0:
                    break
            i += 1
        scan_section(m.end(), i, lock)
    # Whole functions contractually holding the lock.
    for m in REQUIRES_LOCK_RE.finditer(stripped):
        lock = m.group(1)
        brace = stripped.find("{", m.end())
        semi = stripped.find(";", m.end())
        if brace < 0 or (0 <= semi < brace):
            continue  # declaration only
        scan_section(brace + 1, match_brace(stripped, brace), lock)


# --- Rule 4: exhaustive-switch -------------------------------------------

def parse_enumerators(paths) -> dict:
    """{enum_name: [enumerators]} for the target enums."""
    enums = {}
    decl_re = re.compile(
        r"enum\s+class\s+(?:\[\[[^\]]*\]\]\s*)?(\w+)[^{;]*\{")
    for path in paths:
        stripped = strip_comments(path.read_text())
        for m in decl_re.finditer(stripped):
            name = m.group(1)
            if name not in TARGET_ENUMS:
                continue
            body = stripped[m.end():match_brace(stripped, m.end() - 1)]
            values = re.findall(r"(?:^|,)\s*(k\w+)", body)
            if values:
                enums[name] = values
    return enums


def check_exhaustive_switches(path, text, stripped, enums, errors):
    lines = text.splitlines()
    for m in re.finditer(r"\bswitch\s*\(", stripped):
        brace = stripped.find("{", m.end())
        if brace < 0:
            continue
        body = stripped[brace:match_brace(stripped, brace) + 1]
        cases = re.findall(r"\bcase\s+(\w+)::(\w+)\s*:", body)
        target = next((e for e, _ in
                       ((en, v) for en, v in cases if en in enums)), None)
        if target is None:
            continue
        lineno = line_of(stripped, m.start())
        if has_waiver(lines, lineno, "nonexhaustive-switch"):
            continue
        covered = {v for e, v in cases if e == target}
        missing = [v for v in enums[target] if v not in covered]
        if missing:
            errors.append(Violation(
                "exhaustive-switch", path, lineno,
                f"switch over {target} misses "
                f"{', '.join(target + '::' + v for v in missing)} — name "
                f"every enumerator (or waive: "
                f"contracts:allow-nonexhaustive-switch(reason))"))
        if re.search(r"\bdefault\s*:", body):
            errors.append(Violation(
                "exhaustive-switch", path, lineno,
                f"switch over {target} has a 'default:' — a new "
                f"enumerator must break the build, not fall into a "
                f"silent default (or waive: "
                f"contracts:allow-nonexhaustive-switch(reason))"))


# --- Meta: waiver budget --------------------------------------------------

WAIVER_RE = re.compile(r"(?:lint|contracts):allow-[\w-]+\(")


def check_waiver_budget(repo, errors):
    uses = []
    for subdir in ("src", "bench"):
        for path in iter_files(repo, subdir):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if WAIVER_RE.search(line) and "re.compile" not in line:
                    uses.append(f"{path}:{lineno}")
    if len(uses) > WAIVER_BUDGET:
        errors.append(Violation(
            "waiver-budget", repo, 0,
            f"{len(uses)} lint/contracts waivers in src/+bench/ "
            f"(budget {WAIVER_BUDGET}): " + ", ".join(uses)))


# --- libclang AST engine (rule 4 cross-check) ----------------------------

def find_compile_commands(repo, explicit):
    if explicit:
        p = pathlib.Path(explicit)
        return p if p.exists() else None
    for cand in sorted(repo.glob("build*/compile_commands.json")):
        return cand
    return None


def ast_check_switches(repo, compile_commands, enums, errors):
    """Re-derives rule 4 from real ASTs. Returns True when the AST engine
    ran; False (with a loud notice) when libclang is unavailable."""
    try:
        from clang import cindex
    except ImportError:
        print("check_contracts: NOTICE: python libclang (clang.cindex) is "
              "not available — the AST engine is skipped and the textual "
              "engine's results stand alone. CI installs python3-clang; "
              "locally: apt install python3-clang.", file=sys.stderr)
        return False
    cc_path = find_compile_commands(repo, compile_commands)
    if cc_path is None:
        print("check_contracts: NOTICE: no compile_commands.json found "
              "(configure CMake first) — AST engine skipped.",
              file=sys.stderr)
        return False
    try:
        index = cindex.Index.create()
        entries = json.loads(cc_path.read_text())
        src_root = (repo / "src").resolve()
        seen = set()
        for entry in entries:
            f = pathlib.Path(entry["file"])
            if not f.is_absolute():
                f = pathlib.Path(entry["directory"]) / f
            f = f.resolve()
            if src_root not in f.parents or f in seen:
                continue
            seen.add(f)
            args = [a for a in entry["command"].split()[1:]
                    if a != str(f) and not a.startswith("-o")]
            tu = index.parse(str(f), args=args)
            _ast_walk_switches(tu.cursor, f, enums, errors)
        return True
    except Exception as exc:  # noqa: BLE001 — any AST failure degrades
        print(f"check_contracts: NOTICE: AST engine failed ({exc!r}) — "
              f"falling back to the textual engine's results.",
              file=sys.stderr)
        return False


def _ast_walk_switches(cursor, path, enums, errors):
    from clang import cindex
    if cursor.kind == cindex.CursorKind.SWITCH_STMT:
        refs = set()
        enum_name = None
        for node in cursor.walk_preorder():
            if node.kind == cindex.CursorKind.DECL_REF_EXPR:
                decl = node.referenced
                if decl is not None and decl.kind == \
                        cindex.CursorKind.ENUM_CONSTANT_DECL:
                    parent = decl.semantic_parent
                    if parent is not None and parent.spelling in enums:
                        enum_name = parent.spelling
                        refs.add(decl.spelling)
        if enum_name is not None:
            missing = [v for v in enums[enum_name] if v not in refs]
            if missing:
                errors.append(Violation(
                    "exhaustive-switch", path,
                    cursor.location.line,
                    f"(AST) switch over {enum_name} misses "
                    f"{', '.join(missing)}"))
    for child in cursor.get_children():
        _ast_walk_switches(child, path, enums, errors)


# --- Drivers --------------------------------------------------------------

def run_rules_on_files(header_paths, source_paths, view_types, owner_types,
                       enums):
    errors = []
    for path in header_paths:
        text = path.read_text()
        stripped = strip_comments(text)
        check_view_return(path, text, stripped, view_types, errors)
        check_view_members(path, text, stripped, view_types, owner_types,
                           errors)
    for path in source_paths:
        text = path.read_text()
        stripped = strip_comments(text)
        check_detached_captures(path, text, stripped, view_types, errors)
        check_blocking_under_lock(path, text, stripped, errors)
        check_exhaustive_switches(path, text, stripped, enums, errors)
    return errors


def main_scan(repo, compile_commands) -> int:
    headers = list(iter_files(repo, "src", exts=(".h",)))
    sources = list(iter_files(repo, "src"))
    if not headers:
        print(f"check_contracts: {repo} does not look like the repo root",
              file=sys.stderr)
        return 2
    view_types = seed_view_types(headers)
    owner_types = seed_owner_types(headers)
    enums = parse_enumerators(headers)
    errors = run_rules_on_files(headers, sources, view_types, owner_types,
                                enums)
    check_waiver_budget(repo, errors)
    ast_check_switches(repo, compile_commands, enums, errors)
    if errors:
        print(f"check_contracts: {len(errors)} violation(s)",
              file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(f"check_contracts: OK ({len(view_types)} view type(s): "
          f"{', '.join(sorted(view_types))}; {len(owner_types)} owner "
          f"type(s): {', '.join(sorted(owner_types))})")
    return 0


EXPECT_RE = re.compile(r"expect-violation:\s*([\w-]+)")


def main_selftest(repo, fixtures) -> int:
    """Meta-test: every committed negative fixture must make its declared
    rule fire — a rule that stops firing turns the suite red."""
    headers = list(iter_files(repo, "src", exts=(".h",)))
    view_types = seed_view_types(headers)
    owner_types = seed_owner_types(headers)
    enums = parse_enumerators(headers)
    if not fixtures:
        fixtures = [str(p) for p in
                    sorted((repo / "tests" / "negative_lint").glob("*.cc"))]
    failures = []
    checked = 0
    for fixture in fixtures:
        path = pathlib.Path(fixture)
        if not path.is_absolute():
            path = repo / fixture
        text = path.read_text()
        expected = EXPECT_RE.findall(text)
        if not expected:
            failures.append(f"{path}: no 'expect-violation:' declaration")
            continue
        # Fixtures exercise header rules and source rules alike, and may
        # tag their own view types.
        fixture_views = view_types | set(VIEW_TYPE_DECL_RE.findall(text))
        errors = run_rules_on_files([path], [path], fixture_views,
                                    owner_types, enums)
        fired = {e.rule for e in errors}
        for rule in expected:
            checked += 1
            if rule not in fired:
                failures.append(
                    f"{path}: expected rule '{rule}' to fire but it "
                    f"reported nothing (fired: {sorted(fired) or 'none'})")
    if failures:
        print(f"check_contracts --selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"check_contracts --selftest: OK ({checked} rule firing(s) "
          f"across {len(fixtures)} fixture(s))")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Lifetime & ownership contract checker")
    parser.add_argument("--repo", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json for the AST engine "
                             "(default: first build*/compile_commands.json)")
    parser.add_argument("--selftest", nargs="*", default=None,
                        metavar="FIXTURE",
                        help="verify each negative fixture makes its "
                             "declared rule fire (default: "
                             "tests/negative_lint/*.cc)")
    args = parser.parse_args()
    repo = pathlib.Path(args.repo).resolve()
    if args.selftest is not None:
        return main_selftest(repo, args.selftest)
    return main_scan(repo, args.compile_commands)


if __name__ == "__main__":
    sys.exit(main())
