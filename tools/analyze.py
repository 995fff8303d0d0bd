#!/usr/bin/env python3
"""dbsim-analyze: checks of the contracts the compiler cannot see
(DESIGN.md section 5f): deterministic output, complete *Stats
accounting, the layer order of src/, the repo's conventions and
byte-stable checkpoints.  A regex tokenizer feeds token-list rules.

A finding is suppressed by `// dbsim-analyze: allow(<rule>[, <rule>...])
-- reason` on its line or on a comment line directly above it; a mark of
another kind, or naming no rule, fails the run.
"""

import os
import re
import sys
from collections import namedtuple
from itertools import takewhile

RULES = [  # (id, family, description), in display order
    ("determinism-unordered-container", "determinism",
     "No std::unordered_* containers: their iteration order is unspecified; "
     "std::map / std::set iterate in key order (DESIGN.md §5c)."),
    ("determinism-wallclock", "determinism",
     "Host-clock reads are confined to annotated host-timing code and never "
     "feed simulated state or statistics."),
    ("determinism-rand", "determinism",
     "Only the seeded dbsim RNG may produce randomness; C rand() and "
     "std::random_device break replay."),
    ("determinism-pointer-format", "determinism",
     "Pointer values (ASLR-dependent) must not be formatted into "
     "deterministic output."),
    ("accounting-counter-coverage", "accounting",
     "Every integral counter in a *Stats struct must be updated somewhere "
     "and serialized/read somewhere."),
    ("layering-cycle", "layering",
     "The include graph must be a DAG; cyclic headers are reported with the "
     "full cycle path."),
    ("layering-order", "layering",
     "A directory may include only same-layer or lower-layer headers "
     "(common < trace < interconnect < memory < coherence < cpu < sim < "
     "workload < core < verify)."),
    ("convention-assert", "conventions",
     "Use DBSIM_ASSERT instead of raw assert(); it stays on in release "
     "builds."),
    ("convention-stdout", "conventions",
     "No stdout writes in src/; stdout belongs to machine-readable reports, "
     "logs go to stderr."),
    ("convention-include-guard", "conventions",
     "Include guards spell DBSIM_<DIRS>_<FILE>_HPP."),
    ("convention-catch-swallow", "conventions",
     "catch (...) must rethrow, wrap the exception in a structured failure, "
     "or carry an allow() annotation."),
    ("checkpoint-purity", "checkpoint",
     "Serialization bodies (saveState/serializeState/stateHash/...) must "
     "stay byte-stable: no host pointer bits, no wall-clock values "
     "(DESIGN.md §5g)."),
]
RULE_IDS = {rule for rule, _, _ in RULES}

USAGE = """usage: dbsim-analyze [options]
  --root DIR         repo root (default: .); scans DIR/src
  --rules a,b,c      run only these rules
  --list-rules       print the rule catalog and exit
exit status: 0 clean, 1 findings, 2 usage/IO error
"""


class AnalyzeError(Exception):
    """A usage or I/O error: the run stops with exit status 2."""


# kind: "ident", "number", "string" or "char" (text: the literal's
# contents) or "punct"; line: 1-based.
Token = namedtuple("Token", "kind text line")

# Multi-character punctuators stay whole, longest first.
PUNCTS = ("<<= >>= ... ->* :: -> ++ -- += -= *= /= %= &= |= ^= << >> <= >= "
          "== != && ||").split()
SCANNER = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<space>[ \t\r\v\f]+)",
    r"(?P<line_comment>//[^\n]*)",
    r"(?P<block_comment>/\*.*?(?:\*/|\Z))",
    r"(?P<directive>#(?:\\\n|[^\n])*)",  # backslash-newline continues it
    # Literals: escape pairs, a backslash ending the file, or any other
    # character up to the closing quote; a char literal ends at a newline.
    r'(?P<string>"(?P<string_body>(?:\\.|\\\Z|[^"\\])*)"?)',
    r"(?P<char>'(?P<char_body>(?:\\.|\\\Z|[^'\\\n])*)'?)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
    # pp-number: identifier characters, dots, digit separators, exponents
    r"(?P<number>\.?[0-9](?:[A-Za-z0-9_.]|'[A-Za-z0-9_]|(?<=[eEpP])[+-])*)",
    "(?P<punct>" + "|".join(map(re.escape, PUNCTS)) + "|.)",
]), re.DOTALL)
# A raw string's delimiter and contents; unterminated, it runs to the end.
RAW_STRING = re.compile(r'([^(]*)(?:\((.*?)(?:\)\1"|\Z))?', re.DOTALL)
MARK = re.compile(r"dbsim-analyze: ([A-Za-z0-9_]+)\(([^)]*)\)")
DIRECTIVE = re.compile(r"[ \t\v\f\r]*([A-Za-z0-9_]*)[ \t\v\f\r]*(.*?)"
                       r"[ \t\v\f\r]*\Z", re.DOTALL)
WORD = re.compile(r"[A-Za-z0-9_]*")


def lex(rel, text):
    """A file's tokens, directives (keyword, rest, line), includes (target,
    line, angled), allows by line and marks (kind, items, line)."""
    tokens, directives, includes, marks = [], [], [], []
    allows, pending = {}, set()  # pending: allows for the next code line
    line, has_code, pos = 1, False, 0

    def emit(kind, value, at):
        nonlocal has_code
        if pending:
            allows.setdefault(at, set()).update(pending)
            pending.clear()
        has_code = True
        tokens.append(Token(kind, value, at))

    def record_marks(body):
        # A mark sharing its line with code applies to that line; a
        # standalone one to the next line with code.
        for m in MARK.finditer(body):
            items = [x for x in re.split("[ ,\t]", m.group(2)) if x]
            if m.group(1) == "allow":
                (allows.setdefault(line, set()) if has_code
                 else pending).update(items)
            marks.append((m.group(1), items, line))

    while pos < len(text):
        m = SCANNER.match(text, pos)
        kind, value, pos = m.lastgroup, m.group(), m.end()
        if kind == "newline":
            line, has_code = line + 1, False
        elif kind in ("line_comment", "block_comment"):
            record_marks(value)
            line += value.count("\n")  # has_code holds across the comment
        elif kind == "directive" and not has_code:
            word, rest = DIRECTIVE.match(value.replace("\\\n", ""), 1).groups()
            directives.append((word, rest, line))
            if word == "include" and len(rest) >= 2 and rest[0] in '<"':
                end = rest.find(">" if rest[0] == "<" else '"', 1)
                if end != -1:
                    includes.append((rest[1:end], line, rest[0] == "<"))
            line += value.count("\n")
        elif kind == "directive":  # a '#' after code on its line
            pos = m.start() + 1
            emit("punct", "#", line)
        elif kind in ("string", "char"):
            at, prev = line, tokens[-1] if tokens else None
            if (kind == "string" and prev and prev.kind == "ident"
                    and prev.line == at
                    and prev.text in ("R", "u8R", "uR", "LR")):
                tokens.pop()  # the raw string's prefix
                raw = RAW_STRING.match(text, m.start() + 1)
                value, pos = raw.group(2) or "", raw.end()
                line += value.count("\n")
            else:  # an escaped newline does not count
                value = m.group(kind + "_body")
                line += re.sub(r"\\.", "", value, flags=re.DOTALL).count("\n")
            emit(kind, value, at)
        elif kind != "space":
            emit(kind, value, line)
    return {"rel": rel, "tokens": tokens, "directives": directives,
            "includes": includes, "allows": allows, "marks": marks}


INT_TYPES = {"uint64_t", "uint32_t", "uint16_t", "uint8_t", "int64_t",
             "int32_t", "size_t", "int", "long", "unsigned"}
# Words that make a struct member statement no counter declaration.
NOT_COUNTERS = {"double", "float", "bool", "string", "vector", "array", "map",
                "set", "atomic", "optional", "pair", "using", "typedef",
                "friend", "struct", "enum", "static"}


def scan(root):
    """Lex the C++ sources under root, in path-component order."""
    def fail(e):
        raise AnalyzeError(f"cannot scan {root}: {e.strerror}")
    paths = []
    for dirpath, _, names in os.walk(root, onerror=fail):
        paths += [os.path.join(dirpath, n) for n in names
                  if os.path.splitext(n)[1] in (".hpp", ".cpp", ".h", ".cc")
                  and os.path.isfile(os.path.join(dirpath, n))]
    files = []
    for rel, path in sorted((os.path.relpath(p, root).split(os.sep), p)
                            for p in paths):
        try:
            with open(path, "rb") as f:
                text = f.read().decode("utf-8", "surrogateescape")
        except OSError:
            raise AnalyzeError(f"cannot open {path}") from None
        files.append(lex("/".join(rel), text))
    return files


def top_dir(rel):
    """"sim" for "sim/system.hpp"; "" for a file in the corpus root."""
    return rel.split("/")[0] if "/" in rel else ""


def is_punct(tk, text):
    return tk.kind == "punct" and tk.text == text


def closing(t, i, open_, close):
    """Index of the punctuator closing the run opening at t[i], or len(t)."""
    depth = 0
    for j in range(i, len(t)):
        if is_punct(t[j], open_):
            depth += 1
        elif is_punct(t[j], close):
            depth -= 1
            if depth == 0:
                return j
    return len(t)


def index_int_aliases(t, aliases):
    """Collect integral `using Alias = ...;` (Cycles, Addr, ...)."""
    for i in range(len(t) - 3):
        if (t[i].kind == "ident" and t[i].text == "using"
                and t[i + 1].kind == "ident" and t[i + 2].text == "="):
            rhs = list(takewhile(lambda tk: tk.text != ";", t[i + 3:]))
            if (any(tk.kind == "ident" and (tk.text in INT_TYPES or tk.text
                                            in aliases) for tk in rhs)
                    and not any(tk.kind == "punct" and tk.text in (
                        "<", "*", "(") for tk in rhs)):
                aliases.add(t[i + 1].text)


def parse_stats_body(t, i, is_int, fields):
    """Collect the counters (name, line) of the struct body at t[i] into
    fields; return the index past the body."""
    stmt, brace_init = [], None  # the statement's tokens; a `name{...}`

    def flush():
        texts = [t[k].text for k in stmt if t[k].kind == "ident"]
        if (any(is_punct(t[k], "(") for k in stmt)
                or not any(map(is_int, texts))
                or any(s in NOT_COUNTERS for s in texts)):
            return
        # Declarators: identifiers followed by '=', ',' or the end of the
        # statement, plus a brace-initialized one.
        for x, k in enumerate(stmt):
            nxt = t[stmt[x + 1]].text if x + 1 < len(stmt) else ";"
            if (t[k].kind == "ident" and not is_int(t[k].text)
                    and nxt in ("=", ",", ";")
                    and t[k].text not in ("std", "const", "constexpr")):
                fields.append((t[k].text, t[k].line))
        if brace_init is not None and t[brace_init].kind == "ident":
            fields.append((t[brace_init].text, t[brace_init].line))

    i += 1
    while i < len(t):
        if is_punct(t[i], "}"):
            flush()
            return i + 2 if i + 1 < len(t) and t[i + 1].text == ";" else i + 1
        if is_punct(t[i], "{"):
            if any(is_punct(t[k], "(") for k in stmt):  # a function body
                i = closing(t, i, "{", "}") + 1
                i += i < len(t) and t[i].text == ";"
                stmt, brace_init = [], None
            else:
                brace_init = stmt.pop() if stmt else None
                i = closing(t, i, "{", "}") + 1
            continue
        if is_punct(t[i], ";"):
            flush()
            stmt, brace_init = [], None
        elif (is_punct(t[i], ":") and len(stmt) == 1
              and t[stmt[0]].kind == "ident"
              and t[stmt[0]].text in ("public", "private", "protected")):
            stmt = []
        else:
            stmt.append(i)
        i += 1
    return i


def index_stats_structs(f, aliases, out):
    """Append each `struct FooStats {...}` with counters to out."""
    t, i = f["tokens"], 0
    while i + 2 < len(t):
        name = t[i + 1]
        if (t[i].kind == "ident" and t[i].text in ("struct", "class")
                and name.kind == "ident" and len(name.text) >= 6
                and name.text.endswith("Stats")):
            # The body after any base clause; ';' is a forward
            # declaration and '(' a constructor-like false match.
            j = next((k for k in range(i + 2, len(t))
                      if t[k].text in ("{", ";", "(")), len(t))
            if j < len(t) and t[j].text == "{":
                fields = []
                i = parse_stats_body(
                    t, j, lambda s: s in INT_TYPES or s in aliases, fields)
                if fields:
                    out.append((name.text, f["rel"], fields))
                continue
        i += 1


def build_corpus(corpus, usage_roots):
    """Lex corpus and the usage roots (read for counter usage only);
    index include edges (from, to, line) and *Stats structs."""
    files = scan(corpus)
    usage_files = [f for root in usage_roots if os.path.isdir(root)
                   for f in scan(root)]
    index = {f["rel"]: n for n, f in enumerate(files)}
    # An include resolves corpus-root-relative first (the repo
    # convention), then relative to the including file's directory.
    edges = []
    for n, f in enumerate(files):
        for target, line, angled in f["includes"]:
            to = index.get(target)
            if to is None and top_dir(f["rel"]):
                to = index.get(top_dir(f["rel"]) + "/" + target)
            if not angled and to is not None:
                edges.append((n, to, line))
    # Aliases first: a struct may use an alias declared in a later file.
    aliases, stats = set(), []
    for f in files:
        index_int_aliases(f["tokens"], aliases)
    for f in files:
        index_stats_structs(f, aliases, stats)
    return {"files": files, "usage_files": usage_files, "index": index,
            "edges": edges, "stats": stats}


# Each rule family yields (rule, rel, line, message, scan_end); a nonzero
# scan_end widens the lines searched for an allow() (a catch block).

HOST_CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock",
               "gettimeofday", "clock_gettime", "localtime", "gmtime",
               "strftime"}


def determinism_rules(c):
    """Output-contract breakers (DESIGN.md section 5c)."""
    for rule, bad, what in [
            ("determinism-unordered-container", {"unordered_map",
             "unordered_set", "unordered_multimap", "unordered_multiset"},
             "iterates in an unspecified order: use std::map / std::set, "
             "whose order is the key order"),
            ("determinism-wallclock",
             HOST_CLOCKS | {"sleep_for", "sleep_until"},
             "reads the host clock: wall time must stay inside annotated "
             "host-timing code and never feed simulated state or reported "
             "statistics"),
            ("determinism-rand",
             {"rand", "srand", "rand_r", "drand48", "random_device"},
             "is non-deterministic randomness: use the seeded dbsim RNG "
             "(common/rng.hpp) so runs replay bit-identically")]:
        for f in c["files"]:
            last_line = 0  # one finding per line
            for tk in f["tokens"]:
                if (tk.kind == "ident" and tk.text in bad
                        and tk.line != last_line):
                    last_line = tk.line
                    yield rule, f["rel"], tk.line, f"'{tk.text}' {what}", 0
    for f in c["files"]:
        t = f["tokens"]
        for i, tk in enumerate(t):
            if tk.kind == "string" and "%p" in tk.text:
                yield ("determinism-pointer-format", f["rel"], tk.line,
                       '"%p" formats a pointer value: addresses vary run to '
                       "run (ASLR) and must not reach deterministic output", 0)
            # Streaming the address of a named object: `<< &x`.
            if (is_punct(tk, "<<") and i + 2 < len(t) and t[i + 1].text == "&"
                    and t[i + 2].kind == "ident"):
                yield ("determinism-pointer-format", f["rel"], tk.line,
                       f"streaming '&{t[i + 2].text}' prints a host address, "
                       "which varies run to run (ASLR) and must not reach "
                       "deterministic output", 0)


def is_write(t, i):
    """True when t[i] is assigned, compound-assigned or ++/--'d."""
    # A prefix ++/-- applies through a member chain (`++stats_.cycles`).
    j = i
    while (j >= 2 and t[j - 1].kind == "punct" and t[j - 1].text in (".", "->")
           and t[j - 2].kind == "ident"):
        j -= 2
    if j >= 1 and t[j - 1].text in ("++", "--"):
        return True
    k = i + 1  # skip subscripts (`cycles[cat] += n`) to the operator
    while k < len(t) and t[k].text == "[":
        k = closing(t, k, "[", "]") + 1
    nxt = t[k].text if k < len(t) else ""
    # Plain assignment is a write only through member access, so the
    # field's own declaration (`std::uint64_t hits = 0;`) is not.
    return (nxt in ("++", "--", "+=", "-=", "*=", "/=", "|=", "&=", "^=")
            or nxt == "=" and i > 0 and t[i - 1].text in (".", "->"))


def accounting_rules(c):
    """Every *Stats counter is both updated and read somewhere; a name
    shared by two structs is judged on their joint usage."""
    decl = {}  # field name -> (rel, line) of its first declaration
    for _, rel, fields in c["stats"]:
        for name, line in fields:
            decl.setdefault(name, (rel, line))
    written, read = set(), set()
    for f in c["files"] + c["usage_files"]:
        t = f["tokens"]
        for i, tk in enumerate(t):
            if (tk.kind == "ident" and tk.text in decl
                    and decl[tk.text] != (f["rel"], tk.line)):
                (written if is_write(t, i) else read).add(tk.text)
    for struct, rel, fields in c["stats"]:
        for name, line in fields:
            why = ("is never incremented or assigned: the report will always "
                   "show zero (wire it up or remove it)" if name not in written
                   else "is updated but never serialized or read: dead "
                   "accounting (report it or remove it)" if name not in read
                   else None)
            if why:
                yield ("accounting-counter-coverage", rel, line,
                       f"counter '{struct}::{name}' {why}", 0)


# The true dependency order of src/, common at the bottom: sim composes
# the component models and core composes whole simulations.
LAYERS = ["common", "trace", "interconnect", "memory", "coherence", "cpu",
          "sim", "workload", "core", "verify"]


def layering_rules(c):
    """Includes reach only down the layer order and form a DAG."""
    rels = [f["rel"] for f in c["files"]]
    rank = {d: n for n, d in enumerate(LAYERS)}
    adjacent = [[] for _ in rels]
    for src, dst, line in c["edges"]:
        adjacent[src].append((dst, line))
        a, b = top_dir(rels[src]), top_dir(rels[dst])
        if a in rank and b in rank and rank[a] < rank[b]:
            yield ("layering-order", rels[src], line,
                   f"include of '{rels[dst]}' reaches up the layer order "
                   f"('{a}' is layer {rank[a]}, '{b}' is layer {rank[b]}): "
                   "move the shared declaration down or invert the "
                   "dependency", 0)
    # Depth-first in sorted edge order; an edge back into the stack is a cycle.
    state, stack, cycles = [0] * len(rels), [], []  # 1 on stack, 2 done

    def visit(node):
        state[node] = 1
        stack.append(node)
        for dst, line in sorted(adjacent[node]):
            if state[dst] == 1:
                path = stack[stack.index(dst):] + [dst]
                cycles.append(("layering-cycle", rels[node], line,
                               "include cycle: " + " -> ".join(
                                   rels[n] for n in path), 0))
            elif state[dst] == 0:
                visit(dst)
        state[node] = 2
        stack.pop()
    for root in range(len(rels)):
        if state[root] == 0:
            visit(root)
    yield from cycles


def include_guard(f):
    """The first #ifndef and its #define spell DBSIM_<DIRS>_<FILE>_HPP."""
    rel, ifndef, define = f["rel"], None, None
    expected = "DBSIM_" + re.sub("[/.]", "_", re.sub(
        "[a-z]+", lambda m: m.group().upper(), rel))
    for d in f["directives"]:
        if ifndef is None and d[0] == "ifndef":
            ifndef = d
        elif ifndef is None and d[0] in ("if", "ifdef"):
            return  # an unconventional header
        elif ifndef is not None and d[0] == "define":
            define = d
            break
    got = ifndef and WORD.match(ifndef[1]).group()
    if ifndef is None:
        yield ("convention-include-guard", rel, 1,
               f"header has no include guard; expected #ifndef {expected}", 0)
    elif got != expected:
        yield ("convention-include-guard", rel, ifndef[2],
               f"include guard '{got}' should be '{expected}'", 0)
    elif define is None or WORD.match(define[1]).group() != expected:
        yield ("convention-include-guard", rel, (define or ifndef)[2],
               f"include guard #define does not match #ifndef {expected}", 0)


def catch_swallow(t, i, rel):
    """A catch (...) at t[i] that neither rethrows nor wraps."""
    j = next((k for k in range(i + 4, len(t)) if t[k].text == "{"), None)
    if j is None:
        return
    end = closing(t, j, "{", "}")
    if not any(tk.kind == "ident" and tk.text in (
            "throw", "current_exception", "rethrow_exception", "DBSIM_PANIC",
            "DBSIM_FATAL") for tk in t[j:end]):
        yield ("convention-catch-swallow", rel, t[i].line,
               "catch (...) swallows the exception; rethrow, wrap it in a "
               "structured failure, or annotate with "
               "allow(convention-catch-swallow)", t[min(end, len(t) - 1)].line)


def convention_rules(c):
    """No raw assert(), stdout writes or swallowing catch (...)."""
    for f in c["files"]:
        t, rel = f["tokens"], f["rel"]
        for i, tk in enumerate(t):
            if tk.kind != "ident":
                continue
            prev = t[i - 1].text if i > 0 else ""
            nxt = t[i + 1].text if i + 1 < len(t) else ""
            if tk.text == "assert" and nxt == "(":
                yield ("convention-assert", rel, tk.line,
                       "raw assert() compiles out under NDEBUG; use "
                       "DBSIM_ASSERT (common/log.hpp), which stays on in "
                       "release builds", 0)
            if (tk.text == "cout" and prev == "::" and i >= 2
                    and t[i - 2].text == "std"):
                write = "std::cout in src/: stdout belongs"
            elif (tk.text in ("printf", "puts") and nxt == "("
                  and prev not in (".", "->")):
                write = f"'{tk.text}' writes to stdout, which belongs"
            elif (tk.text == "fprintf" and nxt == "(" and i + 2 < len(t)
                  and t[i + 2].text == "stdout"):
                write = "fprintf(stdout, ...) in src/: stdout belongs"
            else:
                write = None
            if write:
                yield ("convention-stdout", rel, tk.line, f"{write} to "
                       "machine-readable reports; log via DBSIM_* (stderr) "
                       "instead", 0)
            if tk.text == "catch" and [x.text for x in t[i + 1:i + 4]] == [
                    "(", "...", ")"]:
                yield from catch_swallow(t, i, rel)
        if len(rel) >= 4 and rel.endswith((".hpp", ".h")):
            yield from include_guard(f)


def serializer_body(t, i):
    """The body (begin, end) when t[i] defines a serializer, else None."""
    if (t[i].kind != "ident" or t[i].text not in (
            "saveState", "serializeState", "stateHash", "configSignature",
            "checkpoint")
            or i > 0 and (is_punct(t[i - 1], ".") or is_punct(t[i - 1], "->"))
            or i + 1 >= len(t) or not is_punct(t[i + 1], "(")):
        return None
    j = closing(t, i + 1, "(", ")") + 1  # then const, noexcept, &&, ...
    while j < len(t) and (t[j].kind == "ident" or is_punct(t[j], "&&")):
        j += 1
    if j >= len(t) or not is_punct(t[j], "{"):
        return None
    end = closing(t, j, "{", "}")
    return (j + 1, end) if end < len(t) else None


def checkpoint_rules(c):
    """Serialization bodies (DESIGN.md section 5g) stay free of host
    pointer bits and wall-clock values; src/ has no hash containers."""
    for f in c["files"]:
        t, i = f["tokens"], 0
        while i < len(t):
            body = serializer_body(t, i)
            if body is None:
                i += 1
                continue
            fn, last_clock_line = t[i].text, 0
            for tk in t[body[0]:body[1]]:
                if tk.kind == "ident" and tk.text == "reinterpret_cast":
                    yield ("checkpoint-purity", f["rel"], tk.line,
                           f"reinterpret_cast inside {fn}(): host pointer "
                           "bits must never enter serialized state "
                           "(addresses vary run to run)", 0)
                elif (tk.kind == "ident" and tk.text in HOST_CLOCKS
                      and tk.line != last_clock_line):
                    last_clock_line = tk.line
                    yield ("checkpoint-purity", f["rel"], tk.line,
                           f"'{tk.text}' inside {fn}(): wall-clock values "
                           "must never enter serialized state (they differ "
                           "on every run)", 0)
            i = body[0] + 1  # bodies never nest serializer definitions


def analyze(corpus, usage_roots=(), rules=()):
    """Sorted findings (rel, line, rule, message), suppressed count and
    file count of the rules (all when empty) over corpus."""
    for rule in [r for r in rules if r not in RULE_IDS]:
        raise AnalyzeError(f"unknown rule '{rule}' (see --list-rules)")
    c = build_corpus(corpus, usage_roots)
    for f in c["files"]:
        for kind, items, line in f["marks"]:
            at = f"{f['rel']}:{line}"
            if kind != "allow":
                raise AnalyzeError(f"{at}: unknown mark kind '{kind}' (only "
                                   "allow() is recognised)")
            for item in [x for x in items if x not in RULE_IDS]:
                raise AnalyzeError(f"{at}: unknown rule '{item}' in allow() "
                                   "(see --list-rules)")
    findings, suppressed = [], 0
    for family in (determinism_rules, accounting_rules, layering_rules,
                   convention_rules, checkpoint_rules):
        for rule, rel, line, message, scan_end in family(c):
            allows = c["files"][c["index"][rel]]["allows"]
            if rules and rule not in rules:
                continue
            if any(rule in allows.get(n, ()) for n in
                   range(line, max(line, scan_end) + 1)):
                suppressed += 1
            else:
                findings.append((rel, line, rule, message))
    return sorted(findings), suppressed, len(c["files"])


def main(argv):
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(encoding="utf-8", errors="surrogateescape")
    root, rules, i = ".", [], 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--root", "--rules") and i + 1 >= len(argv):
            print(f"dbsim-analyze: {arg} needs an argument", file=sys.stderr)
            return 2
        if arg == "--root":
            root, i = argv[i + 1], i + 1
        elif arg == "--rules":
            rules, i = rules + [r for r in argv[i + 1].split(",") if r], i + 1
        elif arg == "--list-rules":
            for rule, family, text in RULES:
                print(f"{rule}  [{family}]\n    {text}")
            return 0
        else:
            print(f"dbsim-analyze: unknown option {arg}\n{USAGE}", end="",
                  file=sys.stderr)
            return 2
        i += 1
    try:
        findings, suppressed, files = analyze(
            root + "/src", [root + "/" + aux for aux in
                            ("tests", "bench", "tools", "examples")], rules)
    except AnalyzeError as e:
        print(f"dbsim-analyze: {e}", file=sys.stderr)
        return 2
    out = sys.stderr if findings else sys.stdout
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: [{rule}] {message}", file=out)
    print(f"dbsim-analyze: {files} files, {len(findings)} finding(s) "
          f"({suppressed} suppressed)", file=out)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
