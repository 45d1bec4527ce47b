#!/usr/bin/env python3
"""gflint: token/AST-aware GFlink lint over src/**.

v2 engine: every file is read ONCE and lexed into a comment/string/raw-
string aware token stream, over which a lightweight structural parser
builds a balanced-brace scope tree with class blocks, function and lambda
definitions (qualified names, parameter lists, capture lists) and
coroutine recognition. All rules share that one FileModel (no per-rule
re-reads, no regex matches inside comments or string literals).

Rule families, each enforcing an architectural invariant the type system
cannot express (see docs/ARCHITECTURE.md, "Static analysis & lint").
Metric naming and attribution are not lint: the metric family table in
src/obs/metric_families.hpp enforces them at compile and registration
time, and GStruct mirror layouts are checked by every typed plan node.

  R1  device-alloc   Device memory is allocated/released only through the
                     GMemoryManager / CudaWrapper layers (the paper's
                     automatic memory management). Raw allocator calls
                     (`.memory().allocate/free`) and `cuda_malloc/cuda_free`
                     call sites are restricted to an allowlist.
  R2  host-threads   No host concurrency under src/: no std::thread,
                     std::jthread or std::async, no std::mutex family,
                     std::condition_variable or std::atomic, and no include
                     of <thread>, <mutex>, <atomic>, <condition_variable>,
                     <future> and their kin. The simulator runs on one
                     thread by construction; sim::Mutex is a simulated
                     resource (a DMA engine, a NIC lane), not a host lock.
  C1  coro-capture   A lambda with a non-empty capture list whose body is
                     a coroutine (contains co_await/co_return/co_yield).
                     The closure object dies with the enclosing scope while
                     the coroutine frame lives on; captures are read
                     through a dangling `this`-like pointer at resume.
                     (The PR-8 ASan bug, verbatim.)
  C2  coro-dangle    A coroutine spawned DETACHED (passed to spawn() and
                     not awaited) whose parameters borrow: a reference /
                     string_view / span / char* of a temporary-prone value
                     type, or any reference parameter bound to a temporary
                     at the spawn site. The full-expression's temporaries
                     die when spawn() returns; the frame's reference
                     dangles. (The PR-8 dangling string-ref, verbatim.)
  C3  coro-this      A member-function coroutine launched detached with no
                     keep-alive of `this` in the spawn statement
                     (shared_from_this(), an owner handle, or an explicit
                     allowlist with justification). The frame captures
                     `this`; nothing ties the object's lifetime to it.
  A1  allow-hygiene  A `gflint: allow(...)` suppression with no written
                     justification. Always on; not suppressible.

Suppressions: `// gflint: allow(C3): <why this site is safe>` on the
finding's line or the line above silences that rule there. The
justification text is mandatory (A1 otherwise).

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage or
environment errors (missing root, unreadable files).

`--sarif PATH` writes findings as SARIF 2.1.0 for inline PR annotation.
Directories named `build*` are never scanned, so a stray in-tree build
cannot pollute findings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# ---- Rule configuration ----------------------------------------------------

# R1: files (relative to src/) that may call the raw device allocator.
RAW_ALLOC_ALLOWED = {
    "core/gmemory_manager.cpp",  # the cache/region manager itself
    "gpu/api.hpp",               # cudaMalloc/cudaFree stubs wrap the allocator
    "gpu/device_memory.hpp",     # the allocator
    "gpu/device_memory.cpp",
}
RAW_ALLOC_RE = re.compile(r"\.memory\(\)\.(allocate|free)\s*\(")

# R1: files/directories that may *call* cuda_malloc/cuda_free (definitions in
# gpu/ plus the engine's automatic per-GWork allocation).
CUDA_ALLOC_ALLOWED_DIRS = ("gpu/",)
CUDA_ALLOC_ALLOWED_FILES = {"core/gstream_manager.cpp"}
CUDA_ALLOC_RE = re.compile(r"\bcuda_(malloc|free)\s*\(")

# R2: host-thread primitives and the headers that declare them. Only std::
# names match, so sim::Mutex (a simulated resource) never does.
HOST_CONCURRENCY_RE = re.compile(
    r"\bstd::(thread|jthread|async|"
    r"(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?|atomic\w*)\b"
)
HOST_CONCURRENCY_INCLUDE_RE = re.compile(
    r"^[ \t]*#[ \t]*include[ \t]*<(thread|mutex|shared_mutex|atomic|"
    r"condition_variable|future|semaphore|latch|barrier|stop_token)>", re.M
)

# C2: parameter types that borrow from temporary-prone value types. A
# detached frame must own its strings/buffers by value.
def is_dangle_prone_type(type_text: str) -> bool:
    t = type_text
    if "string_view" in t:
        return True
    if re.search(r"\bspan\b", t):
        return True
    if re.search(r"\bchar\b", t) and "*" in t:
        return True
    if re.search(r"\bstd::string\b", t) and "&" in t:
        return True
    return False

# C2: argument shapes that are plain lvalues (identifier chains, member
# access, subscripts, derefs) — anything else is treated as a temporary.
LVALUE_ARG_RE = re.compile(
    r"^[&*]*[A-Za-z_]\w*(::\w+)*((\.|->)\w+|\[\w*\])*$"
)

# C3: tokens in a spawn statement that count as a keep-alive of `this`.
KEEPALIVE_TOKENS = ("shared_from_this", "self", "keep_alive")

# Suppression comments: `gflint: allow(R2): justification` (also accepts
# `allow(R2) justification` and comma-separated rule lists).
ALLOW_RE = re.compile(r"gflint:\s*allow\(([^)]*)\)\s*:?\s*(.*)", re.S)

ALL_RULES = ("R1", "R2", "C1", "C2", "C3")

RULE_DESCRIPTIONS = {
    "R1": "device memory allocated outside GMemoryManager/CudaWrapper",
    "R2": "host concurrency (threads, locks, atomics) under src/",
    "C1": "capturing-lambda coroutine (closure dies before the frame)",
    "C2": "detached coroutine borrowing a temporary-prone parameter",
    "C3": "detached member coroutine without a keep-alive of this",
    "A1": "gflint allow() suppression without a justification",
}

SOURCE_SUFFIXES = (".cpp", ".hpp")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "co_await", "co_return", "co_yield", "new",
    "delete", "throw", "case", "static_assert", "alignas", "assert",
    "defined", "typeid", "else", "do", "goto", "requires",
}

CO_KEYWORDS = {"co_await", "co_return", "co_yield"}

PUNCTS = sorted(
    [
        "<<=", ">>=", "<=>", "->*", "...", "::", "->", "++", "--", "<<", ">>",
        "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
        "&=", "|=", "^=", "##",
    ],
    key=len,
    reverse=True,
)

STRING_PREFIX_RE = re.compile(r'(u8|u|U|L)?(R)?"')


# ---- Lexer -----------------------------------------------------------------


def lex(text: str):
    """Tokenize C++ into (kind, text, line) tuples.

    Kinds: 'id', 'num', 'str', 'chr', 'punct', 'comment', 'directive'.
    Comments and preprocessor directives are kept as tokens (suppression
    comments live there) but are excluded from the significant stream the
    structural parser and rules consume.
    """
    toks = []
    i, n = 0, len(text)
    line = 1
    bol = True  # only whitespace seen since the last newline
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            bol = True
            i += 1
            continue
        if c in " \t\r\v\f":
            i += 1
            continue
        if c == "/" and text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            toks.append(("comment", text[i:j], line))
            i = j
            continue
        if c == "/" and text.startswith("/*", i):
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            toks.append(("comment", text[i:end], line))
            line += text.count("\n", i, end)
            i = end
            continue
        if c == "#" and bol:
            # Preprocessor directive: consume the logical line (with any
            # backslash continuations) as one token.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\" if k > 0 else False:
                    j = k + 1
                    continue
                j = k
                break
            toks.append(("directive", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        bol = False
        m = STRING_PREFIX_RE.match(text, i)
        if m:
            if m.group(2):  # raw string R"delim( ... )delim"
                open_paren = text.find("(", m.end())
                delim = text[m.end():open_paren] if open_paren >= 0 else ""
                closer = ")" + delim + '"'
                j = text.find(closer, open_paren + 1) if open_paren >= 0 else -1
                end = n if j < 0 else j + len(closer)
            else:
                j = m.end()
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                end = min(j + 1, n)
            toks.append(("str", text[i:end], line))
            line += text.count("\n", i, end)
            i = end
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_.'"):
                j += 1
            toks.append(("num", text[i:j], line))
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            toks.append(("chr", text[i:end], line))
            i = end
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("id", text[i:j], line))
            i = j
            continue
        for p in PUNCTS:
            if text.startswith(p, i):
                toks.append(("punct", p, line))
                i += len(p)
                break
        else:
            toks.append(("punct", c, line))
            i += 1
    return toks


# ---- FileModel: scope tree, classes, lambdas, functions --------------------


class FileModel:
    """One parsed file: token stream, scrubbed code view, scope tree and
    recognized definitions. Built exactly once per file and shared by every
    rule (the tokenizer cache)."""

    def __init__(self, text: str):
        self.text = text
        self.toks = lex(text)
        # Significant tokens: everything the structural parser consumes.
        self.sig = [t for t in self.toks if t[0] not in ("comment", "directive")]
        self._build_code_view()
        self._match_braces()
        self.classes = []   # {name, open, close}
        self.lambdas = []   # {line, captures, params, body, ret}
        self.functions = []  # {name, cls, line, params, body|None, ret}
        self._parse_structure()
        self._mark_coroutines()
        self.suppressions = []  # {line_set, rules, reason, bare}
        self._collect_suppressions()

    # -- code view: same length as text, comments/strings/chars blanked --
    def _build_code_view(self):
        out = []
        pos = 0
        # Re-lex positions: rebuild by scanning text with the same lexer
        # boundaries. Cheaper: blank via a dedicated pass mirroring lex().
        # To avoid duplicating the lexer, blank using token texts in order.
        idx = 0
        text = self.text
        for kind, ttext, _line in self.toks:
            j = text.find(ttext, idx)
            if j < 0:
                continue
            if kind in ("comment", "str", "chr"):
                out.append(text[pos:j])
                out.append("".join(ch if ch == "\n" else " " for ch in ttext))
                pos = j + len(ttext)
            idx = j + len(ttext)
        out.append(text[pos:])
        self.code = "".join(out)

    def _match_braces(self):
        sig = self.sig
        self.match = {}
        stacks = {"(": [], "{": [], "[": []}
        closers = {")": "(", "}": "{", "]": "["}
        for i, (kind, text, _line) in enumerate(sig):
            if kind != "punct":
                continue
            if text in stacks:
                stacks[text].append(i)
            elif text in closers:
                st = stacks[closers[text]]
                if st:
                    j = st.pop()
                    self.match[j] = i
                    self.match[i] = j

    def line_of_offset(self, pos: int) -> int:
        return self.text.count("\n", 0, pos) + 1

    def _parse_structure(self):
        sig = self.sig
        n = len(sig)
        i = 0
        while i < n:
            kind, text, _line = sig[i]
            if kind == "id" and text in ("class", "struct", "union"):
                self._try_class(i)
            elif kind == "punct" and text == "[":
                lam = self._try_lambda(i)
                if lam:
                    self.lambdas.append(lam)
            elif kind == "punct" and text == "(":
                fn = self._try_function(i)
                if fn:
                    self.functions.append(fn)
            i += 1

    def _try_class(self, i):
        sig = self.sig
        n = len(sig)
        # Walk forward to '{' (definition) or ';'/'('/'=' (not one).
        j = i + 1
        name = None
        while j < n and j < i + 40:
            kind, text, _ = sig[j]
            if kind == "punct" and text == "[" and j + 1 < n and sig[j + 1][1] == "[":
                j = self.match.get(self.match.get(j + 1, j), j) + 1  # skip [[...]]
                continue
            if kind == "id" and text not in ("final", "alignas"):
                name = text
                j += 1
                continue
            if kind == "punct" and text == "(":  # alignas(...)
                j = self.match.get(j, j) + 1
                continue
            if kind == "punct" and text == ":":
                # base clause: scan to '{' at depth 0
                k = j + 1
                depth = 0
                while k < n:
                    kk, tt, _ = sig[k]
                    if kk == "punct":
                        if tt in ("(", "<", "["):
                            depth += 1
                        elif tt in (")", ">", "]"):
                            depth -= 1
                        elif tt == "{" and depth <= 0:
                            break
                        elif tt == ";" and depth <= 0:
                            return
                    k += 1
                j = k
                continue
            if kind == "punct" and text == "{":
                close = self.match.get(j)
                if close is not None and name:
                    self.classes.append({"name": name, "open": j, "close": close})
                return
            if kind == "id" and text == "final":
                j += 1
                continue
            return  # ';', '=', '<' (template), anything else: not a class def
        return

    def enclosing_class(self, si: int):
        best = None
        for c in self.classes:
            if c["open"] < si < c["close"]:
                if best is None or c["open"] > best["open"]:
                    best = c
        return best["name"] if best else None

    def _try_lambda(self, i):
        sig = self.sig
        n = len(sig)
        if i + 1 < n and sig[i + 1][1] == "[":
            return None  # [[attribute]]
        prev = sig[i - 1] if i > 0 else None
        if prev is not None:
            pk, pt, _ = prev
            if pk in ("num", "str", "chr"):
                return None
            if pk == "id" and pt not in CONTROL_KEYWORDS and pt != "operator":
                return None  # ident[ ... ] subscript
            if pk == "punct" and pt in (")", "]"):
                return None  # expr[...] subscript
        close = self.match.get(i)
        if close is None:
            return None
        captures = " ".join(t[1] for t in sig[i + 1:close])
        j = close + 1
        params = []
        if j < n and sig[j][1] == "(":
            pclose = self.match.get(j)
            if pclose is None:
                return None
            params = self._parse_params(j + 1, pclose)
            j = pclose + 1
        # specifiers / trailing return until '{'
        ret = []
        while j < n:
            kind, text, _ = sig[j]
            if kind == "punct" and text == "{":
                body_close = self.match.get(j)
                if body_close is None:
                    return None
                return {
                    "line": sig[i][2],
                    "captures": captures.strip(),
                    "params": params,
                    "body": (j, body_close),
                    "ret": " ".join(ret),
                    "intro": i,
                }
            if kind == "id" and text in ("mutable", "constexpr", "noexcept", "const", "static"):
                j += 1
                continue
            if kind == "punct" and text == "->":
                j += 1
                while j < n and sig[j][1] != "{" and sig[j][1] != ";":
                    ret.append(sig[j][1])
                    j += 1
                continue
            if kind == "punct" and text == "(":  # noexcept(...)
                j = self.match.get(j, j) + 1
                continue
            return None
        return None

    def _try_function(self, i):
        sig = self.sig
        n = len(sig)
        # name chain before '('
        j = i - 1
        if j < 0:
            return None
        kind, text, _ = sig[j]
        if kind != "id" or text in CONTROL_KEYWORDS:
            return None
        name = text
        parts = [text]
        j -= 1
        while j >= 1 and sig[j][1] == "::" and sig[j - 1][0] == "id":
            parts.insert(0, sig[j - 1][1])
            j -= 2
        if j >= 0 and sig[j][0] == "punct" and sig[j][1] in (".", "->"):
            return None  # member call, not a definition
        pclose = self.match.get(i)
        if pclose is None:
            return None
        # return-type text: a handful of tokens back to the statement edge
        ret = []
        k = j
        while k >= 0 and k > j - 30:
            kk, tt, _ = sig[k]
            if kk == "punct" and tt in (";", "{", "}", ","):
                break
            ret.insert(0, tt)
            k -= 1
        # what follows ')': specifiers / annotations / init list / body
        m = pclose + 1
        body = None
        while m < n:
            kind, text, _ = sig[m]
            if kind == "punct" and text == "{":
                body = (m, self.match.get(m))
                break
            if kind == "punct" and text == ";":
                break
            if kind == "punct" and text == ",":
                return None  # part of an expression / declarator list
            if kind == "punct" and text in (")", "]"):
                return None
            if kind == "punct" and text == "=":
                # '= default', '= delete', '= 0', or a variable initializer
                # that happens to look like 'Co<T> x = f(...)': none of these
                # are definitions (or declarations) worth registering.
                return None
            if kind == "punct" and text == ":":
                # ctor init list: skip id + balanced group, repeat
                m += 1
                depth = 0
                while m < n:
                    kk, tt, _ = sig[m]
                    if kk == "punct":
                        if tt in ("(", "[", "<"):
                            depth += 1
                        elif tt in (")", "]", ">"):
                            depth -= 1
                        elif tt == "{":
                            if depth == 0 and self._looks_like_body(m):
                                break
                            depth += 1
                        elif tt == "}":
                            depth -= 1
                        elif tt == ";" and depth <= 0:
                            break
                    m += 1
                continue
            if kind == "punct" and text == "(":
                m = (self.match.get(m) or m) + 1
                continue
            m += 1
        if body is not None and body[1] is None:
            body = None
        if body is None and not self._decl_returns_co(ret):
            # Body-less declarations are only interesting when they declare a
            # coroutine (C2/C3 registry).
            return None
        cls = None
        if len(parts) > 1:
            cls = parts[-2]
        else:
            cls = self.enclosing_class(i)
        return {
            "name": name,
            "cls": cls,
            "line": sig[i - 1][2] if i > 0 else sig[i][2],
            "params": self._parse_params(i + 1, pclose),
            "body": body,
            "ret": " ".join(ret),
            "paren": i,
        }

    def _looks_like_body(self, m) -> bool:
        """In a ctor-init walk, is this '{' the function body (vs a braced
        member initializer)? Body iff the previous significant token is ')'
        or '}' (end of an initializer) or an identifier is NOT directly
        before it... Heuristic: a braced init is always preceded by an
        identifier; the body is preceded by ')' / '}' / ','-free id."""
        prev = self.sig[m - 1] if m > 0 else None
        if prev is None:
            return True
        return not (prev[0] == "id")

    def _decl_returns_co(self, ret_tokens) -> bool:
        return "Co" in ret_tokens

    def _parse_params(self, start, end):
        """[(type_text, name)] for sig[start:end], splitting top-level commas."""
        sig = self.sig
        params = []
        depth = 0
        cur = []
        for k in range(start, end):
            kind, text, _ = sig[k]
            if kind == "punct":
                if text in ("(", "[", "{", "<"):
                    depth += 1
                elif text in (")", "]", "}", ">"):
                    depth -= 1
                elif text == ">>":
                    depth -= 2
                elif text == "," and depth <= 0:
                    params.append(cur)
                    cur = []
                    continue
            cur.append((kind, text))
        if cur:
            params.append(cur)
        out = []
        for p in params:
            # drop default argument
            trimmed = []
            depth = 0
            for kind, text in p:
                if kind == "punct":
                    if text in ("(", "[", "{", "<"):
                        depth += 1
                    elif text in (")", "]", "}", ">"):
                        depth -= 1
                    elif text == "=" and depth <= 0:
                        break
                trimmed.append((kind, text))
            if not trimmed:
                continue
            name = None
            if trimmed[-1][0] == "id" and len(trimmed) > 1:
                name = trimmed[-1][1]
                type_toks = trimmed[:-1]
            else:
                type_toks = trimmed
            type_text = " ".join(t[1] for t in type_toks).replace(" :: ", "::")
            if type_text in ("void", ""):
                continue
            out.append((type_text, name))
        return out

    def _direct_ranges(self, body):
        """Sig-index ranges of `body` minus nested lambda/function bodies."""
        lo, hi = body
        children = []
        for f in self.functions:
            b = f.get("body")
            if b and lo < b[0] and b[1] is not None and b[1] < hi:
                children.append(b)
        for l in self.lambdas:
            b = l["body"]
            if lo < b[0] and b[1] < hi:
                children.append(b)
        children.sort()
        ranges = []
        pos = lo + 1
        for c0, c1 in children:
            if c0 < pos:
                continue
            ranges.append((pos, c0))
            pos = c1 + 1
        ranges.append((pos, hi))
        return ranges

    def direct_has_co(self, body) -> bool:
        for lo, hi in self._direct_ranges(body):
            for k in range(lo, hi):
                if self.sig[k][0] == "id" and self.sig[k][1] in CO_KEYWORDS:
                    return True
        return False

    def _mark_coroutines(self):
        for f in self.functions:
            is_coro = "Co" in f["ret"].split()
            if f["body"] is not None and not is_coro:
                is_coro = self.direct_has_co(f["body"])
            f["is_coro"] = bool(is_coro)
        for l in self.lambdas:
            # body_co: the lambda body itself is a coroutine (its frame
            # references the closure). A lambda that merely *returns* another
            # coroutine's Co<T> from a plain `return` is not one — the closure
            # is done the moment the call returns.
            l["body_co"] = self.direct_has_co(l["body"])
            l["is_coro"] = bool("Co" in l["ret"].split() or l["body_co"])

    def _collect_suppressions(self):
        # Merge runs of `//` comments on consecutive lines into one logical
        # block so a justification may wrap across lines and still sit
        # directly above the statement it covers.
        blocks = []  # (text, first_line, last_line)
        for kind, text, line in self.toks:
            if kind != "comment":
                continue
            end_line = line + text.count("\n")
            if (blocks and text.startswith("//")
                    and blocks[-1][0].startswith("//")
                    and line == blocks[-1][2] + 1):
                prev = blocks[-1]
                blocks[-1] = (prev[0] + "\n" + text, prev[1], end_line)
            else:
                blocks.append((text, line, end_line))
        for text, line, end_line in blocks:
            m = ALLOW_RE.search(text)
            if not m:
                continue
            rules = {r.strip().upper() for r in m.group(1).split(",") if r.strip()}
            reason = " ".join(w for w in m.group(2).split() if w != "//")
            self.suppressions.append({
                "lines": (end_line, end_line + 1),
                "rules": rules,
                "reason": reason,
                "line": line,
            })


# ---- Shared site extraction ------------------------------------------------


def split_call_args(model, start, end):
    """Argument texts for sig[start:end], split on top-level commas."""
    sig = model.sig
    args, cur, depth = [], [], 0
    for k in range(start, end):
        kind, text, _ = sig[k]
        if kind == "punct":
            if text in ("(", "[", "{"):
                depth += 1
            elif text in (")", "]", "}"):
                depth -= 1
            elif text == "," and depth == 0:
                args.append(" ".join(cur))
                cur = []
                continue
        cur.append(text)
    if cur:
        args.append(" ".join(cur))
    return [a for a in args if a]


def extract_spawn_sites(model):
    """Detach sites: spawn(<expr>) calls with the spawned expression decoded
    as an immediately-invoked lambda or a named call."""
    sites = []
    sig = model.sig
    n = len(sig)
    fn_parens = {f["paren"] for f in model.functions}
    for i, (kind, text, line) in enumerate(sig):
        if kind != "id" or text != "spawn":
            continue
        if i + 1 >= n or sig[i + 1][1] != "(":
            continue
        if i + 1 in fn_parens:
            continue  # the definition/declaration of spawn itself
        close = model.match.get(i + 1)
        if close is None or close <= i + 2:
            continue
        encl = None
        for f in model.functions:
            b = f.get("body")
            if b and b[1] is not None and b[0] < i < b[1]:
                if encl is None or b[0] > encl["body"][0]:
                    encl = f
        stmt_end = close
        while stmt_end < n and sig[stmt_end][1] != ";":
            stmt_end += 1
        site = {
            "line": line,
            "encl_cls": encl["cls"] if encl else model.enclosing_class(i),
            "stmt": " ".join(t[1] for t in sig[i:stmt_end]),
            "lambda": None,
            "callee": None,
            "via": "plain",
            "args": [],
        }
        lo = i + 2
        lam = next((l for l in model.lambdas if l["intro"] == lo), None)
        if lam is not None:
            bc = lam["body"][1]
            if bc + 1 < close and sig[bc + 1][1] == "(":
                cc = model.match.get(bc + 1)
                if cc is not None:
                    site["args"] = split_call_args(model, bc + 2, cc)
            site["lambda"] = {
                "line": lam["line"],
                "captures": lam["captures"],
                "params": lam["params"],
                "is_coro": lam["is_coro"],
            }
            sites.append(site)
            continue
        if sig[close - 1][1] != ")":
            continue
        p = model.match.get(close - 1)
        if p is None or p <= lo or sig[p - 1][0] != "id":
            continue
        callee_i = p - 1
        site["callee"] = sig[callee_i][1]
        if callee_i - 1 >= lo:
            prev = sig[callee_i - 1][1]
            if prev in (".", "->"):
                obj = sig[callee_i - 2][1] if callee_i - 2 >= lo else ""
                site["via"] = "this" if obj == "this" else "object"
        site["args"] = split_call_args(model, p + 1, close - 1)
        sites.append(site)
    return sites


# ---- Per-file scan ---------------------------------------------------------


def scan_file(root: Path, rel):
    path = root / "src" / rel
    relp = f"src/{rel}"
    try:
        text = path.read_text()
    except OSError as exc:
        return {"rel": rel, "error": f"{path}: {exc}"}
    model = FileModel(text)
    findings = []

    # R1: device allocation outside its owners.
    if rel not in RAW_ALLOC_ALLOWED:
        for m in RAW_ALLOC_RE.finditer(model.code):
            findings.append((
                "R1", relp, model.line_of_offset(m.start()),
                f"raw device allocator call '.memory().{m.group(1)}()' outside "
                "GMemoryManager/CudaWrapper — route allocation through "
                "GMemoryManager (insert/reserve_staging) or the CudaWrapper API"))
    if rel not in CUDA_ALLOC_ALLOWED_FILES and not rel.startswith(CUDA_ALLOC_ALLOWED_DIRS):
        for m in CUDA_ALLOC_RE.finditer(model.code):
            findings.append((
                "R1", relp, model.line_of_offset(m.start()),
                f"cuda_{m.group(1)}() call outside the GStream engine — GFlink's "
                "automatic memory management owns device allocation lifetimes"))

    # R2: host concurrency under src/.
    why = ("the simulator is single-threaded by construction; model "
           "contention with sim::Mutex/sim::Semaphore, and run whole "
           "Simulations per process for parallelism")
    for m in HOST_CONCURRENCY_INCLUDE_RE.finditer(model.code):
        findings.append((
            "R2", relp, model.line_of_offset(m.start()),
            f"#include <{m.group(1)}> — {why}"))
    for m in HOST_CONCURRENCY_RE.finditer(model.code):
        findings.append((
            "R2", relp, model.line_of_offset(m.start()),
            f"{m.group(0)} — {why}"))

    # C1: a capturing lambda that is a coroutine.
    for lam in model.lambdas:
        if lam["captures"].strip() and lam["body_co"]:
            cap = lam["captures"].replace(" ", "")
            findings.append((
                "C1", relp, lam["line"],
                f"capturing lambda [{cap}] is a coroutine — the closure object "
                "dies with the enclosing scope while the frame lives on, so "
                "every capture is read through a dangling pointer at resume; "
                "hoist the body into a named function (or static member) and "
                "pass state as parameters (PR-8 bug class)"))

    spawn = extract_spawn_sites(model)

    return {
        "rel": rel,
        "error": None,
        "findings": findings,
        "suppressions": [
            {"lines": list(s["lines"]), "rules": sorted(s["rules"]),
             "reason": s["reason"], "line": s["line"]}
            for s in model.suppressions
        ],
        "facts": {
            "coro_fns": [
                {"name": f["name"], "cls": f["cls"], "params": f["params"],
                 "line": f["line"]}
                for f in model.functions if f["is_coro"]
            ],
            "spawn_sites": spawn,
        },
    }


# ---- Global rules (over the merged facts of every file) --------------------


def build_coro_registry(results):
    reg = {}
    for r in results:
        for f in r["facts"]["coro_fns"]:
            reg.setdefault(f["name"], []).append(f)
    return reg


def resolve_spawn_callee(site, registry):
    name = site.get("callee")
    if not name:
        return None
    entries = registry.get(name, [])
    if not entries:
        return None
    mine = [e for e in entries if e["cls"] and e["cls"] == site.get("encl_cls")]
    pool = mine or [e for e in entries if e["cls"] is None] or entries
    sigs = {(e["cls"], tuple(tuple(p) for p in e["params"])) for e in pool}
    if len(sigs) > 1:
        return None  # ambiguous across the repo — skip, don't guess
    return pool[0]


def c2_param_issues(params, args):
    issues = []
    for idx, (ptype, pname) in enumerate(params):
        label = pname or f"#{idx + 1}"
        if is_dangle_prone_type(ptype):
            issues.append(
                f"parameter '{label}' has borrowing type '{ptype}' — a detached "
                "frame must own strings/buffers by value")
            continue
        if "&" in ptype and idx < len(args):
            a = args[idx].replace(" ", "")
            m = re.fullmatch(r"std::move\((.*)\)", a)
            if m:
                a = m.group(1)
            if not LVALUE_ARG_RE.match(a):
                issues.append(
                    f"reference parameter '{label}' ('{ptype}') is bound to "
                    f"temporary '{args[idx]}' — it dies with the spawn "
                    "full-expression")
    return issues


def rule_coro_detach(results):
    """C2 + C3 over every spawn site, resolved against the repo-wide
    coroutine registry."""
    registry = build_coro_registry(results)
    findings = []
    for r in results:
        relp = f"src/{r['rel']}"
        for site in r["facts"]["spawn_sites"]:
            lam = site.get("lambda")
            if lam is not None:
                if lam["is_coro"] and not lam["captures"].strip():
                    for issue in c2_param_issues(lam["params"], site["args"]):
                        findings.append((
                            "C2", relp, site["line"],
                            f"detached coroutine lambda: {issue} (PR-8 bug class)"))
                continue
            entry = resolve_spawn_callee(site, registry)
            if entry is None:
                continue
            for issue in c2_param_issues(entry["params"], site["args"]):
                findings.append((
                    "C2", relp, site["line"],
                    f"detached coroutine {entry['name']}(): {issue} "
                    "(PR-8 bug class)"))
            if (entry["cls"] and site["via"] in ("plain", "this")
                    and entry["cls"] == site.get("encl_cls")
                    and not any(k in site["stmt"] for k in KEEPALIVE_TOKENS)):
                findings.append((
                    "C3", relp, site["line"],
                    f"member coroutine {entry['cls']}::{entry['name']}() is "
                    "spawned detached with no keep-alive of 'this' in the spawn "
                    "statement — the frame captures 'this' but nothing ties the "
                    "object's lifetime to it; pass shared_from_this()/an owner "
                    "handle, or allowlist with a written lifetime argument"))
    return findings


# ---- Suppressions, SARIF, driver -------------------------------------------


def apply_suppressions(findings, supp_by_rel):
    kept = []
    for f in findings:
        rule, relp, line, _msg = f
        # Suppression hygiene (A1) is itself unsuppressible.
        if rule == "A1" or not any(
                s["reason"] and rule in s["rules"] and line in s["lines"]
                for s in supp_by_rel.get(relp, ())):
            kept.append(f)
    return kept


def rule_allow_hygiene(results):
    findings = []
    for r in results:
        for s in r["suppressions"]:
            if not s["reason"]:
                findings.append((
                    "A1", f"src/{r['rel']}", s["line"],
                    f"gflint: allow({','.join(s['rules'])}) has no justification — "
                    "write why this site is safe (allow(RULE): <reason>)"))
    return findings


def write_sarif(out_path: Path, findings, rules_run):
    rule_ids = sorted(set(rules_run) | {f[0] for f in findings} | {"A1"})
    sarif = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "gflint",
                "rules": [
                    {"id": rid,
                     "shortDescription": {"text": RULE_DESCRIPTIONS[rid]},
                     "defaultConfiguration": {"level": "error"}}
                    for rid in rule_ids
                ],
            }},
            "results": [
                {"ruleId": rule,
                 "ruleIndex": rule_ids.index(rule),
                 "level": "error",
                 "message": {"text": msg},
                 "locations": [{"physicalLocation": {
                     "artifactLocation": {"uri": relp,
                                          "uriBaseId": "%SRCROOT%"},
                     "region": {"startLine": max(line, 1)},
                 }}]}
                for (rule, relp, line, msg) in findings
            ],
        }],
    }
    out_path.write_text(json.dumps(sarif, indent=2) + "\n")


def collect_files(src: Path):
    rels = []
    for path in src.rglob("*"):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel_parts = path.relative_to(src).parts
        if any(part.startswith("build") for part in rel_parts[:-1]):
            continue  # stray in-tree build outputs are never lint subjects
        rels.append("/".join(rel_parts))
    return sorted(rels)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root (containing src/); "
                             "default: the checkout this script lives in")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated subset of rules to run (default: all)")
    parser.add_argument("--sarif", type=Path, default=None,
                        help="write findings as SARIF 2.1.0 to this path")
    args = parser.parse_args()

    src = args.root / "src"
    if not src.is_dir():
        print(f"gflint: error: no src/ directory under {args.root}", file=sys.stderr)
        return 2

    rules = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(ALL_RULES) - {"A1"}
    if unknown:
        print(f"gflint: error: unknown rule(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    files = collect_files(src)
    results = [scan_file(args.root, rel) for rel in files]

    errors = [r for r in results if r.get("error")]
    if errors:
        for r in errors:
            print(f"gflint: error: {r['error']}", file=sys.stderr)
        return 2

    findings = []
    for r in results:
        findings.extend(f for f in r["findings"] if f[0] in rules)

    global_findings = []
    if rules & {"C2", "C3"}:
        detach = rule_coro_detach(results)
        global_findings += [f for f in detach if f[0] in rules]
    global_findings += rule_allow_hygiene(results)
    findings.extend(global_findings)

    supp_by_rel = {}
    for r in results:
        if r["suppressions"]:
            supp_by_rel[f"src/{r['rel']}"] = r["suppressions"]
    findings = apply_suppressions(findings, supp_by_rel)
    findings.sort(key=lambda f: (f[1], f[2], f[0]))

    for (rule, relp, line, msg) in findings:
        loc = f"{relp}:{line}" if line else relp
        print(f"{loc}: [{rule}] {msg}")

    if args.sarif is not None:
        write_sarif(args.sarif, findings, rules)

    if findings:
        print(f"gflint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"gflint: clean ({', '.join(sorted(rules))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
