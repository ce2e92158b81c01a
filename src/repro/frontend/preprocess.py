"""Minimal OpenCL-C preprocessor.

Responsibilities:

1. strip comments;
2. evaluate ``#define`` / ``#undef`` / ``#ifdef`` / ``#ifndef`` /
   ``#else`` / ``#endif`` (object-like macros only) and merge
   host-supplied ``-D``-style definitions;
3. translate OpenCL address-space qualifiers into C99 qualifiers that
   pycparser preserves in the AST (``__global`` -> ``volatile``,
   ``__local`` -> ``_Atomic``, ``__constant`` -> ``volatile const``),
   recording that this translation happened;
4. find ``__kernel`` entry points (OpenCL kernels return ``void``);
5. prepend the prelude typedefs of the OpenCL type names the kernel
   uses, so pycparser accepts them, then a ``#line 1`` marker so
   diagnostics carry the kernel's own line numbers.

The output is plain C99 text suitable for :mod:`pycparser` plus the list
of kernel names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.frontend.errors import FrontendError

#: qualifier translation table (OpenCL -> C99 marker qualifiers)
QUAL_MAP = {
    "__global": "volatile",
    "__local": "_Atomic",
    "__constant": "volatile const",
    "__private": "",
    "__read_only": "",
    "__write_only": "",
}

#: prelude typedefs — names only; the lowering resolves semantics itself.
#: A kernel gets only the lines whose type name it uses.
PRELUDE = """
typedef unsigned long size_t;
typedef unsigned char uchar;
typedef unsigned short ushort;
typedef unsigned int uint;
typedef unsigned long ulong;
typedef float float2;
typedef float float3;
typedef float float4;
typedef float float8;
typedef float float16;
typedef int int2;
typedef int int4;
typedef unsigned int uint2;
typedef unsigned int uint4;
typedef double double2;
typedef double double4;
"""

PRELUDE_DEFINES = {
    "CLK_LOCAL_MEM_FENCE": "1",
    "CLK_GLOBAL_MEM_FENCE": "2",
    "NULL": "0",
    "M_PI_F": "3.14159274101257f",
}

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: type name -> its prelude typedef line
_PRELUDE_TYPEDEFS = {
    line.split()[-1].rstrip(";"): line for line in PRELUDE.strip().splitlines()
}
_KERNEL_RE = re.compile(r"\b(?:__kernel|kernel)\b\s+(?:\w+\s+)*?void\s+([A-Za-z_]\w*)\s*\(")


@dataclass
class PreprocessResult:
    text: str
    kernel_names: List[str]
    macros: Dict[str, str] = field(default_factory=dict)


def strip_comments(src: str) -> str:
    """Remove // and /* */ comments, preserving line structure."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "/" and i + 1 < n and src[i + 1] == "/":
            j = src.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and src[i + 1] == "*":
            j = src.find("*/", i + 2)
            if j < 0:
                raise FrontendError("unterminated block comment")
            out.append("\n" * src.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            # copy string/char literal verbatim
            quote = c
            j = i + 1
            while j < n:
                if src[j] == "\\":
                    j += 2
                    continue
                if src[j] == quote:
                    break
                j += 1
            out.append(src[i : j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


@dataclass
class FuncMacro:
    """A function-like macro: ``#define AS(i, j) As[(i)*BS + (j)]``."""

    params: List[str]
    body: str


def _find_call(line: str, name: str, start: int = 0):
    """Locate ``name(...)`` at a token boundary; returns
    (name_start, args, end_index) or None."""
    pos = start
    while True:
        i = line.find(name, pos)
        if i < 0:
            return None
        before = line[i - 1] if i > 0 else " "
        after_idx = i + len(name)
        if before.isalnum() or before == "_":
            pos = i + 1
            continue
        j = after_idx
        while j < len(line) and line[j].isspace():
            j += 1
        if j >= len(line) or line[j] != "(":
            pos = i + 1
            continue
        # scan balanced parens, splitting top-level commas
        depth = 0
        args: List[str] = []
        cur: List[str] = []
        k = j
        while k < len(line):
            ch = line[k]
            if ch == "(":
                depth += 1
                if depth == 1:
                    k += 1
                    continue
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(cur).strip())
                    return (i, args, k + 1)
            elif ch == "," and depth == 1:
                args.append("".join(cur).strip())
                cur = []
                k += 1
                continue
            cur.append(ch)
            k += 1
        raise FrontendError(f"unbalanced parentheses in macro call {name!r}")


def _expand_func_macros(line: str, funcs: Dict[str, FuncMacro]) -> str:
    for _ in range(32):
        changed = False
        for name, macro in funcs.items():
            hit = _find_call(line, name)
            if hit is None:
                continue
            i, args, end = hit
            if len(args) != len(macro.params) and not (
                len(macro.params) == 0 and args == [""]
            ):
                raise FrontendError(
                    f"macro {name} expects {len(macro.params)} argument(s), "
                    f"got {len(args)}"
                )
            body = macro.body
            for p, a in zip(macro.params, args):
                body = re.sub(rf"\b{re.escape(p)}\b", f"({a})", body)
            line = line[:i] + f"({body})" + line[end:]
            changed = True
        if not changed:
            return line
    raise FrontendError(f"macro expansion did not converge on line: {line!r}")


def _expand_macros(
    line: str,
    macros: Dict[str, str],
    funcs: Optional[Dict[str, FuncMacro]] = None,
) -> str:
    """Repeatedly substitute macros (token-boundary aware)."""
    if funcs:
        line = _expand_func_macros(line, funcs)
    for _ in range(32):
        changed = False

        def sub(m: "re.Match[str]") -> str:
            nonlocal changed
            name = m.group(0)
            if name in macros:
                changed = True
                return macros[name]
            return name

        line = _TOKEN_RE.sub(sub, line)
        if funcs:
            line = _expand_func_macros(line, funcs)
        if not changed:
            return line
    raise FrontendError(f"macro expansion did not converge on line: {line!r}")


def run_directives(src: str, defines: Optional[Dict[str, object]] = None) -> Tuple[str, Dict[str, str]]:
    """Process # directives and expand object-like macros."""
    macros: Dict[str, str] = dict(PRELUDE_DEFINES)
    funcs: Dict[str, FuncMacro] = {}
    for k, v in (defines or {}).items():
        macros[k] = str(v)

    out_lines: List[str] = []
    # conditional-inclusion stack: each entry is (taking, seen_else)
    stack: List[List[bool]] = []

    def active() -> bool:
        return all(s[0] for s in stack)

    # join continued lines
    src = src.replace("\\\n", " ")

    for raw in src.split("\n"):
        stripped = raw.strip()
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("define"):
                if active():
                    rest = body[len("define") :].strip()
                    m = re.match(r"([A-Za-z_]\w*)(\(.*?\))?\s*(.*)", rest)
                    if not m:
                        raise FrontendError(f"malformed #define: {raw!r}")
                    name, params, repl = m.groups()
                    if params:
                        plist = [
                            p.strip()
                            for p in params[1:-1].split(",")
                            if p.strip()
                        ]
                        funcs[name] = FuncMacro(plist, repl.strip())
                    else:
                        macros[name] = _expand_macros(repl.strip(), macros)
            elif body.startswith("undef"):
                if active():
                    target = body[len("undef") :].strip()
                    macros.pop(target, None)
                    funcs.pop(target, None)
            elif body.startswith("ifdef"):
                name = body[len("ifdef") :].strip()
                stack.append([name in macros, False])
            elif body.startswith("ifndef"):
                name = body[len("ifndef") :].strip()
                stack.append([name not in macros, False])
            elif body.startswith("if "):
                # constant-expression #if: resolve defined(X) *before*
                # macro expansion, then expand the remaining names
                expr = re.sub(
                    r"\bdefined\s*\(\s*(\w+)\s*\)",
                    lambda m: "1" if m.group(1) in macros else "0",
                    body[3:].strip(),
                )
                expr = _expand_macros(expr, macros)
                try:
                    val = bool(eval(expr, {"__builtins__": {}}, {}))
                except Exception as exc:
                    raise FrontendError(f"cannot evaluate #if {expr!r}: {exc}") from exc
                stack.append([val, False])
            elif body.startswith("else"):
                if not stack or stack[-1][1]:
                    raise FrontendError("#else without matching #if")
                stack[-1][0] = not stack[-1][0]
                stack[-1][1] = True
            elif body.startswith("endif"):
                if not stack:
                    raise FrontendError("#endif without matching #if")
                stack.pop()
            elif body.startswith("pragma") or body.startswith("include"):
                pass  # ignored
            else:
                raise FrontendError(f"unsupported preprocessor directive: {raw!r}")
            out_lines.append("")  # keep line numbering
            continue
        if active():
            out_lines.append(_expand_macros(raw, macros, funcs))
        else:
            out_lines.append("")

    if stack:
        raise FrontendError("unterminated #if/#ifdef")
    return "\n".join(out_lines), macros


def translate_qualifiers(src: str) -> str:
    """Map OpenCL address-space qualifiers onto C99 marker qualifiers."""

    def sub(m: "re.Match[str]") -> str:
        return QUAL_MAP[m.group(0)]

    src = re.sub(r"\b(?:%s)\b" % "|".join(QUAL_MAP), sub, src)
    # __kernel / kernel markers are recorded separately; strip them here
    # (the bare form only when it clearly marks an entry point).
    src = re.sub(r"\b(?:__kernel|__attribute__\s*\(\(.*?\)\))\b", "", src)
    src = re.sub(r"\bkernel\b(?=\s+void\b)", "", src)
    return src


def find_kernels(src: str) -> List[str]:
    return _KERNEL_RE.findall(src)


def preprocess(source: str, defines: Optional[Dict[str, object]] = None) -> PreprocessResult:
    """Full preprocessing pipeline; returns C99 text ready for pycparser."""
    text = strip_comments(source)
    text, macros = run_directives(text, defines)
    kernels = find_kernels(text)
    if not kernels:
        raise FrontendError(
            "no __kernel entry point found (kernels must be '__kernel void name(...)')"
        )
    text = translate_qualifiers(text)
    used = set(_TOKEN_RE.findall(text))
    prelude = [line for name, line in _PRELUDE_TYPEDEFS.items() if name in used]
    return PreprocessResult(
        text="\n".join(prelude + ["#line 1", text]),
        kernel_names=kernels,
        macros=macros,
    )
