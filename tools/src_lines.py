#!/usr/bin/env python3
"""Count the lines of each Python module under a directory as code,
docstring, comment or blank:

    python3 tools/src_lines.py [DIR]

DIR defaults to src.  A line is docstring if it lies within the first
statement of a module, class or function that is a string; else code if a
token other than a comment starts or spans it (so a line of code with a
trailing comment is code, and every line of a multi-line string that is not
a docstring is code); else comment if it holds one; else blank.  The four
counts of a module add up to its line count.  Prints one row per module,
then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}


def count(source: str) -> dict[str, int]:
    """The four line counts of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for i in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if i in doc else "code" if i in code
                else "comment" if i in comment else "blank")
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<32}" + "".join(f"{k:>10}" for k in (*KINDS, "lines")))
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(path.relative_to(root)):<32}"
              + "".join(f"{counts[k]:>10}" for k in KINDS) + f"{sum(counts.values()):>10}")
    print(f"{'total':<32}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"{sum(total.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
