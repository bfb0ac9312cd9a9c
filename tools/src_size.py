"""Size of the ``bfdr`` package, per module: ``wc`` lines and code lines.

A code line holds at least one token that is neither a comment nor part of
a docstring (the string that opens a module, class or function body), so
blank, comment and docstring lines are not counted. Run from the
repository root:

    python3 tools/src_size.py [package directory, default src/bfdr]
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def module_size(path: Path) -> tuple[int, int]:
    """The ``wc -l`` count and the code-line count of one source file."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _NOT_CODE:
                continue
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return text.count("\n"), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/bfdr")
    total_wc = total_code = 0
    print(f"{'module':<20} {'wc':>6} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        wc, code = module_size(path)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<20} {wc:>6} {code:>6}")
    print(f"{'total':<20} {total_wc:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
