"""Count the code lines and the docstring and comment lines of each module
under ``src/tsirelson``, in this checkout and in a git ref.

    python scripts/src_lines.py HEAD~1

A code line holds a token of code; a docstring line lies in a string that
stands as a statement of its own (a docstring); a comment line holds a
comment and no code.  Blank lines count in neither.  The ref's files are
read with ``git show``.  Prints one row per module with both counts in the
ref and here and their net change, and a total row.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/tsirelson"

# tokens that hold no code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(source: str):
    """(code lines, docstring and comment lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstrings
    return len(code), len(docstrings | (comments - code))


def here() -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def at(ref: str) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout

    names = git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {name: git("show", f"{ref}:{PACKAGE}/{name}") for name in names if name.endswith(".py")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("ref", nargs="?", default="HEAD", help="the git ref to compare with (default HEAD)")
    args = p.parse_args(argv)
    ours, theirs = here(), at(args.ref)
    rows = []
    for name in sorted(set(ours) | set(theirs)):
        before = count(theirs[name]) if name in theirs else (0, 0)
        after = count(ours[name]) if name in ours else (0, 0)
        rows.append((name, before, after))
    rows.append(("total", *(tuple(map(sum, zip(*(r[k] for r in rows)))) for k in (1, 2))))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'code ' + args.ref:>14} {'here':>6} {'net':>6}"
          f"  {'doc ' + args.ref:>14} {'here':>6} {'net':>6}")
    for name, (code0, doc0), (code1, doc1) in rows:
        print(f"{name:<{width}}  {code0:>14} {code1:>6} {code1 - code0:>+6}"
              f"  {doc0:>14} {doc1:>6} {doc1 - doc0:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
