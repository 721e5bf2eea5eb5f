"""Count the code lines of Python files: lines holding a token that is not a
comment, a blank or part of a docstring.

Usage: python tools/count_code_lines.py [PATH ...]   (default: src/nalab)

A line counts when a token other than a comment, NL, NEWLINE, INDENT or
DEDENT starts, ends or runs through it.  A statement made of string literals
alone (a module, class or function docstring, or a bare string used as a
comment) counts nothing.  The count is printed per file, then the total.
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    lines: set = set()
    statement: list = []  # the significant tokens of the current logical line
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv) -> int:
    roots = [Path(a) for a in argv] or [Path("src/nalab")]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
