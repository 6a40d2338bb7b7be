"""Count code lines in Python sources: lines that hold a token other
than a comment, a docstring or layout, by the standard tokenize module.

    python3 tools/loc.py        # run from the repository root

A docstring is a string literal that forms a statement of its own.  A
line counts once however many tokens it holds; a multi-line token other
than a docstring counts every line it spans.  Prints the total over
src/memwave.
"""

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    lines = set()
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in LAYOUT - {tokenize.NEWLINE}]
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        starts = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        ends = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and starts and ends:
            continue                                    # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    print(sum(code_lines(f) for f in Path("src/memwave").rglob("*.py")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
