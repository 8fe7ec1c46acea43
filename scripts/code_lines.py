"""Count the code lines of each module of src/possibly and in total.

A code line is a line that a token other than a comment spans; a string
that stands alone as a statement (a docstring) is not code, so docstrings,
comments and blank lines are left out. Run from anywhere:

    python scripts/code_lines.py
"""

from __future__ import annotations

import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "possibly"

# tokens that end, indent or comment a line, and carry no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines = set()
    before = None  # the last token that was not a comment or NL
    for token, after in zip(tokens, tokens[1:] + [None]):
        if token.type in (tokenize.COMMENT, tokenize.NL):
            continue
        docstring = (token.type == tokenize.STRING
                     and before in _STATEMENT_START
                     and after.type in (tokenize.NEWLINE, tokenize.COMMENT))
        before = token.type
        if token.type not in _LAYOUT and not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main()
