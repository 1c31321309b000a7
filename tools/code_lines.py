"""Print the code lines of each module in src/overpart and their total.

A code line holds at least one token that is not a comment and not part
of a docstring; blank lines never count.  Run: python tools/code_lines.py
"""
import ast
import io
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return len({t.start[0] for t in tokens if t.type not in SKIP} - docs)


counts = {p.name: code_lines(p.read_text()) for p in
          sorted(pathlib.Path(__file__).parent.parent.joinpath("src", "overpart").glob("*.py"))}
print("\n".join(f"{n:6d}  {name}" for name, n in counts.items()) + f"\n{sum(counts.values()):6d}  total")
