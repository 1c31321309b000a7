"""The README's "Library sketch" runs as written, and each ``# value``
comment in it is the repr of what the expression on that line evaluates
to, so the documented API cannot go stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> str:
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_values():
    namespace: dict = {}
    pending: list[str] = []  # statements up to the next commented expression
    checked = []
    for line in _sketch().splitlines():
        m = re.fullmatch(r"(.*?)\s+#\s+(.*)", line)
        if not m:
            assert "#" not in line, f"unchecked comment: {line}"
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending.clear()
        expr, value = m.groups()
        assert repr(eval(expr, namespace)) == value, line
        checked.append(expr)
    exec("\n".join(pending), namespace)
    assert len(checked) >= 5
