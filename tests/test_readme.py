"""The README's ``## Library`` code block runs as written and shows the values
it computes, so the snippet cannot drift from the library."""
import ast
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def shown_value(comment: str):
    """The value a ``# ...`` comment shows: the text after its last ``": "``,
    or the whole comment, when that text is a Python literal; else None."""
    text = comment.strip().lstrip("#").strip().rsplit(": ", 1)[-1]
    try:
        return (ast.literal_eval(text),)
    except (ValueError, SyntaxError):
        return None


def test_library_block_runs_and_shows_its_values():
    code = library_block()
    lines = code.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        shown = shown_value(lines[stmt.end_lineno - 1][stmt.end_col_offset:])
        if shown is not None:
            assert value == shown[0], ast.unparse(stmt)
            checked += 1
    assert checked == 5
