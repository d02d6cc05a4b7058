from pathlib import Path


def test_readme_library_tour():
    # Every line of the README's Python tour runs; a line with a comment is
    # an expression whose printed value is that comment.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library tour", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    shown = 0
    for line in block.splitlines():
        code, sep, comment = line.partition("  # ")
        if sep:
            assert str(eval(code, namespace)) == comment.strip(), line
            shown += 1
        elif line.strip():
            exec(line, namespace)
    assert shown == 4
