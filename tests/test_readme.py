"""The README's library example runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The one python block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_example_runs(capsys):
    source = library_example()
    exec(compile(source, str(README), "exec"), {"__name__": "readme_library_example"})
    # the example's last line prints the series and states the printed text in its comment
    (printed,) = re.findall(r"^print\(closed\)  # (.*) \(graded order\)$", source, re.M)
    assert capsys.readouterr().out == printed + "\n"
