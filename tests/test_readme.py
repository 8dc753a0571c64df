"""The README's Library tour and command-line example, run in-process."""

import re
import shlex
from pathlib import Path

from effop import tolerances
from effop.harness import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})


def _command_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip() and not line.startswith("#")]


def test_readme_command_line_example_exits_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _command_block()
    assert sum(line.startswith("effop ") for line in lines) >= 10
    for line in lines:
        words = shlex.split(line)
        if words[0] == "printf":
            # printf '<text>' > <file>; the only escape the README uses is \n
            assert words[2] == ">", line
            Path(words[3]).write_text(words[1].replace("\\n", "\n"), encoding="utf-8")
            continue
        assert words[0] == "effop", f"unexpected README command: {line}"
        assert cli.main(words[1:]) == 0, line


def test_readme_tolerance_table_lists_every_constant():
    """The table under "Conventions and tolerances" names exactly the
    upper-case constants of ``effop.tolerances``, each with its value."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Conventions and tolerances", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([A-Z_]+)` \| `([^`]+)` \|", section, flags=re.MULTILINE)
    table = {name: float(value) for name, value in rows}
    assert len(table) == len(rows), rows
    module = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert table == module
