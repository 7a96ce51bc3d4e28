"""The README's examples run as written."""

import re
from pathlib import Path

from vortexlines.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(language: str, after: str) -> str:
    """The first fenced block of `language` after the text `after`."""
    start = README.index(after)
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.DOTALL).group(1)


def test_readme_library_quick_start_runs():
    exec(compile(_block("python", "## Library quick start"), "README.md", "exec"), {})


def test_readme_config_json_validates(tmp_path, capsys):
    text = _block("json", "A scenario config JSON mirrors")
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    assert main(["validate", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
