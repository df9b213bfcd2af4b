"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(lang: str, after: str) -> str:
    text = README.read_text()
    return re.search(rf"```{lang}\n(.*?)```", text[text.index(after) :], re.S).group(1)


def test_library_quick_start_on_the_model_document_example(tmp_path, monkeypatch):
    (tmp_path / "pair.json").write_text(_block("json", "## Model documents"))
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(_block("python", "## Library quick start"), scope)
    assert scope["best"].value == 7
    assert scope["value"] == 7
    assert scope["index"].value == 8
