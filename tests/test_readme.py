"""README's library sketch runs as written against the current package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)         # the sketch writes mms.json
    exec(compile(library_sketch(), str(README), "exec"), {})
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert set(printed) == {"MmS", "OsIAwOracle"}
    assert all(0 < float(acc) < 1 for acc in printed.values())
    assert (tmp_path / "mms.json").is_file()
