"""Every report in the golden corpus re-renders byte for byte.

The corpus (tests/golden/corpus.json) freezes verifier and morphism
reports, duals, pullbacks and CLI output for the instances, the zoo and
seeded single-constant mutations; see tests/golden/generate.py.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).resolve().parent / "golden" / "generate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_corpus_reproduced():
    corpus = golden.load_corpus()
    cases = golden.cases()
    assert list(cases) == list(corpus)
    changed = [
        name
        for name, thunk in cases.items()
        if golden.digest(golden.render(thunk)) != corpus[name]
    ]
    assert not changed, "%d cases differ, first: %s" % (len(changed), changed[:5])


def test_generate_only_appends_new_cases(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text('{\n"a": 1,\n"b": [2]\n}\n', encoding="utf-8")
    monkeypatch.setattr(golden, "CORPUS", corpus)
    monkeypatch.setattr(golden, "cases", lambda: {"a": lambda: 1, "c": lambda: 3, "b": lambda: [2]})
    golden.main()
    assert corpus.read_text(encoding="utf-8") == '{\n"a": 1,\n"c": 3,\n"b": [2]\n}\n'
    assert "3 cases (1 new)" in capsys.readouterr().out


def test_generate_refuses_to_refreeze(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.json"
    frozen = '{\n"a": 1,\n"b": [2],\n"gone": 0\n}\n'
    corpus.write_text(frozen, encoding="utf-8")
    monkeypatch.setattr(golden, "CORPUS", corpus)
    monkeypatch.setattr(golden, "cases", lambda: {"a": lambda: 1, "b": lambda: [3], "new": lambda: 4})
    with pytest.raises(SystemExit) as exc:
        golden.main()
    assert "2 frozen cases" in str(exc.value)
    assert "\n  b\n  gone" in str(exc.value)
    assert corpus.read_text(encoding="utf-8") == frozen
