"""Every report in the golden corpus re-renders byte for byte.

The corpus (tests/golden/corpus.json) freezes verifier and morphism
reports, duals, pullbacks and CLI output for the instances, the zoo and
seeded single-constant mutations; see tests/golden/generate.py.
"""

import importlib.util
from pathlib import Path

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
