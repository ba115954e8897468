"""``tools/mutants.py`` stays in step with the code it mutates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_edits_text_that_occurs_once():
    # a refactor that moves a mutant's text strands it, and the runner only
    # refuses it when that mutant is run
    mutants = _mutants()
    stale = {}
    for name, (file, old, new) in mutants.items():
        count = (ROOT / "src" / "lamina" / file).read_text().count(old)
        if count != 1 or new == old:
            stale[name] = (file, count, new == old)
    assert len(mutants) >= 30 and stale == {}
