import json
import sys
from collections import Counter

from golden import record


def test_the_cli_prints_what_the_golden_corpus_recorded(tmp_path):
    # every case in order: the walks save the objects that later cases read
    record.prepare(tmp_path)
    cases = json.loads(record.CORPUS.read_text())
    changed = [" ".join(e["argv"]) for e in cases
               if record.run_case(e, tmp_path) != {k: e[k] for k in ("stdout", "stderr", "code")}]
    assert not changed, "%d of %d cases differ:\n%s" % (len(changed), len(cases),
                                                        "\n".join(changed))


def _memos():
    """Every lru_cache of the loaded dercat modules, by module and name."""
    return {"%s.%s" % (name, key): f for name, m in list(sys.modules.items())
            if name.startswith("dercat.") for key, f in vars(m).items()
            if hasattr(f, "cache_clear") and getattr(f, "__module__", None) == name}


def test_the_corpus_replays_from_empty_memos_and_every_memo_is_read_again(tmp_path):
    # each case from empty memos, as a fresh dercat process runs it; a memo
    # that no case reads twice costs its entries and gives nothing back
    record.prepare(tmp_path)
    hits, changed = Counter(), []
    for e in json.loads(record.CORPUS.read_text()):
        for f in _memos().values():
            f.cache_clear()
        if record.run_case(e, tmp_path) != {k: e[k] for k in ("stdout", "stderr", "code")}:
            changed.append(" ".join(e["argv"]))
        hits.update({key: f.cache_info().hits for key, f in _memos().items()})
    assert not changed, "%d cases differ:\n%s" % (len(changed), "\n".join(changed))
    # the one exception: the CLI resolves each root once (complexes.resolution
    # above it), and the indecomposables are kept for the test suite's sweeps
    assert sorted(k for k in _memos() if not hits[k]) == ["dercat.reps.indec_of_root"], hits


def test_the_golden_corpus_runs_each_command_line_once():
    argvs = [tuple(e["argv"]) for e in json.loads(record.CORPUS.read_text())]
    assert len(set(argvs)) == len(argvs)
