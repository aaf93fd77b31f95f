import json

from golden import record


def test_the_cli_prints_what_the_golden_corpus_recorded(tmp_path):
    # every case in order: the walks save the objects that later cases read
    record.prepare(tmp_path)
    cases = json.loads(record.CORPUS.read_text())
    changed = [" ".join(e["argv"]) for e in cases
               if record.run_case(e, tmp_path) != {k: e[k] for k in ("stdout", "stderr", "code")}]
    assert not changed, "%d of %d cases differ:\n%s" % (len(changed), len(cases),
                                                        "\n".join(changed))


def test_the_golden_corpus_runs_each_command_line_once():
    argvs = [tuple(e["argv"]) for e in json.loads(record.CORPUS.read_text())]
    assert len(set(argvs)) == len(argvs)
