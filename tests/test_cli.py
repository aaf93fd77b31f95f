import pytest

from dercat import cli, mutation as mu


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.q"
    path.write_text("vertices 1\n")
    return str(path)


@pytest.mark.parametrize("which", ["delta", "table"])
def test_verify_mutation_checks_reject_single_vertex(a1_file, which, capsys):
    assert cli.main(["verify", which, "--quiver", a1_file]) == 2
    assert "at least two vertices" in capsys.readouterr().err


def test_verify_delta_gives_up_after_walk_cap(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a2.q"
    path.write_text("vertices 2\narrow 1 2\n")
    monkeypatch.setattr(mu, "admissible_splits", lambda t, canonical_only=False: [])
    assert cli.main(["verify", "delta", "--quiver", str(path), "--samples", "2"]) == 1
    assert "only 0 of 2 instances" in capsys.readouterr().err
