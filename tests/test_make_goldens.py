"""`tests/make_goldens.py` regenerates every golden byte for byte, and writes nothing when a request crashes."""
import filecmp
import os

import make_goldens

HERE = os.path.dirname(os.path.abspath(__file__))


def test_regenerated_goldens_and_inputs_equal_the_committed_ones(tmp_path, capsys):
    assert make_goldens.main(str(tmp_path)) == 0
    assert capsys.readouterr().out.count("exit=") == 41
    outs = sorted(f for f in os.listdir(tmp_path / "goldens") if f.endswith(".out"))
    assert len(outs) == len(make_goldens.CASES) == 41
    for sub, names in (("goldens", outs + ["manifest.json"]), ("data", [f"{n}.json" for n, _, _ in make_goldens.CASES])):
        match, mismatch, errors = filecmp.cmpfiles(os.path.join(HERE, sub), tmp_path / sub, names, shallow=False)
        assert (mismatch, errors) == ([], []), sub
        assert len(match) == len(names)


def test_a_crashing_request_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(make_goldens, "SRC", str(tmp_path / "no-such-src"))
    monkeypatch.setenv("PYTHONPATH", "")
    assert make_goldens.main(str(tmp_path)) == 1
    assert "ModuleNotFoundError" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
