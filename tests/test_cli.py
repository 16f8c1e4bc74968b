import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import majorep as mj
from majorep import serialize
from majorep.cli import main


def run(capsys, argv, stdin_doc=None, monkeypatch=None):
    if stdin_doc is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_doc)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestGen:
    def test_ghz(self, capsys):
        code, out = run(capsys, ["gen", "ghz", "--n", "3"])
        assert code == 0
        state = serialize.state_from_dict(json.loads(out))
        assert state.distance(mj.ghz_state(3)) <= 1e-12

    def test_dicke_requires_l(self, capsys):
        code, _ = run(capsys, ["gen", "dicke", "--n", "3"])
        assert code == 2

    def test_dicke_bad_index_is_numerical_error(self, capsys):
        code, _ = run(capsys, ["gen", "dicke", "--n", "3", "--l", "7"])
        assert code == 3

    def test_dnk(self, capsys):
        code, out = run(capsys, ["gen", "dnk", "--n", "5", "--k", "2", "--d0", "0.6", "--d1", "0.8"])
        assert code == 0
        state = serialize.state_from_dict(json.loads(out))
        assert state.distance(mj.dnk_state(5, 2, 0.6, 0.8)) <= 1e-12

    def test_random_seeded_deterministic(self, capsys):
        _, out1 = run(capsys, ["gen", "random", "--n", "4", "--seed", "5"])
        _, out2 = run(capsys, ["gen", "random", "--n", "4", "--seed", "5"])
        assert out1 == out2

    def test_gdicke_from_file(self, capsys, tmp_path):
        coeffs = {
            "alphas": {"re": [1.0, 1.0], "im": [0.0, 0.0]},
            "a": [
                {"re": [1.0], "im": [0.0]},
                {"re": [1.0, 0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]},
            ],
        }
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(coeffs))
        code, out = run(capsys, ["gen", "gdicke", "--n", "4", "--k", "1", "--coeffs", str(path)])
        assert code == 0
        state = serialize.state_from_dict(json.loads(out))
        assert isinstance(state, mj.FullState)


class TestPipeline:
    def test_classify_from_stdin(self, capsys, monkeypatch):
        doc = serialize.state_to_dict(mj.ghz_state(3))
        code, out = run(capsys, ["classify"], stdin_doc=doc, monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith("D_{1,1,1}")

    def test_points_csv(self, capsys, monkeypatch, tmp_path):
        doc = serialize.state_to_dict(mj.dicke_state(3, 2))
        csv_path = tmp_path / "points.csv"
        code, out = run(
            capsys, ["points", "--csv", str(csv_path)], stdin_doc=doc, monkeypatch=monkeypatch
        )
        assert code == 0
        const = serialize.constellation_from_dict(json.loads(out))
        assert const.multiplicities == (2, 1)
        assert csv_path.read_text().startswith("alpha,beta,multiplicity")

    def test_rotate_preserves_family(self, capsys, monkeypatch):
        doc = serialize.state_to_dict(mj.dicke_state(4, 1))
        code, out = run(
            capsys, ["rotate", "--euler", "0.4", "1.0", "0.2"],
            stdin_doc=doc, monkeypatch=monkeypatch,
        )
        assert code == 0
        state = serialize.state_from_dict(json.loads(out))
        assert mj.classify(state).mults == (3, 1)

    def test_ilo_eta_to_ghz(self, capsys, monkeypatch, eta_state):
        doc = serialize.state_to_dict(eta_state)
        omega = np.exp(2j * np.pi / 3)

        def fmt(z):
            return f"{z.real}{z.imag:+}j"

        matrix = f"1,{fmt(omega)},1,{fmt(omega**2)}"
        code, out = run(capsys, ["ilo", "--matrix", matrix], stdin_doc=doc, monkeypatch=monkeypatch)
        assert code == 0
        state = serialize.state_from_dict(json.loads(out))
        assert mj.fidelity(state, mj.ghz_state(3)) >= 1 - 1e-9

    def test_rdm_and_reconstruct(self, capsys, tmp_path):
        state_doc = serialize.state_to_dict(mj.dnk_state(4, 1, 0.6, 0.8))
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(state_doc))

        code, out = run(capsys, ["rdm", str(state_path), "--keep", "1,2,3"])
        assert code == 0
        (tmp_path / "ra.json").write_text(out)
        code, out = run(capsys, ["rdm", str(state_path), "--keep", "2,3,4"])
        assert code == 0
        (tmp_path / "rb.json").write_text(out)

        code, out = run(
            capsys, ["reconstruct", str(tmp_path / "ra.json"), str(tmp_path / "rb.json")]
        )
        assert code == 0
        state = serialize.state_from_dict(json.loads(out))
        assert mj.fidelity(state, mj.expand_to_full(mj.dnk_state(4, 1, 0.6, 0.8))) >= 1 - 1e-8

    def test_reconstruct_ghz_prints_ambiguous(self, capsys, tmp_path):
        doc = serialize.state_to_dict(mj.ghz_state(4))
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        _, out = run(capsys, ["rdm", str(path), "--keep", "1,2,3"])
        (tmp_path / "a.json").write_text(out)
        capsys.readouterr()
        _, out = run(capsys, ["rdm", str(path), "--keep", "2,3,4"])
        (tmp_path / "b.json").write_text(out)
        code, out = run(capsys, ["reconstruct", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 0
        assert out.strip() == "AMBIGUOUS"

    def test_reconstruct_needs_no_optimizer(self, tmp_path):
        full = mj.expand_to_full(mj.dnk_state(5, 2, 0.6, 0.8))
        for name, keep in (("a.json", (1, 2, 3, 4)), ("b.json", (2, 3, 4, 5))):
            doc = serialize.density_to_dict(mj.rdm_full(full, keep))
            (tmp_path / name).write_text(json.dumps(doc))
        script = (
            "import sys\n"
            "from majorep.cli import main\n"
            f"code = main(['reconstruct', {str(tmp_path / 'a.json')!r}, "
            f"{str(tmp_path / 'b.json')!r}])\n"
            "assert code == 0, code\n"
            "assert 'scipy.optimize' not in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        state = serialize.state_from_dict(json.loads(proc.stdout))
        assert mj.fidelity(state, full) >= 1 - 1e-8

    def test_entangle(self, capsys, monkeypatch):
        doc = serialize.state_to_dict(mj.ghz_state(3))
        code, out = run(capsys, ["entangle"], stdin_doc=doc, monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["eg"] == pytest.approx(0.5, abs=1e-6)

    def test_landscape_rows(self, capsys, monkeypatch):
        doc = serialize.state_to_dict(mj.ghz_state(3))
        code, out = run(capsys, ["landscape", "--grid", "8"], stdin_doc=doc, monkeypatch=monkeypatch)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta,F"
        assert len(lines) == 1 + 8 * 8

    def test_falsify(self, capsys, monkeypatch, eta_state):
        doc = serialize.state_to_dict(eta_state)
        code, out = run(
            capsys, ["falsify", "--marginals", "1,2;1,3", "--restarts", "16"],
            stdin_doc=doc, monkeypatch=monkeypatch,
        )
        assert code == 0
        matches = json.loads(out)["matches"]
        assert len(matches) == 1


class TestExitCodes:
    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        code, _ = run(capsys, ["classify", str(path)])
        assert code == 2

    def test_schema_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "basis": "dicke", "re": [1.0]}))
        code, _ = run(capsys, ["classify", str(path)])
        assert code == 2

    def test_non_integral_qubit_count(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2.7, "basis": "dicke", "re": [1, 0, 0],
                                    "im": [0, 0, 0]}))
        code, out = run(capsys, ["classify", str(path)])
        assert code == 2
        assert out == ""

    def test_nan_amplitude_named_without_warning(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "basis": "dicke", "re": [NaN, 1, 0], "im": [0, 0, 0]}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["classify", str(path)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert caught == []

    def test_table1_passes(self, capsys):
        code, out = run(capsys, ["table1"])
        assert code == 0
        lines = [line for line in out.strip().splitlines() if line]
        assert len(lines) == 8
        assert all(line.startswith("PASS") for line in lines)
