import json

import numpy as np
import pytest

import majorep as mj
from majorep import serialize


class TestStateDocuments:
    def test_symmetric_roundtrip(self, rng):
        s = mj.random_symmetric_state(5, rng)
        doc = serialize.state_to_dict(s)
        assert doc["basis"] == "dicke"
        back = serialize.state_from_dict(json.loads(json.dumps(doc)))
        assert isinstance(back, mj.SymmetricState)
        assert back.distance(s) <= 1e-12

    def test_full_roundtrip(self, rng):
        f = mj.random_full_state(3, rng)
        doc = serialize.state_to_dict(f)
        assert doc["basis"] == "computational"
        back = serialize.state_from_dict(doc)
        assert isinstance(back, mj.FullState)
        assert np.allclose(back.amp, f.amp)

    def test_missing_field(self):
        with pytest.raises(serialize.FormatError):
            serialize.state_from_dict({"n": 2, "re": [1, 0, 0]})

    def test_non_integral_qubit_count_rejected(self):
        with pytest.raises(serialize.FormatError, match="integer"):
            serialize.state_from_dict({"n": 2.7, "basis": "dicke", "re": [1, 0, 0], "im": [0, 0, 0]})

    def test_integral_float_qubit_count_accepted(self):
        doc = {"n": 2.0, "basis": "dicke", "re": [1, 0, 0], "im": [0, 0, 0]}
        assert serialize.state_from_dict(doc).n == 2

    def test_re_im_shape_mismatch_rejected(self):
        with pytest.raises(serialize.FormatError, match="shapes"):
            serialize.state_from_dict({"n": 2, "basis": "dicke", "re": [1, 0, 0], "im": [0]})

    def test_unknown_basis(self):
        with pytest.raises(serialize.FormatError):
            serialize.state_from_dict({"n": 1, "basis": "fock", "re": [1, 0], "im": [0, 0]})


class TestConstellationDocuments:
    def test_roundtrip(self, rng):
        s = mj.random_symmetric_state(6, rng)
        const = mj.majorana_points(s)
        back = serialize.constellation_from_dict(serialize.constellation_to_dict(const))
        assert back.matched_distance(const) <= 1e-10
        rebuilt = mj.state_from_constellation(back)
        assert rebuilt.distance(s) <= 1e-8

    def test_infinity_encoded_as_pi(self):
        const = mj.majorana_points(mj.dicke_state(3, 2))
        doc = serialize.constellation_to_dict(const)
        betas = sorted(p["beta"] for p in doc["points"])
        assert betas[-1] == pytest.approx(np.pi)

    def test_csv_columns(self):
        const = mj.majorana_points(mj.ghz_state(3))
        lines = serialize.constellation_to_csv(const).strip().splitlines()
        assert lines[0] == "alpha,beta,multiplicity"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 3 for line in lines[1:])


    def test_non_integral_multiplicity_rejected(self):
        doc = {"n": 2, "points": [{"alpha": 0.0, "beta": 0.0, "mult": 1.5},
                                  {"alpha": 0.0, "beta": 3.0, "mult": 0.5}]}
        with pytest.raises(serialize.FormatError, match="'mult'"):
            serialize.constellation_from_dict(doc)


class TestDensityDocuments:
    def test_roundtrip_both_bases(self, rng):
        s = mj.random_symmetric_state(5, rng)
        for dm in (mj.rdm_symmetric(s, 2), mj.rdm_full(mj.expand_to_full(s), (1, 3))):
            back = serialize.density_from_dict(serialize.density_to_dict(dm))
            assert back.basis == dm.basis
            assert back.k == dm.k
            assert np.allclose(back.mat, dm.mat)

    def test_dim_mismatch_detected(self, rng):
        doc = serialize.density_to_dict(mj.rdm_symmetric(mj.random_symmetric_state(4, rng), 2))
        doc["dim"] = 7
        with pytest.raises(serialize.FormatError):
            serialize.density_from_dict(doc)


    def test_non_integral_k_rejected(self, rng):
        doc = serialize.density_to_dict(mj.rdm_symmetric(mj.random_symmetric_state(4, rng), 2))
        doc["k"] = 2.5
        with pytest.raises(serialize.FormatError, match="'k'"):
            serialize.density_from_dict(doc)

    def test_non_finite_entry_rejected(self, rng):
        doc = serialize.density_to_dict(mj.rdm_symmetric(mj.random_symmetric_state(4, rng), 2))
        doc["re"][1][2] = float("inf")
        with pytest.raises(serialize.FormatError, match="non-finite"):
            serialize.density_from_dict(doc)


class TestReportDocuments:
    def test_configuration_dict(self):
        config = mj.classify(mj.ghz_state(4))
        doc = serialize.configuration_to_dict(config)
        assert doc == {"mults": [1, 1, 1, 1], "diversity": 4, "label": "D_{1,1,1,1}"}

    def test_report_dict(self):
        report = mj.geometric_measure(mj.ghz_state(3))
        doc = serialize.report_to_dict(report)
        assert doc["eg"] == pytest.approx(0.5, abs=1e-6)
        assert {"alpha", "beta"} <= set(doc["cpps"][0])
