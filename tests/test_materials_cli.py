import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from cauchykit.cli import main
from cauchykit.decomp import classify, decompose
from cauchykit.materials import (
    MaterialError,
    bundled_material,
    list_bundled,
    load_material,
    material_from_dict,
)
from cauchykit import decomp
from cauchykit.report import (
    classification_report,
    decomposition_report,
    dump_json,
    energy_report,
    reconstruct_stiffness,
)
from cauchykit.tensor_core import cubic_stiffness, full_to_voigt

EXPECTED_SIGNS = {
    "alsb": "positive", "inp": "positive", "inas": "positive",
    "w": "positive", "mo": "positive",
    "c": "negative", "si": "negative", "ge": "negative",
    "ir": "negative", "cr": "negative",
}


def material_doc(voigt=None, **overrides):
    if voigt is None:
        voigt = np.diag([3.0, 3.0, 3.0, 1.0, 1.0, 1.0]).tolist()
    doc = {
        "schema_version": "1",
        "name": "synthetic",
        "stiffness": {"unit": "GPa", "voigt": voigt},
    }
    doc.update(overrides)
    return doc


class TestLoadMaterial:
    def test_bundled_tungsten_values(self):
        record = bundled_material("w")
        assert record.name == "W"
        assert record.voigt[0, 0] == 5.224
        assert record.stiffness_unit == "Mbar"
        assert record.density is None
        assert record.crystal_system == "cubic"
        assert record.warnings == ()

    def test_all_bundled_materials_classify_with_table_sign(self):
        assert len(list_bundled()) == 10
        for key in list_bundled():
            record = bundled_material(key)
            assert classify(decompose(record.stiffness())).a_sign == EXPECTED_SIGNS[key], key

    def test_asymmetric_voigt_rejected_with_pair(self):
        voigt = np.diag([3.0] * 3 + [1.0] * 3)
        voigt[0, 1] = 1.0  # (1,2) without the mirror entry
        with pytest.raises(MaterialError, match=r"\(1, 2\)"):
            material_from_dict(material_doc(voigt=voigt.tolist()))

    def test_hexagonal_c66_violation_warns(self):
        voigt = np.zeros((6, 6))
        voigt[0, 0] = voigt[1, 1] = 4.0
        voigt[2, 2] = 3.5
        voigt[0, 1] = voigt[1, 0] = 1.4
        voigt[0, 2] = voigt[2, 0] = voigt[1, 2] = voigt[2, 1] = 1.2
        voigt[3, 3] = voigt[4, 4] = 1.0
        voigt[5, 5] = 0.9  # should be (4.0 - 1.4) / 2 = 1.3
        record = material_from_dict(
            material_doc(voigt=voigt.tolist(), crystal_system="hexagonal"))
        assert any("C66" in w for w in record.warnings)

    def test_consistent_hexagonal_has_no_warnings(self):
        voigt = np.zeros((6, 6))
        voigt[0, 0] = voigt[1, 1] = 4.0
        voigt[2, 2] = 3.5
        voigt[0, 1] = voigt[1, 0] = 1.4
        voigt[0, 2] = voigt[2, 0] = voigt[1, 2] = voigt[2, 1] = 1.2
        voigt[3, 3] = voigt[4, 4] = 1.0
        voigt[5, 5] = 1.3
        record = material_from_dict(
            material_doc(voigt=voigt.tolist(), crystal_system="hexagonal"))
        assert record.warnings == ()

    def test_trigonal_quartz_structure_accepted(self):
        # alpha-quartz, GPa: C24 = -C14 and C56 = C14 are allowed nonzeros
        c11, c12, c13, c14, c33, c44 = 86.80, 7.04, 11.91, -18.04, 105.75, 58.20
        voigt = np.zeros((6, 6))
        voigt[0, 0] = voigt[1, 1] = c11
        voigt[0, 1] = c12
        voigt[0, 2] = voigt[1, 2] = c13
        voigt[2, 2] = c33
        voigt[3, 3] = voigt[4, 4] = c44
        voigt[5, 5] = 0.5 * (c11 - c12)
        voigt[0, 3] = c14
        voigt[1, 3] = -c14
        voigt[4, 5] = c14
        voigt = voigt + np.triu(voigt, 1).T
        record = material_from_dict(
            material_doc(voigt=voigt.tolist(), crystal_system="trigonal"))
        assert record.warnings == ()
        # breaking the C56 = C14 tie must warn
        broken = voigt.copy()
        broken[4, 5] = broken[5, 4] = 5.0
        record = material_from_dict(
            material_doc(voigt=broken.tolist(), crystal_system="trigonal"))
        assert any("C14" in w and "C56" in w for w in record.warnings)

    def test_unknown_stiffness_unit(self):
        doc = material_doc()
        doc["stiffness"]["unit"] = "psi"
        with pytest.raises(MaterialError, match="unknown stiffness unit"):
            material_from_dict(doc)

    def test_unknown_field_strict_vs_lenient(self):
        doc = material_doc(comment="hello")
        record = material_from_dict(doc)
        assert any("comment" in w for w in record.warnings)
        with pytest.raises(MaterialError, match="unknown field"):
            material_from_dict(doc, strict=True)

    def test_upper_triangle_form(self):
        upper = [4.0, 1.2, 1.2, 0, 0, 0,
                 4.0, 1.2, 0, 0, 0,
                 4.0, 0, 0, 0,
                 1.1, 0, 0,
                 1.1, 0,
                 1.1]
        record = material_from_dict(material_doc(voigt=upper))
        assert record.voigt[0, 0] == 4.0
        assert record.voigt[1, 2] == 1.2
        assert record.voigt[5, 5] == 1.1

    def test_density_validation(self):
        doc = material_doc(density={"value": -1.0, "unit": "g/cm^3"})
        with pytest.raises(MaterialError, match="positive"):
            material_from_dict(doc)
        doc = material_doc(density={"value": 2.0, "unit": "stone/ft^3"})
        with pytest.raises(MaterialError, match="unknown density unit"):
            material_from_dict(doc)
        record = material_from_dict(
            material_doc(density={"value": 2330.0, "unit": "kg/m^3"}))
        assert record.density.in_g_cm3() == pytest.approx(2.33)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_material(tmp_path / "nope.json")

    def test_malformed_json_raises_decode_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            load_material(bad)

    def test_nan_entries_rejected(self):
        voigt = np.diag([3.0] * 3 + [1.0] * 3)
        voigt[0, 0] = float("nan")
        with pytest.raises(MaterialError, match="finite"):
            material_from_dict(material_doc(voigt=voigt.tolist()))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_upper_triangle_rejected(self, bad):
        upper = [4.0, 1.2, 1.2, 0, 0, 0, 4.0, 1.2, 0, 0, 0, 4.0, 0, 0, 0,
                 1.1, 0, 0, 1.1, 0, 1.1]
        upper[3] = bad
        with pytest.raises(MaterialError, match="finite"):
            material_from_dict(material_doc(voigt=upper))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_density_rejected(self, tmp_path, bad):
        doc = material_doc(density={"value": bad, "unit": "g/cm^3"})
        with pytest.raises(MaterialError, match="finite"):
            material_from_dict(doc)
        # json writes NaN / Infinity literals, which the parser accepts
        with pytest.raises(MaterialError, match="finite"):
            load_material(write_material(tmp_path, doc))

    @pytest.mark.parametrize("flat", [False, True], ids=["6x6", "upper-triangle"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, flat):
        voigt = np.diag([3.0] * 3 + [1.0] * 3)
        payload = voigt[np.triu_indices(6)].tolist() if flat else voigt.tolist()
        if flat:
            payload[0] = 10**400
        else:
            payload[0][0] = 10**400
        doc = material_doc(voigt=payload)
        with pytest.raises(MaterialError, match="finite"):
            material_from_dict(doc)
        result = CliRunner().invoke(main, ["decompose", write_material(tmp_path, doc)])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("flat", [False, True], ids=["6x6", "upper-triangle"])
    def test_all_zero_voigt_rejected(self, tmp_path, flat):
        doc = material_doc(voigt=[0] * 21 if flat else np.zeros((6, 6)).tolist())
        with pytest.raises(MaterialError, match="all zero"):
            material_from_dict(doc)
        result = CliRunner().invoke(main, ["decompose", write_material(tmp_path, doc)])
        assert result.exit_code == 2, result.output
        assert "all zero" in result.output

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_asymmetry_tolerance_is_relative(self, scale):
        voigt = full_to_voigt(cubic_stiffness(0.02, 0.01, 0.005)) * scale
        voigt[0, 1] += 5e-9 * scale  # 25 times the 1e-8 relative tolerance
        with pytest.raises(MaterialError, match="asymmetric"):
            material_from_dict(material_doc(voigt=voigt.tolist()))

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_crystal_system_tolerance_is_relative(self, scale):
        voigt = full_to_voigt(cubic_stiffness(0.02, 0.01, 0.005)) * scale
        voigt[0, 0] += 5e-7 * scale  # 25 times the 1e-6 relative tolerance
        record = material_from_dict(
            material_doc(voigt=voigt.tolist(), crystal_system="cubic"))
        assert any("C11, C22, C33" in w for w in record.warnings)

    def test_mbar_converts_to_gpa(self):
        record = bundled_material("w")
        c = record.stiffness_gpa()
        assert c[0, 0, 0, 0] == pytest.approx(522.4)


class TestReports:
    def test_reports_are_deterministic(self, tmp_path):
        record = bundled_material("w")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(decomposition_report(record), p1)
        dump_json(decomposition_report(record), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reconstruction_fixed_point(self):
        record = bundled_material("si")
        report = decomposition_report(record)
        c2 = reconstruct_stiffness(report["decomposition"])
        assert np.allclose(full_to_voigt(c2), record.voigt, atol=1e-12)
        report2 = decomposition_report(
            material_from_dict({
                "schema_version": "1",
                "name": record.name,
                "stiffness": {"unit": record.stiffness_unit,
                              "voigt": full_to_voigt(c2).tolist()},
            })
        )
        d1, d2 = report["decomposition"], report2["decomposition"]
        assert d1["scalar_s"] == pytest.approx(d2["scalar_s"], rel=1e-12)
        assert d1["scalar_a"] == pytest.approx(d2["scalar_a"], rel=1e-12)
        assert np.allclose(d1["harm_r_voigt"], d2["harm_r_voigt"], atol=1e-12)

    def test_report_floats_survive_json_round_trip(self, tmp_path):
        record = bundled_material("ge")
        report = decomposition_report(record)
        path = tmp_path / "r.json"
        dump_json(report, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["decomposition"]["scalar_a"] == report["decomposition"][
            "scalar_a"]
        assert loaded["classification"]["a_sign"] == "negative"

    def test_triclinic_fixed_point(self):
        rng = np.random.default_rng(7)
        voigt = rng.uniform(-1.0, 1.0, (6, 6))
        voigt = 0.5 * (voigt + voigt.T)
        record = material_from_dict(
            material_doc(voigt=voigt.tolist(), crystal_system="triclinic"))
        report = decomposition_report(record)
        c2 = reconstruct_stiffness(report["decomposition"])
        assert np.allclose(full_to_voigt(c2), voigt, atol=1e-13)

    @pytest.mark.parametrize("build", [
        decomposition_report,
        classification_report,
        lambda record: energy_report(record, 1e-3 * np.eye(3)),
    ], ids=["decomposition", "classification", "energy"])
    def test_each_report_decomposes_once(self, monkeypatch, build):
        calls = {"sa_split": 0, "so3_refine": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(decomp, name, counted(name, getattr(decomp, name)))
        build(bundled_material("w"))
        assert calls == {"sa_split": 1, "so3_refine": 1}

    def test_decomposition_block_contents(self):
        report = decomposition_report(bundled_material("w"))
        block = report["decomposition"]
        assert block["scalar_a"] == pytest.approx(1.744, abs=1e-12)
        assert np.allclose(block["dev_p"], np.zeros((3, 3)), atol=1e-13)
        assert np.allclose(block["dev_q"], np.zeros((3, 3)), atol=1e-13)
        assert block["norms"]["r_norm"] > 0
        delta = np.array(block["delta"])
        assert np.trace(delta) == pytest.approx(1.744 / 2, abs=1e-12)


def write_material(tmp_path, doc, name="mat.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def w_file(tmp_path):
    return write_material(tmp_path, json.loads(
        (__import__("importlib").resources.files("cauchykit") / "data" / "w.json")
        .read_text()))


class TestCli:
    def test_decompose_and_json_output(self, tmp_path, w_file):
        out = tmp_path / "report.json"
        runner = CliRunner()
        result = runner.invoke(main, ["--json", str(out), "decompose", w_file])
        assert result.exit_code == 0, result.output
        assert "scalar A: 1.744" in result.output
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["classification"]["a_sign"] == "positive"

    def test_classify_command(self, w_file):
        result = CliRunner().invoke(main, ["classify", w_file])
        assert result.exit_code == 0
        assert "A+" in result.output

    def test_energy_command(self, tmp_path):
        doc = material_doc()
        # isotropic lam=2, mu=1 in Voigt form: C11 = 4, C12 = 2, C44 = 1
        voigt = [[4.0, 2, 2, 0, 0, 0], [2, 4.0, 2, 0, 0, 0], [2, 2, 4.0, 0, 0, 0],
                 [0, 0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0]]
        path = write_material(tmp_path, material_doc(voigt=voigt))
        result = CliRunner().invoke(
            main, ["energy", path, "--strain", "1,1,1,0,0,0"])
        assert result.exit_code == 0, result.output
        assert "total: 12" in result.output
        assert "cauchy 10" in result.output

    def test_energy_bad_strain_exits_2(self, tmp_path):
        path = write_material(tmp_path, material_doc())
        result = CliRunner().invoke(main, ["energy", path, "--strain", "1,2,3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("with_json", [False, True], ids=["text", "json"])
    def test_energy_non_finite_strain_exits_2(self, tmp_path, w_file, bad, with_json):
        out = tmp_path / "energy.json"
        args = (["--json", str(out)] if with_json else []) + [
            "energy", w_file, "--strain", f"{bad},0,0,0,0,0"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "must be finite" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_tol_must_be_finite(self, w_file, bad):
        result = CliRunner().invoke(main, ["--tol", bad, "classify", w_file])
        assert result.exit_code == 2
        assert "--tol must be finite and nonnegative" in result.output

    def test_acoustics_single_direction(self, w_file):
        result = CliRunner().invoke(
            main, ["acoustics", w_file, "--n", "0,0,1", "--density", "19.25"])
        assert result.exit_code == 0, result.output
        v_l = math.sqrt(522.4 / 19.25)
        v_s = math.sqrt(160.8 / 19.25)
        assert f"{v_l:.6f}" in result.output
        assert f"{v_s:.6f}" in result.output

    def test_acoustics_requires_density(self, w_file):
        result = CliRunner().invoke(main, ["acoustics", w_file, "--n", "0,0,1"])
        assert result.exit_code == 2
        assert "density" in result.output

    def test_acoustics_negative_density_exits_2(self, w_file):
        result = CliRunner().invoke(
            main, ["acoustics", w_file, "--n", "0,0,1", "--density", "-2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_acoustics_non_finite_density_exits_2(self, w_file, rho):
        result = CliRunner().invoke(
            main, ["acoustics", w_file, "--n", "0,0,1", "--density", rho])
        assert result.exit_code == 2
        assert "finite and positive" in result.output

    def test_acoustics_non_finite_direction_exits_2(self, w_file):
        result = CliRunner().invoke(
            main, ["acoustics", w_file, "--n", "nan,0,1", "--density", "19.25"])
        assert result.exit_code == 2

    def test_acoustics_isotropic_direction_independent(self, tmp_path):
        voigt = [[4.0, 2, 2, 0, 0, 0], [2, 4.0, 2, 0, 0, 0], [2, 2, 4.0, 0, 0, 0],
                 [0, 0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0]]
        path = write_material(
            tmp_path, material_doc(voigt=voigt, density={"value": 1.0,
                                                         "unit": "g/cm^3"}))
        result = CliRunner().invoke(
            main, ["acoustics", path, "--n", "0,0,1", "--n", "0.6,0,0.8",
                   "--n", "1,1,1"])
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l.startswith("n = ")]
        velocities = {l.split("v = ")[1] for l in lines}
        assert len(lines) == 3
        assert len(velocities) == 1

    def test_acoustics_scan_csv(self, tmp_path, w_file):
        csv_path = tmp_path / "scan.csv"
        result = CliRunner().invoke(
            main, ["acoustics", w_file, "--scan", "200", "--density", "19.25",
                   "--csv", str(csv_path)])
        assert result.exit_code == 0, result.output
        lines = csv_path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "nx,ny,nz,v1,v2,v3,purity_L,degenerate_flag"
        assert len(lines) == 202  # header + 200 rows + trailing newline
        row = lines[1].split(",")
        assert len(row) == 8
        n = np.array([float(row[0]), float(row[1]), float(row[2])])
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
        assert row[7] in {"0", "1"}
        assert "200 directions, 0 non-causal" in result.output

    def test_acoustics_pure_modes_cubic(self, w_file):
        result = CliRunner().invoke(
            main, ["acoustics", w_file, "--scan", "1500", "--density", "19.25",
                   "--pure-modes"])
        assert result.exit_code == 0, result.output
        assert "pure longitudinal directions: 13" in result.output
        assert "(+1.000000, +0.000000, +0.000000)" in result.output
        body = 1.0 / math.sqrt(3.0)
        assert f"(+{body:.6f}, +{body:.6f}, +{body:.6f})" in result.output

    def test_acoustics_non_causal_pure_hit_is_null(self, tmp_path):
        b = np.random.default_rng(0).uniform(-1, 1, (6, 6))
        voigt = (0.5 * (b + b.T) + np.diag([0.3] * 3 + [0.5] * 3)) * 100
        path = write_material(tmp_path, material_doc(voigt=voigt.tolist()))
        out = tmp_path / "report.json"
        result = CliRunner().invoke(
            main, ["--json", str(out), "acoustics", path, "--density", "3",
                   "--scan", "1000", "--pure-modes"])
        assert result.exit_code == 0, result.output
        hits = json.loads(out.read_text(encoding="utf-8"))[
            "acoustics"]["pure_longitudinal"]["hits"]
        velocities = [h["velocity_km_s"] for h in hits]
        assert None in velocities and 0.0 not in velocities
        flagged = [line for line in result.output.splitlines() if "[non-causal]" in line]
        assert len(flagged) == velocities.count(None)
        assert all("v_L = nan km/s" in line for line in flagged)

    def test_acoustics_pure_modes_independent_of_scan(self, tmp_path, w_file):
        blocks = []
        for scan in (["--scan", "200"], []):
            out = tmp_path / "report.json"
            result = CliRunner().invoke(
                main, ["--json", str(out), "acoustics", w_file, "--density", "19.25",
                       *scan, "--pure-modes"])
            assert result.exit_code == 0, result.output
            assert "pure longitudinal directions: 13 (4 max, 3 min, 6 saddle, " \
                   "0 family; certified)" in result.output
            blocks.append(json.dumps(json.loads(out.read_text(encoding="utf-8"))[
                "acoustics"]["pure_longitudinal"]))
        assert blocks[0] == blocks[1]
        block = json.loads(blocks[0])
        assert list(block) == ["all_directions_pure", "seeds", "morse", "certified", "hits"]
        assert block["seeds"] == 100 and block["certified"] is True
        assert block["morse"] == {"max": 4, "min": 3, "saddle": 6, "family": 0}
        assert sorted(h["kind"] for h in block["hits"]) == ["max"] * 4 + ["min"] * 3 \
            + ["saddle"] * 6

    def test_acoustics_pure_modes_isotropic(self, tmp_path):
        voigt = [[4.0, 2, 2, 0, 0, 0], [2, 4.0, 2, 0, 0, 0], [2, 2, 4.0, 0, 0, 0],
                 [0, 0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0]]
        path = write_material(
            tmp_path, material_doc(voigt=voigt, density={"value": 1.0,
                                                         "unit": "g/cm^3"}))
        result = CliRunner().invoke(
            main, ["acoustics", path, "--scan", "300", "--pure-modes"])
        assert result.exit_code == 0, result.output
        assert "all directions pure" in result.output

    def test_missing_file_exits_3(self):
        result = CliRunner().invoke(main, ["decompose", "/nonexistent/m.json"])
        assert result.exit_code == 3

    def test_malformed_json_exits_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        result = CliRunner().invoke(main, ["decompose", str(path)])
        assert result.exit_code == 3

    def test_validation_failure_exits_2(self, tmp_path):
        voigt = np.diag([3.0] * 3 + [1.0] * 3)
        voigt[0, 1] = 1.0
        path = write_material(tmp_path, material_doc(voigt=voigt.tolist()))
        result = CliRunner().invoke(main, ["decompose", path])
        assert result.exit_code == 2

    def test_tol_flag_controls_system_warnings(self, tmp_path):
        voigt = np.zeros((6, 6))
        voigt[0, 0] = voigt[1, 1] = 4.0
        voigt[2, 2] = 3.5
        voigt[0, 1] = voigt[1, 0] = 1.4
        voigt[0, 2] = voigt[2, 0] = voigt[1, 2] = voigt[2, 1] = 1.2
        voigt[3, 3] = voigt[4, 4] = 1.0
        voigt[5, 5] = 1.3 + 4e-7 * 4.0  # violation between 1e-9 and 1e-6
        path = write_material(
            tmp_path, material_doc(voigt=voigt.tolist(),
                                   crystal_system="hexagonal"))
        lenient = CliRunner().invoke(main, ["decompose", path])
        assert lenient.exit_code == 0
        assert "C66" not in lenient.output
        tight = CliRunner().invoke(main, ["--tol", "1e-9", "decompose", path])
        assert tight.exit_code == 0
        assert "C66" in tight.output

    def test_strict_mode_rejects_unknown_fields(self, tmp_path):
        path = write_material(tmp_path, material_doc(comment="x"))
        lenient = CliRunner().invoke(main, ["decompose", path])
        assert lenient.exit_code == 0
        strict = CliRunner().invoke(main, ["--strict", "decompose", path])
        assert strict.exit_code == 2

    def test_scan_too_small_rejected(self, w_file):
        result = CliRunner().invoke(
            main, ["acoustics", w_file, "--scan", "50", "--density", "19.25"])
        assert result.exit_code == 2

    def test_csv_requires_scan(self, w_file, tmp_path):
        result = CliRunner().invoke(
            main, ["acoustics", w_file, "--density", "19.25", "--n", "0,0,1",
                   "--csv", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    def test_csv_bytes_deterministic(self, tmp_path, w_file):
        runner = CliRunner()
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            result = runner.invoke(
                main, ["acoustics", w_file, "--scan", "150",
                       "--density", "19.25", "--csv", str(p)])
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_non_causal_modes_reported_not_dropped(self, tmp_path):
        # indefinite stiffness: negative squared velocities along every axis
        voigt = np.diag([1.0, 1.0, 1.0, -0.5, -0.5, -0.5]).tolist()
        out = tmp_path / "report.json"
        csv_path = tmp_path / "scan.csv"
        path = write_material(tmp_path, material_doc(voigt=voigt))
        result = CliRunner().invoke(
            main, ["--json", str(out), "acoustics", path, "--density", "1.0",
                   "--n", "0,0,1", "--scan", "150", "--csv", str(csv_path)])
        assert result.exit_code == 0, result.output
        assert "[non-causal]" in result.output
        count = int(result.output.split(" directions, ")[1].split(" non-causal")[0])
        assert count > 0
        assert ",nan" in csv_path.read_text(encoding="utf-8")
        report = json.loads(out.read_text(encoding="utf-8"))
        entry = report["acoustics"]["directions"][0]
        assert not entry["causal"]
        assert None in entry["velocities_km_s"]
        assert report["acoustics"]["scan"]["non_causal_count"] == count
