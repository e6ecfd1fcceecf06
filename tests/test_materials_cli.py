import json
import math

import numpy as np
import pytest

from cauchykit.decomp import classify, decompose
from cauchykit.materials import (
    Density,
    MaterialError,
    MaterialRecord,
    bundled_material,
    list_bundled,
    load_material,
    material_from_dict,
)
from cauchykit import decomp
from cauchykit.report import (
    acoustics_report,
    classification_report,
    decomposition_report,
    dump_json,
    energy_report,
    reconstruct_stiffness,
)
from cauchykit.tensor_core import cubic_stiffness, full_to_voigt

from conftest import run_cli

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

    def test_small_asymmetry_is_stored_symmetric(self):
        voigt = np.diag([3.0] * 3 + [1.0] * 3)
        voigt[0, 1], voigt[1, 0] = 1.0, 1.0 + 9e-9  # 3e-9 of the largest entry
        record = material_from_dict(material_doc(voigt=voigt.tolist()))
        assert np.array_equal(record.voigt, record.voigt.T)
        assert record.voigt[0, 1] == 0.5 * (1.0 + (1.0 + 9e-9))

    def test_non_numeric_voigt_entry_rejected(self):
        voigt = np.diag([3.0] * 3 + [1.0] * 3).tolist()
        voigt[2][2] = "x"
        with pytest.raises(MaterialError, match="voigt entries must be numbers"):
            material_from_dict(material_doc(voigt=voigt))

    def test_cubic_structural_zero_violation_warns(self):
        voigt = np.diag([3.0] * 3 + [1.0] * 3)
        voigt[0, 3] = voigt[3, 0] = 0.5
        record = material_from_dict(material_doc(voigt=voigt.tolist(), crystal_system="cubic"))
        assert any("expects C14 = 0" in w for w in record.warnings)

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
        doc["stiffness"]["unit"] = ["GPa"]  # unhashable
        with pytest.raises(MaterialError, match="unknown stiffness unit"):
            material_from_dict(doc)
        # the unit is reported before a missing 'voigt' entry
        del doc["stiffness"]["voigt"]
        with pytest.raises(MaterialError, match="unknown stiffness unit"):
            material_from_dict(doc)

    def test_record_rejects_unknown_stiffness_unit(self):
        w = bundled_material("W")
        with pytest.raises(MaterialError, match=r"unknown stiffness unit 'furlong'; "
                                                r"known: \['GPa', 'MPa', 'Mbar'"):
            MaterialRecord(name="x", voigt=w.voigt, stiffness_unit="furlong")
        with pytest.raises(MaterialError, match="unknown stiffness unit"):
            MaterialRecord(name="x", voigt=w.voigt, stiffness_unit=["GPa"])
        record = MaterialRecord(name="x", voigt=w.voigt, stiffness_unit="kbar")
        assert np.array_equal(record.stiffness_gpa(), 0.1 * w.stiffness())

    def test_density_checks_its_unit(self):
        with pytest.raises(MaterialError, match=r"unknown density unit 'furlong'; "
                                                r"known: \['g/cm\^3', 'kg/m\^3'\]"):
            Density(2.0, "furlong")
        with pytest.raises(MaterialError, match="unknown density unit"):
            Density(2.0, ["g/cm^3"])  # unhashable: not a TypeError
        assert Density(2330, "kg/m^3").in_g_cm3() == pytest.approx(2.33)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, -0.0, True, "2.0",
                                       10**400],
                             ids=["nan", "inf", "zero", "negative", "negative-zero", "bool",
                                  "string", "beyond-float"])
    def test_density_checks_its_value(self, value):
        with pytest.raises(MaterialError,
                           match="density value must be a finite positive number"):
            Density(value, "g/cm^3")

    def test_density_value_is_checked_before_its_unit(self):
        with pytest.raises(MaterialError, match="density value"):
            Density(math.nan, "furlong")
        doc = material_doc(density={"value": -1.0, "unit": "furlong"})
        with pytest.raises(MaterialError, match="density value"):
            material_from_dict(doc)
        density = Density(np.float32(2.5), "g/cm^3")
        assert type(density.value) is float and density.value == 2.5

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
        for unit in ("stone/ft^3", {"not": "a unit"}):
            doc = material_doc(density={"value": 2.0, "unit": unit})
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

    def test_density_integer_beyond_float_range_rejected(self, tmp_path):
        # math.isfinite(10**400) raises OverflowError, not a validation error
        doc = material_doc(density={"value": 10**400, "unit": "g/cm^3"})
        with pytest.raises(MaterialError, match="finite"):
            material_from_dict(doc)
        result = run_cli(["decompose", write_material(tmp_path, doc)])
        assert result.exit_code == 2, result.output
        assert "finite" in result.output

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
        result = run_cli(["decompose", write_material(tmp_path, doc)])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("flat", [False, True], ids=["6x6", "upper-triangle"])
    def test_all_zero_voigt_rejected(self, tmp_path, flat):
        doc = material_doc(voigt=[0] * 21 if flat else np.zeros((6, 6)).tolist())
        with pytest.raises(MaterialError, match="all zero"):
            material_from_dict(doc)
        result = run_cli(["decompose", write_material(tmp_path, doc)])
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_ingest_rejects_a_bad_tolerance(self, tmp_path, bad):
        # a cubic claim the constants break: a NaN or infinite tolerance would
        # hide the warnings, and a negative one would flag every entry
        voigt = full_to_voigt(cubic_stiffness(0.02, 0.01, 0.005))
        voigt[0, 0] *= 1.1
        doc = material_doc(voigt=voigt.tolist(), crystal_system="cubic")
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            material_from_dict(doc, tol=bad)
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            load_material(write_material(tmp_path, doc), tol=bad)

    def test_mbar_converts_to_gpa(self):
        record = bundled_material("w")
        c = record.stiffness_gpa()
        assert c[0, 0, 0, 0] == pytest.approx(522.4)


class TestReports:
    def test_voigt_min_eigenvalue_is_the_materials_own(self):
        # read off the material's own Voigt matrix, not a reassembled one
        for key in list_bundled():
            record = bundled_material(key)
            got = decomposition_report(record)["bounds"]["voigt_min_eigenvalue"]
            assert got == float(np.linalg.eigvalsh(record.voigt).min()), key

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

    @pytest.mark.parametrize("field,value", [
        ("scalar_s", float("nan")),
        ("scalar_a", float("inf")),
        ("dev_p", [[float("nan"), 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        ("dev_q", [[0.0, 0.0, 0.0], [0.0, -float("inf"), 0.0], [0.0, 0.0, 0.0]]),
        ("harm_r_voigt", np.full((6, 6), float("nan")).tolist()),
    ])
    def test_reconstruction_rejects_non_finite_field(self, field, value):
        block = dict(decomposition_report(bundled_material("w"))["decomposition"])
        block[field] = value
        with pytest.raises(ValueError, match=f"'{field}' has a non-finite entry"):
            reconstruct_stiffness(block)

    @pytest.mark.parametrize("field,value", [
        ("dev_p", np.zeros((2, 2)).tolist()),
        ("dev_q", np.zeros(9).tolist()),
        ("harm_r_voigt", np.zeros((3, 3, 3, 3)).tolist()),
    ])
    def test_reconstruction_rejects_wrong_shape(self, field, value):
        block = dict(decomposition_report(bundled_material("w"))["decomposition"])
        block[field] = value
        with pytest.raises(ValueError, match=f"'{field}' must have shape"):
            reconstruct_stiffness(block)

    @pytest.mark.parametrize("field,value", [
        ("dev_p", [[1.0, 2.0], [3.0]]),
        ("dev_q", "abc"),
        ("harm_r_voigt", 10**400),
        ("scalar_s", [1.0, 2.0]),
        ("scalar_a", 10**400),
    ], ids=["ragged", "string", "huge-int", "list-for-scalar", "huge-int-scalar"])
    def test_reconstruction_rejects_non_numbers(self, field, value):
        block = dict(decomposition_report(bundled_material("w"))["decomposition"])
        block[field] = value
        with pytest.raises(ValueError, match=f"'{field}' must hold numbers"):
            reconstruct_stiffness(block)

    @pytest.mark.parametrize("build", [decomposition_report, classification_report])
    def test_reports_reject_a_nan_tolerance(self, build):
        with pytest.raises(ValueError, match="tolerance"):
            build(bundled_material("w"), tol=float("nan"))

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

    def test_acoustics_report_takes_a_direction_array(self, tmp_path):
        record = bundled_material("w")
        for rows in ([[0.0, 0.0, 1.0]], [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]):
            paths = [tmp_path / "list.json", tmp_path / "array.json"]
            for directions, path in zip((rows, np.array(rows)), paths):
                dump_json(acoustics_report(record, 19.25, directions=directions)[0], path)
            assert paths[0].read_bytes() == paths[1].read_bytes()
        for empty in (None, [], (), np.zeros((0, 3))):
            report, _rows = acoustics_report(record, 19.25, directions=empty)
            assert "directions" not in report["acoustics"]
        for bad in ([0.0, 0.0, 1.0], np.zeros((2, 2)), np.zeros((1, 3, 1)), np.zeros((0, 2))):
            with pytest.raises(ValueError, match="shape"):
                acoustics_report(record, 19.25, directions=bad)

    def test_decomposition_block_contents(self):
        report = decomposition_report(bundled_material("w"))
        block = report["decomposition"]
        assert block["scalar_a"] == pytest.approx(1.744, abs=1e-12)
        assert np.allclose(block["dev_p"], np.zeros((3, 3)), atol=1e-13)
        assert np.allclose(block["dev_q"], np.zeros((3, 3)), atol=1e-13)
        assert block["norms"]["r_norm"] > 0
        delta = np.array(block["delta"])
        assert np.trace(delta) == pytest.approx(1.744 / 2, abs=1e-12)


# isotropic lam=2, mu=1: C11 = 4, C12 = 2, C44 = 1
ISO_VOIGT = [[4.0, 2, 2, 0, 0, 0], [2, 4.0, 2, 0, 0, 0], [2, 2, 4.0, 0, 0, 0],
             [0, 0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0]]
BOUNDS_KEYS = ["s_plus_a", "four_s_minus_five_a", "a_window_ok", "voigt_min_eigenvalue"]


class TestReportKeyOrder:
    """The key order of every report block, which reports and their readers
    rely on (JSON output is byte-stable)."""

    def test_decomposition_report(self):
        report = decomposition_report(bundled_material("w"))
        assert list(report) == ["schema_version", "material", "decomposition",
                                "classification", "bounds"]
        block = report["decomposition"]
        assert list(block) == ["scalar_s", "scalar_a", "dev_p", "dev_q", "harm_r_voigt",
                               "delta", "norms", "cauchy_factor"]
        assert list(block["norms"]) == ["cauchy_part", "non_cauchy_part", "p_norm",
                                        "q_norm", "r_norm"]
        assert list(report["bounds"]) == BOUNDS_KEYS

    def test_classification_report(self):
        report = classification_report(bundled_material("si"))
        assert list(report) == ["schema_version", "material", "classification"]
        block = report["classification"]
        assert list(block) == ["full_cauchy", "partial_cauchy", "a_sign", "scalar_a",
                               "cauchy_factor", "quadratic_invariants"]
        assert list(block["quadratic_invariants"]) == ["p_norm", "q_norm", "r_norm"]

    def test_isotropic_bounds_add_the_poisson_keys_last(self):
        record = material_from_dict(material_doc(voigt=ISO_VOIGT))
        for report in (decomposition_report(record), energy_report(record, np.eye(3))):
            assert list(report["bounds"]) == BOUNDS_KEYS + ["poisson_equiv", "poisson_ok"]

    def test_energy_report(self):
        report = energy_report(bundled_material("ge"), 1e-3 * np.eye(3))
        assert list(report) == ["schema_version", "material", "strain", "energy", "bounds"]
        block = report["energy"]
        assert list(block) == ["unit", "total", "compression", "mixed", "shear"]
        for channel in ("compression", "mixed", "shear"):
            assert list(block[channel]) == ["total", "cauchy", "non_cauchy"]
        assert list(report["bounds"]) == BOUNDS_KEYS

    def test_acoustics_report(self):
        report, _rows = acoustics_report(bundled_material("w"), 19.25,
                                         directions=[[0.0, 0.0, 1.0]], scan=10,
                                         pure_modes=True)
        assert list(report) == ["schema_version", "material", "acoustics"]
        block = report["acoustics"]
        assert list(block) == ["density_g_cm3", "velocity_unit", "directions",
                               "critical_directions", "scan", "pure_longitudinal"]
        assert list(block["directions"][0]) == [
            "n", "velocities_km_s", "squared_velocities", "polarizations",
            "longitudinal_purity", "degenerate_pairs", "causal", "sum_squared_formula",
            "pure_longitudinal_residual"]
        assert list(block["critical_directions"]) == ["eigenvalues", "directions",
                                                      "fully_degenerate", "degenerate_pairs"]
        assert list(block["scan"]) == ["count", "non_causal_count"]
        pure = block["pure_longitudinal"]
        assert list(pure) == ["all_directions_pure", "seeds", "morse", "certified", "axis",
                              "hits"]
        assert list(pure["morse"]) == ["max", "min", "saddle", "family"]
        assert pure["hits"]
        for hit in pure["hits"]:
            assert list(hit) == ["direction", "kind", "residual", "velocity_km_s"]


def write_material(tmp_path, doc, name="mat.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestCli:
    def test_decompose_and_json_output(self, tmp_path, w_file):
        out = tmp_path / "report.json"
        result = run_cli(["--json", str(out), "decompose", w_file])
        assert result.exit_code == 0, result.output
        assert "scalar A: 1.744" in result.output
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["classification"]["a_sign"] == "positive"

    def test_classify_command(self, w_file):
        result = run_cli(["classify", w_file])
        assert result.exit_code == 0
        assert "A+" in result.output

    def test_energy_command(self, tmp_path):
        doc = material_doc()
        # isotropic lam=2, mu=1 in Voigt form: C11 = 4, C12 = 2, C44 = 1
        voigt = [[4.0, 2, 2, 0, 0, 0], [2, 4.0, 2, 0, 0, 0], [2, 2, 4.0, 0, 0, 0],
                 [0, 0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0]]
        path = write_material(tmp_path, material_doc(voigt=voigt))
        result = run_cli(["energy", path, "--strain", "1,1,1,0,0,0"])
        assert result.exit_code == 0, result.output
        assert "total: 12" in result.output
        assert "cauchy 10" in result.output

    def test_energy_bad_strain_exits_2(self, tmp_path):
        path = write_material(tmp_path, material_doc())
        result = run_cli(["energy", path, "--strain", "1,2,3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("with_json", [False, True], ids=["text", "json"])
    def test_energy_non_finite_strain_exits_2(self, tmp_path, w_file, bad, with_json):
        out = tmp_path / "energy.json"
        args = (["--json", str(out)] if with_json else []) + [
            "energy", w_file, "--strain", f"{bad},0,0,0,0,0"]
        result = run_cli(args)
        assert result.exit_code == 2, result.output
        assert "must be finite" in result.output
        assert not out.exists()

    def test_not_a_number_exits_2(self, w_file):
        for args in (["energy", w_file, "--strain", "1,x,0,0,0,0"],
                     ["acoustics", w_file, "--n", "1,y,0", "--density", "19.25"]):
            result = run_cli(args)
            assert result.exit_code == 2, result.output
            assert "not a number" in result.output

    def test_unwritable_outputs_exit_3(self, tmp_path, w_file):
        missing = tmp_path / "missing"
        result = run_cli(["--json", str(missing / "r.json"), "classify", w_file])
        assert result.exit_code == 3, result.output
        assert "cannot write" in result.output
        result = run_cli(["acoustics", w_file, "--density", "19.25", "--scan", "150",
                          "--csv", str(missing / "scan.csv")])
        assert result.exit_code == 3, result.output
        assert "cannot write" in result.output

    def test_acoustics_with_nothing_to_do_exits_2(self, w_file):
        result = run_cli(["acoustics", w_file, "--density", "19.25"])
        assert result.exit_code == 2, result.output
        assert "nothing to do" in result.output

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_tol_must_be_finite(self, w_file, bad):
        result = run_cli(["--tol", bad, "classify", w_file])
        assert result.exit_code == 2
        assert "--tol must be finite and nonnegative" in result.output

    def test_acoustics_single_direction(self, w_file):
        result = run_cli(["acoustics", w_file, "--n", "0,0,1", "--density", "19.25"])
        assert result.exit_code == 0, result.output
        v_l = math.sqrt(522.4 / 19.25)
        v_s = math.sqrt(160.8 / 19.25)
        assert f"{v_l:.6f}" in result.output
        assert f"{v_s:.6f}" in result.output

    def test_acoustics_requires_density(self, w_file):
        result = run_cli(["acoustics", w_file, "--n", "0,0,1"])
        assert result.exit_code == 2
        assert "density" in result.output

    def test_acoustics_negative_density_exits_2(self, w_file):
        result = run_cli(["acoustics", w_file, "--n", "0,0,1", "--density", "-2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_acoustics_non_finite_density_exits_2(self, w_file, rho):
        result = run_cli(["acoustics", w_file, "--n", "0,0,1", "--density", rho])
        assert result.exit_code == 2
        assert "finite and positive" in result.output

    def test_acoustics_non_finite_direction_exits_2(self, w_file):
        result = run_cli(["acoustics", w_file, "--n", "nan,0,1", "--density", "19.25"])
        assert result.exit_code == 2

    def test_acoustics_zero_direction_exits_2(self, w_file):
        result = run_cli(["acoustics", w_file, "--n", "0,0,0", "--density", "19.25"])
        assert result.exit_code == 2
        assert "--n must be a nonzero finite vector" in result.output

    @pytest.mark.parametrize("spec, same_as", [
        ("1e200,1e200,0", "1,1,0"),
        ("1e154,1e154,1e154", "1,1,1"),
        ("1e-160,1e-160,0", "1,1,0"),
    ])
    def test_acoustics_direction_of_extreme_size(self, tmp_path, w_file, spec, same_as):
        # |v|^2 overflows or underflows; the direction still normalizes
        out = tmp_path / "report.json"
        outputs = []
        for n in (spec, same_as):
            result = run_cli(["--json", str(out), "acoustics", w_file, "--n", n,
                              "--density", "19.25"])
            assert result.exit_code == 0, result.output
            outputs.append((result.output, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_acoustics_direction_is_v_over_its_norm(self, tmp_path, w_file):
        # an ordinary vector is not rescaled first, which would change last bits
        out = tmp_path / "report.json"
        result = run_cli(["--json", str(out), "acoustics", w_file, "--n", "0.3,-0.2,0.9",
                          "--density", "19.25"])
        assert result.exit_code == 0, result.output
        v = np.array([0.3, -0.2, 0.9])
        n = json.loads(out.read_text())["acoustics"]["directions"][0]["n"]
        assert n == (v / float(np.linalg.norm(v))).tolist()

    def test_acoustics_isotropic_direction_independent(self, tmp_path):
        voigt = [[4.0, 2, 2, 0, 0, 0], [2, 4.0, 2, 0, 0, 0], [2, 2, 4.0, 0, 0, 0],
                 [0, 0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0]]
        path = write_material(
            tmp_path, material_doc(voigt=voigt, density={"value": 1.0,
                                                         "unit": "g/cm^3"}))
        result = run_cli(["acoustics", path, "--n", "0,0,1", "--n", "0.6,0,0.8",
                          "--n", "1,1,1"])
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l.startswith("n = ")]
        velocities = {l.split("v = ")[1] for l in lines}
        assert len(lines) == 3
        assert len(velocities) == 1

    def test_acoustics_scan_csv(self, tmp_path, w_file):
        csv_path = tmp_path / "scan.csv"
        result = run_cli(["acoustics", w_file, "--scan", "200", "--density", "19.25",
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
        result = run_cli(["acoustics", w_file, "--scan", "1500", "--density", "19.25",
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
        result = run_cli(["--json", str(out), "acoustics", path, "--density", "3",
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
            result = run_cli(["--json", str(out), "acoustics", w_file,
                              "--density", "19.25", *scan, "--pure-modes"])
            assert result.exit_code == 0, result.output
            assert "pure longitudinal directions: 13 (4 max, 3 min, 6 saddle, " \
                   "0 family; certified)" in result.output
            blocks.append(json.dumps(json.loads(out.read_text(encoding="utf-8"))[
                "acoustics"]["pure_longitudinal"]))
        assert blocks[0] == blocks[1]
        block = json.loads(blocks[0])
        assert list(block) == ["all_directions_pure", "seeds", "morse", "certified", "axis",
                               "hits"]
        assert block["seeds"] == len(block["hits"]) == 13 and block["certified"] is True
        assert block["axis"] is None
        assert block["morse"] == {"max": 4, "min": 3, "saddle": 6, "family": 0}
        assert sorted(h["kind"] for h in block["hits"]) == ["max"] * 4 + ["min"] * 3 \
            + ["saddle"] * 6

    def test_acoustics_pure_modes_isotropic(self, tmp_path):
        voigt = [[4.0, 2, 2, 0, 0, 0], [2, 4.0, 2, 0, 0, 0], [2, 2, 4.0, 0, 0, 0],
                 [0, 0, 0, 1.0, 0, 0], [0, 0, 0, 0, 1.0, 0], [0, 0, 0, 0, 0, 1.0]]
        path = write_material(
            tmp_path, material_doc(voigt=voigt, density={"value": 1.0,
                                                         "unit": "g/cm^3"}))
        result = run_cli(["acoustics", path, "--scan", "300", "--pure-modes"])
        assert result.exit_code == 0, result.output
        assert "all directions pure" in result.output

    def test_acoustics_pure_modes_transversely_isotropic(self, tmp_path):
        # one hit per set: the c-axis, the basal ring and the cone at 31.5 degrees
        voigt = [[400.0, 140, 120, 0, 0, 0], [140, 400.0, 120, 0, 0, 0],
                 [120, 120, 350.0, 0, 0, 0], [0, 0, 0, 100.0, 0, 0],
                 [0, 0, 0, 0, 100.0, 0], [0, 0, 0, 0, 0, 130.0]]
        path = write_material(tmp_path, material_doc(voigt=voigt))
        out = tmp_path / "report.json"
        result = run_cli(["--json", str(out), "acoustics", path, "--density", "4",
                          "--pure-modes"])
        assert result.exit_code == 0, result.output
        assert "pure longitudinal directions: 3 (1 max, 0 min, 0 saddle, " \
               "2 family; certified)" in result.output
        block = json.loads(out.read_text(encoding="utf-8"))["acoustics"]["pure_longitudinal"]
        assert block["seeds"] == 0 and block["certified"] is True
        assert block["axis"] == [0.0, 0.0, 1.0] == block["hits"][0]["direction"]
        assert [h["kind"] for h in block["hits"]] == ["max", "family", "family"]

    def test_missing_file_exits_3(self):
        result = run_cli(["decompose", "/nonexistent/m.json"])
        assert result.exit_code == 3

    def test_malformed_json_exits_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        result = run_cli(["decompose", str(path)])
        assert result.exit_code == 3

    def test_validation_failure_exits_2(self, tmp_path):
        voigt = np.diag([3.0] * 3 + [1.0] * 3)
        voigt[0, 1] = 1.0
        path = write_material(tmp_path, material_doc(voigt=voigt.tolist()))
        result = run_cli(["decompose", path])
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
        lenient = run_cli(["decompose", path])
        assert lenient.exit_code == 0
        assert "C66" not in lenient.output
        tight = run_cli(["--tol", "1e-9", "decompose", path])
        assert tight.exit_code == 0
        assert "C66" in tight.output

    def test_strict_mode_rejects_unknown_fields(self, tmp_path):
        path = write_material(tmp_path, material_doc(comment="x"))
        lenient = run_cli(["decompose", path])
        assert lenient.exit_code == 0
        strict = run_cli(["--strict", "decompose", path])
        assert strict.exit_code == 2

    def test_scan_too_small_rejected(self, w_file):
        result = run_cli(["acoustics", w_file, "--scan", "50", "--density", "19.25"])
        assert result.exit_code == 2

    def test_csv_requires_scan(self, w_file, tmp_path):
        result = run_cli(["acoustics", w_file, "--density", "19.25", "--n", "0,0,1",
                          "--csv", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    def test_csv_bytes_deterministic(self, tmp_path, w_file):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            result = run_cli(["acoustics", w_file, "--scan", "150", "--density", "19.25",
                              "--csv", str(p)])
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_non_causal_modes_reported_not_dropped(self, tmp_path):
        # indefinite stiffness: negative squared velocities along every axis
        voigt = np.diag([1.0, 1.0, 1.0, -0.5, -0.5, -0.5]).tolist()
        out = tmp_path / "report.json"
        csv_path = tmp_path / "scan.csv"
        path = write_material(tmp_path, material_doc(voigt=voigt))
        result = run_cli(["--json", str(out), "acoustics", path, "--density", "1.0",
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
