"""One decomposition per material per command.

A ``MaterialRecord`` caches its decomposition (``record.parts``) and a split
caches the smallest eigenvalue of its Voigt matrix, so the reports on one
record, and each CLI command, split the material once.  The acoustics report
decomposes the GPa tensor once, and its Christoffel rows, scan and pure-mode
search read that one result.  Records and results compare and hash by
identity.
"""

import collections
import dataclasses

import numpy as np
import pytest

import cauchykit
from cauchykit import acoustics, constitutive, decomp, report
from cauchykit.constitutive import stability_bounds
from cauchykit.decomp import decompose, sa_split, so3_refine
from cauchykit.materials import bundled_material
from cauchykit.report import (
    acoustics_report,
    classification_report,
    decomposition_report,
    energy_report,
)
from cauchykit.tensor_core import full_to_voigt, voigt_to_full

from conftest import random_spd_voigt, random_stiffness, random_symmetric3, run_cli


@pytest.fixture
def split_calls(monkeypatch):
    """Count ``decomp.sa_split`` calls; ``decompose`` looks the name up in
    ``decomp``'s globals, so every decomposition is counted."""
    calls = []
    original = decomp.sa_split

    def counting(c):
        calls.append(1)
        return original(c)

    monkeypatch.setattr(decomp, "sa_split", counting)
    return calls


@pytest.fixture
def decomposition_calls(monkeypatch):
    """Count ``sa_split``, ``harmonic_split`` and ``so3_refine`` calls through
    every module binding of each, by name."""
    calls = collections.Counter()
    for name in ("sa_split", "harmonic_split", "so3_refine"):
        original = getattr(decomp, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (cauchykit, decomp, acoustics, constitutive, report):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


class TestOneSplitPerMaterial:
    def test_reports_on_one_record_split_it_once(self, split_calls, rng):
        record = bundled_material("W")
        decomposition_report(record)
        energy_report(record, random_symmetric3(rng, 1e-3))
        classification_report(record)
        assert len(split_calls) == 1

    @pytest.mark.parametrize("args", [
        ["decompose"],
        ["classify"],
        ["energy", "--strain", "1e-3,0,0,0,0,2e-4"],
    ])
    def test_each_cli_command_splits_once(self, split_calls, w_file, tmp_path, args):
        out = tmp_path / "report.json"
        result = run_cli(["--json", str(out), args[0], w_file, *args[1:]])
        assert result.exit_code == 0, result.output
        assert len(split_calls) == 1

    def test_acoustics_report_decomposes_once(self, decomposition_calls):
        # the --n rows, the scan and the pure-mode search all read the
        # report's one decomposition
        got, rows = acoustics_report(bundled_material("W"), 19.25,
                                     directions=[[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]],
                                     scan=200, pure_modes=True)
        assert len(rows) == 200 and len(got["acoustics"]["pure_longitudinal"]["hits"]) == 13
        assert decomposition_calls == {"sa_split": 1, "harmonic_split": 1, "so3_refine": 1}

    def test_acoustics_cli_decomposes_once(self, decomposition_calls, w_file, tmp_path):
        result = run_cli(["--json", str(tmp_path / "report.json"), "acoustics", w_file,
                          "--density", "19.25", "--n", "1,0,0", "--scan", "200",
                          "--pure-modes", "--csv", str(tmp_path / "scan.csv")])
        assert result.exit_code == 0, result.output
        assert decomposition_calls == {"sa_split": 1, "harmonic_split": 1, "so3_refine": 1}

    def test_parts_are_cached_and_read_only(self):
        record = bundled_material("Si")
        parts = record.parts
        assert parts is record.parts
        for a in (parts.split.c, parts.split.s, parts.split.a, parts.delta,
                  parts.dev_p, parts.dev_q, parts.harm_r, parts.tensor_s1):
            assert not a.flags.writeable
        assert np.array_equal(parts.split.c, record.stiffness())

    def test_stiffness_stays_fresh_and_writable(self, split_calls):
        record = bundled_material("Ge")
        first = record.stiffness()
        assert first.flags.writeable and first.flags.owndata
        first[0, 0, 0, 0] = -1.0
        assert record.stiffness()[0, 0, 0, 0] == record.voigt[0, 0]
        assert record.stiffness_gpa().flags.writeable
        # reading the tensor alone does not decompose
        assert split_calls == []
        assert record.parts.split.c[0, 0, 0, 0] == record.voigt[0, 0]

    def test_replaced_record_gets_its_own_decomposition(self):
        record = bundled_material("W")
        before = record.parts
        voigt = np.array(record.voigt)
        voigt[0, 0] *= 2.0
        changed = dataclasses.replace(record, voigt=voigt)
        assert changed.parts is not before
        assert changed.parts.split.c[0, 0, 0, 0] == 2.0 * before.split.c[0, 0, 0, 0]
        assert record.parts is before


class TestVoigtMinEigenvalue:
    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_equal_to_the_formula(self, seed):
        rng = np.random.default_rng(seed)
        spd = voigt_to_full(random_spd_voigt(rng, 3.0))
        general = random_stiffness(rng, 50.0)
        assert np.linalg.eigvalsh(full_to_voigt(general)).min() < 0
        for c in (spd, general):
            split = sa_split(c)
            expected = float(np.linalg.eigvalsh(full_to_voigt(c)).min())
            assert split.voigt_min_eigenvalue == expected
            assert "voigt_min_eigenvalue" in vars(split)
            assert stability_bounds(so3_refine(split)).voigt_min_eigenvalue == expected


class TestIdentityEquality:
    def test_array_fields_break_generated_eq_and_hash(self):
        # what a frozen dataclass with the generated __eq__/__hash__ does to
        # an array field; the three frozen types that hold arrays opt out
        Generated = dataclasses.make_dataclass(
            "Generated", [("voigt", np.ndarray)], frozen=True)
        v = np.eye(6)
        with pytest.raises(ValueError, match="ambiguous"):
            Generated(v) == Generated(v.copy())  # noqa: B015
        with pytest.raises(TypeError, match="unhashable"):
            hash(Generated(v))

    def test_records_and_results_compare_by_identity(self):
        a, b = bundled_material("W"), bundled_material("W")
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
        c = a.stiffness()
        for x, y in ((decompose(c), decompose(c)), (sa_split(c), sa_split(c))):
            assert x == x and x != y
            assert len({x, y, x}) == 2

