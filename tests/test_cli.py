"""Command-line driver: exit codes, usage errors, deterministic JSON
reports, config files, and report merging."""

import hashlib
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import yangkit.cli as climod
from yangkit import (build_lie, casimir, closure, rtt_relations, yangian,
                     z_series)
from yangkit.exact import TruncSeries
from yangkit.freealg import NCPoly
from yangkit.cli import main


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, out


def write_failing_merge_inputs(directory):
    """a.json, a passing rmatrix report, and b.json, the same report with
    its status set to "fail"; report-merge of the two exits 1."""
    a = directory / "a.json"
    assert main(["verify", "--family", "sl", "--n", "2", "--suite",
                 "rmatrix", "--output", str(a)]) == 0
    rep = json.loads(a.read_text())
    rep["status"] = "fail"
    (directory / "b.json").write_text(json.dumps(rep))


FAILING_MERGE_DIGEST = (
    "949f53500162ddc37083202369d09595132cec8c6daabbd04671134a7a920e79")


class TestUsageErrors:
    def test_sp_odd_n(self, capsys):
        assert main(["verify", "--family", "sp", "--n", "3",
                     "--suite", "classical"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_suite(self):
        assert main(["verify", "--family", "sl", "--n", "2",
                     "--suite", "nonsense"]) == 2

    def test_qdet_needs_sl(self):
        assert main(["qdet", "--family", "so", "--n", "3",
                     "--len", "2", "--sumr", "2"]) == 2

    def test_symmetry_needs_sosp(self):
        assert main(["verify", "--family", "sl", "--n", "2",
                     "--len", "2", "--sumr", "2",
                     "--suite", "symmetry"]) == 2

    def test_missing_bounds(self):
        assert main(["verify", "--family", "sl", "--n", "2",
                     "--suite", "pbw"]) == 2

    @pytest.mark.parametrize("bad", [None, "{", "[]"],
                             ids=["missing", "malformed", "list"])
    def test_unreadable_merge_input(self, tmp_path, capsys, bad):
        """report-merge of a missing file, malformed JSON or a JSON list
        exits 2 and writes nothing, like an unreadable --config."""
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"status": "pass"}))
        path = tmp_path / "bad.json"
        if bad is not None:
            path.write_text(bad)
        out = tmp_path / "merged.json"
        assert main(["report-merge", str(good), str(path),
                     "--output", str(out)]) == 2
        assert not out.exists()
        assert "usage error" in capsys.readouterr().err

    def test_bounds_too_large(self, capsys):
        assert main(["build", "--family", "sl", "--n", "2",
                     "--len", "12", "--sumr", "12"]) == 3
        assert "bounds too large" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        ("verify --family sl --n 1 --suite classical", "N >= 2 required"),
        ("verify --family sl --n 2 --order 1 --suite classical",
         "order K >= 2 required"),
        ("verify --family sl --n 2 --len 0 --sumr 2 --suite rtt",
         "len bound must be positive"),
        ("verify --family sl --n 2 --len 2 --sumr 1 --suite rtt",
         "sumr bound must be >= 2"),
        ("verify --family so --n 3 --len 2 --sumr 2 --suite qdet",
         "suite qdet applies to sl only"),
        ("verify --family sl --n 2 --suite ,", "suite must be nonempty"),
        ("verify --n 2 --suite classical", "--family is required"),
        ("verify --family sl --suite classical", "--n is required"),
        ("qdet --family sl --n 2", "qdet needs --len and --sumr"),
    ], ids=["n", "order", "len", "sumr", "qdet-suite", "empty-suite",
            "no-family", "no-n", "qdet-bounds"])
    def test_guard_message(self, capsys, argv, message):
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", "usage error: %s\n" % message)

    def test_unknown_family_in_config(self, tmp_path, capsys):
        # --family is limited by the parser; a config file reaches RunConfig
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "su", "N": 2,
                                   "suite": ["classical"]}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "usage error: family must be one of sl, so, sp\n")


class TestVerify:
    def test_pass_and_schema(self, tmp_path):
        code, rep, _ = run(tmp_path, "r.json",
                           ["verify", "--family", "sl", "--n", "2",
                            "--order", "3", "--len", "2", "--sumr", "3",
                            "--suite", "rtt,pbw"])
        assert code == 0
        assert rep["schema"] == 1
        assert rep["status"] == "pass"
        assert {c["check"] for c in rep["checks"]} == \
            {"rtt_closure", "pbw_extended", "pbw_quotient"}

    def test_default_suite_is_classical_rmatrix(self, capsys):
        assert main(["verify", "--family", "sl", "--n", "2"]) == 0
        default = capsys.readouterr().out
        assert main(["verify", "--family", "sl", "--n", "2", "--suite",
                     "classical,rmatrix"]) == 0
        assert capsys.readouterr().out == default

    def test_one_casimir_data_per_command(self, monkeypatch):
        built = []
        real = climod.casimir
        monkeypatch.setattr(climod, "casimir",
                            lambda *a: built.append(a) or real(*a))
        assert main(["verify", "--family", "sl", "--n", "3", "--suite",
                     "classical,rmatrix"]) == 0
        assert len(built) == 1

    def test_byte_identical_reports(self, tmp_path):
        argv = ["verify", "--family", "sl", "--n", "2", "--order", "3",
                "--len", "2", "--sumr", "3", "--suite", "rtt",
                "--seed", "11"]
        _, _, a = run(tmp_path, "a.json", argv)
        _, _, b = run(tmp_path, "b.json", argv)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_control(self, tmp_path):
        argv = ["verify", "--family", "sl", "--n", "3", "--order", "3",
                "--len", "2", "--sumr", "2", "--suite", "rtt"]
        _, r1, _ = run(tmp_path, "s1.json", argv + ["--seed", "1"])
        _, r2, _ = run(tmp_path, "s2.json", argv + ["--seed", "2"])
        g1 = r1["checks"][0]["details"]["negative_control_generator"]
        g2 = r2["checks"][0]["details"]["negative_control_generator"]
        assert g1 != g2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "sl", "N": 2, "K": 3, "L": 2, "R_ord": 3,
            "suite": ["rtt"], "seed": 5}))
        code, rep, _ = run(tmp_path, "c.json",
                           ["verify", "--config", str(cfg), "--seed", "9"])
        assert code == 0
        assert rep["config"]["seed"] == 9
        assert rep["config"]["family"] == "sl"

    def test_exit_reflects_conjunction(self, tmp_path, monkeypatch):
        # force one suite to fail and check the nonzero exit code
        real = climod._SUITE_FNS["rtt"]

        def failing(cfg, ctx):
            checks = real(cfg, ctx)
            checks.append({"check": "forced", "status": "fail",
                           "details": {}})
            return checks
        monkeypatch.setitem(climod._SUITE_FNS, "rtt", failing)
        code, rep, _ = run(tmp_path, "f.json",
                           ["verify", "--family", "sl", "--n", "2",
                            "--order", "3", "--len", "2", "--sumr", "3",
                            "--suite", "rtt"])
        assert code == 1
        assert rep["status"] == "fail"

    @pytest.mark.parametrize("family,N", [("sl", 2), ("so", 3), ("sp", 4)])
    def test_non_unitary_r_fails_unitarity(self, tmp_path, monkeypatch,
                                           family, N):
        # plant the seeded u^{-2} bump of the QYBE negative control as R
        real = climod.closed_form_r
        monkeypatch.setattr(climod, "closed_form_r", lambda f, n:
                            climod._perturbed_r(real(f, n),
                                                random.Random(3))[0])
        code, rep, _ = run(tmp_path, "u.json",
                           ["verify", "--family", family, "--n", str(N),
                            "--suite", "rmatrix"])
        assert code == 1
        assert rep["status"] == "fail"
        unit = rep["checks"][1]
        assert unit["check"] == "unitarity"
        assert unit["status"] == "fail"
        assert unit["details"]["error"].startswith(
            "product is not scalar at entry (")

    # the five commands of the classical benchmark workload, then the
    # so/sp extension split (W != 0) and the sp4 solver, then the
    # yangian-layer suites (NCPoly, TensorNCPoly in hopf, CPoly in y(u)),
    # then build, checks that test nothing at tiny bounds, a check that
    # passes only on its retry closure, and the so3 Yangian suites
    # (evaluation modules on a degree-2 R-matrix), then sl4, whose
    # contractions reach past the einsum path-search cut-over, at --seed 0
    @pytest.mark.parametrize("argv,digest", [
        ("verify --family sl --n 3 --suite classical,rmatrix",
         "94e3502c8ba7240fbeff548fad21930fdf0e9fb12e9e82494d6f8b39057f1b44"),
        ("verify --family sl --n 6 --suite rmatrix",
         "f8efcc148b11a16581084501cb05e4fbf04bed3ce166a55bda473906b99222d1"),
        ("verify --family so --n 5 --suite rmatrix",
         "a0c50c8e8f56e7ce4aa0fb7e98d4dfc13548d78d305c4bd04e4bb2884570f798"),
        ("verify --family sp --n 4 --suite rmatrix",
         "f511ef25dcf84a1cfacac587d0ad2d8966aa390f02f49b9034aa3a6bc49f696c"),
        ("solve-r --family so --n 4 --order 3",
         "a306377623d35c07ea145fd99ca1776cc9994e97375f6f605a47babbdfaa68e5"),
        ("verify --family so --n 3 --suite classical,rmatrix",
         "81c6fe6a8a7620167ad3aca7b94d2210d81e79943679e14f5483904fefcdcc88"),
        ("verify --family sp --n 4 --suite classical,rmatrix",
         "f5f3d5f457aca55b7ec3c1ab4a1f01fc790eb968916af5701c3aaf1ff4977dad"),
        ("solve-r --family sp --n 4 --order 3",
         "48a72f77b21366cbc873e6a76d305248e0e32b8ca59823d75a33fb77afcdf7b1"),
        ("verify --family sl --n 2 --order 3 --len 3 --sumr 4 "
         "--suite rtt,center,hopf,fixedpoint,qdet",
         "5dedac96e544ac44d72bf7c9ea8a2321733422514498e70b893f503540262b79"),
        ("qdet --family sl --n 2 --order 3 --len 3 --sumr 3",
         "205a5bf7a30ddb9520a2f9e2d919baf9368f8cbea1acf617e025d50cf6e2f2a9"),
        ("verify --family sp --n 2 --order 3 --len 2 --sumr 3 "
         "--suite pbw,symmetry",
         "db510cbe86f67af2a6c10c64c715b8ca5f44de2b7e09f541689afe27b4e9d90a"),
        ("build --family sl --n 2 --order 3 --len 2 --sumr 3",
         "76d348e58382ee9da7fa868a7b12ed19ec44f7cb4a86e55e7c60bd2e121950f1"),
        ("verify --family sl --n 2 --order 3 --len 1 --sumr 2 "
         "--suite center,hopf,qdet",
         "81b022c149b9aa408433f21fb8ace2d75cbced278a043c153faac806cc4c06c4"),
        ("verify --family sp --n 4 --order 3 --len 1 --sumr 3 "
         "--suite symmetry",
         "31f2af05a2a3fa51f985619d9f0c6184d9b8c054874f36468b09b08796b95742"),
        ("verify --family so --n 3 --order 3 --len 3 --sumr 4 "
         "--suite center,hopf,fixedpoint,symmetry",
         "c6d06cd3951cb290462f0efbf1a3caba3caa01b540c87d836bc792fa15ff9142"),
        ("verify --family sl --n 4 --suite classical,rmatrix",
         "952643f780b937397ae02762cae9fadfb22fb577e858126606511b15d6054add"),
    ], ids=["sl3-classical-rmatrix", "sl6-rmatrix", "so5-rmatrix",
            "sp4-rmatrix", "so4-solve-r", "so3-classical-rmatrix",
            "sp4-classical-rmatrix", "sp4-solve-r", "sl2-yangian-suites",
            "sl2-qdet", "sp2-pbw-symmetry", "sl2-build",
            "sl2-vacuous-center-hopf-qdet", "sp4-symmetry-retried",
            "so3-yangian-suites", "sl4-classical-rmatrix"])
    def test_golden_reports(self, capsys, argv, digest):
        """Report bytes on stdout are pinned, so a change to any layer
        that alters a report shows here."""
        assert main(argv.split() + ["--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_failing_merge(self, tmp_path, capsys, monkeypatch):
        """A merge with one failing input: status "fail" and exit 1, with
        the report bytes pinned (input names are relative)."""
        monkeypatch.chdir(tmp_path)
        write_failing_merge_inputs(tmp_path)
        capsys.readouterr()
        assert main(["report-merge", "a.json", "b.json"]) == 1
        out = capsys.readouterr().out
        assert json.loads(out)["status"] == "fail"
        assert hashlib.sha256(out.encode()).hexdigest() == \
            FAILING_MERGE_DIGEST


class TestConfigFile:
    @pytest.mark.parametrize("fields", [
        {"N": "2"},
        {"N": True},
        {"K": 3.0},
        {"L": "2", "R_ord": 3, "suite": ["rtt"]},
        {"R_ord": False, "L": 2, "suite": ["rtt"]},
        {"seed": "x"},
        {"seed": True},
        {"suite": 5},
        {"suite": ["classical", 1]},
        {"output": 1},
    ], ids=["N-str", "N-bool", "K-float", "L-str", "R_ord-bool", "seed-str",
            "seed-bool", "suite-int", "suite-item-int", "output-int"])
    def test_bad_field_is_usage_error(self, tmp_path, capsys, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "sl", "N": 2,
                                   "suite": ["classical"], **fields}))
        code, rep, _ = run(tmp_path, "r.json",
                           ["verify", "--config", str(cfg)])
        assert code == 2 and rep is None
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["classical,rmatrix",
                                       " classical , rmatrix ",
                                       ["classical", "rmatrix"]])
    def test_suite_list_or_comma_string(self, tmp_path, suite):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "sl", "N": 2, "suite": suite}))
        code, rep, _ = run(tmp_path, "r.json",
                           ["verify", "--config", str(cfg)])
        assert code == 0
        assert rep["config"]["suite"] == ["classical", "rmatrix"]


SHARED_Z_RUNS = [
    (["--family", "sl", "--n", "2", "--order", "3", "--len", "3",
      "--sumr", "4"], ["rtt", "center", "hopf", "fixedpoint", "qdet"]),
    (["--family", "so", "--n", "3", "--order", "3", "--len", "3",
      "--sumr", "4"], ["center", "hopf", "fixedpoint", "symmetry"]),
]


class TestSharedClosureState:
    """Suites share one z-series per closure and one enlarged retry
    closure; sharing must not change what any suite reports."""

    @pytest.mark.parametrize("flags,suites", SHARED_Z_RUNS)
    def test_multi_suite_equals_single_suites(self, tmp_path, flags, suites):
        # y_from_z mutates the shared z-series in place
        _, rep, _ = run(tmp_path, "all.json", ["verify"] + flags
                        + ["--suite", ",".join(suites)])
        singles = []
        for s in suites:
            _, one, _ = run(tmp_path, s + ".json",
                            ["verify"] + flags + ["--suite", s])
            singles += one["checks"]
        assert rep["checks"] == singles

    def test_one_z_series_per_closure(self, tmp_path, monkeypatch):
        seen = []
        real = climod.z_series

        def spy(pres, cl):
            seen.append(cl)
            return real(pres, cl)
        monkeypatch.setattr(climod, "z_series", spy)
        flags, suites = SHARED_Z_RUNS[0]
        code, _, _ = run(tmp_path, "r.json", ["verify"] + flags
                         + ["--suite", ",".join(suites)])
        assert code == 0
        assert len(seen) == 1

    def test_enlarged_closure_built_once(self, tmp_path, monkeypatch):
        # hopf and qdet fail at the requested bounds (2, 3) and pass at
        # (3, 4): both retry on one enlarged closure and its z-series
        built, zs = [], []
        real_closure, real_z = climod.closure, climod.z_series
        real_hopf, real_qdet = climod.verify_hopf, climod.qdet

        def closure_spy(pres, L, R_ord, **kw):
            built.append((L, R_ord))
            return real_closure(pres, L, R_ord, **kw)

        def z_spy(pres, cl):
            zs.append(cl.bounds)
            return real_z(pres, cl)

        def fail_small(report, cl):
            if cl.bounds == (2, 3):
                report["status"] = "fail"
            return report

        monkeypatch.setattr(climod, "closure", closure_spy)
        monkeypatch.setattr(climod, "z_series", z_spy)
        monkeypatch.setattr(climod, "verify_hopf", lambda cs:
                            fail_small(real_hopf(cs), cs.cl))
        monkeypatch.setattr(climod, "qdet", lambda cs: (
            None, fail_small(real_qdet(cs)[1], cs.cl)))
        code, rep, _ = run(tmp_path, "r.json",
                           ["verify", "--family", "sl", "--n", "2",
                            "--order", "3", "--len", "2", "--sumr", "3",
                            "--suite", "hopf,qdet"])
        assert code == 0
        assert built == [(2, 3), (3, 4)]
        assert zs == [(2, 3), (3, 4)]
        assert [(c["check"], c["details"]["retried_at_bounds"])
                for c in rep["checks"]] == [("hopf", [3, 4]),
                                            ("qdet", [3, 4])]

    def test_retry_too_large_keeps_first_attempt(self, tmp_path,
                                                 monkeypatch):
        # sl2 (2, 3) holds 61 words and its retry closure (3, 4) holds
        # 369; with the guard between them the retry raises BoundsTooLarge
        # and the failing first attempt is the report
        real_hopf = climod.verify_hopf

        def fail_hopf(cs):
            report = real_hopf(cs)
            report["status"] = "fail"
            return report

        monkeypatch.setattr(climod, "verify_hopf", fail_hopf)
        monkeypatch.setattr(yangian, "_MAX_UNIVERSE", 100)
        code, rep, _ = run(tmp_path, "r.json",
                           ["verify", "--family", "sl", "--n", "2",
                            "--order", "3", "--len", "2", "--sumr", "3",
                            "--suite", "hopf"])
        assert code == 1
        (check,) = rep["checks"]
        assert check["status"] == "fail"
        assert check["bounds"] == [2, 3]
        assert "retried_at_bounds" not in check["details"]

    def test_retry_adds_the_clearing_length(self, tmp_path, monkeypatch):
        # sp4 clears denominators of degree d = 2, so the retry closure
        # needs length max(L + 1, 2) + d - 1 = 3; at (L + 1, R + 1) = (2, 4)
        # the symmetry series still fails
        built = []
        real_closure = climod.closure

        def closure_spy(pres, L, R_ord, **kw):
            built.append((L, R_ord))
            return real_closure(pres, L, R_ord, **kw)

        monkeypatch.setattr(climod, "closure", closure_spy)
        code, rep, _ = run(tmp_path, "r.json",
                           ["verify", "--family", "sp", "--n", "4",
                            "--order", "2", "--len", "1", "--sumr", "3",
                            "--suite", "symmetry"])
        assert built == [(1, 3), (3, 4)]
        (check,) = rep["checks"]
        assert check["details"]["retried_at_bounds"] == [3, 4]
        assert check["bounds"] == [3, 4]
        assert code == 0


class TestOtherCommands:
    def test_build(self, tmp_path):
        code, rep, _ = run(tmp_path, "b.json",
                           ["build", "--family", "sl", "--n", "2",
                            "--order", "3", "--len", "2", "--sumr", "2"])
        assert code == 0
        det = rep["checks"][0]["details"]
        assert det["relations"] == 282
        assert det["closure_rank"] > 0

    def test_solve_r(self, tmp_path):
        code, rep, _ = run(tmp_path, "s.json",
                           ["solve-r", "--family", "sl", "--n", "2",
                            "--order", "3"])
        assert code == 0
        det = rep["checks"][0]["details"]
        assert det["ratio_to_closed_form"][0] == "1/1"

    def test_one_parser_for_successive_calls(self, tmp_path):
        climod._parser.cache_clear()
        _, rep, _ = run(tmp_path, "v.json",
                        ["verify", "--family", "sl", "--n", "2", "--order",
                         "4", "--seed", "5", "--suite", "rmatrix"])
        parser = climod._parser()
        _, rep2, _ = run(tmp_path, "s.json",
                         ["solve-r", "--family", "sl", "--n", "2"])
        assert climod._parser() is parser
        assert climod._parser.cache_info().misses == 1
        # the second call sees none of the first call's flags
        assert (rep["config"]["K"], rep["config"]["seed"]) == (4, 5)
        assert (rep2["config"]["K"], rep2["config"]["seed"]) == (3, 0)
        assert rep2["config"]["suite"] == ["rmatrix"]

    def test_qdet(self, tmp_path):
        code, rep, _ = run(tmp_path, "q.json",
                           ["qdet", "--family", "sl", "--n", "2",
                            "--order", "3", "--len", "3", "--sumr", "4"])
        assert code == 0
        assert rep["checks"][0]["check"] == "qdet"

    def test_report_merge(self, tmp_path):
        _, _, a = run(tmp_path, "m1.json",
                      ["build", "--family", "sl", "--n", "2",
                       "--order", "3"])
        _, _, b = run(tmp_path, "m2.json",
                      ["solve-r", "--family", "sl", "--n", "2",
                       "--order", "3"])
        out = tmp_path / "merged.json"
        assert main(["report-merge", str(a), str(b),
                     "--output", str(out)]) == 0
        merged = json.loads(out.read_text())
        assert merged["schema"] == 1
        assert merged["status"] == "pass"
        assert len(merged["reports"]) == 2


class TestPbwPlantedDefects:
    """A planted defect in the presentation flips the pbw suite's check
    (sl2 K=3 at (2, 3)).  Most single defects do not: only 6 of the 76
    fitting-relation drops flip the extended check, none flips the
    quotient check, and zeroing the off-diagonal Z(u) entries leaves it
    at 25."""

    @pytest.fixture(scope="class")
    def sl2(self):
        return rtt_relations("sl", 2, 3)

    def _checks(self, pres):
        cfg = climod.RunConfig("sl", 2, 3, 2, 3, ("pbw",), 0, None)
        return {c["check"]: c for c in climod._suite_pbw(cfg, {"pres": pres})}

    def test_sound_presentation_passes(self, sl2):
        checks = self._checks(sl2)
        assert [c["status"] for c in checks.values()] == ["pass", "pass"]

    def test_dropped_relation_fails_extended(self, sl2):
        bad = yangian.RTTPresentation(sl2.casimir, sl2.R, sl2.K,
                                      sl2.relations[1:])
        check = self._checks(bad)["pbw_extended"]
        assert check["status"] == "fail"
        assert check["details"]["slice_dimension"] == 40
        assert check["details"]["pbw_count"] == 39

    def test_zeroed_z_seeds_fail_quotient(self, sl2, monkeypatch):
        real = yangian._z_matrix
        zero = NCPoly.zero()

        def without_order_2(pres, K):
            Z = real(pres, K)
            coeffs = list(Z.coeffs)
            coeffs[2] = np.full((pres.N, pres.N), zero, dtype=object)
            return TruncSeries(coeffs)

        monkeypatch.setattr(yangian, "_z_matrix", without_order_2)
        checks = self._checks(sl2)
        assert checks["pbw_extended"]["status"] == "pass"
        check = checks["pbw_quotient"]
        assert check["status"] == "fail"
        assert check["details"]["slice_dimension"] == 33
        assert check["details"]["pbw_count"] == 25


class TestCentralityNegativeControl:
    def test_control_fails_to_commute_for_every_seed(self):
        # seeds 4, 6, 8 and 10 draw t_12^(2), which commutes with t_12^(1)
        pres = rtt_relations("sl", 2, 4)
        cs = z_series(pres, closure(pres, 3, 4))
        drawn = set()
        for seed in range(11):
            cfg = climod.RunConfig("sl", 2, 4, 3, 4, ("center",), seed, None)
            check = climod._centrality_negative_control(cfg, cs)
            assert check["status"] == "pass", seed
            assert check["details"]["perturbed_element_central"] is False
            drawn.add(tuple(check["details"]["perturbation_generator"]))
        assert (1, 2, 2) in drawn

    def test_probe_refuses_a_generator_that_commutes(self):
        # so_3 t_13^(2) has zero leading-order image: no probe would make
        # the control fail, so none is returned
        cas = casimir(build_lie("so", 3))
        assert not climod._first_order_image(cas, 1, 3).any()
        with pytest.raises(ValueError, match=r"t_13\^\(2\) commutes"):
            climod._noncommuting_probe(cas, 1, 3)

    def test_planted_y_recursion_fails_the_check(self, monkeypatch):
        # y_from_z solves for y_{r-1} with (r - 1) doubled, inside the
        # center suite of sl2 K=4 at (3, 4)
        pres = rtt_relations("sl", 2, 4)
        cs = z_series(pres, closure(pres, 3, 4))
        real = climod.y_from_z

        def planted(cs, K):
            with monkeypatch.context() as m:
                m.setattr(yangian, "Fraction",
                          lambda x, *a: 2 * Fraction(x, *a))
                return real(cs, K)
        monkeypatch.setattr(climod, "y_from_z", planted)
        cfg = climod.RunConfig("sl", 2, 4, 3, 4, ("center",), 0, None)
        checks = {c["check"]: c for c in climod._center_checks(cfg, cs)}
        assert checks["y_recursion"]["status"] == "fail"
        assert checks["y_recursion"]["details"]["verified_to"] == -1
        assert checks["z_series"]["status"] == "fail"

    def test_seed_zero_keeps_its_probe(self):
        cas = casimir(build_lie("sl", 2))
        assert climod._noncommuting_probe(cas, 2, 2) == (1, 2)
        # [t_11^(1), t_12^(2)] = t_12^(2)
        assert climod._noncommuting_probe(cas, 1, 2) == (1, 1)

    @pytest.mark.parametrize("family,N,K,L,R_ord",
                             [("so", 3, 3, 3, 4), ("so", 4, 2, 3, 3)])
    def test_so_control_draws_non_degenerate(self, family, N, K, L, R_ord):
        # so_3 t_13^(2) and so_4 t_14^(2), t_32^(2) have zero leading-order
        # image and commute with every probe; they must never be drawn
        pres = rtt_relations(family, N, K)
        cs = z_series(pres, closure(pres, L, R_ord))
        for seed in range(11):
            cfg = climod.RunConfig(family, N, K, L, R_ord, ("center",),
                                   seed, None)
            check = climod._centrality_negative_control(cfg, cs)
            assert check["status"] == "pass", seed
            assert check["details"]["perturbed_element_central"] is False
            i, j, _ = check["details"]["perturbation_generator"]
            x = climod._first_order_image(pres.casimir, i, j)
            y = climod._first_order_image(
                pres.casimir, *climod._noncommuting_probe(pres.casimir, i, j))
            assert x.any() and (x @ y != y @ x).any(), (seed, i, j)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(argv, cwd):
    """Run the CLI module in a new interpreter with src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "yangkit.cli"] + argv,
                          cwd=cwd, env=env, capture_output=True, timeout=300)


class TestProcessExitCodes:
    """The exit code crosses sys.exit(main()) in a real process."""

    def test_pass_exits_0_with_in_process_bytes(self, tmp_path, capsys):
        argv = ["verify", "--family", "sl", "--n", "2", "--suite", "rmatrix"]
        proc = run_process(argv, tmp_path)
        assert proc.returncode == 0
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_failing_merge_exits_1(self, tmp_path):
        write_failing_merge_inputs(tmp_path)
        proc = run_process(["report-merge", "a.json", "b.json"], tmp_path)
        assert proc.returncode == 1
        assert hashlib.sha256(proc.stdout).hexdigest() == FAILING_MERGE_DIGEST

    def test_usage_error_exits_2(self, tmp_path):
        proc = run_process(["verify", "--family", "sp", "--n", "3",
                            "--suite", "classical"], tmp_path)
        assert proc.returncode == 2
        assert b"usage error" in proc.stderr and not proc.stdout

    def test_bounds_too_large_exits_3(self, tmp_path):
        proc = run_process(["build", "--family", "sl", "--n", "2",
                            "--len", "12", "--sumr", "12"], tmp_path)
        assert proc.returncode == 3
        assert b"bounds too large" in proc.stderr and not proc.stdout


def test_bench_pinned_names_resolve():
    """Every layer function the benchmark's tracer wraps
    (LAYER_FUNCTIONS in bench/tracing.py) and every CLI suite it looks
    up exists, so deleting or renaming one fails here, not only in a
    traced benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", SRC.parent / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, entries in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module("yangkit." + layer)
        for attr, _ in entries:
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(module, cls_name)), attr
            else:
                assert callable(getattr(module, attr, None)), attr
    assert set(tracing.CLI_SUITES) <= set(climod._SUITE_FNS)
