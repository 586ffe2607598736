"""Command-line driver: exit codes, usage errors, deterministic JSON
reports, config files, and report merging."""

import hashlib
import json

import pytest

import yangkit.cli as climod
from yangkit import build_lie, closure, rtt_relations, z_series
from yangkit.cli import main


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, out


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

    def test_bounds_too_large(self, capsys):
        assert main(["build", "--family", "sl", "--n", "2",
                     "--len", "12", "--sumr", "12"]) == 3
        assert "bounds too large" in capsys.readouterr().err


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

    # the five commands of the classical benchmark workload, at --seed 0
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
    ], ids=["sl3-classical-rmatrix", "sl6-rmatrix", "so5-rmatrix",
            "sp4-rmatrix", "so4-solve-r"])
    def test_golden_reports(self, capsys, argv, digest):
        """Report bytes on stdout are pinned, so a change to the exact,
        liealg or rmatrix layers that alters a report shows here."""
        assert main(argv.split() + ["--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        monkeypatch.setattr(climod, "verify_hopf", lambda pres, cl, *a, **k:
                            fail_small(real_hopf(pres, cl, *a, **k), cl))
        monkeypatch.setattr(climod, "qdet", lambda pres, cl, cs: (
            None, fail_small(real_qdet(pres, cl, cs)[1], cl)))
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


class TestCentralityNegativeControl:
    def test_control_fails_to_commute_for_every_seed(self):
        # seeds 4, 6, 8 and 10 draw t_12^(2), which commutes with t_12^(1)
        pres = rtt_relations("sl", 2, 4)
        cl = closure(pres, 3, 4)
        cs = z_series(pres, cl)
        drawn = set()
        for seed in range(11):
            cfg = climod.RunConfig("sl", 2, 4, 3, 4, ("center",), seed, None)
            check = climod._centrality_negative_control(cfg, cl, cs)
            assert check["status"] == "pass", seed
            assert check["details"]["perturbed_element_central"] is False
            drawn.add(tuple(check["details"]["perturbation_generator"]))
        assert (1, 2, 2) in drawn

    def test_seed_zero_keeps_its_probe(self):
        lie = build_lie("sl", 2)
        assert climod._noncommuting_probe(lie, 2, 2) == (1, 2)
        # [t_11^(1), t_12^(2)] = t_12^(2)
        assert climod._noncommuting_probe(lie, 1, 2) == (1, 1)

    @pytest.mark.parametrize("family,N,K,L,R_ord",
                             [("so", 3, 3, 3, 4), ("so", 4, 2, 3, 3)])
    def test_so_control_draws_non_degenerate(self, family, N, K, L, R_ord):
        # so_3 t_13^(2) and so_4 t_14^(2), t_32^(2) have zero leading-order
        # image and commute with every probe; they must never be drawn
        pres = rtt_relations(family, N, K)
        cl = closure(pres, L, R_ord)
        cs = z_series(pres, cl)
        for seed in range(11):
            cfg = climod.RunConfig(family, N, K, L, R_ord, ("center",),
                                   seed, None)
            check = climod._centrality_negative_control(cfg, cl, cs)
            assert check["status"] == "pass", seed
            assert check["details"]["perturbed_element_central"] is False
            i, j, _ = check["details"]["perturbation_generator"]
            x = climod._first_order_image(pres.lie, i, j)
            y = climod._first_order_image(
                pres.lie, *climod._noncommuting_probe(pres.lie, i, j))
            assert x.any() and (x @ y != y @ x).any(), (seed, i, j)
