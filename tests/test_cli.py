"""Batch-command behaviour: reports, exit codes, reproducibility."""

import json

import pytest

from zetalab import cli


def run_main(argv):
    return cli.main(argv)


def test_verify_passes_and_counts(tmp_path):
    out = tmp_path / "verify.json"
    code = run_main(["verify", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    symbolic = [c for c in report["checks"] if c["kind"] == "symbolic"]
    assert len(symbolic) >= 40
    assert all(c["pass"] for c in report["checks"])


def test_verify_depth_subset():
    report = cli.cmd_verify(cli.RunConfig(nmax=2))
    assert report["passed"]
    assert report["num_checked"] < cli.cmd_verify(cli.RunConfig())["num_checked"]


def test_verify_fails_loudly_on_corrupted_golden(monkeypatch):
    orig = cli.load_golden
    good = orig("locgl2_closed_forms.json")
    corrupted = dict(good)
    corrupted["zeta_ratios"] = dict(good["zeta_ratios"], zeta_1="(1)/(1)")

    def fake_load(name):
        if name == "locgl2_closed_forms.json":
            return corrupted
        return orig(name)

    monkeypatch.setattr(cli, "load_golden", fake_load)
    report = cli.cmd_verify(cli.RunConfig())
    assert not report["passed"]
    bad = [c for c in report["checks"] if not c["pass"]]
    assert any(c["id"] == "golden[locgl2_closed_forms]" for c in bad)

    def missing_load(name):
        if name == "mellin_decay.json":
            raise FileNotFoundError(name)
        return orig(name)

    monkeypatch.setattr(cli, "load_golden", missing_load)
    report = cli.cmd_verify(cli.RunConfig(nmax=0))
    assert not report["passed"]
    assert {"id": "golden[mellin_decay]", "kind": "golden", "pass": False,
            "note": "golden file missing"} in report["checks"]


def test_oracle_report_passes(tmp_path):
    out = tmp_path / "oracle.json"
    code = run_main(["oracle", "--npoints", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert report["worst_rel_error"] <= 1e-9
    assert len(report["comparisons"]) == 3 * 12
    assert all(c["pass"] for c in report["coset_checks"])


def test_oracle_reports_failures_below_precision_floor():
    # demanding 1e-16 relative (below the double-precision floor) must
    # produce reported failures with the worst error, not silence
    report = cli.cmd_oracle(cli.RunConfig(npoints=3, tol=1e-16))
    assert not report["passed"]
    assert report["worst_rel_error"] > 1e-16
    assert any(not c["pass"] for c in report["comparisons"])


def test_oracle_reproducible():
    a = cli.cmd_oracle(cli.RunConfig(npoints=2))
    b = cli.cmd_oracle(cli.RunConfig(npoints=2))
    assert a == b


def test_verify_rejects_unread_options(capsys):
    for argv in (
        ["verify", "--constant", "1"],
        ["verify", "--tol", "1e-3"],
        ["lvalue", "--q", "4", "--label", "1", "--seed", "3"],
        ["scan", "--seed", "3"],
        ["mellin", "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_lvalue_chi_minus_four(capsys):
    code = run_main(["lvalue", "--q", "4", "--label", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["abs"] - 0.6676914571896) < 1e-9
    assert report["abs_diff"] <= 2e-8


def test_lvalue_rejects_imprimitive():
    with pytest.raises(Exception):
        cli.cmd_lvalue(cli.RunConfig(q=8, label="0.0"))


def test_bad_lvalue_and_scan_input_is_one_line(capsys):
    for argv, message in (
        (["lvalue", "--q", "199999", "--label", "5"], "modulus limit is 100000"),
        (["scan", "--qmin", "2", "--qmax", "5"], "need 3 <= q_min <= q_max"),
        (["lvalue", "--q", "5", "--label", "x"],
         "label 'x' mod 5 must be dot-joined integers, one per component of (Z/5)^* (it has 1)"),
        (["lvalue", "--q", "5", "--label", "1.2"],
         "label '1.2' mod 5 has 2 parts; it must be dot-joined integers, one per component"),
        (["mellin", "--s", "1"], "expected re,im"),
        (["mellin", "--grid", "1:2"], "grid format is re0:re1:nre:im0:im1:nim"),
        (["verify", "--nmax", "99"], "nmax must lie in [0, "),
        (["oracle", "--npoints", "0"], "npoints must be >= 1 (got 0)"),
        (["oracle", "--npoints", "-1"], "npoints must be >= 1 (got -1)"),
        (["scan", "--qmin", "10000", "--qmax", "10400", "--stride", "90"],
         "q = 2 mod 4 has no primitive characters"),
    ):
        assert run_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert len(captured.err.strip().splitlines()) == 1


def test_mellin_point_and_grid(capsys):
    code = run_main(["mellin", "--s", "1,0", "--order", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert 1 < report["value"][0] < 2
    csv_text = cli.cmd_mellin(cli.RunConfig(grid="1:2:3:0:1:2", order=1))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "re_s,im_s,order,re_value,im_value"
    assert len(lines) == 1 + 3 * 2


def test_scan_csv_and_summary(tmp_path):
    out = tmp_path / "scan.csv"
    code = run_main(["scan", "--qmin", "101", "--qmax", "117", "--stride", "4", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "q,label,abs_L,normalized,seconds"
    summary = json.loads((tmp_path / "scan.csv.summary.json").read_text())
    assert summary["burgess_target"] == "103/512"
    assert summary["theta"] == "7/64"
    # byte-identical re-run
    out2 = tmp_path / "scan2.csv"
    run_main(["scan", "--qmin", "101", "--qmax", "117", "--stride", "4", "--out", str(out2)])
    assert out2.read_text() == text


def test_scan_target_is_passed_through(monkeypatch):
    seen = []

    def fake_scan(q_min, q_max, stride, target_abs_error, timing):
        seen.append(target_abs_error)
        return []

    monkeypatch.setattr(cli.lfunc, "scan", fake_scan)
    for argv, target in ((["scan"], 1e-8), (["scan", "--target", "1e-12"], 1e-12)):
        cli.cmd_scan(cli.RunConfig(**vars(cli._build_parser().parse_args(argv))))
        assert seen.pop() == target


def test_run_config_default_target_per_command(monkeypatch):
    # a RunConfig that sets no target runs each command at its subparser's default
    seen = []

    def fake_scan(q_min, q_max, stride, target_abs_error, timing):
        seen.append(target_abs_error)
        return []

    def fake_central(chi, target_abs_error, balance):
        seen.append(target_abs_error)
        return 0j

    monkeypatch.setattr(cli.lfunc, "scan", fake_scan)
    monkeypatch.setattr(cli.lfunc, "l_central", fake_central)
    cli.cmd_scan(cli.RunConfig())
    cli.cmd_scan(cli.RunConfig(command="scan", qmin=100, qmax=120))
    cli.cmd_lvalue(cli.RunConfig(command="lvalue", q=5, label="1"))
    assert seen == [1e-8, 1e-8, 1e-9]


def test_parser_leaves_every_default_to_run_config():
    for argv, required in (
        (["verify"], {}),
        (["oracle"], {}),
        (["lvalue", "--q", "5", "--label", "1"], {"q": 5, "label": "1"}),
        (["scan"], {}),
        (["mellin"], {}),
    ):
        parsed = cli.RunConfig(**vars(cli._build_parser().parse_args(argv)))
        assert parsed == cli.RunConfig(command=argv[0], **required)


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(nmax=99)
    with pytest.raises(ValueError):
        cli.RunConfig(npoints=0)
