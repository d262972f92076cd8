"""Command-line interface: outputs, exit codes, and the live service pair."""
import subprocess
import sys
from pathlib import Path

import pytest

from pbmkit.cli import main
from pbmkit.dsl import parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CAMPUS = str(FIXTURES / "unicauca.pbm")
TRACE = str(FIXTURES / "sample_trace.csv")

EXPECTED_REPORT = (
    "ts,flow,rules,granted_kbps,demand_kbps,denied\n"
    "399600,f1,P9,0,2000,true\n"
    "399600,f2,P1,300,300,false\n"
    "399600,f3,P4,64,64,false\n"
    "435600,f4,P10,2000,2000,false\n"
)

LEAVES = " ".join(f"SG3-{i}" for i in range(1, 17))


@pytest.fixture()
def compiled(tmp_path):
    out = tmp_path / "compiled.pbm"
    rc = main(["compile", CAMPUS, "--root", "G1-1", "--strategy", "S1",
               "-o", str(out)])
    assert rc == 0
    return str(out)


# -- validate ------------------------------------------------------------------


def test_validate_text(capsys):
    assert main(["validate", CAMPUS]) == 0
    assert capsys.readouterr().out == "20 goals, 0 rules\n"


def test_validate_tsv(capsys):
    assert main(["validate", CAMPUS, "--format", "tsv"]) == 0
    assert capsys.readouterr().out == "goals\trules\n20\t0\n"


def test_validate_empty_document(tmp_path, capsys):
    empty = tmp_path / "empty.pbm"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 0
    assert capsys.readouterr().out == "0 goals, 0 rules\n"


def test_validate_reports_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.pbm"
    bad.write_text("bogus X\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 1:1:")
    assert "unknown keyword" in err


def test_missing_document_is_io_failure(capsys):
    assert main(["validate", "/no/such/file.pbm"]) == 3
    assert "error:" in capsys.readouterr().err


# -- refine / compile ------------------------------------------------------------


def test_refine_text(capsys):
    assert main(["refine", CAMPUS, "--root", "G1-1"]) == 0
    assert capsys.readouterr().out == f"S1: {LEAVES} (16 leaves)\n"


def test_refine_tsv(capsys):
    assert main(["refine", CAMPUS, "--root", "G1-1", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == (
        "strategy\tleaf_count\tleaves\n" f"S1\t16\t{LEAVES}\n"
    )


def test_refine_unknown_root(capsys):
    assert main(["refine", CAMPUS, "--root", "G9-9"]) == 1
    assert "unknown goal G9-9" in capsys.readouterr().err


def test_compile_writes_document(compiled, capsys):
    doc = parse(Path(compiled).read_text())
    assert [r.id for r in doc.rules] == [f"P{i}" for i in range(1, 17)]
    assert doc.rules[0].based_on == "SG3-1"
    # compiling is idempotent over the document body
    assert len(doc.graph.goals) == 20


def test_compile_to_stdout(capsys):
    assert main(["compile", CAMPUS, "--root", "G1-1", "--strategy", "S1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# pbm v1\n")
    assert "rule P16 from SG3-16 order 15 {" in out


def test_compile_unknown_strategy(capsys):
    assert main(["compile", CAMPUS, "--root", "G1-1", "--strategy", "S2"]) == 1
    assert "unknown strategy 'S2'" in capsys.readouterr().err


# -- conflicts -------------------------------------------------------------------


def test_conflicts_clean_document(capsys):
    assert main(["conflicts", CAMPUS]) == 0
    assert capsys.readouterr().out == "no conflicts\n"


def test_conflicts_text(compiled, capsys):
    assert main(["conflicts", compiled]) == 1
    lines = capsys.readouterr().out.splitlines()
    errors = [l for l in lines if "(error)" in l]
    assert errors == [
        "BandwidthConflict (error): P11 vs P13, witness src=10.1.6.0"
        " dst=198.51.100.0 proto=tcp port=80 ts=363600",
        "BandwidthConflict (error): P11 vs P15, witness src=10.1.6.0"
        " dst=10.1.9.0 proto=tcp port=0 ts=363600",
        "BandwidthConflict (error): P12 vs P15, witness src=10.1.7.1"
        " dst=10.1.9.0 proto=tcp port=20 ts=363600",
    ]
    assert sum(1 for l in lines if "(warning)" in l) == 19


def test_conflicts_tsv(compiled, capsys):
    assert main(["conflicts", compiled, "--format", "tsv"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind\tseverity\trule_a\trule_b\tsrc\tdst\tproto\tport\tts\tdemand"
    row = next(l for l in lines if l.startswith("BandwidthConflict\terror\tP11\tP13"))
    assert row.split("\t")[4:] == ["10.1.6.0", "198.51.100.0", "tcp", "80", "363600", "1"]


# -- simulate / translate ----------------------------------------------------------


def test_simulate_writes_report(compiled, tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc = main(["simulate", compiled, "--trace", TRACE,
               "--capacity", "2000", "--report", str(report)])
    assert rc == 0
    assert capsys.readouterr().out == "2 steps, 4 flows\n"
    assert report.read_text() == EXPECTED_REPORT


def test_simulate_timestamp_beyond_datetime_range(compiled, tmp_path, capsys):
    # 10**20 s lies past year 9999; Saturday 04:46 at UTC-5 in weekly arithmetic
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "ts,src,dst,proto,port,demand_kbps\n"
        "100000000000000000000,10.1.3.1,198.18.0.11,udp,5060,64\n"
        "100000000000000000000,10.1.20.7,198.18.0.9,tcp,6881,2000\n"
    )
    report = tmp_path / "report.csv"
    rc = main(["simulate", compiled, "--trace", str(trace),
               "--capacity", "2000", "--report", str(report)])
    assert rc == 0
    assert capsys.readouterr().out == "1 steps, 2 flows\n"
    assert report.read_text() == (
        "ts,flow,rules,granted_kbps,demand_kbps,denied\n"
        "100000000000000000000,f1,P4,64,64,false\n"
        "100000000000000000000,f2,P10,1936,2000,false\n"
    )


def test_simulate_denied_flow_with_per_connection_bound(compiled, tmp_path, capsys):
    # P9 denies the flow while P5 gives it a per-connection minimum
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "ts,src,dst,proto,port,demand_kbps\n"
        "399600,10.1.4.0,198.18.0.9,tcp,6881,100\n"
    )
    report = tmp_path / "report.csv"
    rc = main(["simulate", compiled, "--trace", str(trace),
               "--capacity", "2000", "--report", str(report)])
    assert rc == 0
    assert report.read_text() == (
        "ts,flow,rules,granted_kbps,demand_kbps,denied\n"
        "399600,f1,P5;P9,0,100,true\n"
    )


def test_simulate_missing_trace(compiled, tmp_path, capsys):
    rc = main(["simulate", compiled, "--trace", str(tmp_path / "nope.csv"),
               "--capacity", "2000", "--report", str(tmp_path / "r.csv")])
    assert rc == 3


def test_simulate_bad_trace(compiled, tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text("who,what\n")
    rc = main(["simulate", compiled, "--trace", str(trace),
               "--capacity", "2000", "--report", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


def test_translate_stdout(compiled, capsys):
    assert main(["translate", compiled]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert lines[0] == (
        "rule P1 match src=10.1.1.0/28 dst=0.0.0.0/0 proto=tcp ports=25,110,143"
        " time=any action admit=allow min=256 max=- prio=6 scope=conn"
    )


def test_translate_to_file(compiled, tmp_path, capsys):
    out = tmp_path / "device.conf"
    assert main(["translate", compiled, "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 16


def test_translate_unsupported_profile(compiled, capsys):
    assert main(["translate", compiled, "--profile", "filter"]) == 1
    assert "bandwidth" in capsys.readouterr().err


def test_translate_unknown_profile_is_usage_error(compiled, capsys):
    assert main(["translate", compiled, "--profile", "toaster"]) == 2


# -- usage ---------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


def test_bad_listen_address_is_usage_error(capsys):
    assert main(["pdp", "serve", "--listen", "nocolon", "--repo", "x"]) == 2


# -- repo ----------------------------------------------------------------------


def test_repo_commands(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    assert main(["repo", "commit", str(repo), CAMPUS]) == 0
    commit_line = capsys.readouterr().out.strip()
    assert commit_line.startswith("v0001 checksum=")
    checksum = commit_line.split("=", 1)[1]

    assert main(["repo", "log", str(repo)]) == 0
    log_line = capsys.readouterr().out.strip()
    assert log_line.startswith("v0001 created=")
    assert f"checksum={checksum}" in log_line
    assert log_line.endswith("file=v0001.pbm")

    assert main(["repo", "show", str(repo), "1"]) == 0
    shown = capsys.readouterr().out
    assert parse(shown) == parse(Path(CAMPUS).read_text())


def test_repo_show_unknown_version(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    main(["repo", "commit", str(repo), CAMPUS])
    capsys.readouterr()
    assert main(["repo", "show", str(repo), "4"]) == 3
    assert "unknown version 4" in capsys.readouterr().err


def test_repo_commit_to_file_path(tmp_path, capsys):
    squatter = tmp_path / "not-a-dir"
    squatter.write_text("x")
    assert main(["repo", "commit", str(squatter), CAMPUS]) == 3


# -- pep run validation ----------------------------------------------------------


def test_pep_run_rejects_bad_step(capsys):
    rc = main(["pep", "run", "--connect", "127.0.0.1:1", "--trace", TRACE,
               "--capacity", "100", "--step", "0"])
    assert rc == 1
    assert "step must be at least 1" in capsys.readouterr().err


def test_pep_run_unsorted_trace(tmp_path, capsys):
    trace = tmp_path / "unsorted.csv"
    trace.write_text(
        "ts,src,dst,proto,port,demand_kbps\n"
        "100,10.0.0.1,10.0.0.2,tcp,80,5\n"
        "50,10.0.0.1,10.0.0.2,tcp,80,5\n"
    )
    rc = main(["pep", "run", "--connect", "127.0.0.1:1", "--trace", str(trace),
               "--capacity", "100"])
    assert rc == 1
    assert "ordered by timestamp" in capsys.readouterr().err


def test_pep_run_connection_refused(capsys):
    rc = main(["pep", "run", "--connect", "127.0.0.1:9", "--trace", TRACE,
               "--capacity", "100"])
    assert rc == 3


# -- live pair -------------------------------------------------------------------


def test_serve_and_run_over_tcp(compiled, tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    assert main(["repo", "commit", str(repo), compiled]) == 0
    capsys.readouterr()

    proc = subprocess.Popen(
        [sys.executable, "-m", "pbmkit.cli", "pdp", "serve",
         "--listen", "127.0.0.1:0", "--repo", str(repo)],
        cwd=FIXTURES.parent / "src",  # `-m` imports pbmkit from here without PYTHONPATH
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on ")
        address = banner.removeprefix("listening on ")

        report = tmp_path / "report.csv"
        rc = main(["pep", "run", "--connect", address, "--trace", TRACE,
                   "--capacity", "2000", "--report", str(report)])
        assert rc == 0
        assert capsys.readouterr().out == "2 steps, 4 flows\n"
        assert report.read_text() == EXPECTED_REPORT

        rc = main(["pep", "run", "--connect", address, "--trace", TRACE,
                   "--capacity", "2000"])
        assert rc == 0
        assert capsys.readouterr().out == EXPECTED_REPORT

        # two flows share P16's aggregate minimum, the third has P5's
        # per-connection minimum: remote enforcement must match simulate
        contended = tmp_path / "contended.csv"
        contended.write_text(
            "ts,src,dst,proto,port,demand_kbps\n"
            "399600,10.1.9.1,198.18.0.9,tcp,80,2000\n"
            "399600,10.1.9.2,198.18.0.9,tcp,80,2000\n"
            "399600,10.1.4.1,198.18.0.9,tcp,80,2000\n"
        )
        local = tmp_path / "local.csv"
        assert main(["simulate", compiled, "--trace", str(contended),
                     "--capacity", "2857", "--report", str(local)]) == 0
        assert main(["pep", "run", "--connect", address, "--trace", str(contended),
                     "--capacity", "2857", "--report", str(report)]) == 0
        assert report.read_text() == local.read_text() == (
            "ts,flow,rules,granted_kbps,demand_kbps,denied\n"
            "399600,f1,P16,429,2000,false\n"
            "399600,f2,P16,428,2000,false\n"
            "399600,f3,P5,2000,2000,false\n"
        )
    finally:
        proc.terminate()
        proc.communicate(timeout=10)
