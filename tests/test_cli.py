import hashlib
import json

import pytest
from click.testing import CliRunner

from thmc import ingest, klotz_path, parse_mapping, read_dataset, serialize_table
from thmc.cli import main
from thmc.ingest import IngestError


@pytest.fixture()
def runner():
    return CliRunner()


class TestIngest:
    def test_klotz(self):
        table = ingest(klotz_path(), "M=1,F=2")
        assert table.n == 177
        assert table.T == 4

    def test_accumulates_duplicates(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text("MMMM,8\nMMMM,2\nMMMF,1\n")
        table = ingest(f, "M=1,F=2")
        assert table[(1, 1, 1, 1)] == 10

    def test_unknown_symbol_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("MMMM,3\nMXMM,3\n")
        with pytest.raises(IngestError) as err:
            ingest(f, "M=1,F=2")
        assert err.value.line == 2
        assert "'X'" in str(err.value)

    def test_ragged_length_names_line(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("111,1\n1111,1\n")
        with pytest.raises(IngestError) as err:
            ingest(f)
        assert err.value.line == 2

    def test_non_integer_count_names_line(self, tmp_path):
        f = tmp_path / "count.csv"
        f.write_text("111,1\n121,x\n")
        with pytest.raises(IngestError) as err:
            ingest(f)
        assert err.value.line == 2

    def test_nonpositive_count_rejected(self, tmp_path):
        f = tmp_path / "zero.csv"
        f.write_text("111,1\n121,0\n")
        with pytest.raises(IngestError) as err:
            ingest(f)
        assert err.value.line == 2

    def test_header_and_comments_skipped(self, tmp_path):
        f = tmp_path / "hdr.csv"
        f.write_text("# comment\npath,count\n111,2  # trailing\n")
        assert ingest(f).n == 2

    def test_round_trip(self):
        table = ingest(klotz_path(), "M=1,F=2")
        text = serialize_table(table)
        back_path = None
        import tempfile, os

        with tempfile.NamedTemporaryFile(
            "w", suffix=".csv", delete=False
        ) as fh:
            fh.write(text)
            back_path = fh.name
        try:
            assert ingest(back_path) == table
        finally:
            os.unlink(back_path)

    def test_round_trip_with_mapping(self, tmp_path):
        table = ingest(klotz_path(), "M=1,F=2")
        f = tmp_path / "mf.csv"
        f.write_text(serialize_table(table, {"M": 1, "F": 2}))
        assert ingest(f, "M=1,F=2") == table

    def test_mapping_validation(self):
        assert parse_mapping("M=1,F=2") == {"M": 1, "F": 2}
        for bad in ("M=1", "M=1,F=1", "M=1,F=2,X=1", "MM=1,F=2", "M=3,F=2"):
            with pytest.raises(ValueError):
                parse_mapping(bad)

    def test_dataset_records(self):
        ds = read_dataset(klotz_path(), "M=1,F=2")
        assert len(ds.records) == 16
        assert ds.T == 4
        assert ds.to_table().n == 177


class TestCmdTest:
    def test_klotz_json(self, runner, tmp_path):
        out = tmp_path / "result.json"
        hist = tmp_path / "hist.csv"
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "500", "--burnin", "100", "--seed", "4",
            "--output", str(out), "--histogram", str(hist),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["n"] == 177
        assert payload["b"] == [142, 136, 122, 131]
        assert payload["df"] == 1
        assert 0 <= payload["p_exact"] <= 1
        assert payload["provenance"]["flags"]["seed"] == 4
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_lower,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 500

    def test_byte_identical_reruns(self, runner, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
                "--samples", "300", "--burnin", "50", "--seed", "21",
                "--output", str(out),
            ])
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_samples_zero_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "0",
        ])
        assert result.exit_code == 1

    def test_missing_file_is_ingest_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "test", "--input", str(tmp_path / "nope.csv"),
        ])
        assert result.exit_code == 2

    def test_bad_symbol_is_ingest_error(self, runner, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("MXM,1\n")
        result = runner.invoke(main, ["test", "--input", str(f), "--map", "M=1,F=2"])
        assert result.exit_code == 2

    def test_weights_flag(self, runner, tmp_path):
        out = tmp_path / "w.json"
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "200", "--burnin", "50", "--seed", "1",
            "--weights", "type2=1,deg3-sliding=1,2x2=2",
            "--output", str(out),
        ])
        assert result.exit_code == 0, result.output

    def test_bad_weights_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--weights", "bogus=1",
        ])
        assert result.exit_code == 1

    def test_path_length_over_dense_cap_is_ingest_error(self, runner, tmp_path):
        f = tmp_path / "long.csv"
        f.write_text("1" * 25 + ",1\n" + "1" * 24 + "2,2\n")
        result = runner.invoke(main, ["test", "--input", str(f)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert "T=25" in result.stderr

    def test_chains_pool(self, runner, tmp_path):
        out = tmp_path / "c.json"
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "300", "--burnin", "50", "--seed", "2",
            "--chains", "3", "--output", str(out),
        ])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["samples"] == 300


class TestCmdVerifyBasis:
    def test_full_set_connected(self, runner, tmp_path):
        report = tmp_path / "rep.json"
        result = runner.invoke(main, [
            "verify-basis", "--T", "3", "--n-max", "3", "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(report.read_text())
        assert payload["summary"]["disconnected"] == 0
        assert payload["summary"]["fibers"] == len(payload["fibers"])

    def test_without_sliding_finds_indispensable_fiber(self, runner, tmp_path):
        report = tmp_path / "rep.json"
        result = runner.invoke(main, [
            "verify-basis", "--T", "3", "--n-max", "3",
            "--families", "type1,crossing,2x2,type4,type2",
            "--report", str(report),
        ])
        assert result.exit_code == 4
        payload = json.loads(report.read_text())
        bad = [f for f in payload["fibers"] if len(f["components"]) > 1]
        assert [2, 2, 0, 2] in [f["b"] for f in bad]

    def test_unknown_family_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "verify-basis", "--T", "3", "--n-max", "2", "--families", "zigzag",
        ])
        assert result.exit_code == 1

    # Report hashes recorded from an implementation that enumerated every
    # fiber by depth-first search; the report bytes must not change.
    @pytest.mark.parametrize("args, code, digest", [
        (["--T", "4", "--n-max", "3"], 0,
         "869b84b58eaa330cec1000d3cc0a42bbefade59444c2de93e33d87fcfafcba8c"),
        (["--T", "4", "--n-max", "3", "--families", "type1,crossing,2x2,type4"], 4,
         "6ece412fede7b24abc2cf8e25e2ca2f11f144254a1d443f81ae19340a20a9875"),
        (["--T", "3", "--n-max", "4",
          "--families", "type1,crossing,2x2,type4,type2"], 4,
         "0bddfd32436018415a7c72249e1ee95c8e556a955e92a4cbc8a452111c5cb7cd"),
    ])
    def test_report_bytes(self, runner, tmp_path, args, code, digest):
        report = tmp_path / "rep.json"
        result = runner.invoke(main, ["verify-basis", *args, "--report", str(report)])
        assert result.exit_code == code, result.output
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


class TestCmdEnumerateFiber:
    def test_indispensable_pair(self, runner):
        result = runner.invoke(main, ["enumerate-fiber", "--T", "3", "--b", "2,2,0,2"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["112:2 222:1", "111:1 122:2"]

    def test_empty_fiber_diagnostic_on_stderr(self, runner):
        result = runner.invoke(main, ["enumerate-fiber", "--T", "3", "--b", "1,0,0,1"])
        assert result.exit_code == 0
        assert result.stdout == ""
        assert "empty" in result.stderr

    def test_bad_stat_is_usage_error(self, runner):
        result = runner.invoke(main, ["enumerate-fiber", "--T", "3", "--b", "1,2,3"])
        assert result.exit_code == 1


class TestCmdMoves:
    def test_sliding_moves_at_T3(self, runner):
        result = runner.invoke(main, ["moves", "--T", "3", "--family", "deg3-sliding"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "+1 111  +2 122  -2 112  -1 222",
            "+1 111  +2 221  -2 211  -1 222",
        ]

    def test_unknown_family(self, runner):
        result = runner.invoke(main, ["moves", "--T", "3", "--family", "nope"])
        assert result.exit_code == 1

    def test_cap_enforced(self, runner):
        result = runner.invoke(main, ["moves", "--T", "9", "--family", "crossing"])
        assert result.exit_code == 1


class TestBundledDataConsistency:
    def test_repo_copy_matches_package_copy(self):
        from pathlib import Path

        repo_copy = Path(__file__).resolve().parent.parent / "data" / "klotz.csv"
        assert repo_copy.read_bytes() == klotz_path().read_bytes()
