"""Tests for the CLI and the dbgen-compatible .tbl round-trip."""

import pytest

from repro.cli import build_parser, main
from repro.common.errors import StorageError
from repro.tpch.dbgen import DbGen
from repro.tpch.queries import run_query
from repro.tpch.tbl_io import read_tbl, write_tbl


class TestTblRoundTrip:
    @pytest.fixture(scope="class")
    def tbl_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("tbl")
        db = DbGen(0.002, seed=9).generate()
        write_tbl(db, directory)
        return directory, db

    def test_all_files_written(self, tbl_dir):
        directory, db = tbl_dir
        for name in ("lineitem", "orders", "customer", "nation", "region",
                     "part", "partsupp", "supplier"):
            assert (directory / f"{name}.tbl").exists()

    def test_pipe_terminated_format(self, tbl_dir):
        directory, _ = tbl_dir
        line = (directory / "region.tbl").read_text().splitlines()[0]
        assert line.endswith("|")
        assert line.startswith("0|AFRICA|")

    def test_roundtrip_preserves_rows(self, tbl_dir):
        directory, db = tbl_dir
        loaded = read_tbl(directory)
        for name in ("orders", "nation"):
            assert loaded.table(name).row_count == db.table(name).row_count
        original = db.table("nation").rows[0]
        restored = loaded.table("nation").rows[0]
        assert restored == original

    def test_roundtrip_preserves_query_answers(self, tbl_dir):
        directory, db = tbl_dir
        loaded = read_tbl(directory)
        a = run_query(6, db)
        b = run_query(6, loaded)
        assert a[0]["revenue"] == pytest.approx(b[0]["revenue"], rel=1e-6)

    def test_float_formatting_two_decimals(self, tbl_dir):
        directory, _ = tbl_dir
        line = (directory / "customer.tbl").read_text().splitlines()[0]
        acctbal = line.split("|")[5]
        assert "." in acctbal and len(acctbal.split(".")[1]) == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError):
            read_tbl(tmp_path, tables=["orders"])

    def test_malformed_line_raises(self, tmp_path):
        (tmp_path / "region.tbl").write_text("0|AFRICA|\n")  # missing a field
        with pytest.raises(StorageError):
            read_tbl(tmp_path, tables=["region"])


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["dbgen", "--sf", "0.001"])
        assert args.sf == 0.001
        args = parser.parse_args(["query", "5", "--limit", "3"])
        assert args.number == 5

    def test_query_command(self, capsys):
        assert main(["query", "6", "--sf", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "revenue" in out
        assert "1 row(s)" in out

    def test_dbgen_command(self, tmp_path, capsys):
        assert main(["dbgen", "--sf", "0.001", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "lineitem.tbl").exists()

    def test_oltp_single_workload(self, capsys):
        assert main(["oltp", "--workload", "C"]) == 0
        out = capsys.readouterr().out
        assert "workload C" in out
        assert "sql-cs" in out

    def test_oltp_bad_workload(self, capsys):
        assert main(["oltp", "--workload", "Z"]) == 2

    @staticmethod
    def _usage_error(capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before the run prints anything
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        return err

    @pytest.mark.parametrize("argv", [
        ["query", "99"],
        ["explain", "0"],
        ["dss", "--trace-query", "99"],
        ["dss", "--trace-query", "99", "--trace", "t.json"],
    ])
    def test_bad_query_number_is_a_usage_error(self, argv, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert "not a TPC-H query" in self._usage_error(capsys, argv)
        assert not any(tmp_path.iterdir())  # checked before any work

    @pytest.mark.parametrize("command", [
        ["oltp", "--workload", "C", "--duration", "12"],
        ["dss", "--trace-query", "6", "--trace-sf", "1"],
    ])
    @pytest.mark.parametrize("flag", ["--trace", "--metrics", "--utilization"])
    def test_unwritable_output_is_a_usage_error(self, command, flag, tmp_path,
                                                capsys):
        path = str(tmp_path / "no_such_dir" / "out")
        assert "cannot write" in self._usage_error(capsys, [*command, flag, path])

    @pytest.mark.parametrize("sql", [
        "select $ from nation",
        "select n_nope from nation",
        "select n_name from nation join region on n_nope = r_regionkey",
        "select count(*) from nation group by n_nope",
    ])
    def test_bad_hiveql_is_a_usage_error(self, sql, capsys):
        self._usage_error(capsys, ["hiveql", sql, "--sf", "0.001"])

    def test_malformed_hiveql_fails_before_generating_data(self, capsys,
                                                           monkeypatch):
        from repro.tpch.dbgen import DbGen

        def refuse(self):
            raise AssertionError("generated data for malformed SQL")

        monkeypatch.setattr(DbGen, "generate", refuse)
        err = self._usage_error(capsys, ["hiveql", "select $ from nation"])
        assert "cannot tokenize" in err

    @pytest.mark.parametrize("argv", [
        ["query", "1", "--sf", "0.000001"],
        ["dbgen", "--sf", "0.000001"],
        ["hiveql", "select n_name from nation", "--sf", "0.000001"],
        ["dss", "--calibration-sf", "0.000001"],
        ["dss", "--calibration-sf", "1e-9"],
    ], ids=["query", "dbgen", "hiveql", "calibration-no-customers",
            "calibration-no-orders"])
    def test_scale_factor_dbgen_cannot_serve_is_a_usage_error(
            self, argv, tmp_path, monkeypatch, capsys):
        # Below 1/300,000 an SF places orders but no customers; below
        # 1/3,000,000 it places no orders, which a calibration cannot use.
        from repro.tpch.dbgen import DbGen

        def refuse(self):
            raise AssertionError("generated data for a refused scale factor")

        monkeypatch.setattr(DbGen, "generate", refuse)
        monkeypatch.chdir(tmp_path)
        assert "-sf" in self._usage_error(capsys, argv)
        assert not any(tmp_path.iterdir())

    def test_smallest_scale_factors_still_run(self, capsys):
        assert main(["query", "1", "--sf", "1e-9"]) == 0
        assert capsys.readouterr().out == "(0 row(s))\n"
        # The smallest calibration SF with a customer (and five orders).
        assert main(["dss", "--calibration-sf", "0.0000034"]) == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliExtras:
    def test_hiveql_command(self, capsys):
        from repro.cli import main

        code = main([
            "hiveql",
            "SELECT COUNT(*) AS n FROM orders",
            "--sf", "0.002",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "'n': 3000" in out

    def test_explain_command(self, capsys):
        from repro.cli import main

        assert main(["explain", "6", "--sf", "1000"]) == 0
        out = capsys.readouterr().out
        assert "Hive plan for Q6" in out
        assert "PDW plan for Q6" in out
