import csv
import hashlib
import io
import json

import numpy as np
import pytest

from quadclass import forms, sweep
from quadclass.cli import build_parser, main


def _run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    return out


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_classgroup_rows_canonical_order(capsys):
    out = _run(capsys, "classgroup", "--disc", "-4027", "--disc", "-23")
    lines = out.strip().splitlines()
    assert lines[0] == "disc,h,invariant_factors"
    assert lines[1] == "-23,3,3"
    assert lines[2] == "-4027,9,3;3"


def test_witness_row_and_not_found(capsys):
    out = _run(capsys, "witness", "--disc", "-47", "--p", "2", "--bound", "100")
    assert out.strip().splitlines()[1] == "-47,5,2,2,2"
    out = _run(capsys, "witness", "--disc", "-23", "--p", "2", "--bound", "1000")
    assert out.strip().splitlines()[1] == "-23,3,2,,"


def test_census_counts(capsys):
    out = _run(capsys, "census", "--max-abs-disc", "50", "--orders", "3,1,2")
    # canonical ordering sorts the requested orders
    assert out.strip().splitlines() == ["order,count", "1,7", "2,5", "3,2"]


def test_suitable_rows(capsys):
    out = _run(capsys, "suitable", "--disc", "-47", "--disc", "-23", "--p", "2")
    assert out.strip().splitlines() == [
        "disc,h,p,suitable,witness_h",
        "-23,3,2,0,",
        "-47,5,2,1,5",
    ]


def test_traces_rows(capsys):
    out = _run(capsys, "traces", "--orders", "9,5", "--p", "2")
    rows = _rows(out)
    assert [r["h"] for r in rows] == ["5", "9"]
    assert rows[0] == {"h": "5", "p": "2", "m": "4", "trace_field_degree": "2"}


def test_traces_skips_non_coprime_orders(capsys):
    # h = 8 shares a factor with p = 2, so only the h = 5 row survives
    out = _run(capsys, "traces", "--orders", "5,8", "--p", "2")
    assert [r["h"] for r in _rows(out)] == ["5"]


def test_large_prime_rows(capsys):
    # m is the order of p mod h, and p = +-1 mod h puts every trace and
    # every coefficient in F_p: 101 = 1 and 1009 = -1 mod 5
    out = _run(capsys, "traces", "--orders", "5", "--p", "101", "--p", "1009")
    assert out.strip().splitlines()[1:] == ["5,101,1,1", "5,1009,2,1"]
    out = _run(capsys, "witness", "--disc", "-47", "--p", "1009", "--bound", "100")
    assert out.strip().splitlines()[1] == "-47,5,1009,,"
    # a prime past trial-division reach: 2^61 - 1 = 1 mod 5
    out = _run(capsys, "suitable", "--disc", "-47", "--p", str(2**61 - 1))
    assert out.strip().splitlines()[1] == f"-47,5,{2**61 - 1},0,"


def test_exp3scan_rows(capsys):
    out = _run(capsys, "exp3scan", "--max-abs-disc", "100")
    assert out.strip().splitlines() == [
        "disc,h,invariant_factors",
        "-23,3,3",
        "-31,3,3",
        "-59,3,3",
        "-83,3,3",
    ]


def test_density_rows(capsys):
    out = _run(capsys, "density", "--p", "2", "--bounds", "1000,10000")
    rows = _rows(out)
    assert [r["x"] for r in rows] == ["1000", "10000"]
    for r in rows:
        assert float(r["ratio"]) == pytest.approx(
            int(r["count_member"]) / int(r["count_ambient"]), abs=1e-6
        )


def test_density_bounds_match_single_runs(capsys, tmp_path):
    """One command's cache serves all of its bounds: the rows are those of
    the single-bound runs, and the cache file that of the larger bound."""
    many, single = tmp_path / "many.csv", tmp_path / "single.csv"
    out = _run(capsys, "--cache-path", str(many), "density", "--p", "2", "--bounds", "1000,20000")
    rows = [_run(capsys, "density", "--p", "2", "--bounds", "1000").splitlines()[1]]
    rows += _run(
        capsys, "--cache-path", str(single), "density", "--p", "2", "--bounds", "20000"
    ).splitlines()[1:]
    assert out.splitlines() == ["x,count_member,count_ambient,ratio"] + rows
    assert many.read_bytes() == single.read_bytes()


def test_clweights_rows_increasing(capsys):
    out = _run(capsys, "clweights", "--skip-primes", "2,3", "--bounds", "100,1000")
    rows = _rows(out)
    assert len(rows) == 2
    for r in rows:
        assert float(r["weighted_sum"]) > float(r["lower_bound"])
    assert float(rows[1]["weighted_sum"]) > float(rows[0]["weighted_sum"])


def test_clcompare_row(capsys):
    out = _run(capsys, "clcompare", "--p", "3", "--bound", "2000")
    (row,) = _rows(out)
    assert row["p"] == "3" and row["X"] == "2000"
    assert abs(
        float(row["abs_diff"]) - abs(float(row["empirical"]) - float(row["predicted"]))
    ) < 2e-6


def test_landau_samples(capsys):
    out = _run(capsys, "landau", "--bound", "2000", "--modulus", "4", "--residues", "1")
    rows = _rows(out)
    xs = [int(r["x"]) for r in rows]
    assert xs == sorted(xs) and xs[-1] == 2000
    counts = [int(r["count"]) for r in rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_json_is_faithful_reencoding(capsys):
    csv_out = _run(capsys, "classgroup", "--disc", "-47", "--disc", "-4027")
    json_out = _run(
        capsys, "--format", "json", "classgroup", "--disc", "-47", "--disc", "-4027"
    )
    parsed = json.loads(json_out)
    # same rows, same key order, native types in the JSON encoding
    as_strings = [{k: str(v) for k, v in row.items()} for row in parsed]
    assert as_strings == _rows(csv_out)
    assert [list(r) for r in parsed] == [list(r) for r in _rows(csv_out)]


def test_output_file_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["--output", str(path), "census", "--max-abs-disc", "2000", "--orders", "1,2,4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["batch", "--max-abs-disc", "2000"],
        ["classgroup", "--disc", "-47", "--disc", "-4027"],
        ["exp3scan", "--max-abs-disc", "3"],  # no rows
    ],
)
def test_emit_same_bytes_to_stdout_and_output(tmp_path, capsys, fmt, argv):
    path = tmp_path / "out"
    stdout = _run(capsys, "--format", fmt, *argv)
    assert main(["--format", fmt, "--output", str(path), *argv]) == 0
    assert path.read_bytes() == stdout.encode()
    assert capsys.readouterr().out == ""


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    out = {}
    for workers in ("1", "2"):
        # an empty table, so that each run sweeps with its own worker count
        monkeypatch.setattr(sweep, "_store", np.zeros(0, dtype=np.int64))
        out[workers] = tmp_path / f"w{workers}.csv"
        argv = ["--workers", workers, "--output", str(out[workers]), "census"]
        assert main(argv + ["--max-abs-disc", "3000", "--orders", "2,4"]) == 0
        assert sweep._store.size == 3001
    assert out["1"].read_bytes() == out["2"].read_bytes()


def test_cache_roundtrip_via_flag(tmp_path, capsys):
    path = tmp_path / "cache.csv"
    _run(capsys, "--cache-path", str(path), "suitable", "--disc", "-47", "--p", "2")
    assert path.exists()
    first = path.read_text()
    assert "-47" in first
    # second run consumes the cache and leaves it unchanged
    _run(capsys, "--cache-path", str(path), "suitable", "--disc", "-47", "--p", "2")
    assert path.read_text() == first


def test_cache_path_from_environment(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env.csv"
    monkeypatch.setenv("QUADCLASS_CACHE", str(path))
    first = _run(capsys, "suitable", "--disc", "-23", "--p", "2")
    rows = path.read_text().splitlines()
    assert rows == ["disc,h,invariant_factors", "-23,3,3"]

    def refuse(D):
        raise AssertionError(f"class group of {D} recomputed")

    # the second run answers from the file alone
    monkeypatch.setattr(forms, "class_group", refuse)
    assert _run(capsys, "suitable", "--disc", "-23", "--p", "2") == first
    assert path.read_text().splitlines() == rows


# sha256 of `batch --max-abs-disc 5000` output: the bytes must not
# depend on how the class-number table hands its rows to the CLI
BATCH_5000_SHA256 = {
    "csv": "d9f5488481b8453a07b1c68313aeaf8cdd2a55fd5aa9e396706fa6d4b3898061",
    "json": "df06102d37768a0d05945ebaac8120cde3bb07b82d7443112f805a226328b158",
}


@pytest.mark.parametrize("fmt", sorted(BATCH_5000_SHA256))
def test_batch_output_pinned(capsys, fmt):
    out = _run(capsys, "--format", fmt, "batch", "--max-abs-disc", "5000")
    assert hashlib.sha256(out.encode()).hexdigest() == BATCH_5000_SHA256[fmt]


# sha256 of CSV output from the two sieve-backed subcommands, `landau`
# (Landau masks) and `clweights` (orders coprime to the skipped primes)
SIEVE_OUTPUT_SHA256 = {
    "landau --bound 1000000 --modulus 4 --residues 1":
        "95a466f197dfa37de84997ba621a9b5d01b097ecc8870466f1dafe44e7056562",
    "clweights --skip-primes 2,3 --bounds 100,1000,10000":
        "01ec1c0373a0c95cfb18d040206fa6e673eb6a361772de6422fd8ebf0904a0b2",
}


@pytest.mark.parametrize("command", sorted(SIEVE_OUTPUT_SHA256))
def test_sieve_output_pinned(capsys, command):
    out = _run(capsys, *command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == SIEVE_OUTPUT_SHA256[command]


# sha256 of CSV output from the sweep-backed subcommands up to the
# class-data cap, recorded with the strided kernel that
# tests/_oracles.py keeps as sweep_counts_by_strides
SWEEP_OUTPUT_SHA256 = {
    "census --max-abs-disc 4000000 --orders 1,2,3,128,256,512":
        "200b1e22e032bc530804e255e1147f31238f0e15787cc3abe7ba426c80811598",
    "clcompare --p 3 --p 5 --bound 4000000":
        "90fa6cbf9703ddfb92aa44c975b5534ce146e1adda71c4556e88698ca8b57a55",
    "batch --max-abs-disc 1000000":
        "4aae2542885eb3de80f78cbffdf4c229cfccb89be0442e7ed4914026f404594a",
}


@pytest.mark.parametrize("command", sorted(SWEEP_OUTPUT_SHA256))
def test_sweep_output_pinned(capsys, command):
    out = _run(capsys, *command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_OUTPUT_SHA256[command]


def test_census_budget_override(capsys):
    # census is the one subcommand whose class-data cap can be set
    assert main(["census", "--budget", "100", "--max-abs-disc", "101", "--orders", "1"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["quadclass: error: X = 101 exceeds the class-data budget 100"]
    out = _run(capsys, "census", "--budget", "101", "--max-abs-disc", "101", "--orders", "1")
    assert out.splitlines()[0] == "order,count"


def test_budget_error_exit_code(capsys):
    rc = main(["census", "--max-abs-disc", "99999999", "--orders", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err and "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--p", "2", "--bounds", "0"],
        ["clcompare", "--p", "3", "--bound", "2"],
        ["landau", "--bound", "100", "--modulus", "0"],
        ["census", "--max-abs-disc", "-1", "--orders", "1"],
        ["suitable", "--disc", "-47", "--p", "1"],
        ["witness", "--disc", "-47", "--p", "1", "--bound", "100"],
        ["traces", "--orders", "5", "--p", "1"],
        ["traces", "--orders", "5", "--p", "6"],
        ["suitable", "--disc", "-47", "--p", "6"],
        ["witness", "--disc", "-47", "--p", "4", "--bound", "100"],
        ["density", "--p", "4", "--bounds", "100"],
        ["--workers", "0", "census", "--max-abs-disc", "50", "--orders", "1"],
        ["--workers", "-3", "census", "--max-abs-disc", "50", "--orders", "1"],
        ["clweights", "--skip-primes", "2", "--bounds", "-5"],
        ["traces", "--orders", "5", "--p", "2147483647"],
        ["traces", "--orders", "2", "--p", "94906297"],
        ["witness", "--disc", "-47", "--p", "2147483647", "--bound", "100"],
        ["density", "--p", "2", "--p", "3", "--bounds", "1000"],
        ["census", "--max-abs-disc", "100", "--orders", "0,-1"],
        ["traces", "--orders", "0", "--p", "3"],
        ["landau", "--bound", "0", "--modulus", "4", "--residues", "1"],
        ["clweights", "--skip-primes", "0", "--bounds", "10"],
        ["clweights", "--skip-primes", "1", "--bounds", "10"],
        # psi_13, where deterministic Miller-Rabin on bases 2..41 ends
        ["suitable", "--disc", "-47", "--p", "3317044064679887385961981"],
        ["clweights", "--skip-primes", "3317044064679887385961981", "--bounds", "10"],
        # h = 1523 needs F_{2^1522}, past the degree cap of 512
        ["traces", "--orders", "1523", "--p", "2"],
        ["witness", "--disc", "-1000151", "--p", "2", "--bound", "1000"],
        # 2 has order 50000003 mod 100000007, read off the factorization
        # of phi(h) in well under a second
        ["traces", "--orders", "100000007", "--p", "2"],
    ],
)
def test_out_of_range_input_exits_two_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("quadclass: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["classgroup", "--disc", "abc"],
        ["--format", "xml", "classgroup", "--disc", "-47"],
        ["frobnicate"],
        [],
        ["density", "--p", "2"],
        ["census", "--max-abs-disc", "100", "--orders", "1,x"],
        ["landau", "--bound", "100", "--modulus", "4", "--residues", "1,y"],
        ["traces", "--orders", "5,z", "--p", "2"],
    ],
)
def test_malformed_input_exits_two_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("quadclass: error: ")


def test_malformed_flags_exit_nonzero():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["census"])  # missing required flags


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
