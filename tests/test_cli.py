import csv
import io
import json

import pytest

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


def test_worker_count_does_not_change_output(tmp_path):
    one = tmp_path / "w1.csv"
    two = tmp_path / "w2.csv"
    assert main(["--workers", "1", "--output", str(one), "census", "--max-abs-disc", "3000", "--orders", "2,4"]) == 0
    assert main(["--workers", "2", "--output", str(two), "census", "--max-abs-disc", "3000", "--orders", "2,4"]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_cache_roundtrip_via_flag(tmp_path, capsys):
    path = tmp_path / "cache.csv"
    _run(capsys, "--cache-path", str(path), "suitable", "--disc", "-47", "--p", "2")
    assert path.exists()
    first = path.read_text()
    assert "-47" in first
    # second run consumes the cache and leaves it unchanged
    _run(capsys, "--cache-path", str(path), "suitable", "--disc", "-47", "--p", "2")
    assert path.read_text() == first


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
    ],
)
def test_out_of_range_input_exits_two_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("quadclass: error: ")


def test_malformed_flags_exit_nonzero():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["census"])  # missing required flags


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
