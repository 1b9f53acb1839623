"""The per-column comparison of ``tools/output_digests.py --against`` and
its convergence tables."""

import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)

HEADER = "method,step,H_hat,solution_rel_err,amp_0,amp_1\n"


def compare(tmp_path, ours, theirs):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    mine, other = tmp_path / "a" / "run.csv", tmp_path / "b" / "run.csv"
    mine.write_text(ours)
    other.write_text(theirs)
    return list(output_digests.differences(mine, other))


def test_equal_files_print_nothing(tmp_path):
    text = HEADER + "collective,0,1.5,,0.25,nan\n"
    assert compare(tmp_path, text, text) == []


def test_columns_report_rows_and_largest_differences(tmp_path):
    ours = HEADER + ("collective,0,2.0,,1.0,4.0\n"
                     "collective,1,3.0,0.5,1.0,nan\n"
                     "collective,2,1.0,0.5,0.5,0.5\n")
    theirs = HEADER + ("collective,0,2.5,,1.0,4.0\n"
                       "collective,1,3.0,,1.5,nan\n"
                       "collective,2,1.0,0.5,0.5,0.25\n")
    assert compare(tmp_path, ours, theirs) == [
        "    H_hat: 1 of 3 rows differ, max abs 0.5, max rel 0.2",
        "    solution_rel_err: 1 of 3 rows differ, max abs 0, max rel 0",
        # amp_0 and amp_1 fold into one column; row 1 and row 2 differ
        "    amp_*: 2 of 3 rows differ, max abs 0.5, max rel 0.5",
    ]


def test_missing_and_reshaped_files_are_named(tmp_path):
    mine = tmp_path / "run.csv"
    mine.write_text(HEADER)
    assert list(output_digests.differences(mine, tmp_path / "nowhere" / "x")) \
        == [f"    missing from {tmp_path / 'nowhere'}"]
    lines = compare(tmp_path, HEADER + "collective,0,1,,1,1\n", HEADER)
    assert lines == ["    shape differs: 1 rows against 0, or another header"]


def test_converge_tables_are_digested(tmp_path):
    lines = list(output_digests.converge_digests(tmp_path))
    names = ["converge-burgers-shock-auto.csv",
             "converge-burgers-shock-fine-grid.csv",
             "converge-periodic-bump-fine-grid.csv",
             "converge-travelling-wave-auto.csv"]
    assert lines == [
        f"{hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()}  {n}"
        for n in names]
    tables = [(tmp_path / n).read_text().splitlines() for n in names]
    for table in tables:
        assert table[0] == \
            "method,N,dx,solution_err,H_err,casimir_err,observed_order"
        assert [row.split(",")[:2] for row in table[1:]] == [
            ["collective", "8"], ["collective", "16"],
            ["conventional", "8"], ["conventional", "16"]]
    auto, fine = tables[:2]
    # the same runs against two references: only the solution errors and
    # the orders read off them differ
    for ours, theirs in zip(auto[1:], fine[1:]):
        ours, theirs = ours.split(","), theirs.split(",")
        assert ours[:3] + ours[4:6] == theirs[:3] + theirs[4:6]
        assert ours[3] != theirs[3]
