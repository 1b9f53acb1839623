"""The per-column comparison of ``tools/output_digests.py --against`` and
its convergence tables."""

import hashlib
import importlib.util
import json
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


BENCH_TOOL = TOOL.with_name("bench_pairs.py")
bench_spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_TOOL)
bench_pairs = importlib.util.module_from_spec(bench_spec)
bench_spec.loader.exec_module(bench_pairs)


def canned(step_ms, correct=True):
    """A benchmark result whose every metric reads ``step_ms``."""
    return {"correct": correct, "host": {"cpu": "test"},
            "metrics": {name: {"value": step_ms, "unit": unit}
                        for name, unit in bench_pairs.END_TO_END.items()}}


def test_pairs_alternate_and_summarise(capsys):
    readings = {("p", 1): 4.0, ("c", 1): 3.0, ("p", 2): 2.0, ("c", 2): 2.5,
                ("p", 3): 6.0, ("c", 3): 1.0}
    calls = []

    def runner(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return canned(readings[checkout, seed], correct=seed != 3)

    pairs = bench_pairs.run_pairs("p", "c", "bump-long", [1, 2, 3], 40.0,
                                  runner)
    assert calls == [("p", 1), ("c", 1), ("c", 2), ("p", 2), ("p", 3),
                     ("c", 3)]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]
    summary = bench_pairs.summarise(pairs)
    assert summary["collective.step_ms"] == {
        "unit": "ms", "parent_median": 4.0, "change_median": 2.5,
        "parent_quartiles": [3.0, 5.0], "change_quartiles": [1.75, 2.75],
        "pairs": 3, "change_lower": 2}
    lines = bench_pairs.summary_lines(summary, pairs)
    assert lines[3].split() == ["collective.step_ms", "ms", "4", "2.5",
                                "-37.5", "%", "2", "2/3"]
    assert lines[-2:] == ["parent: 2 of 3 runs correct",
                          "change: 2 of 3 runs correct"]


def test_a_failed_run_is_left_out_of_the_medians():
    pairs = [{"parent": canned(1.0), "change": {"correct": False,
                                                "metrics": {}}},
             {"parent": canned(3.0), "change": canned(2.0)}]
    summary = bench_pairs.summarise(pairs)["wall_s"]
    assert (summary["parent_median"], summary["change_median"]) == (2.0, 2.0)
    assert (summary["pairs"], summary["change_lower"]) == (1, 1)
    assert summary["change_quartiles"] == [2.0, 2.0]


def test_failed_checks_are_kept_and_printed(tmp_path):
    # a checkout whose benchmark prints one failed repeat
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    result = dict(canned(2.0, correct=False), failed=2560)
    script.write_text(
        "print('FAILED repeat 3: CSV output differs from the first repeat "
        "of its phase')\n"
        "print('manifest {\"cpu\": \"test\"}')\n"
        f"print({json.dumps(json.dumps(result))})\n")
    run = bench_pairs.run_bench(str(tmp_path), "bump-long", 1, 1.0)
    assert run["failures"] == [
        "repeat 3: CSV output differs from the first repeat of its phase"]
    assert run["host"]["cpu"] == "test"
    pairs = [{"seed": 7, "parent": canned(1.0), "change": run}]
    lines = bench_pairs.summary_lines(bench_pairs.summarise(pairs), pairs)
    assert lines[-2:] == [
        "change: 0 of 1 runs correct",
        "  seed 7: repeat 3: CSV output differs from the first repeat of "
        "its phase"]


def test_checkouts_of_unequal_path_length_are_refused(tmp_path, capsys):
    code = bench_pairs.main(["--parent", str(tmp_path / "pa"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "bump-long", "--seeds", "1"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "differ in length" in err
