import subprocess
import sys
from pathlib import Path

import pytest

from phasekit import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_figures.py"


def test_csvs_match_the_figure_command(tmp_path, capsys):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--no-plots", "--outdir", str(tmp_path)],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"figure{fig_id}.csv" for fig_id in (1, 2, 3, 4, 5)
    ]
    for fig_id in (1, 2, 3, 4, 5):
        assert cli.main(["figure", "--id", str(fig_id)]) == 0
        expected = capsys.readouterr().out.encode()
        assert (tmp_path / f"figure{fig_id}.csv").read_bytes() == expected


def test_bad_cross_check_alpha2_exits_2_before_writing(tmp_path):
    for value in ("-1", "nan"):
        outdir = tmp_path / value
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--no-plots", "--outdir", str(outdir),
             "--cross-check-alpha2", value],
            capture_output=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert b"non-negative" in proc.stderr
        assert not outdir.exists()


@pytest.mark.parametrize(
    "value, code, line",
    [
        ("inf", 2, "cross_check_alpha2 must be finite and non-negative, got inf"),
        # a strength past the photon-count ceiling is a resource limit
        ("1e12", 3, "truncation needs photon counts up to 1e+12, above the ceiling of 1048576"),
    ],
)
def test_a_refused_table_exits_with_one_line_before_writing(tmp_path, value, code, line):
    outdir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--no-plots", "--outdir", str(outdir),
         "--cross-check-alpha2", value],
        capture_output=True,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"make_figures.py: {line}\n"
    assert not outdir.exists()


def test_unusable_output_paths_exit_2_with_one_line(tmp_path):
    # an existing file in place of the output directory
    blocker = tmp_path / "file"
    blocker.write_text("kept", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--no-plots", "--outdir", str(blocker)],
        capture_output=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"make_figures.py: cannot create {blocker}: File exists\n"
    assert blocker.read_text(encoding="utf-8") == "kept"
    # a directory in place of one table's file
    outdir = tmp_path / "out"
    (outdir / "figure3.csv").mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--no-plots", "--outdir", str(outdir)],
        capture_output=True,
    )
    assert proc.returncode == 2, proc.stderr
    stderr = proc.stderr.decode()
    assert stderr.startswith(f"make_figures.py: cannot write {outdir / 'figure3.csv'}: ")
    assert stderr.count("\n") == 1
    assert sorted(p.name for p in outdir.iterdir()) == ["figure1.csv", "figure2.csv", "figure3.csv"]
