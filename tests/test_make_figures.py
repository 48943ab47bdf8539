import subprocess
import sys
from pathlib import Path

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
