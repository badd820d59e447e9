import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_transition_report_prints_the_kink_and_matching_discords():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "transition_report.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    kinks = {row[0]: row[2] for row in rows if len(row) == 3}
    assert kinks == {"x": "0.136666", "y": "0.136666"}
    # Snapshot rows: channel, tau (closed), tau (state), discord (closed), discord (optim), min PT eig.
    snapshots = [row for row in rows if len(row) == 6 and row[0] in ("x", "y", "z", "iso")]
    assert len(snapshots) == 8  # four channels at kappa*t = 0.1 and 0.3
    for channel, _, _, closed, optim, _ in snapshots:
        assert optim == closed, f"{channel}: discord (optim) {optim} != discord (closed) {closed}"
