"""Tracing must not change what the CLI prints.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p "test_*.py"

A traced call and an untraced call with the same arguments must give the
same ``thmc test`` JSON and the same ``verify-basis`` report bytes, which
shows that the span wrappers do not perturb the random stream or the
results.  The sweep here is T=5, n<=3 to keep the test short; every traced
benchmark run also checks the full T=5, n<=4 report against its recorded
hash.
"""

from __future__ import annotations

import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def call(argv: list[str], traced: bool, work: Path) -> dict:
    args = ["--trace", "--spans", str(work / "spans.json")] if traced else []
    return run.child("cli", [*args, "--", *argv], time.perf_counter() + 120)


class TraceIdentity(unittest.TestCase):
    def setUp(self) -> None:
        run.OUT.mkdir(parents=True, exist_ok=True)
        self._dir = tempfile.TemporaryDirectory(dir=run.OUT)
        self.work = Path(self._dir.name)

    def tearDown(self) -> None:
        self._dir.cleanup()

    def assert_same(self, argv: list[str], report: Path | None = None) -> dict:
        outputs = []
        for traced in (False, True):
            op = call(argv, traced, self.work)
            self.assertEqual(op["exit_code"], 0)
            outputs.append((op["stdout"], report.read_bytes() if report else None))
        self.assertEqual(outputs[0], outputs[1])
        return op

    def test_klotz_test_json(self) -> None:
        op = self.assert_same(
            ["test", "--input", run.KLOTZ_CSV, "--map", "M=1,F=2", "--seed", "7"])
        self.assertEqual(op["layers"]["moves.sample_calls"], 15000)

    def test_sparse_test_json(self) -> None:
        csv_path = self.work / "sparse.csv"
        csv_path.write_text(run.sparse_csv(7), encoding="utf-8")
        self.assert_same(["test", "--input", str(csv_path), "--seed", "7"])

    def test_sweep_report_bytes(self) -> None:
        report = self.work / "report.json"
        op = self.assert_same(
            ["verify-basis", "--T", "5", "--n-max", "3", "--report", str(report)], report)
        layers = op["layers"]
        self.assertEqual(layers["fiber.fibers"], layers["fiber.connectivity_calls"])
        self.assertGreater(layers["cli.component_tables_s"], 0)


if __name__ == "__main__":
    unittest.main()
