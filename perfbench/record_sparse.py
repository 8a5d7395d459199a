"""Record the sparse-t12-test reference values for seeds 0..N-1.

    python3 perfbench/record_sparse.py 1024

Runs ``thmc test`` at the CLI defaults on the generated table of each seed
and stores the printed ``L`` and ``p_asymptotic`` in
``sparse_t12_reference.json``.  Stops with an error if any run exits
non-zero, so every recorded seed is one on which the workload succeeds.
"""

from __future__ import annotations

import json
import sys

from child import run_cli
from run import OUT, SPARSE_REFERENCE, SRC, sparse_csv


def main() -> None:
    count = int(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import thmc.cli

    OUT.mkdir(parents=True, exist_ok=True)
    csv_path = OUT / "record.csv"
    recorded = {}
    for seed in range(count):
        csv_path.write_text(sparse_csv(seed), encoding="utf-8")
        code, out = run_cli(thmc, ["test", "--input", str(csv_path), "--seed", str(seed)])
        if code != 0:
            sys.exit(f"seed {seed}: thmc test exited {code}")
        result = json.loads(out)
        recorded[str(seed)] = [result["L"], result["p_asymptotic"]]
    csv_path.unlink()
    SPARSE_REFERENCE.write_text(
        "{\n" + ",\n".join(f'"{k}": [{v[0]!r}, {v[1]!r}]' for k, v in recorded.items()) + "\n}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
