"""Command-line surface: exact test, basis verification, fiber and move listings.

Exit codes are stable: 0 success, 1 usage error, 2 ingestion error, 3 fit
failure, 4 disconnected fibers found, 5 enumeration budget exceeded.
Results go to stdout or the requested files; stderr carries diagnostics
only.  JSON output embeds the seed and the full flag set, and numbers are
written with 17 significant digits so byte-identical reruns are auditable.
Strings are escaped to ASCII as ``json.dumps`` escapes them: a control
character in a flag or path is written as its JSON escape (``\\t``,
``\\u0001``) and a non-ASCII character as ``\\uXXXX``.
JSON is serialized in one pass, piece by piece, through a write callable:
``thmc test`` collects the pieces and joins them, and ``verify-basis
--report`` writes each piece to the report as soon as it is serialized;
its fibers are rendered a chunk at a time, so the whole report is never
held in memory.
"""

from __future__ import annotations

import errno
import os
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path as FilePath

import click

from . import fiber as fiber_mod
from . import inference
from .core import DENSE_T_CAP, MIN_T, TransitionStat, suff_stat
from .ingest import IngestError, ingest, parse_mapping
from .moves import Family, _family_weight, _normalize_weights, enumerate_family, format_move

EXIT_USAGE = 1
EXIT_INGEST = 2
EXIT_FIT = 3
EXIT_DISCONNECTED = 4
EXIT_BUDGET = 5

#: ``thmc test`` warns on stderr when the chain accepts fewer of its steps.
LOW_ACCEPTANCE = 0.01

# Exit code 2 is reserved for ingestion failures, so click's own usage
# errors (default code 2) are remapped onto the usage code.
click.UsageError.exit_code = EXIT_USAGE


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _json_pieces(value, write: Callable[[str], object], pad: str = "\n") -> None:
    """Pass the JSON text of ``value`` to ``write`` piece by piece, laid
    out as ``json.dumps(value, indent=2)`` lays it out; ``pad`` is the
    newline and indent of the current level.

    A dict is an object, and any other iterable but a string is a list,
    read once, so a generator's items can be written out between its
    steps.  Strings are escaped to ASCII as ``json.dumps`` escapes them,
    bar one whose ``is_json`` is true, and floats are written with 17
    significant digits.
    """
    if isinstance(value, str):
        write(value if getattr(value, "is_json", False) else _json_string(value))
        return
    if isinstance(value, bool):
        write("true" if value else "false")
        return
    if isinstance(value, int):
        write(str(value))
        return
    if isinstance(value, float):
        write(format(value, ".17g"))
        return
    if value is None:
        write("null")
        return
    inner = pad + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key, item in value.items():
            write(f"{sep}{_json_string(key)}: ")
            _json_pieces(item, write, inner)
            sep = "," + inner
        write("{}" if sep[0] == "{" else pad + "}")
        return
    sep = "[" + inner
    for item in value:
        write(sep)
        _json_pieces(item, write, inner)
        sep = "," + inner
    write("[]" if sep[0] == "[" else pad + "]")


def _write_file(destination: str, text: str) -> None:
    try:
        FilePath(destination).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_USAGE, f"cannot write {destination}: {exc.strerror or exc}")


def _check_writable(destination: str | None) -> None:
    """Fail as a write would, before any work, when ``destination`` cannot
    be written: its directory is missing or not writable, or it is itself a
    directory or a read-only file.  Nothing is created or truncated, so the
    write still reports a destination that changes meanwhile."""
    if destination is None:
        return
    path = FilePath(destination)
    parent = path.parent
    if path.is_dir():
        code = errno.EISDIR
    elif not parent.exists():
        code = errno.ENOENT
    elif not parent.is_dir():
        code = errno.ENOTDIR
    elif not os.access(path if path.exists() else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    _fail(EXIT_USAGE, f"cannot write {destination}: {os.strerror(code)}")


def _write_output(text: str, destination: str | None) -> None:
    if destination is None:
        click.echo(text, nl=False)
    else:
        _write_file(destination, text)


def _parse_weights(spec: str | None):
    """The ``--weights`` text as a mapping of family to weight, in the
    order it names them.  Each ``name=value`` item is checked as it is
    read, so a spec with two faults reports its first one, and the whole
    mapping is then checked as the sampler checks it."""
    if spec is None:
        return None
    weights: dict[Family, float] = {}
    for item in spec.split(","):
        if item.strip():
            name, _, value = item.partition("=")
            family, weight = _family_weight(name.strip(), value)
            weights[family] = weight
    _normalize_weights(weights)
    return weights


def _parse_families(spec: str) -> list[Family]:
    tokens = {f.value: f for f in Family}
    out: list[Family] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item not in tokens:
            raise ValueError(
                f"unknown family {item!r}; expected one of {sorted(tokens)}"
            )
        if tokens[item] not in out:
            out.append(tokens[item])
    if not out:
        raise ValueError("no families selected")
    return out


def _parse_stat(spec: str) -> TransitionStat:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected 'b11,b12,b21,b22', got {spec!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"non-integer entry in {spec!r}") from None
    if any(v < 0 for v in values):
        raise ValueError(f"transition counts must be nonnegative: {spec!r}")
    return TransitionStat(*values)


@click.group()
def main() -> None:
    """Markov-basis tooling for two-state chain path models."""


@main.command("test")
@click.option("--input", "input_path", required=True, help="CSV file of path,count rows.")
@click.option("--map", "mapping_spec", default="1=1,2=2", show_default=True,
              help="Two-symbol alphabet mapping, e.g. M=1,F=2.")
@click.option("--samples", default=10000, show_default=True, help="Post-burn-in samples.")
@click.option("--burnin", default=5000, show_default=True, help="Burn-in steps per chain.")
@click.option("--seed", default=0, show_default=True, help="Random seed.")
@click.option("--output", "output_path", default=None, help="Write result JSON here (default stdout).")
@click.option("--histogram", "histogram_path", default=None, help="Write histogram CSV here.")
@click.option("--weights", "weights_spec", default=None,
              help="Family proposal weights, e.g. type2=0.5,deg3-sliding=0.5.")
@click.option("--add-observed", is_flag=True, default=False,
              help="Use the (1+count)/(N+1) p-value convention.")
@click.option("--chains", default=1, show_default=True, help="Independent pooled chains.")
def cmd_test(input_path, mapping_spec, samples, burnin, seed, output_path,
             histogram_path, weights_spec, add_observed, chains) -> None:
    """Run the exact conditional goodness-of-fit test on a dataset."""
    if samples < 1:
        _fail(EXIT_USAGE, f"--samples must be >= 1, got {samples}")
    if burnin < 0:
        _fail(EXIT_USAGE, f"--burnin must be >= 0, got {burnin}")
    if chains < 1:
        _fail(EXIT_USAGE, f"--chains must be >= 1, got {chains}")
    if seed < 0:
        _fail(EXIT_USAGE, f"--seed must be >= 0, got {seed}")
    try:
        mapping = parse_mapping(mapping_spec)
        weights = _parse_weights(weights_spec)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
        return
    _check_writable(output_path)
    _check_writable(histogram_path)
    try:
        table = ingest(input_path, mapping)
    except (IngestError, OSError) as exc:
        _fail(EXIT_INGEST, str(exc))
        return
    if table.T > DENSE_T_CAP:
        _fail(EXIT_INGEST, f"path length T={table.T} exceeds the cap T <= {DENSE_T_CAP}")
    try:
        result = inference.exact_test(
            table,
            steps=samples,
            burnin=burnin,
            seed=seed,
            weights=weights,
            add_observed=add_observed,
            chains=chains,
        )
    except inference.FitError as exc:
        _fail(EXIT_FIT, str(exc))
        return
    b = suff_stat(table)
    payload = {
        "n": table.n,
        "T": table.T,
        "b": list(b.as_tuple()),
        "L": result.L_observed,
        "df": result.df,
        "p_asymptotic": result.p_asymptotic,
        "p_exact": result.p_exact,
        "samples": result.samples,
        "burnin": result.burnin,
        "seed": result.seed,
        "acceptance_rate": result.acceptance_rate,
        "null_proposal_rate": result.null_proposal_rate,
        "provenance": {
            "command": "test",
            "flags": {
                "input": str(input_path),
                "map": mapping_spec,
                "samples": samples,
                "burnin": burnin,
                "seed": seed,
                "weights": weights_spec,
                "add_observed": add_observed,
                "chains": chains,
            },
        },
    }
    pieces: list[str] = []
    _json_pieces(payload, pieces.append)
    pieces.append("\n")
    _write_output("".join(pieces), output_path)
    if histogram_path is not None:
        lines = ["bin_lower,count"]
        lines += [f"{format(lo, '.17g')},{c}" for lo, c in result.histogram]
        _write_file(histogram_path, "\n".join(lines) + "\n")
    if result.acceptance_rate < LOW_ACCEPTANCE:
        click.echo(
            f"warning: the chain accepted {result.acceptance_rate:.2%} of its "
            f"steps (below {LOW_ACCEPTANCE:.0%}); p_exact rests on few "
            f"distinct tables",
            err=True,
        )


@main.command("verify-basis")
@click.option("--T", "T", required=True, type=int, help="Path length.")
@click.option("--n-max", "n_max", required=True, type=int, help="Largest table total to sweep.")
@click.option("--families", "families_spec",
              default=",".join(f.value for f in Family), show_default=True,
              help="Comma list of move families to use.")
@click.option("--report", "report_path", default=None, help="Write the JSON report here.")
def cmd_verify_basis(T, n_max, families_spec, report_path) -> None:
    """Enumerate every fiber up to n-max and check connectivity."""
    if T < MIN_T:
        _fail(EXIT_USAGE, f"--T must be >= {MIN_T}, got {T}")
    if n_max < 0:
        _fail(EXIT_USAGE, f"--n-max must be >= 0, got {n_max}")
    try:
        families = _parse_families(families_spec)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
        return
    _check_writable(report_path)
    try:
        # A report writes every table, so the table budget holds as well.
        levels = fiber_mod._levels(T, n_max) if report_path is not None else None
        reports = fiber_mod.sweep(T, n_max, families)
    except fiber_mod.BudgetExceeded as exc:
        _fail(EXIT_BUDGET, str(exc))
        return
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
        return
    bad = fiber_mod.disconnected(reports)
    summary = {
        "fibers": len(reports),
        "connected": len(reports) - len(bad),
        "disconnected": len(bad),
    }
    # The report is written as it is serialized.
    if report_path is not None:
        from . import _report

        fibers = _report.report_fibers(reports, levels)

        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                _json_pieces({
                    "T": T,
                    "n_max": n_max,
                    "families": [f.value for f in families],
                    "fibers": fibers,
                    "summary": summary,
                    "provenance": {
                        "command": "verify-basis",
                        "flags": {
                            "T": T,
                            "n_max": n_max,
                            "families": families_spec,
                        },
                    },
                }, fh.write)
                fh.write("\n")
        except OSError as exc:
            _fail(EXIT_USAGE, f"cannot write {report_path}: {exc.strerror or exc}")
    click.echo(
        f"checked {summary['fibers']} fibers at T={T}, n<={n_max}: "
        f"{len(bad)} disconnected"
    )
    for r in bad:
        click.echo(
            f"  b={r.b.as_tuple()} fiber_size={r.fiber_size} "
            f"components={r.component_sizes}"
        )
    if bad:
        sys.exit(EXIT_DISCONNECTED)


@main.command("enumerate-fiber")
@click.option("--T", "T", required=True, type=int, help="Path length.")
@click.option("--b", "b_spec", required=True, help="Transition counts b11,b12,b21,b22.")
def cmd_enumerate_fiber(T, b_spec) -> None:
    """List every table in one fiber, one 'path:count' line per table.  A
    search that runs to its budget of 10**8 nodes takes about 6 minutes."""
    if T < MIN_T:
        _fail(EXIT_USAGE, f"--T must be >= {MIN_T}, got {T}")
    try:
        b = _parse_stat(b_spec)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
        return
    try:
        fib = fiber_mod.enumerate_fiber(T, b)
    except fiber_mod.BudgetExceeded as exc:
        _fail(EXIT_BUDGET, str(exc))
        return
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
        return
    if not fib.cells:
        click.echo(f"fiber of b={b.as_tuple()} at T={T} is empty", err=True)
        return
    click.echo("\n".join(fiber_mod.fiber_texts(fib)))


@main.command("moves")
@click.option("--T", "T", required=True, type=int, help="Path length.")
@click.option("--family", "family_token", required=True,
              help="One of: " + ", ".join(f.value for f in Family))
def cmd_moves(T, family_token) -> None:
    """List every move of one family, e.g. '+1 1121  -1 1211' per line."""
    if T < MIN_T:
        _fail(EXIT_USAGE, f"--T must be >= {MIN_T}, got {T}")
    try:
        family = Family(family_token)
    except ValueError:
        _fail(EXIT_USAGE,
              f"unknown family {family_token!r}; expected one of "
              + ", ".join(f.value for f in Family))
        return
    try:
        moves = enumerate_family(T, family)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
        return
    for move in moves:
        click.echo(format_move(move))


if __name__ == "__main__":
    main()
