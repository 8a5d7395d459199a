import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import numpy as np

import thmc
from thmc import (
    fiber,
    inference,
    ingest,
    klotz_path,
    parse_mapping,
    serialize_table,
)
from thmc.cli import _json_pieces, main
from thmc.core import all_paths, path_str, transitions
from thmc.ingest import IngestError

from conftest import random_table


@pytest.fixture()
def runner():
    return CliRunner()


class TestIngest:
    def test_klotz(self):
        table = ingest(klotz_path(), "M=1,F=2")
        assert table.n == 177
        assert table.T == 4
        assert len(table) == 16

    def test_accumulates_duplicates(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text("MMMM,8\nMMMM,2\nMMMF,1\n")
        table = ingest(f, "M=1,F=2")
        assert table[(1, 1, 1, 1)] == 10

    def test_unknown_symbol_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("MMMM,3\nMXMM,3\n")
        with pytest.raises(IngestError) as err:
            ingest(f, "M=1,F=2")
        assert err.value.line == 2
        assert "'X'" in str(err.value)

    def test_ragged_length_names_line(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("111,1\n1111,1\n")
        with pytest.raises(IngestError) as err:
            ingest(f)
        assert err.value.line == 2

    def test_non_integer_count_names_line(self, tmp_path):
        f = tmp_path / "count.csv"
        f.write_text("111,1\n121,x\n")
        with pytest.raises(IngestError) as err:
            ingest(f)
        assert err.value.line == 2

    def test_nonpositive_count_rejected(self, tmp_path):
        f = tmp_path / "zero.csv"
        f.write_text("111,1\n121,0\n")
        with pytest.raises(IngestError) as err:
            ingest(f)
        assert err.value.line == 2

    def test_accumulated_count_over_limit_names_line(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text(f"111,{2**62}\n121,1\n111,{2**62}\n")
        with pytest.raises(IngestError) as err:
            ingest(f)
        assert err.value.line == 3

    def test_header_and_comments_skipped(self, tmp_path):
        f = tmp_path / "hdr.csv"
        f.write_text("# comment\npath,count\n111,2  # trailing\n")
        assert ingest(f).n == 2

    def test_byte_order_mark_ignored(self, tmp_path):
        text = "path,count\nMMMF,3\nFMMF,2\n"
        plain = tmp_path / "plain.csv"
        plain.write_text(text, encoding="utf-8")
        bom = tmp_path / "bom.csv"
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert ingest(bom, "M=1,F=2") == ingest(plain, "M=1,F=2")

    def test_round_trip(self):
        table = ingest(klotz_path(), "M=1,F=2")
        text = serialize_table(table)
        back_path = None
        import tempfile, os

        with tempfile.NamedTemporaryFile(
            "w", suffix=".csv", delete=False
        ) as fh:
            fh.write(text)
            back_path = fh.name
        try:
            assert ingest(back_path) == table
        finally:
            os.unlink(back_path)

    def test_round_trip_with_mapping(self, tmp_path):
        table = ingest(klotz_path(), "M=1,F=2")
        f = tmp_path / "mf.csv"
        f.write_text(serialize_table(table, {"M": 1, "F": 2}))
        assert ingest(f, "M=1,F=2") == table

    def test_mapping_validation(self):
        assert parse_mapping("M=1,F=2") == {"M": 1, "F": 2}
        for bad in ("M=1", "M=1,F=1", "M=1,F=2,X=1", "MM=1,F=2", "M=3,F=2"):
            with pytest.raises(ValueError):
                parse_mapping(bad)

    def test_symbol_mapped_twice(self):
        with pytest.raises(ValueError, match="^symbol 'M' mapped twice$"):
            parse_mapping("M=1,M=2")

    @pytest.mark.parametrize("text, line", [
        ("111,1\n121\n", "line 2: expected 'path,count', got '121'"),
        ("path,count\n12,1\n", "line 2: paths must have length >= 3, got '12'"),
        ("path,count\n# none\n\n", "no data rows found"),
    ])
    def test_line_errors(self, tmp_path, text, line):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with pytest.raises(IngestError) as err:
            ingest(f)
        assert str(err.value) == line


def serialized(value) -> str:
    pieces: list[str] = []
    _json_pieces(value, pieces.append)
    return "".join(pieces)


def random_value(rng: random.Random, depth: int = 0):
    """A random float-free value, and the same value with each of its lists
    read once through a generator."""
    kind = rng.randrange(7 if depth < 4 else 2)
    if kind == 0:
        v = rng.choice([0, -7, 2**70, True, False, None])
        return v, v
    if kind == 1:
        s = "".join(rng.choice('ab1: "\\\t\n\x01\x7f\u00e9\u2028\udcff\U0001f600')
                    for _ in range(rng.randrange(5)))
        return s, s
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 2:
        keys = [f"k{i}\t\u00e9" for i in range(len(items))]
        return ({k: v for k, (v, _) in zip(keys, items)},
                {k: lazy for k, (_, lazy) in zip(keys, items)})
    eager = [v for v, _ in items]
    if kind == 3:
        return eager, [lazy for _, lazy in items]
    if kind == 4:
        return tuple(eager), tuple(lazy for _, lazy in items)
    return eager, (lazy for _, lazy in items)


class TestJsonPieces:
    @pytest.mark.parametrize("value", [
        {}, [], (), "", 0, -3, True, False, None,
        {"a": [], "b": {}, "c": [[], {}], "d": ([{}],)},
        {"fibers": [{"T": 3, "b": [2, 2, 0, 2], "components": (("112:2 222:1",),)}]},
        ["x", ["y", ["z", []]], {"k": {"l": {}}}],
        # Lists of ints, a bool among them, and ints past 2**63, which keep
        # every digit.
        [-3, 0, -(2**64) - 1, 2**63, 2**70], (7,), (1, True, 2), [False, 0],
        {"b": (2, 2, 0, 2), "n": [[1, -1], [2**64]]},
    ])
    def test_matches_json_dumps(self, value):
        assert serialized(value) == json.dumps(value, indent=2)

    def test_json_text_written_as_it_is(self):
        from thmc._report import JsonText

        value = ["x", JsonText('{"k": [1]}'), {"t": JsonText("[]")}]
        assert serialized(value) == '[\n  "x",\n  {"k": [1]},\n  {\n    "t": []\n  }\n]'

    def test_random_values_match_json_dumps(self):
        rng = random.Random(17)
        for _ in range(300):
            eager, lazy = random_value(rng)
            assert serialized(lazy) == json.dumps(eager, indent=2)

    def test_generators_are_lists(self):
        value = {"a": (v for v in [1, [], {}, iter([])]), "b": iter(())}
        assert serialized(value) == json.dumps({"a": [1, [], {}, []], "b": []}, indent=2)

    def test_floats_at_17_significant_digits(self):
        values = [0.1, 1 / 3, -2.5e-8, 1e300, 0.0]
        assert serialized(values) == (
            "[\n  " + ",\n  ".join(format(x, ".17g") for x in values) + "\n]"
        )
        assert serialized({"L": 0.1}) == '{\n  "L": 0.10000000000000001\n}'

    @pytest.mark.parametrize("text", [
        "\t", "\n", '"', "\\", "\udcff", "a\tb\"c\\d\ne\udcff\u00e9\U0001f600",
    ])
    def test_strings_round_trip_as_ascii(self, text):
        out = serialized({"s": [text]})
        assert out.isascii()
        assert json.loads(out) == {"s": [text]}

    def test_printable_ascii_keeps_its_bytes(self):
        text = "111:1 122:2 ~!#$%&'()*+,-./;<=>?@[]^_`{|}"
        assert serialized(text) == f'"{text}"'


class TestCmdTest:
    def test_klotz_json(self, runner, tmp_path):
        out = tmp_path / "result.json"
        hist = tmp_path / "hist.csv"
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "500", "--burnin", "100", "--seed", "4",
            "--output", str(out), "--histogram", str(hist),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["n"] == 177
        assert payload["b"] == [142, 136, 122, 131]
        assert payload["df"] == 1
        assert 0 <= payload["p_exact"] <= 1
        assert payload["provenance"]["flags"]["seed"] == 4
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_lower,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 500

    # Control characters and non-ASCII text in the flags are escaped, so the
    # JSON parses and gives the flags back; a path that is not UTF-8 keeps
    # its surrogate escapes.
    @pytest.mark.parametrize("name", ["k\tlotz.csv", "kl\u00f6tz.csv", "k\udcff.csv"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_flags_with_control_and_non_ascii_characters(self, runner, tmp_path,
                                                          name, to_file):
        data = tmp_path / name
        try:
            data.write_bytes(klotz_path().read_bytes())
        except (OSError, UnicodeError):
            pytest.skip(f"the file system cannot name {name!r}")
        spec = "M=1,\tF=2"
        out = tmp_path / "r.json"
        result = runner.invoke(main, [
            "test", "--input", str(data), "--map", spec,
            "--samples", "50", "--burnin", "0",
            *(["--output", str(out)] if to_file else []),
        ])
        assert result.exit_code == 0, result.output
        text = out.read_text(encoding="ascii") if to_file else result.stdout
        assert text.isascii()
        flags = json.loads(text)["provenance"]["flags"]
        assert (flags["input"], flags["map"]) == (str(data), spec)

    def test_byte_identical_reruns(self, runner, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
                "--samples", "300", "--burnin", "50", "--seed", "21",
                "--output", str(out),
            ])
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_samples_zero_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "0",
        ])
        assert result.exit_code == 1

    @pytest.mark.parametrize("chains", ["1", "2"])
    def test_negative_seed_is_usage_error(self, runner, chains):
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--seed", "-1", "--chains", chains,
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "error: --seed must be >= 0, got -1\n"

    # The fit's convergence tests must allow for the rounding of large counts.
    @pytest.mark.parametrize("scale", [100, 1000])
    def test_scaled_klotz_fits(self, runner, tmp_path, scale):
        table = ingest(klotz_path(), "M=1,F=2")
        f = tmp_path / "scaled.csv"
        f.write_text("".join(
            f"{''.join(str(s) for s in p)},{c * scale}\n" for p, c in table.items()
        ))
        result = runner.invoke(main, ["test", "--input", str(f)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["n"] == 177 * scale

    def test_fit_failure_exits_3(self, runner, monkeypatch):
        monkeypatch.setattr(inference, "FIT_MAX_ITER", 1)
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
        ])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: no convergence after 1 iteration: ")
        assert "the budget FIT_MAX_ITER is spent" in result.stderr
        assert len(result.stderr.splitlines()) == 1

    def test_missing_file_is_ingest_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "test", "--input", str(tmp_path / "nope.csv"),
        ])
        assert result.exit_code == 2

    def test_bad_symbol_is_ingest_error(self, runner, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("MXM,1\n")
        result = runner.invoke(main, ["test", "--input", str(f), "--map", "M=1,F=2"])
        assert result.exit_code == 2

    def test_weights_flag(self, runner, tmp_path):
        out = tmp_path / "w.json"
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "200", "--burnin", "50", "--seed", "1",
            "--weights", "type2=1,deg3-sliding=1,2x2=2",
            "--output", str(out),
        ])
        assert result.exit_code == 0, result.output

    def test_bad_weights_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--weights", "bogus=1",
        ])
        assert result.exit_code == 1

    @pytest.mark.parametrize("spec", [
        "type1=nan",
        "type1=inf",
        "type1=nan,type2=1",
        "type1=1e308,type2=1e308",
    ])
    def test_non_finite_weights_are_usage_errors(self, runner, spec):
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "100", "--burnin", "10", "--weights", spec,
        ])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    # Each line was recorded when the CLI still checked the weights itself;
    # a spec with two faults reports its first one.  The input does not
    # exist, so exit 1 shows that the spec is checked before it is read.
    UNKNOWN = ("error: unknown family 'bogus'; expected one of "
               "['2x2', 'crossing', 'deg3-sliding', 'type1', 'type2', 'type4']")
    NOT_FINITE = "error: weight for 'type1' must be finite and nonnegative"
    NO_SUM = "error: family weights must have a positive, finite sum"

    @pytest.mark.parametrize("spec, line", [
        ("bogus=1", UNKNOWN),
        ("bogus=abc", UNKNOWN),
        ("type1=abc", "error: bad weight 'abc' for family 'type1'"),
        ("type1=nan", NOT_FINITE),
        ("type1=-1", NOT_FINITE),
        ("type1=inf,type2=abc", NOT_FINITE),
        ("type1=0", NO_SUM),
        ("type1=1e308,type2=1e308", NO_SUM),
    ])
    def test_weights_error_lines(self, runner, tmp_path, spec, line):
        result = runner.invoke(main, [
            "test", "--input", str(tmp_path / "absent.csv"), "--weights", spec,
        ])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == line + "\n"

    def test_path_length_over_dense_cap_is_ingest_error(self, runner, tmp_path):
        f = tmp_path / "long.csv"
        f.write_text("1" * 25 + ",1\n" + "1" * 24 + "2,2\n")
        result = runner.invoke(main, ["test", "--input", str(f)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert "T=25" in result.stderr

    def test_non_utf8_file_is_ingest_error(self, runner, tmp_path):
        f = tmp_path / "latin.csv"
        f.write_bytes(b"111,1\n1\xff1,2\n")
        result = runner.invoke(main, ["test", "--input", str(f)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "not UTF-8" in result.stderr
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("count, code", [(2**63 - 1, 0), (2**63, 2)])
    def test_count_at_int64_limit(self, runner, tmp_path, count, code):
        f = tmp_path / "big.csv"
        f.write_text(f"111,{count}\n121,1\n")
        result = runner.invoke(main, [
            "test", "--input", str(f), "--samples", "20", "--burnin", "0",
        ])
        assert result.exit_code == code, result.output
        if code:
            assert result.stderr.startswith("error: line 1: ")
            assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--output", "--histogram"])
    def test_unwritable_destination_is_usage_error(self, runner, tmp_path, flag):
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "50", "--burnin", "0",
            flag, str(tmp_path / "missing" / "out"),
        ])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: cannot write ")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("flag, other", [
        ("--output", "--histogram"), ("--histogram", "--output"),
    ])
    def test_unwritable_destination_fails_before_chain(self, runner, tmp_path,
                                                       monkeypatch, flag, other):
        def refuse(*args, **kwargs):
            raise AssertionError("ran the chain")

        monkeypatch.setattr(inference, "exact_test", refuse)
        kept = tmp_path / "kept"
        kept.write_text("old")
        bad = tmp_path / "missing" / "out"
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            flag, str(bad), other, str(kept),
        ])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: cannot write {bad}: No such file or directory\n"
        assert kept.read_text() == "old"

    def test_chains_pool(self, runner, tmp_path):
        out = tmp_path / "c.json"
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
            "--samples", "300", "--burnin", "50", "--seed", "2",
            "--chains", "3", "--output", str(out),
        ])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["samples"] == 300


    # Chain-derived fields of seeded runs, recorded when the chains began
    # to draw from random.Random in place of a numpy Generator; they pin
    # the random stream.
    # L and p_asymptotic come from BLAS-dependent fits and are not pinned.
    # The histogram digests are of the counts column when every bin from 0
    # up was listed; the file now lists occupied bins only, so the test puts
    # the empty bins back before hashing.  The ids name the cases, so a
    # new pin leaves the test names as they are.
    @pytest.mark.parametrize("case, args, fields, hist_digest", [
        ("klotz", ["--map", "M=1,F=2", "--seed", "7"],
         (0.7797, 0.2143, 0.7194),
         "f325ec6317d3f8363419df0fe97baa0af90f6718264af8d84c99e99c1bdeff0c"),
        ("random-T6", ["--samples", "3000", "--burnin", "500", "--seed", "11"],
         (0.5086666666666667, 0.05, 0.6406666666666667),
         "40a5ef9aec9e503d1620f11a291be6ffeb0ac579abb94075db0f39996cffb8bf"),
        ("klotz-chains", ["--map", "M=1,F=2", "--seed", "7", "--chains", "3",
                          "--samples", "3000"],
         (0.867, 0.21233333333333335, 0.7153333333333334),
         "e76cc40cfbc22330d1402a2c1c3dc635b002de4f62c49ea32cc2df691254a31c"),
    ], ids=["klotz", "random-T6", "klotz-chains"])
    def test_seeded_chain_fields(self, runner, tmp_path, case, args, fields,
                                 hist_digest):
        if case == "random-T6":
            data = tmp_path / "t6.csv"
            table = random_table(np.random.default_rng(6), 6, 40)
            data.write_text(serialize_table(table))
        else:
            data = klotz_path()
        out = tmp_path / "r.json"
        hist = tmp_path / "h.csv"
        result = runner.invoke(main, [
            "test", "--input", str(data), *args,
            "--output", str(out), "--histogram", str(hist),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        got = (payload["p_exact"], payload["acceptance_rate"],
               payload["null_proposal_rate"])
        assert got == fields
        width = inference.HISTOGRAM_BIN_WIDTH
        occupied = {}
        for line in hist.read_text().splitlines()[1:]:
            lo, count = line.split(",")
            i = round(float(lo) / width)
            assert lo == format(i * width, ".17g") and int(count) > 0
            assert all(j < i for j in occupied)
            occupied[i] = count
        counts = ",".join(occupied.get(i, "0") for i in range(max(occupied) + 1))
        assert hashlib.sha256(counts.encode()).hexdigest() == hist_digest

    # sha256 of the whole JSON and histogram files, recorded when the
    # chains began to draw from random.Random in place of a numpy
    # Generator.  The input is named by a relative
    # path, so every byte is fixed; the cases cover non-uniform weights and
    # two chains, each with its own sampler.  The input is the Klotz table unless
    # the case names another: t12.csv holds 30 seeded paths at T=12, above
    # the sampler's enumeration cap, so its blocks are decoded as drawn.
    # The ids name the cases, so a new pin leaves the test names as they are.
    @pytest.mark.parametrize("args, json_digest, hist_digest", [
        (["--weights", "type2=0.5,deg3-sliding=0.5", "--seed", "3"],
         "92226813710dc77301f6b8ff26f8bd0b7df856ed5b1edd4615c298a4b991ebed",
         "3a6d0fd823b655be0313c2747eb77f9e7e794483470f4e1e3be45d16e9b95955"),
        (["--chains", "2", "--seed", "5"],
         "912d25fd24ea3a97e3c4d47e8756e58e3c3be24ca0c5bb370323954ffdfa8236",
         "340bc84ff0b294b144acfadb5e3f13f81d13cdabf1af8946aecdbaa94c4f63b8"),
        (["--input", "t12.csv", "--seed", "7"],
         "01644e689644b1006f478d3cd59f6713532c48a24461185ef89c337ce6fcffe7",
         "51dae386614ad9c5912c34da6a1991a401aa8c98580b4e587ada35dde036d8a4"),
    ], ids=["klotz-weights", "klotz-chains", "t12"])
    def test_seeded_output_bytes(self, runner, tmp_path, args, json_digest,
                                 hist_digest):
        if "--input" not in args:
            args = ["--input", "klotz.csv", "--map", "M=1,F=2", *args]
        with runner.isolated_filesystem(temp_dir=tmp_path):
            Path("klotz.csv").write_bytes(klotz_path().read_bytes())
            Path("t12.csv").write_text(
                serialize_table(random_table(np.random.default_rng(12), 12, 30)))
            result = runner.invoke(main, [
                "test", *args, "--output", "r.json", "--histogram", "h.csv",
            ])
            assert result.exit_code == 0, result.output
            assert hashlib.sha256(Path("r.json").read_bytes()).hexdigest() == json_digest
            assert hashlib.sha256(Path("h.csv").read_bytes()).hexdigest() == hist_digest

    def test_low_acceptance_warns_on_stderr(self, runner, tmp_path):
        data = tmp_path / "t12.csv"
        data.write_text(serialize_table(random_table(np.random.default_rng(12), 12, 30)))
        result = runner.invoke(main, [
            "test", "--input", str(data), "--samples", "2000", "--burnin", "0",
            "--seed", "1",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert payload["acceptance_rate"] < 0.01
        assert result.stderr.startswith("warning: ")
        assert len(result.stderr.splitlines()) == 1

    def test_klotz_defaults_write_nothing_to_stderr(self, runner):
        result = runner.invoke(main, [
            "test", "--input", str(klotz_path()), "--map", "M=1,F=2",
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["acceptance_rate"] > 0.01
        assert result.stderr == ""


class TestCmdVerifyBasis:
    def test_full_set_connected(self, runner, tmp_path):
        report = tmp_path / "rep.json"
        result = runner.invoke(main, [
            "verify-basis", "--T", "3", "--n-max", "3", "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(report.read_text())
        assert payload["summary"]["disconnected"] == 0
        assert payload["summary"]["fibers"] == len(payload["fibers"])

    def test_without_sliding_finds_indispensable_fiber(self, runner, tmp_path):
        report = tmp_path / "rep.json"
        result = runner.invoke(main, [
            "verify-basis", "--T", "3", "--n-max", "3",
            "--families", "type1,crossing,2x2,type4,type2",
            "--report", str(report),
        ])
        assert result.exit_code == 4
        payload = json.loads(report.read_text())
        bad = [f for f in payload["fibers"] if len(f["components"]) > 1]
        assert [2, 2, 0, 2] in [f["b"] for f in bad]

    def test_unknown_family_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "verify-basis", "--T", "3", "--n-max", "2", "--families", "zigzag",
        ])
        assert result.exit_code == 1

    # The 26 classes of T=6 make C(33, 7), about 4.3M, class multisets of
    # n <= 7; a report of T=6, n <= 6 would write C(70, 6), about 131M,
    # tables.  Both are refused before any cell is built, and the report
    # before its file is opened.
    def test_over_budget_sweep_exits_at_once(self, runner, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated tables")

        monkeypatch.setattr(fiber, "_fitting_cells", refuse)
        report = tmp_path / "r.json"
        for args, line in [
            (["--n-max", "7"], "error: 4272048 class multisets of n <= 7 at T=6 "),
            (["--n-max", "6", "--report", str(report)],
             "error: 131115985 tables of n <= 6 at T=6 "),
        ]:
            result = runner.invoke(main, ["verify-basis", "--T", "6", *args])
            assert result.exit_code == 5
            assert result.stdout == ""
            assert result.stderr.startswith(line)
            assert len(result.stderr.splitlines()) == 1
        assert not report.exists()

    # Past T=8 a selection with type I moves is refused before any index or
    # multiset is built, and past T=6 one indexed from its families'
    # entries, however few tables either would hold.
    @pytest.mark.parametrize("args", [
        (["--T", "9", "--n-max", "4"], "the point index is capped at T <= 8, got 9"),
        (["--T", "9", "--n-max", "0"], "the point index is capped at T <= 8, got 9"),
        (["--T", "7", "--n-max", "0", "--families", "crossing,type2"],
         "enumeration is capped at T <= 6, got 7"),
        (["--T", "9", "--n-max", "2"], "the point index is capped at T <= 8, got 9"),
        (["--T", "7", "--n-max", "2", "--families", "crossing"],
         "enumeration is capped at T <= 6, got 7"),
    ])
    def test_T_over_enumeration_cap_is_usage_error(self, runner, args):
        argv, line = args
        result = runner.invoke(main, ["verify-basis", *argv])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {line}\n"

    # The class sweep runs past T=6 with the default selection: 46 classes
    # and 230,300 multisets at T=8, n <= 4, for C(260, 4), about 1.9e8,
    # tables.  Without the degree-3 sliding moves, 60 fibers split.
    @pytest.mark.parametrize("args, code, line", [
        (["--T", "7", "--n-max", "2"], 0, "checked 229 fibers at T=7, n<=2: 0 disconnected"),
        (["--T", "8", "--n-max", "4"], 0, "checked 2800 fibers at T=8, n<=4: 0 disconnected"),
        (["--T", "8", "--n-max", "4", "--families", "type1,crossing,2x2,type4,type2"], 4,
         "checked 2800 fibers at T=8, n<=4: 60 disconnected"),
    ])
    def test_sweep_past_the_enumeration_cap(self, runner, args, code, line):
        result = runner.invoke(main, ["verify-basis", *args])
        first, *split = result.stdout.splitlines()
        assert result.exit_code == code
        assert first == line
        assert len(split) == (60 if code else 0)
        assert all(s.startswith("  b=(") for s in split)
        assert result.stderr == ""

    # A report writes every table, so --report keeps the table budget: the
    # 8 paths of T=3 make 45 tables of n <= 2 over 36 class multisets, and
    # T=7, n <= 4 has 12,082,785 tables.  No report file is left.
    def test_report_keeps_the_table_budget(self, runner, monkeypatch, tmp_path):
        report = tmp_path / "r.json"
        monkeypatch.setattr(fiber, "MAX_FIBER_ELEMENTS", 44)
        assert runner.invoke(main, ["verify-basis", "--T", "3", "--n-max", "2"]).exit_code == 0
        for args, line in [
            (["--T", "3", "--n-max", "2"], "45 tables of n <= 2 at T=3 exceed the budget of 44"),
            (["--T", "7", "--n-max", "4"],
             "12082785 tables of n <= 4 at T=7 exceed the budget of 1000000"),
        ]:
            if args[1] == "7":
                monkeypatch.setattr(fiber, "MAX_FIBER_ELEMENTS", 10**6)
            result = runner.invoke(main, ["verify-basis", *args, "--report", str(report)])
            assert result.exit_code == 5
            assert result.stdout == ""
            assert result.stderr == f"error: {line}\n"
            assert not report.exists()

    # The default selection is indexed on points, so the sweep decodes no
    # proposal draw and never compiles the decoder.
    def test_default_sweep_imports_no_decoder(self):
        code = (
            "import sys\n"
            "from thmc.cli import main\n"
            "try:\n"
            "    main(['verify-basis', '--T', '5', '--n-max', '4'])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, 'thmc._decode' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(thmc.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.splitlines() == [
            "checked 895 fibers at T=5, n<=4: 0 disconnected", "0 False",
        ]

    # C(2**3 + n, n) for this n has 156 digits; the error names no count
    # past 10**18, of class multisets or, with a report, of tables.
    def test_huge_n_max_refused_in_one_short_line(self, runner, tmp_path):
        report = ["--report", str(tmp_path / "r.json")]
        for report, what in [([], "class multisets"), (report, "tables")]:
            result = runner.invoke(main, [
                "verify-basis", "--T", "3", "--n-max", "99999999999999999999", *report,
            ])
            assert result.exit_code == 5
            assert result.stdout == ""
            assert result.stderr == (
                f"error: more than 1e+18 {what} of n <= 99999999999999999999 at T=3 "
                "exceed the budget of 1000000\n"
            )

    def test_unwritable_report_is_usage_error(self, runner, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("swept the fibers")

        monkeypatch.setattr(fiber, "sweep", refuse)
        result = runner.invoke(main, [
            "verify-basis", "--T", "3", "--n-max", "2",
            "--report", str(tmp_path / "missing" / "rep.json"),
        ])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: cannot write ")
        assert len(result.stderr.splitlines()) == 1

    def test_control_character_in_families(self, runner, tmp_path):
        report = tmp_path / "rep.json"
        spec = "type1,\tcrossing"
        result = runner.invoke(main, [
            "verify-basis", "--T", "3", "--n-max", "2", "--families", spec,
            "--report", str(report),
        ])
        assert result.exit_code in (0, 4), result.output
        payload = json.loads(report.read_text(encoding="ascii"))
        assert payload["families"] == ["type1", "crossing"]
        assert payload["provenance"]["flags"]["families"] == spec

    # The first case fails when the file is closed, the second while a
    # fiber's pieces are written; either gives one line and exit 1.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [["--T", "3", "--n-max", "2"],
                                      ["--T", "4", "--n-max", "3"]])
    def test_failed_streamed_write_is_usage_error(self, runner, args):
        result = runner.invoke(main, ["verify-basis", *args, "--report", "/dev/full"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "error: cannot write /dev/full: No space left on device\n"

    # The fibers are rendered a chunk at a time, each chunk within one table
    # count and, unless it is one fiber, within _RUN_CHUNK table cells, and
    # written out before the next chunk is rendered, so most of the report
    # is on disk by the time the last chunk is.  Each level's tables, run
    # keys and one token table are built once and each chunk is rendered
    # from them, with no fiber's tables built.  Chunks of at most 64 cells
    # make many of them, and the report keeps its bytes.
    def test_report_written_as_it_is_serialized(self, runner, tmp_path, monkeypatch):
        from thmc import _bulk, _report

        report = tmp_path / "rep.json"
        sizes, chunks, tokens = [], [], []
        real_chunk_components, real_tokens = _report._chunk_components, _bulk.Tokens

        def sized(chunk, rows, keys, level_tokens, *args):
            sizes.append(report.stat().st_size)
            chunks.append((chunk, keys.shape[1], level_tokens))
            return real_chunk_components(chunk, rows, keys, level_tokens, *args)

        def counted(*args):
            tokens.append(real_tokens(*args))
            return tokens[-1]

        def refuse(*args):
            raise AssertionError("built one fiber's tables")

        monkeypatch.setattr(_bulk, "tables", refuse)
        monkeypatch.setattr(_bulk, "Tokens", counted)
        monkeypatch.setattr(_bulk, "_RUN_CHUNK", 64)
        monkeypatch.setattr(_report, "_chunk_components", sized)
        result = runner.invoke(main, [
            "verify-basis", "--T", "4", "--n-max", "3", "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        assert len(sizes) > 50 and sizes == sorted(sizes)
        assert sizes[-1] > report.stat().st_size / 2
        assert sum(len(chunk) for chunk, _, _ in chunks) == 213
        # One token table per level, n = 0..3, each level's rows n wide.
        assert len(tokens) == 4
        assert len({(width, id(t)) for _, width, t in chunks}) == 4
        for chunk, width, _ in chunks:
            assert all(a[2] == b[1] for a, b in zip(chunk, chunk[1:]))
            assert len(chunk) == 1 or (chunk[-1][2] - chunk[0][1]) * width <= 64
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "869b84b58eaa330cec1000d3cc0a42bbefade59444c2de93e33d87fcfafcba8c"
        )

    # The writer reads the sweep's reports and leaves them as they were: the
    # list keeps its reports in order, and no report or fiber gains or loses
    # an attribute, split fibers' components included.
    def test_report_fibers_leaves_reports_as_they_were(self):
        from thmc import _report

        reports = fiber.sweep(4, 4, ["crossing", "2x2"])
        given = list(reports)
        held = [(x, dict(vars(x))) for r in reports for x in (r, r.fiber)]
        texts = list(_report.report_fibers(reports, fiber._levels(4, 4)))
        assert len(texts) == len(given) and len(fiber.disconnected(given)) > 1
        assert len(reports) == len(given)
        assert all(r is g for r, g in zip(reports, given))
        for x, attributes in held:
            assert vars(x).keys() == attributes.keys()
            assert all(vars(x)[k] is v for k, v in attributes.items())

    # An oracle apart from the chunk renderer: the report is what json.dumps
    # writes for its own content, and each fiber's components are the
    # sweep's component_tables, rendered table by table through
    # fiber_texts.  The cases hold counts of two digits, split fibers of up
    # to 4 and 19 components and, as every sweep, the table of no paths; at
    # n <= 0 it is the one table, and its level has no tokens at all.
    @pytest.mark.parametrize("args, code, most", [
        (["--T", "3", "--n-max", "10", "--families", "type1,crossing,2x2,type4,type2"],
         4, 4),
        (["--T", "4", "--n-max", "4", "--families", "crossing,2x2"], 4, 19),
        (["--T", "5", "--n-max", "4"], 0, 1),
        (["--T", "3", "--n-max", "0"], 0, 1),
    ])
    def test_report_matches_json_dumps_and_sweep(self, runner, tmp_path, args, code, most):
        report = tmp_path / "rep.json"
        result = runner.invoke(main, ["verify-basis", *args, "--report", str(report)])
        assert result.exit_code == code, result.output
        text = report.read_text(encoding="ascii")
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        fibers = payload["fibers"]
        T, n_max = int(args[1]), int(args[3])
        reports = fiber.sweep(T, n_max, args[5].split(",") if len(args) > 4 else None)
        assert [f["b"] for f in fibers] == [list(r.b.as_tuple()) for r in reports]
        assert [f["components"] for f in fibers] == [
            [list(c) for c in r.component_tables] for r in reports
        ]
        assert fibers[0]["components"] == [[""]]
        assert max(len(f["components"]) for f in fibers) == most

    # Report hashes recorded from an implementation that enumerated every
    # fiber by depth-first search (the T=5 one from the one-pass sweep over
    # PathTables); the report bytes must not change.
    @pytest.mark.parametrize("args, code, digest", [
        (["--T", "4", "--n-max", "3"], 0,
         "869b84b58eaa330cec1000d3cc0a42bbefade59444c2de93e33d87fcfafcba8c"),
        (["--T", "4", "--n-max", "3", "--families", "type1,crossing,2x2,type4"], 4,
         "6ece412fede7b24abc2cf8e25e2ca2f11f144254a1d443f81ae19340a20a9875"),
        (["--T", "3", "--n-max", "4",
          "--families", "type1,crossing,2x2,type4,type2"], 4,
         "0bddfd32436018415a7c72249e1ee95c8e556a955e92a4cbc8a452111c5cb7cd"),
        (["--T", "5", "--n-max", "4"], 0,
         "72aa606089a48b662915d5b5845f6f31843070d321d3493d314b2fe82552d2dc"),
        # Recorded from the per-table renderer and per-fiber class grouping:
        # 4,301 fibers with counts of two digits, then 520 of them split
        # without deg3-sliding, then 335 split fibers of up to 19 components.
        (["--T", "3", "--n-max", "10"], 0,
         "575dc095919b62cf739028e4e275b22892a2899cc1ea806e69af5a5625f7fd72"),
        (["--T", "3", "--n-max", "10",
          "--families", "type1,crossing,2x2,type4,type2"], 4,
         "3a6891440e95ac6395366f7d9a03f8430f49fe57bb1793246f60028318c79d30"),
        (["--T", "4", "--n-max", "4", "--families", "crossing,2x2"], 4,
         "6cbe3cea9a7db6ca41bb0a7b0fed23cc4272c51c40d8944934dd2d1850504b3d"),
        # Recorded from the key-to-token lookup renderer: only the table of
        # no paths, so no token.
        (["--T", "3", "--n-max", "0"], 0,
         "67fcf2f0a46229df58b6036cd867539a08b62c19808355aad7ccf9686340eccd"),
    ])
    def test_report_bytes(self, runner, tmp_path, args, code, digest):
        report = tmp_path / "rep.json"
        result = runner.invoke(main, ["verify-basis", *args, "--report", str(report)])
        assert result.exit_code == code, result.output
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


class TestCmdEnumerateFiber:
    def test_listing_is_pinned(self, runner):
        result = runner.invoke(main, ["enumerate-fiber", "--T", "4", "--b", "2,2,1,1"])
        assert result.exit_code == 0
        assert result.stdout == (
            "1122:1 2112:1\n"
            "1122:1 1211:1\n"
            "1121:1 1122:1\n"
            "1112:1 2212:1\n"
            "1112:1 2122:1\n"
            "1112:1 1221:1\n"
        )

    # Counts of one and two digits share a column.
    def test_two_digit_counts_pinned(self, runner):
        result = runner.invoke(main, ["enumerate-fiber", "--T", "3", "--b", "1,2,1,20"])
        assert result.exit_code == 0
        assert result.stdout == (
            "122:2 211:1 222:9\n"
            "112:1 212:1 222:10\n"
            "112:1 122:1 221:1 222:9\n"
            "112:1 121:1 222:10\n"
        )

    def test_indispensable_pair(self, runner):
        result = runner.invoke(main, ["enumerate-fiber", "--T", "3", "--b", "2,2,0,2"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["112:2 222:1", "111:1 122:2"]

    def test_empty_fiber_diagnostic_on_stderr(self, runner):
        result = runner.invoke(main, ["enumerate-fiber", "--T", "3", "--b", "1,0,0,1"])
        assert result.exit_code == 0
        assert result.stdout == ""
        assert "empty" in result.stderr

    def test_bad_stat_is_usage_error(self, runner):
        result = runner.invoke(main, ["enumerate-fiber", "--T", "3", "--b", "1,2,3"])
        assert result.exit_code == 1

    # The search has one level per cell, and these fibers hold only cells
    # past index 990, beyond the interpreter's default recursion limit.
    @pytest.mark.parametrize("T, b", [(10, (0, 0, 0, 9)), (11, (2, 2, 2, 4))])
    def test_single_path_fibers_past_T9(self, runner, T, b):
        result = runner.invoke(main, [
            "enumerate-fiber", "--T", str(T), "--b", ",".join(map(str, b)),
        ])
        assert result.exit_code == 0, result.output
        expected = {
            path_str(p) + ":1" for p in all_paths(T) if transitions(p).as_tuple() == b
        }
        lines = result.stdout.splitlines()
        assert len(lines) == len(expected) and set(lines) == expected

    def test_T_over_dense_cap_is_usage_error(self, runner, monkeypatch):
        def refuse(T, *args):
            raise AssertionError(f"built the cells of T={T}")

        monkeypatch.setattr(fiber, "_fitting_cells", refuse)
        result = runner.invoke(main, ["enumerate-fiber", "--T", "40", "--b", "39,0,0,0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    def test_tables_over_element_budget_exit_5(self, runner, monkeypatch):
        monkeypatch.setattr(fiber, "MAX_FIBER_ELEMENTS", 10)
        result = runner.invoke(main, ["enumerate-fiber", "--T", "3", "--b", "22,0,0,0"])
        assert result.exit_code == 5
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1


class TestCmdMoves:
    def test_sliding_moves_at_T3(self, runner):
        result = runner.invoke(main, ["moves", "--T", "3", "--family", "deg3-sliding"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "+1 111  +2 122  -2 112  -1 222",
            "+1 111  +2 221  -2 211  -1 222",
        ]

    def test_unknown_family(self, runner):
        result = runner.invoke(main, ["moves", "--T", "3", "--family", "nope"])
        assert result.exit_code == 1

    def test_cap_enforced(self, runner):
        result = runner.invoke(main, ["moves", "--T", "9", "--family", "crossing"])
        assert result.exit_code == 1

    # Listing hashes and line counts recorded from per-family enumerators
    # written independently of the proposal sampler.
    @pytest.mark.parametrize("T, family, lines, digest", [
        (3, "type1", 0,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (3, "crossing", 2,
         "92f27c3db70d27b45ecfad835f23f36dc7374e1aaf55abf208e07229a42a2b16"),
        (3, "2x2", 1,
         "ccac03be4cebc76c0698484959b5554753ad2a2cef382c84717f3a295ba09cb6"),
        (3, "type4", 0,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (3, "type2", 1,
         "0b6dc1c2de2a8edc6e5bb421fc27e61db2b8c0080ff08e62622881888a5b490e"),
        (3, "deg3-sliding", 2,
         "a79a575b141cf2a7d290eb911d217d08b0df7a63953462f019b54442e3db3116"),
        (4, "type1", 2,
         "b52720ab7109ce8be7fa144bf3e3f791711a88bfef14edd32e1b22ac4d143860"),
        (4, "crossing", 20,
         "8fe9a0584990449b10ca8146cde39a31f40e82800d330c92a9a5cd9870352b18"),
        (4, "2x2", 10,
         "3622c7f1a0dd87830906afb19db7c60d6e4493555de04e631f93b98ee8aafeba"),
        (4, "type4", 8,
         "2eeffbb3be87da491e41aaea943415657b9de0d2e2a48c483f2693514f77fcfc"),
        (4, "type2", 4,
         "eb903b6bf30b990c8937df2ec09c0b7638fce5eb19b57b39efec0eb3a7c670a2"),
        (4, "deg3-sliding", 4,
         "a7ea86e484fb35f3ecb6f681405a45f84f70633e81e8a1832c287f5e273bbf19"),
        (5, "type1", 12,
         "2f0a4c61519748e4cc1bce4826a779df9e19c75777395f26dcf6f15831652fea"),
        (5, "crossing", 136,
         "cba6cadfc350feeda2fe099448f29d750aa3fcfcbbb01302d3dc3690c5e5fd3a"),
        (5, "2x2", 72,
         "5711b9fd8e3a46ac411169e8223c0b9d1faf17954eb5991147f101fb3b2ebab5"),
        (5, "type4", 96,
         "97cea9405bee8ae52d61cdeefe1921ce778a090616617799e44ae0594497d25d"),
        (5, "type2", 11,
         "45146acefbfc02d89a2c60f0e19fe132964fab002d8981bce9895709ee41beb7"),
        (5, "deg3-sliding", 10,
         "908bc6defb8d169bd7eb196e3eff3349cfbeae0497642ad48a0f83aa2698c160"),
        (6, "type1", 48,
         "4b6b432c1d96e91ce978bdd604e5f932a7feed306fa387f0b964d80692f53b0e"),
        (6, "crossing", 784,
         "7ded74284ddcd79cd4c83a3104e776b45850f53719bc16b33a6517e46f4666e2"),
        (6, "2x2", 448,
         "3caf67ffa76b35867532c087eac9d7d498b4cf53e7fa5d768738a6a52ee8e89b"),
        (6, "type4", 766,
         "5aa0446e71d332f4360fce9f0caad735b432060b09d427d7471e993dcd204108"),
        (6, "type2", 32,
         "6114cfc04993292959ceb4ea276407d5770a59b9cda9f2a8bc71130b543294ca"),
        (6, "deg3-sliding", 16,
         "bce964033621f843a6d2039eb92f4584a2a5244e7c16e0f8bd24ac857b1e9386"),
    ])
    def test_listing_bytes(self, runner, T, family, lines, digest):
        result = runner.invoke(main, ["moves", "--T", str(T), "--family", family])
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == lines
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


# Each line was recorded when every command still caught the library's
# errors in its own try blocks.  In the arguments {klotz} is the bundled
# data, {dir} a directory and {file} a plain file.
class TestErrorLines:
    @pytest.mark.parametrize("argv, code, line", [
        ("test --input {klotz} --burnin -1", 1, "--burnin must be >= 0, got -1"),
        ("test --input {klotz} --chains 0", 1, "--chains must be >= 1, got 0"),
        ("test --input {klotz} --samples 0", 1, "--samples must be >= 1, got 0"),
        ("test --input {klotz} --output {dir}", 1, "cannot write {dir}: Is a directory"),
        ("test --input {klotz} --output {file}/x", 1,
         "cannot write {file}/x: Not a directory"),
        ("test --input {klotz} --map M=1,M=2", 1, "symbol 'M' mapped twice"),
        ("verify-basis --T 2 --n-max 2", 1, "--T must be >= 3, got 2"),
        ("verify-basis --T 4 --n-max -1", 1, "--n-max must be >= 0, got -1"),
        ("verify-basis --T 4 --n-max 2 --families ,", 1, "no families selected"),
        ("verify-basis --T 4 --n-max 2 --families type1,bogus", 1,
         TestCmdTest.UNKNOWN[len("error: "):]),
        ("verify-basis --T 6 --n-max 7", 5,
         "4272048 class multisets of n <= 7 at T=6 exceed the budget of 1000000"),
        ("enumerate-fiber --T 2 --b 1,1,1,1", 1, "--T must be >= 3, got 2"),
        ("enumerate-fiber --T 4 --b 1,2,3", 1, "expected 'b11,b12,b21,b22', got '1,2,3'"),
        ("enumerate-fiber --T 4 --b 1,x,0,2", 1, "non-integer entry in '1,x,0,2'"),
        ("enumerate-fiber --T 4 --b -1,0,0,2", 1,
         "transition counts must be nonnegative: '-1,0,0,2'"),
        ("enumerate-fiber --T 30 --b 1,1,1,26", 1,
         "fiber enumeration is capped at T <= 24, got 30"),
        ("enumerate-fiber --T 3 --b 2000002,0,0,0", 5,
         "tables of 1000001 paths exceed the fiber element budget 1000000"),
        ("moves --T 2 --family type1", 1, "--T must be >= 3, got 2"),
        ("moves --T 4 --family bogus", 1,
         "unknown family 'bogus'; expected one of "
         "type1, crossing, 2x2, type4, type2, deg3-sliding"),
        ("moves --T 7 --family type1", 1, "enumeration is capped at T <= 6, got 7"),
    ])
    def test_error_line(self, runner, tmp_path, argv, code, line):
        (tmp_path / "file").write_text("")
        names = {"klotz": klotz_path(), "dir": tmp_path, "file": tmp_path / "file"}
        result = runner.invoke(main, [a.format(**names) for a in argv.split()])
        assert result.exit_code == code
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == f"error: {line.format(**names)}\n"


class TestRuntimeDependencies:
    def test_import_loads_no_scipy(self):
        # A fresh interpreter: this test process has scipy loaded already.
        code = (
            "import sys, thmc, thmc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(thmc.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    # The chains draw from random.Random, so no command imports numpy.random,
    # whose import costs a fresh process some 10 ms and 5 MiB.
    def test_commands_import_no_numpy_random(self, tmp_path):
        t12 = tmp_path / "t12.csv"
        t12.write_text(serialize_table(random_table(np.random.default_rng(12), 12, 30)))
        commands = [
            ["test", "--input", str(klotz_path()), "--map", "M=1,F=2",
             "--output", str(tmp_path / "klotz.json")],
            ["test", "--input", str(t12), "--output", str(tmp_path / "t12.json")],
            ["verify-basis", "--T", "5", "--n-max", "4"],
        ]
        code = (
            "import json, sys\n"
            "from thmc.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        main(argv)\n"
            "    except SystemExit as exc:\n"
            "        print(exc.code, 'numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(thmc.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)], env=env,
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines() == [
            "0 False", "0 False",
            "checked 895 fibers at T=5, n<=4: 0 disconnected", "0 False",
        ]
        assert json.loads((tmp_path / "t12.json").read_text())["T"] == 12
