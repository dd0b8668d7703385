import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isoprofile import STRATEGIES, VerificationReport, cycle, verify_theorem
from isoprofile.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProfileCommand:
    def test_k2_csv_matches_golden(self, capsys):
        code, out, err = run(capsys, "profile", "--gen", "complete:2", "--format", "csv")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "k2_profile.csv").read_text()

    def test_c4_csv_matches_golden(self, capsys):
        code, out, _ = run(capsys, "profile", "--gen", "cycle:4", "--format", "csv")
        assert code == 0
        assert out == (GOLDEN / "c4_profile.csv").read_text()

    def test_hypercube_spec_row_count(self, capsys):
        code, out, _ = run(capsys, "profile", "--gen", "hypercube:3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10  # header plus i = 0..8

    def test_json_payload_roundtrips(self, capsys):
        code, out, _ = run(capsys, "profile", "--gen", "cycle:4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"]["n"] == 4 and payload["graph"]["m"] == 4
        assert payload["profiles"]["max_induced"] == [0, 0, 1, 2, 4]
        assert payload["diffs"]["min_cut"] == [2, 0, 0, -2]

    def test_human_format_mentions_graph(self, capsys):
        code, out, _ = run(capsys, "profile", "--g6", "A_")
        assert code == 0
        assert "n=2 m=1" in out

    # auto is one walk at n = 24 and checked at n = 8; both print values only
    @pytest.mark.parametrize("spec, seed, fmt, golden", [
        ("regular:24:3", "1", "csv", "regular24_3_s1_profile.csv"),
        ("random:8:0.5", "1729", "json", "random8_05_s1729_profile.json"),
    ])
    def test_generated_profile_matches_golden(self, capsys, spec, seed, fmt, golden):
        code, out, err = run(capsys, "profile", "--gen", spec, "--seed", seed, "--format", fmt)
        assert code == 0 and err == ""
        assert out == (GOLDEN / golden).read_text()

    def test_human_format_matches_golden(self, capsys):
        code, out, err = run(capsys, "profile", "--g6", "EhEG")  # C6
        assert code == 0 and err == ""
        assert out.encode() == (GOLDEN / "c6_profile.txt").read_bytes()

    def test_input_file_edge_list(self, capsys):
        code, out, _ = run(capsys, "profile", "--input", str(FIXTURES / "k4.txt"), "--format", "json")
        assert code == 0
        assert json.loads(out)["graph"]["m"] == 6

    def test_input_file_graph6(self, capsys):
        code, out, _ = run(capsys, "profile", "--input", str(FIXTURES / "petersen.g6"), "--format", "json")
        assert code == 0
        assert json.loads(out)["graph"]["n"] == 10

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, out, _ = run(capsys, "profile", "--gen", "complete:2", "--format", "csv", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == (GOLDEN / "k2_profile.csv").read_text()

    def test_malformed_graph6_names_offset(self, capsys):
        code, _, err = run(capsys, "profile", "--g6", "A ")
        assert code == 1
        assert "offset 1" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "profile", "--input", "no-such-file.txt")
        assert code == 1 and "cannot read" in err

    # An empty source is still the source given: it fails as that source,
    # in one line, instead of falling through to the generator spec.
    @pytest.mark.parametrize("command", ["profile", "verify"])
    def test_empty_graph6_string(self, capsys, command):
        code, out, err = run(capsys, command, "--g6", "")
        assert (code, out, err) == (1, "", "error: empty graph6 input\n")

    @pytest.mark.parametrize("command", ["profile", "verify"])
    def test_empty_input_path(self, capsys, command):
        code, out, err = run(capsys, command, "--input", "")
        assert (code, out, err) == (1, "", "error: --input needs a file path\n")

    # An empty --out would fall back to stdout, and an empty --findings
    # names the working directory, found only after the whole sweep: both
    # are refused by name before any graph is loaded or swept.
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["profile", "--gen", "cycle:5", "--out", ""], "out"),
            (["verify", "--gen", "cycle:5", "--out", ""], "out"),
            (["sweep", "--gen", "cycle:5", "--count", "2", "--out", ""], "out"),
            (["sweep", "--gen", "cycle:5", "--count", "2", "--findings", ""], "findings"),
        ],
    )
    def test_empty_output_path(self, capsys, monkeypatch, argv, flag):
        from isoprofile import cli

        monkeypatch.setattr(cli, "_load_graph", lambda *args: pytest.fail("loaded a graph"))
        monkeypatch.setattr(cli, "counterexample_sweep", lambda *args, **kwargs: pytest.fail("ran the sweep"))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: --{flag} needs a file path\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("C~\nD??\n", "graph file holds 2 graph6 lines; pass one graph per run"),
            ("3 2\n0 1\n1 0\n", "edge-list declares 2 edges but lists 1 distinct ones"),
        ],
    )
    def test_input_file_refused(self, capsys, tmp_path, text, message):
        source = tmp_path / "graph.txt"
        source.write_text(text)
        code, out, err = run(capsys, "profile", "--input", str(source))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", ["3 2\n0 1\n1 2\n", "Bw\n"])
    def test_input_file_with_byte_order_mark(self, capsys, tmp_path, text):
        # some editors start a UTF-8 file with U+FEFF; it is not part of the graph
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        expected = run(capsys, "profile", "--input", str(plain), "--format", "csv")
        assert expected[0] == 0
        assert run(capsys, "profile", "--input", str(marked), "--format", "csv") == expected

    def test_conflicting_sources(self, capsys):
        code, _, err = run(capsys, "profile", "--g6", "A_", "--gen", "cycle:4")
        assert code == 1

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "profile")
        assert code == 1

    def test_cap_violation(self, capsys):
        code, _, err = run(capsys, "profile", "--gen", "empty:30")
        assert code == 1 and "cap" in err

    def test_cap_override(self, capsys):
        code, out, _ = run(capsys, "profile", "--gen", "empty:25", "--cap", "25", "--format", "csv", "--strategy", "reduced")
        assert code == 0
        assert len(out.strip().splitlines()) == 27

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_refused(self, capsys, cap):
        code, out, err = run(capsys, "profile", "--gen", "cycle:5", "--cap", cap)
        assert code == 1 and out == ""
        assert f"--cap must be at least 1, got {cap}" in err
        assert "exceeds" not in err

    def test_every_strategy_accepted(self, capsys):
        outputs = set()
        for strategy in STRATEGIES:
            code, out, _ = run(capsys, "profile", "--gen", "cycle:6", "--strategy", strategy, "--format", "csv")
            assert code == 0, strategy
            outputs.add(out)
        assert len(outputs) == 1
        code, _, err = run(capsys, "profile", "--gen", "cycle:6", "--strategy", "psychic")
        assert code == 1 and "psychic" in err

    def test_dense_regular_spec(self, capsys):
        code, out, _ = run(capsys, "profile", "--gen", "regular:16:7", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 18

    def test_bad_generator_spec(self, capsys):
        code, _, err = run(capsys, "profile", "--gen", "mystery:4")
        assert code == 1 and "mystery" in err


@pytest.mark.parametrize("command", ["profile", "verify"])
def test_spaces_around_spec(capsys, command):
    # --gen is stripped as sweep strips each of its specs
    spaced = run(capsys, command, "--gen", " cycle:5 ", "--format", "json")
    assert spaced == run(capsys, command, "--gen", "cycle:5", "--format", "json")
    assert spaced[0] == 0 and spaced[2] == ""


def _graph6_header(n):
    # the long graph6 size header alone: '~' and three 6-bit bytes
    return "~" + "".join(chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0))


def _never_called(*args, **kwargs):
    raise AssertionError("an oversized graph was built before the cap check")


class TestOversizedInputs:
    """Declared vertex counts above --cap are refused before anything is built."""

    @pytest.mark.parametrize("command", ["profile", "verify"])
    def test_hypercube_spec(self, capsys, monkeypatch, command):
        import isoprofile.graphs as graphs_mod

        _, parsers, seeded = graphs_mod._GENERATORS["hypercube"]
        monkeypatch.setitem(graphs_mod._GENERATORS, "hypercube", (_never_called, parsers, seeded))
        code, out, err = run(capsys, command, "--gen", "hypercube:20")
        assert code == 1 and out == ""
        assert "graph on 1048576 vertices exceeds the solver cap of 24" in err

    def test_first_argument_of_spec(self, capsys, monkeypatch):
        import isoprofile.cli as cli_mod

        monkeypatch.setattr(cli_mod, "from_spec", _never_called)
        code, _, err = run(capsys, "profile", "--gen", "complete:1500")
        assert code == 1 and "graph on 1500 vertices exceeds the solver cap of 24" in err
        code, _, err = run(capsys, "profile", "--gen", "random:26:0.5", "--cap", "25")
        assert code == 1 and "graph on 26 vertices exceeds the solver cap of 25" in err

    def test_graph6_header(self, capsys, monkeypatch):
        import isoprofile.cli as cli_mod

        monkeypatch.setattr(cli_mod, "parse_graph6", _never_called)
        code, _, err = run(capsys, "verify", "--g6", _graph6_header(258047))
        assert code == 1 and "graph on 258047 vertices exceeds the solver cap of 24" in err

    @pytest.mark.parametrize("text, n", [("100000 0\n", 100000), (_graph6_header(5000) + "\n", 5000)])
    def test_file_header(self, capsys, monkeypatch, tmp_path, text, n):
        import isoprofile.cli as cli_mod

        monkeypatch.setattr(cli_mod, "load_graph_text", _never_called)
        source = tmp_path / "big.txt"
        source.write_text("# declared size only\n" + text)
        code, _, err = run(capsys, "profile", "--input", str(source))
        assert code == 1 and f"graph on {n} vertices exceeds the solver cap of 24" in err

    def test_sweep_specs(self, capsys, monkeypatch, tmp_path):
        import isoprofile.analysis as analysis_mod

        monkeypatch.setattr(analysis_mod, "from_spec", _never_called)
        monkeypatch.setattr(os, "fork", _never_called)
        code, out, err = run(
            capsys, "sweep", "--gen", "cycle:5,hypercube:20", "--count", "4",
            "--findings", str(tmp_path / "f"),
        )
        assert code == 1 and out == ""
        assert "graph on 1048576 vertices exceeds the solver cap of 24" in err

    def test_malformed_sweep_spec_refused_before_any_graph(self, capsys, monkeypatch, tmp_path):
        # the stream never reaches bogus:1 at --count 1; it is refused anyway
        import isoprofile.analysis as analysis_mod

        monkeypatch.setattr(analysis_mod, "from_spec", _never_called)
        monkeypatch.setattr(os, "fork", _never_called)
        code, out, err = run(
            capsys, "sweep", "--gen", "cycle:5,bogus:1", "--count", "1",
            "--findings", str(tmp_path / "f"),
        )
        assert code == 1 and out == ""
        assert err == "error: unknown generator 'bogus' in 'bogus:1'\n"

    def test_above_64_vertices_whatever_the_cap(self, capsys, monkeypatch):
        import isoprofile.cli as cli_mod

        monkeypatch.setattr(cli_mod, "from_spec", _never_called)
        code, out, err = run(capsys, "profile", "--gen", "empty:65", "--cap", "65", "--strategy", "reduced")
        assert code == 1 and out == ""
        assert "graph on 65 vertices: the solvers take at most 64 vertices" in err

    def test_within_cap_still_builds(self, capsys):
        code, out, _ = run(capsys, "profile", "--gen", "hypercube:4", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 18
        code, _, err = run(capsys, "profile", "--g6", "~???")
        assert code == 1 and "non-canonical" in err


class TestVerifyCommand:
    @pytest.mark.parametrize("header", ["-5 2", "0 2"])
    def test_input_file_without_vertices_refused(self, capsys, tmp_path, header):
        # refused at the header, before an edge is read against 0..n-1
        source = tmp_path / "graph.txt"
        source.write_text(f"{header}\n0 1\n1 2\n")
        code, out, err = run(capsys, "verify", "--input", str(source))
        assert (code, out, err) == (1, "", "error: a graph needs at least one vertex\n")

    def test_cycle6_consistent(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "cycle:6")
        assert code == 0
        assert "consistent" in out
        assert "regular=True" in out

    def test_star6_consistent_irregular(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "star:6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["regular"] is False
        assert payload["consistent"] is True
        for key in ("max_induced", "min_induced", "max_covered", "min_covered"):
            assert payload["symmetry"][key]["symmetric"] is False

    def test_path2_trivial_case(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "path:2")
        assert code == 0

    def test_json_roundtrips_to_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "cycle:5", "--format", "json")
        assert code == 0
        rebuilt = VerificationReport.from_dict(json.loads(out))
        assert rebuilt == verify_theorem(cycle(5)) and type(rebuilt) is VerificationReport

    def test_csv_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--gen", "cycle:4", "--format", "csv")
        assert code == 1 and "profile command" in err

    def test_disconnected_note_shown(self, capsys):
        code, out, _ = run(capsys, "verify", "--input", str(FIXTURES / "two_disjoint_edges.txt"))
        assert code == 0
        assert "disconnected" in out

    def test_internal_inconsistency_exits_2(self, capsys, monkeypatch):
        from isoprofile import InternalInconsistencyError
        import isoprofile.cli as cli_mod

        def broken(*args, **kwargs):
            raise InternalInconsistencyError("solver routes disagree on max_cut at i=1")

        monkeypatch.setattr(cli_mod, "verify_theorem", broken)
        code, _, err = run(capsys, "verify", "--gen", "cycle:4")
        assert code == 2
        assert "internal inconsistency" in err


class TestSweepCommand:
    def test_clean_sweep(self, capsys, tmp_path):
        findings = tmp_path / "findings.txt"
        code, out, _ = run(
            capsys,
            "sweep", "--gen", "cycle:5,star:5", "--gen", "random:6:0.5",
            "--count", "6", "--seed", "11", "--findings", str(findings),
        )
        assert code == 0
        assert "inconsistent=0" in out
        assert not findings.exists()

    def test_spaces_around_specs(self, capsys, tmp_path):
        # each comma-separated spec is stripped, and an empty one dropped
        argv = ["sweep", "--count", "4", "--format", "json", "--findings", str(tmp_path / "f")]
        spaced = run(capsys, *argv, "--gen", " cycle:5, random:6:0.5 ,")
        assert spaced == run(capsys, *argv, "--gen", "cycle:5,random:6:0.5")
        assert spaced[0] == 0 and json.loads(spaced[1])["specs"] == ["cycle:5", "random:6:0.5"]

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outputs = []
        for run_idx, workers in ((0, "1"), (1, "1"), (2, "3")):
            target = tmp_path / f"sweep{run_idx}.json"
            code = main([
                "sweep", "--gen", "random:6:0.5,regular:6:2", "--count", "9",
                "--seed", "4242", "--format", "json", "--workers", workers,
                "--out", str(target), "--findings", str(tmp_path / f"f{run_idx}"),
            ])
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_infeasible_regular_spec(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--gen", "regular:5:3", "--count", "1",
            "--seed", "1", "--findings", str(tmp_path / "f"),
        )
        assert code == 1
        assert "odd" in err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_refused(self, capsys, tmp_path, workers):
        code, out, err = run(
            capsys, "sweep", "--gen", "cycle:4", "--count", "2", "--workers", workers,
            "--findings", str(tmp_path / "f"),
        )
        assert code == 1 and out == ""
        assert "workers must be at least 1" in err

    def test_internal_inconsistency_names_graph(self, capsys, monkeypatch, tmp_path):
        from isoprofile import InternalInconsistencyError, to_graph6
        from isoprofile.graphs import from_spec
        import isoprofile.analysis as analysis_mod

        def broken(*args, **kwargs):
            raise InternalInconsistencyError("solver routes disagree on max_cut at i=1")

        monkeypatch.setattr(analysis_mod, "verify_theorem", broken)
        code, out, err = run(
            capsys, "sweep", "--gen", "cycle:5", "--count", "3", "--format", "json",
            "--findings", str(tmp_path / "f"),
        )
        assert code == 2 and out == ""
        assert err == (
            f"internal inconsistency: graph 0 (cycle:5, graph6 {to_graph6(from_spec('cycle:5'))}): "
            "solver routes disagree on max_cut at i=1\n"
        )

    def test_count_required(self, capsys):
        code, _, err = run(capsys, "sweep", "--gen", "cycle:4")
        assert code == 1


def test_package_runs_as_the_cli():
    # python -m isoprofile is the same front door as python -m isoprofile.cli
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["profile", "--g6", "EhEG", "--format", "csv"]
    package, module = (
        subprocess.run([sys.executable, "-m", name, *argv], env=env, capture_output=True, text=True, timeout=60)
        for name in ("isoprofile", "isoprofile.cli")
    )
    assert package.returncode == module.returncode == 0, package.stderr
    assert package.stdout == module.stdout != ""


def test_cli_import_leaves_heavy_modules_unloaded():
    # every CLI start pays for what importing the CLI loads: set-up time
    # and peak memory; the sweep imports pickle and signal only to fork
    heavy = ["array", "pickle", "signal", "concurrent.futures", "multiprocessing", "numpy"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = f"import sys, isoprofile.cli; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_generates_no_dataclass_code():
    # against a bare interpreter in the same environment, importing the
    # CLI loads no dataclasses (nor the inspect it pulls in) and no json,
    # but every package module bench/spans.py reads from sys.modules
    import importlib.util

    spec = importlib.util.spec_from_file_location("_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    loaded = []
    for setup in ("pass", "import isoprofile.cli"):
        probe = f"{setup}\nimport sys\nprint(' '.join(sys.modules))"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        loaded.append(set(done.stdout.split()))
    bare, cli = loaded
    added = cli - bare
    assert not {"dataclasses", "inspect", "json"} & added, sorted(added)
    assert {f"isoprofile.{short}" for short in spans.LAYERS} <= added


def test_sweep_leaves_logging_unloaded(tmp_path):
    # a sweep logs each block at DEBUG only when logging is already
    # loaded, as it is wherever a caller handles the records; importing it
    # would cost every sweep about 7 ms and 0.4 MB
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["sweep", "--gen", "cycle:5,random:6:0.5", "--count", "4", "--workers", "2",
            "--out", str(tmp_path / "out"), "--findings", str(tmp_path / "f")]
    probe = (
        "import sys\n"
        "before = 'logging' in sys.modules\n"
        "from isoprofile.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, before, 'logging' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    code, before, after = done.stdout.split()
    assert code == "0" and after == before
