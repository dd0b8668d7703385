import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from isoprofile import (
    CHARACTERIZING_KINDS,
    CUT_KINDS,
    KIND_ORDER,
    IdentityResult,
    MetricKind,
    SweepFinding,
    SweepSummary,
    VertexCapError,
    all_profiles,
    check_symmetry,
    complement,
    complete,
    counterexample_sweep,
    cycle,
    degree_summary,
    diff_sequence,
    empty,
    from_edge_list,
    hypercube,
    hypercube_inequality_check,
    identity_suite,
    path,
    profile_exhaustive,
    random_graph,
    star,
    to_graph6,
    verify_theorem,
    write_findings,
)


class TestDiffSequence:
    def test_c4_max_induced_diff(self):
        seq = diff_sequence(profile_exhaustive(cycle(4))[MetricKind.MAX_INDUCED])
        assert seq.values == (0, 1, 1, 2)
        assert seq.step(4) == 2

    def test_star4_max_induced_diff(self):
        seq = diff_sequence(profile_exhaustive(star(4))[MetricKind.MAX_INDUCED])
        assert seq.values == (0, 1, 1, 1)

    def test_all_zero(self):
        seq = diff_sequence(profile_exhaustive(empty(4))[MetricKind.MAX_CUT])
        assert seq.values == (0, 0, 0, 0)

    def test_telescoping(self, corpus):
        for name, g in corpus[:60]:
            for kind in KIND_ORDER:
                profile = profile_exhaustive(g)[kind]
                seq = diff_sequence(profile)
                assert sum(seq.values) == profile.values[g.n] - profile.values[0], name

    def test_step_bounds(self):
        seq = diff_sequence(profile_exhaustive(cycle(4))[MetricKind.MAX_INDUCED])
        with pytest.raises(IndexError):
            seq.step(0)
        with pytest.raises(IndexError):
            seq.step(5)


class TestSymmetry:
    def test_c4_symmetric_target_two(self):
        seq = diff_sequence(profile_exhaustive(cycle(4))[MetricKind.MAX_INDUCED])
        verdict = check_symmetry(seq)
        assert verdict.symmetric and verdict.target == 2
        assert verdict.violations == ()

    def test_star4_not_symmetric(self):
        seq = diff_sequence(profile_exhaustive(star(4))[MetricKind.MAX_INDUCED])
        verdict = check_symmetry(seq)
        assert not verdict.symmetric
        assert verdict.target == 1
        assert verdict.violations == ((2, 2), (3, 2))

    def test_min_degree_target_for_regular(self, corpus):
        # for a regular graph the max_induced diff target is the degree
        for name, g in corpus:
            summary = degree_summary(g)
            if not summary.is_regular or g.n > 7:
                continue
            seq = diff_sequence(profile_exhaustive(g)[MetricKind.MAX_INDUCED])
            verdict = check_symmetry(seq)
            assert verdict.symmetric and verdict.target == summary.min_degree, name

    def test_cut_sequences_zero_sum_everywhere(self, corpus):
        for name, g in corpus[:120]:
            for kind in CUT_KINDS:
                verdict = check_symmetry(diff_sequence(profile_exhaustive(g)[kind]))
                assert verdict.symmetric and verdict.target == 0, name

    def test_single_vertex_sequence_is_symmetric(self):
        verdict = check_symmetry(diff_sequence(profile_exhaustive(empty(1))[MetricKind.MAX_INDUCED]))
        assert verdict.symmetric


class TestIdentitySuite:
    def _suite_by_name(self, g):
        profiles = all_profiles(g, strategy="checked")
        return {r.name: r for r in identity_suite(g, profiles)}

    def test_all_hold_on_sample(self, corpus):
        for name, g in corpus[:50]:
            profiles = all_profiles(g, strategy="oracle")
            for result in identity_suite(g, profiles):
                assert result.holds is not False, (name, result)

    def test_regular_only_marked_na_on_star(self):
        results = self._suite_by_name(star(4))
        assert results["regular_induced_cut_split"].applicable is False
        assert results["regular_induced_cut_split"].holds is None
        assert results["regular_handshake"].applicable is False

    def test_regular_identities_on_c4(self):
        results = self._suite_by_name(cycle(4))
        # 2*max_induced(2) + min_cut(2) = 2*1 + 2 = 4 = 2*2
        assert results["regular_induced_cut_split"].holds is True
        assert results["regular_densest_shift"].holds is True
        assert results["regular_handshake"].holds is True

    def test_cover_split_on_star(self):
        # max_covered(1) + min_induced(3) = 3 + 0 = m
        results = self._suite_by_name(star(4))
        assert results["max_covered_split"].holds is True

    def test_boundary_identities(self, corpus):
        for name, g in corpus[:40]:
            results = {r.name: r for r in identity_suite(g, all_profiles(g, strategy="oracle"))}
            for key in ("densest_full_set", "densest_drop_one", "densest_diff_first", "densest_diff_last"):
                assert results[key].holds is True, (name, key)

    def test_detects_planted_violation(self):
        g = cycle(4)
        profiles = dict(all_profiles(g, strategy="oracle"))
        broken = profiles[MetricKind.MAX_COVERED]
        profiles[MetricKind.MAX_COVERED] = type(broken)(
            broken.kind, (0, 2, 4, 4, 5), None, "corrupted"
        )
        results = {r.name: r for r in identity_suite(g, profiles)}
        failed = results["max_covered_split"]
        assert failed.holds is False
        assert failed.first_violation == (4, 5, 4)


class TestVerifyTheorem:
    def test_hypercube3_consistent_regular(self):
        report = verify_theorem(hypercube(3))
        assert report.regular and report.consistent
        for kind in CHARACTERIZING_KINDS:
            assert report.symmetry[kind].symmetric

    def test_star5_consistent_irregular(self):
        report = verify_theorem(star(5))
        assert not report.regular and report.consistent
        for kind in CHARACTERIZING_KINDS:
            assert not report.symmetry[kind].symmetric

    def test_k2_by_hand(self):
        report = verify_theorem(complete(2))
        assert report.regular and report.consistent
        assert report.diffs[MetricKind.MAX_INDUCED] == (0, 1)
        assert report.symmetry[MetricKind.MAX_INDUCED].target == 1

    def test_path2_equals_k2(self):
        assert verify_theorem(path(2)) == verify_theorem(complete(2))

    def test_disconnected_note(self):
        report = verify_theorem(from_edge_list(4, [(0, 1), (2, 3)]))
        assert not report.connected
        assert "disconnected" in report.note
        assert report.consistent  # 1-regular and all four sequences symmetric

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: verify_theorem(cycle(5)), id="report-note-none"),
            pytest.param(
                lambda: verify_theorem(from_edge_list(4, [(0, 1), (2, 3)])), id="report-note-string"
            ),
            pytest.param(
                lambda: verify_theorem(star(5)).symmetry[MetricKind.MAX_INDUCED],
                id="verdict-with-violations",
            ),
            pytest.param(
                lambda: next(r for r in verify_theorem(star(5)).identities if not r.applicable),
                id="identity-not-applicable",
            ),
            pytest.param(
                lambda: IdentityResult("densest_full_set", True, False, (4, 3, 5)),
                id="identity-first-violation",
            ),
        ],
    )
    def test_report_dict_roundtrip(self, build):
        record = build()
        data = json.loads(json.dumps(record.to_dict()))
        assert type(record).from_dict(data) == record

    def test_identities_in_report_all_pass(self):
        report = verify_theorem(cycle(6))
        for result in report.identities:
            assert result.holds is not False


class TestVerifySolveCounts:
    """Solver work done by one verify, counted rather than timed."""

    @staticmethod
    def _count(monkeypatch, module, name):
        real = getattr(module, name)
        calls = []

        def counting(graph, *args, **kwargs):
            calls.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("strategy", ["checked", "auto"])
    @pytest.mark.parametrize("graph", [cycle(6), star(7), random_graph(8, 0.5, 3)], ids=["C6", "S7", "G8"])
    def test_checked_verify_solves_complement_once(self, monkeypatch, strategy, graph):
        # one walk on the graph, one on its complement, branch and bound
        # once per kind; the identity suite reuses the complement walk
        import isoprofile.solvers as solvers_mod

        walks = self._count(monkeypatch, solvers_mod, "profile_exhaustive")
        searches = self._count(monkeypatch, solvers_mod, "profile_branch_bound")
        report = verify_theorem(graph, strategy=strategy)
        assert report.consistent
        assert walks == [graph, complement(graph)]
        assert searches == [graph] * 6

    @pytest.mark.parametrize("strategy, graph", [("reduced", star(6)), ("auto", cycle(9))])
    def test_unchecked_verify_solves_complement_on_demand(self, monkeypatch, strategy, graph):
        import isoprofile.analysis as analysis_mod

        solves = self._count(monkeypatch, analysis_mod, "all_profiles")
        report = verify_theorem(graph, strategy=strategy)
        assert solves == [complement(graph)]
        assert all(result.holds is not False for result in report.identities)

    def test_identities_match_independent_complement_solve(self, corpus):
        for name, g in corpus:
            assert g.n <= 8, name
            independent = identity_suite(
                g,
                all_profiles(g, strategy="checked"),
                all_profiles(complement(g), strategy="checked"),
            )
            assert verify_theorem(g).identities == independent, name


class TestInternalInconsistency:
    def test_cut_asymmetry_classified_as_bug(self, monkeypatch):
        # a cut sequence that fails its unconditional symmetry can only
        # mean broken solvers, so verify_theorem aborts instead of
        # reporting a counterexample; simulate by tampering with the
        # profile source
        import isoprofile.analysis as analysis_mod
        from isoprofile import InternalInconsistencyError

        real = analysis_mod._solve

        def tampered(graph, strategy, cap):
            solved, complement_profiles = real(graph, strategy, cap)
            profiles = dict(solved)
            broken = profiles[MetricKind.MAX_CUT]
            values = list(broken.values)
            values[-1] += 1
            profiles[MetricKind.MAX_CUT] = replace(
                broken, values=tuple(values), witnesses=None, provenance="tampered"
            )
            return profiles, complement_profiles

        monkeypatch.setattr(analysis_mod, "_solve", tampered)
        with pytest.raises(InternalInconsistencyError, match="unconditional"):
            verify_theorem(cycle(4))

    def test_checked_strategy_rejects_route_disagreement(self, monkeypatch):
        import isoprofile.solvers as solvers_mod
        from isoprofile import InternalInconsistencyError

        real = solvers_mod._searcher

        def lying(graph, kind):
            search = real(graph, kind)

            def lied(size):
                value, mask = search(size)
                if kind is MetricKind.MAX_INDUCED and size == 2:
                    return value + 1, mask
                return value, mask

            return lied

        monkeypatch.setattr(solvers_mod, "_searcher", lying)
        with pytest.raises(InternalInconsistencyError, match="max_induced at i=2"):
            all_profiles(cycle(4), strategy="checked")

    def test_checked_strategy_rejects_false_witness(self, monkeypatch):
        import isoprofile.solvers as solvers_mod
        from isoprofile import InternalInconsistencyError, VertexSet

        real = solvers_mod.profile_exhaustive

        def lying(graph, **kwargs):
            profiles = real(graph, **kwargs)
            honest = profiles[MetricKind.MIN_CUT]
            witnesses = list(honest.witnesses)
            witnesses[2] = VertexSet.from_vertices(graph.n, [0, 2])  # cut 4 on C4, not 2
            profiles[MetricKind.MIN_CUT] = replace(honest, witnesses=tuple(witnesses))
            return profiles

        monkeypatch.setattr(solvers_mod, "profile_exhaustive", lying)
        with pytest.raises(InternalInconsistencyError, match="witness of min_cut at i=2"):
            all_profiles(cycle(4), strategy="checked")


class TestHypercubeInequality:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bound_holds(self, d):
        report = hypercube_inequality_check(d)
        assert report.all_hold
        assert report.n == 1 << d

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("strategy", ["auto", "oracle"])
    def test_harper_closed_form(self, d, strategy):
        # Harper (1964): max_induced(i) on Q_d is the bit count of 0..i-1,
        # and min_cut(i) = d*i - 2*max_induced(i) since Q_d is d-regular
        profiles = all_profiles(hypercube(d), strategy=strategy)
        dense = profiles[MetricKind.MAX_INDUCED].values
        cut = profiles[MetricKind.MIN_CUT].values
        for i in range(len(dense)):
            assert dense[i] == sum(bin(k).count("1") for k in range(i)), i
            assert cut[i] == d * i - 2 * dense[i], i
        report = hypercube_inequality_check(d, strategy=strategy)
        assert report.min_cut_profile == cut
        assert report.all_hold

    def test_tight_at_powers_of_two_d3(self):
        report = hypercube_inequality_check(3)
        by_size = {row.size: row for row in report.rows}
        # facet cuts meet the bound with equality at subcube sizes
        for i in (1, 2, 4, 8):
            assert by_size[i].exact
            assert by_size[i].min_cut == int(by_size[i].bound_base2)
        assert by_size[4].min_cut == 4

    def test_d2_values(self):
        report = hypercube_inequality_check(2)
        by_size = {row.size: row for row in report.rows}
        assert by_size[2].min_cut == 2 and by_size[2].bound_base2 == 2.0
        assert by_size[1].min_cut == 2 and by_size[1].bound_base2 == 2.0

    def test_exact_rows_match_float_verdicts(self):
        # the integer comparison at powers of two agrees with an
        # all-integer restatement of the bound: 2**(i*d - cut) <= i**i
        for d in (1, 2, 3):
            report = hypercube_inequality_check(d)
            for row in report.rows:
                i = row.size
                exponent = i * d - row.min_cut
                exact_holds = exponent <= 0 or 2**exponent <= i**i
                assert row.holds_base2 == exact_holds, (d, i)

    def test_natural_log_column_is_informational(self):
        # base-2 passes everywhere; the natural-log variant genuinely
        # fails on Q2 at i=2, which is why it is informational only
        report = hypercube_inequality_check(2)
        by_size = {row.size: row for row in report.rows}
        assert by_size[2].holds_base2
        assert not by_size[2].holds_natural
        assert by_size[2].bound_natural == pytest.approx(2 * (2 - math.log(2)))

    def test_cap_is_checked_before_building(self, monkeypatch):
        import isoprofile.analysis as analysis_mod

        def never(d):
            raise AssertionError(f"hypercube({d}) built above the cap")

        monkeypatch.setattr(analysis_mod, "hypercube", never)
        with pytest.raises(VertexCapError):
            hypercube_inequality_check(20)
        for d in (0, 27):
            with pytest.raises(ValueError, match="1..26"):
                hypercube_inequality_check(d)

    def test_note_mentions_direction_and_base(self):
        report = hypercube_inequality_check(1)
        assert "lower-bound" in report.note
        assert "log2" in report.note.replace(" ", "")


class TestSweep:
    def test_zero_count(self):
        summary = counterexample_sweep([], 0, seed=1)
        assert summary.count == 0 and summary.findings == ()

    def test_mixed_sweep_clean(self, tmp_path):
        findings = tmp_path / "findings.txt"
        summary = counterexample_sweep(
            ["cycle:5", "star:5", "random:6:0.5", "regular:6:2"],
            12,
            seed=99,
            findings_path=findings,
        )
        assert summary.inconsistent == 0
        assert summary.consistent == 12
        assert not findings.exists()

    def test_deterministic_and_worker_independent(self):
        args = (["random:6:0.4", "regular:6:3"], 8)
        a = counterexample_sweep(*args, seed=5, workers=1)
        b = counterexample_sweep(*args, seed=5, workers=1)
        c = counterexample_sweep(*args, seed=5, workers=4)
        assert a == b == c
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(c.to_dict(), sort_keys=True)

    def test_different_seeds_differ(self):
        a = counterexample_sweep(["random:7:0.5"], 4, seed=1)
        b = counterexample_sweep(["random:7:0.5"], 4, seed=2)
        # same verdicts, but the summaries record their seeds
        assert a.seed != b.seed

    def test_infeasible_spec_propagates(self):
        with pytest.raises(ValueError, match="odd"):
            counterexample_sweep(["regular:5:3"], 1, seed=1)

    def test_requires_specs(self):
        with pytest.raises(ValueError, match="generator spec"):
            counterexample_sweep([], 3, seed=1)

    def test_workers_below_one_refused(self):
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers must be at least 1"):
                counterexample_sweep(["cycle:4"], 2, seed=1, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_inconsistency_names_its_graph(self, monkeypatch, workers):
        import isoprofile.analysis as analysis_mod
        from isoprofile import InternalInconsistencyError

        real = analysis_mod.verify_theorem

        def broken(graph, **kwargs):
            if graph == star(5):
                raise InternalInconsistencyError("solver routes disagree on max_cut at i=1")
            return real(graph, **kwargs)

        monkeypatch.setattr(analysis_mod, "verify_theorem", broken)
        with pytest.raises(InternalInconsistencyError) as info:
            counterexample_sweep(["cycle:5", "star:5"], 4, seed=3, workers=workers)
        message = str(info.value)
        assert message.startswith(f"graph 1 (star:5, graph6 {to_graph6(star(5))}): ")
        assert message.endswith("solver routes disagree on max_cut at i=1")

    @pytest.mark.parametrize("flag", [False, True], ids=["consistent", "with-finding"])
    def test_summary_dict_roundtrip(self, monkeypatch, flag):
        import isoprofile.analysis as analysis_mod

        real = analysis_mod.verify_theorem

        def flagged(graph, **kwargs):
            report = real(graph, **kwargs)
            return replace(report, consistent=not (flag and graph.n == 5))

        monkeypatch.setattr(analysis_mod, "verify_theorem", flagged)
        summary = counterexample_sweep(["cycle:4", "star:5"], 2, seed=3)
        assert len(summary.findings) == flag
        assert SweepSummary.from_dict(json.loads(json.dumps(summary.to_dict()))) == summary

    def test_findings_writer_format(self, tmp_path):
        # fabricate a finding to exercise the writer; real sweeps of
        # correct solvers never produce one
        report = verify_theorem(star(4))
        finding = SweepFinding(index=3, spec="star:4", graph6="Cs", report=report)
        out = tmp_path / "findings.txt"
        write_findings([finding], out)
        lines = out.read_text().splitlines()
        assert lines[0] == "Cs"
        parsed = json.loads(lines[1])
        assert parsed["index"] == 3
        assert SweepFinding.from_dict(parsed) == finding



def _sweep_json(summary):
    return json.dumps(summary.to_dict(), sort_keys=True)


# Run in a fresh interpreter so that a hang fails by timeout instead of
# stalling the suite: graph 0 (the calling process's block) fails after
# graph 1's child has filled its pipe past 64 KiB, while graph 2's child
# is still working.
_ABORT_SCRIPT = """
import os, time
import isoprofile.analysis as analysis

os.cpu_count = lambda: 3

def job(index, spec, graph_seed, strategy, cap):
    if index == 0:
        time.sleep(0.5)
        raise ValueError("parent block failed")
    if index == 1:
        return "x" * 200_000
    time.sleep(120)

analysis._sweep_job = job
start = time.perf_counter()
try:
    analysis.counterexample_sweep(["cycle:4"], 3, seed=1, workers=3)
except ValueError as exc:
    assert str(exc) == "parent block failed", exc
else:
    raise AssertionError("the parent block's error was swallowed")
elapsed = time.perf_counter() - start
assert elapsed < 10, elapsed
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no children left")
else:
    raise AssertionError("a sweep child was left unreaped")
"""


class TestSweepProcesses:
    """The forked block split: bounded forks, index order, clean failure paths."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        # Pin the CPU count so the forking path runs on any machine.
        def pin(n):
            monkeypatch.setattr(os, "cpu_count", lambda: n)

        return pin

    def test_forks_bounded_by_cpu_count(self, monkeypatch, cpus):
        specs = ["random:6:0.4", "regular:6:3"]
        serial = counterexample_sweep(specs, 6, seed=5, workers=1)
        cpus(2)
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        wide = counterexample_sweep(specs, 6, seed=5, workers=64)
        assert len(forks) == 1
        assert _sweep_json(wide) == _sweep_json(serial)

    def test_serial_without_fork(self, monkeypatch, cpus):
        specs = ["random:6:0.4", "cycle:5"]
        serial = counterexample_sweep(specs, 5, seed=8, workers=1)
        cpus(4)
        monkeypatch.delattr(os, "fork")
        assert _sweep_json(counterexample_sweep(specs, 5, seed=8, workers=4)) == _sweep_json(serial)

    @pytest.mark.parametrize(
        "count,workers", [(0, 2), (3, 4), (7, 3)], ids=["empty", "fewer-graphs", "uneven"]
    )
    def test_block_edges_byte_identical(self, cpus, count, workers):
        cpus(4)
        specs = ["random:7:0.5", "regular:6:2", "star:5"]
        serial = counterexample_sweep(specs, count, seed=21, workers=1)
        split = counterexample_sweep(specs, count, seed=21, workers=workers)
        assert _sweep_json(split) == _sweep_json(serial)

    def test_findings_keep_index_order(self, monkeypatch, cpus, tmp_path):
        import isoprofile.analysis as analysis_mod

        real = analysis_mod.verify_theorem

        def flag_odd_edge_counts(graph, **kwargs):
            report = real(graph, **kwargs)
            return replace(report, consistent=report.m % 2 == 0)

        monkeypatch.setattr(analysis_mod, "verify_theorem", flag_odd_edge_counts)
        specs = ["random:7:0.5", "cycle:5", "path:6"]
        serial = counterexample_sweep(specs, 11, seed=13, workers=1)
        cpus(4)
        split = counterexample_sweep(specs, 11, seed=13, workers=4, findings_path=tmp_path / "f.txt")
        indices = [f.index for f in split.findings]
        assert len(indices) >= 4 and indices == sorted(indices)
        assert _sweep_json(split) == _sweep_json(serial)
        assert (tmp_path / "f.txt").read_text().count("\n") == 2 * len(indices)

    def test_inconsistency_in_child_block_names_its_graph(self, monkeypatch, cpus):
        import isoprofile.analysis as analysis_mod
        from isoprofile import InternalInconsistencyError

        cpus(2)
        real = analysis_mod.verify_theorem

        def broken(graph, **kwargs):
            if graph == star(5):
                raise InternalInconsistencyError("solver routes disagree on min_cut at i=2")
            return real(graph, **kwargs)

        monkeypatch.setattr(analysis_mod, "verify_theorem", broken)
        # blocks [0, 1] and [2, 3]; only graph 3 is a star
        with pytest.raises(InternalInconsistencyError) as info:
            counterexample_sweep(["cycle:5", "cycle:5", "cycle:5", "star:5"], 4, seed=3, workers=2)
        message = str(info.value)
        assert message.startswith(f"graph 3 (star:5, graph6 {to_graph6(star(5))}): ")
        assert message.endswith("solver routes disagree on min_cut at i=2")

    def test_child_value_error_propagates(self, cpus):
        cpus(2)
        # graph 2 is infeasible and lies in the child's block
        with pytest.raises(ValueError, match="odd"):
            counterexample_sweep(["cycle:5", "cycle:5", "regular:5:3"], 4, seed=1, workers=2)

    def test_unpicklable_child_error_reported(self, monkeypatch, cpus):
        import isoprofile.analysis as analysis_mod

        cpus(2)

        class LocalError(Exception):
            pass

        def job(index, *args):
            if index == 1:
                raise LocalError("cannot cross a pipe")

        monkeypatch.setattr(analysis_mod, "_sweep_job", job)
        with pytest.raises(RuntimeError, match=r"graphs 1\.\.1 ended without sending its result"):
            counterexample_sweep(["cycle:4"], 2, seed=1, workers=2)

    def test_parent_failure_neither_hangs_nor_leaks_children(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", _ABORT_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "no children left"

    def test_blocks_logged_in_order(self, caplog, cpus):
        cpus(2)
        with caplog.at_level(logging.DEBUG, logger="isoprofile.analysis"):
            counterexample_sweep(["cycle:5", "random:6:0.5"], 5, seed=4, workers=2)
        records = [r for r in caplog.records if r.name == "isoprofile.analysis"]
        assert [r.levelno for r in records] == [logging.DEBUG, logging.DEBUG]
        first, second = (r.getMessage() for r in records)
        assert first.startswith(f"sweep graphs 0..1: pid {os.getpid()}, ")
        assert second.startswith("sweep graphs 2..4: pid ")
        assert f"pid {os.getpid()}," not in second
        assert first.endswith(" s") and second.endswith(" s")
