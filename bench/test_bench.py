"""Self-tests of the benchmark: python3 -m pytest -q bench"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import check  # noqa: E402
import spans  # noqa: E402
from isoprofile import cli  # noqa: E402
from isoprofile.graphs import from_spec  # noqa: E402
from isoprofile.solvers import all_profiles  # noqa: E402
from run import layer_value  # noqa: E402


def _attributes() -> dict:
    """Every attribute of every isoprofile module and of the classes it defines."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "isoprofile" and not name.startswith("isoprofile."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, obj in vars(value).items():
                    out[name, attr, member] = obj
    return out


def _traced(argv):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    return code, tracer


def test_tracer_restores_every_patched_attribute(capsys):
    before = _attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _attributes()
        # Names bound by `from .solvers import all_profiles` are patched too.
        assert during["isoprofile.analysis", "all_profiles"] is not before["isoprofile.analysis", "all_profiles"]
        assert during["isoprofile.analysis", "VerificationReport", "to_dict"] is not before["isoprofile.analysis", "VerificationReport", "to_dict"]
        assert cli.main(["verify", "--gen", "cycle:5", "--format", "json"]) == 0
    finally:
        tracer.restore()
    assert tracer.spans and tracer.restored()
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_exhaustive_subsets_are_calls_times_two_to_the_n(capsys):
    code, tracer = _traced(["verify", "--gen", "cycle:5", "--format", "json"])
    assert code == 0
    layers = tracer.layers()
    calls = layer_value("solvers.exhaustive.calls", layers)
    assert calls > 0
    assert layer_value("solvers.exhaustive.subsets", layers) == calls * 2**5


def test_output_check_rejects_tampered_csv(capsys):
    assert cli.main(["profile", "--gen", "cycle:6", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    assert check.check_profile_csv(text, 6, 6) == []
    rows = text.split("\n")
    cells = rows[3].split(",")
    cells[1] = str(int(cells[1]) + 1)  # max_induced(2)
    tampered_value = "\n".join(rows[:3] + [",".join(cells)] + rows[4:])
    assert check.check_profile_csv(tampered_value, 6, 6)
    assert check.check_profile_csv(text.replace("max_cut", "maxcut", 1), 6, 6)
    assert check.check_profile_csv(text.rstrip("\n"), 6, 6)
    assert check.check_profile_csv(text, 6, 7)


def test_replay_reproduces_the_reduced_strategy():
    graph = from_spec("regular:10:3", 5)
    expected = {kind.key: list(p.values) for kind, p in all_profiles(graph, strategy="reduced").items()}
    assert spans.replay_reduced(graph) == expected
