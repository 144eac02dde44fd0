"""tools/bench_pairs.py on stand-in checkouts whose perfbench/run.py prints a fixed result."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower"},
                       {"name": "requests_per_s", "unit": "1/s", "better": "higher"}]}


def checkout(root: Path, p50: float, correct: bool = True) -> Path:
    """A checkout whose benchmark reports p50 and 1 / p50, and logs its arguments to runs.txt."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    result = {"correct": correct, "metrics": {"latency_p50_ms": {"value": p50},
                                              "requests_per_s": {"value": 1.0 / p50}}}
    (root / "perfbench" / "run.py").write_text(
        "import sys\n"
        "open('runs.txt', 'a').write(' '.join(sys.argv[1:]) + '\\n')\n"
        f"print('# a comment line')\nprint({json.dumps(json.dumps(result))})\n")
    return root


def test_pairs_alternate_and_count_wins(tmp_path, capsys):
    old, new = checkout(tmp_path / "old", 2.0), checkout(tmp_path / "new", 1.0)
    assert bench_pairs.main([str(old), str(new), "gauss-exact", "--pairs", "3",
                             "--seconds", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "pair 1: old then new" in out and "pair 2: new then old" in out
    assert out.count("new won 3 of 3") == 2
    assert "median old 2  new 1  old IQR 0  (gap > IQR)" in out
    runs = (old / "runs.txt").read_text().splitlines()
    assert runs == ["--workload gauss-exact --seed 1 --seconds 0.5 --trace 0"] * 3


def test_the_seed_reaches_every_run_and_the_summary(tmp_path, capsys):
    old, new = checkout(tmp_path / "old", 2.0), checkout(tmp_path / "new", 1.0)
    assert bench_pairs.main([str(old), str(new), "gauss-relu", "--pairs", "2",
                             "--seconds", "1", "--seed", "7919"]) == 0
    assert "gauss-relu: 2 pairs of 1 s at seed 7919; every run correct: True" in (
        capsys.readouterr().out)
    for root in (old, new):
        runs = (root / "runs.txt").read_text().splitlines()
        assert runs == ["--workload gauss-relu --seed 7919 --seconds 1.0 --trace 0"] * 2


def test_a_run_that_is_not_correct_exits_1(tmp_path, capsys):
    old, new = checkout(tmp_path / "old", 1.0), checkout(tmp_path / "new", 1.0, correct=False)
    assert bench_pairs.main([str(old), str(new), "gauss-exact", "--pairs", "1"]) == 1
    assert "every run correct: False" in capsys.readouterr().out


def test_quartiles_interpolate_as_numpy_does():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0)
