"""Smoke tests of the benchmark: every workload's answers at small sizes, the
per-layer coverage of the traced run, and the restoration of every binding
the tracer replaces."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_library()

import spans  # noqa: E402

# the workload on which each layer's spans must record at least one call
LAYER_WORKLOAD = {
    "perms.order": "giants",
    "perms.order_exceeds": "gallery",
    "perms.is_member": "giants",
    "perms.compose": "gallery",
    "words.parse": "gallery",
    "words.evaluate": "gallery",
    "dessins.load": "gallery",
    "dessins.descriptor": "gallery",
    "dessins.iso": "gallery",
    "dessins.reg_iso": "gallery",
    "dessins.witness": "gallery",
    "belyi.reduce": "reduce",
    "belyi.verify": "reduce",
    "belyi.stage_eval": "reduce",
    "belyi.crit": "algebra",
    "belyi.rational_roots": "algebra",
    "belyi.sturm": "algebra",
    "belyi.bmn": "algebra",
    "tower.mul": "algebra",
    "tower.inverse": "algebra",
    "tower.galois": "algebra",
    "tower.jinv": "algebra",
    "tower.distinct": "algebra",
    "models.gallery": "gallery",
    "models.local_model": "gallery",
    "models.commutes": "gallery",
    "models.two_adic": "gallery",
    "cli.run": "tour",
}


def _bindings():
    """Identity of every attribute of the traced modules and of the classes
    whose methods the tracer wraps."""
    holders = [importlib.import_module(m) for m in spans.MODULES]
    for table in (spans.SPANS, spans.COUNTS):
        for module, paths in table.values():
            home = importlib.import_module(module)
            for path in paths:
                if "." in path:
                    holders.append(spans._resolve(home, path.rpartition(".")[0]))
    return {(id(h), key): value for h in holders for key, value in vars(h).items()}


def test_layer_map_covers_every_span():
    assert set(LAYER_WORKLOAD) == set(spans.SPANS) | set(spans.COUNTS)
    for name in LAYER_WORKLOAD:
        assert f"{name}.calls" in dict(spans.PER_LAYER)


@pytest.fixture
def workdir_removed():
    yield
    shutil.rmtree(run.WORKDIR, ignore_errors=True)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_workload_traced(workload, workdir_removed):
    before = _bindings()
    bench = run.Bench(workload, seed=1, smoke=True)
    n, failures, metrics, _ = run.measure_traced(bench)
    assert n > 0 and not failures, failures[:3]
    for layer, home in LAYER_WORKLOAD.items():
        if home == workload:
            assert metrics[f"{layer}.calls"][0] >= 1, layer
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_rebinds_second_bindings():
    import dessinkit.cli
    import dessinkit.dessins

    original = dessinkit.dessins.regular_descriptor
    assert dessinkit.cli.regular_descriptor is original
    with spans.Tracer():
        assert dessinkit.cli.regular_descriptor is not original
        assert dessinkit.cli.regular_descriptor is dessinkit.dessins.regular_descriptor
    assert dessinkit.cli.regular_descriptor is original
    assert dessinkit.dessins.regular_descriptor is original


def test_tail_keeps_ten_values_above():
    values = list(range(1, 101))
    pct, value = run.tail(values)
    assert pct == 90 and value == 90
    assert sum(v > value for v in values) == 10


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "gallery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_result_line_format(capsys):
    run.print_result("gallery", 3, [], {"ops_per_s": (1.5, "ops/s")}, {})
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == {"correct": True, "attempted": 3, "failed": 0,
                                "metrics": {"ops_per_s": {"value": 1.5, "unit": "ops/s"}}}
