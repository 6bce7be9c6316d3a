"""Tests of the benchmark's tracer and correctness gate on small codes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flagcodes  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

SMALL = {"2-2-1": (2, 1, 2, 1), "2-2-0": (2, 1, 2, 0)}


@pytest.fixture
def small_grid(monkeypatch):
    for name, spec in SMALL.items():
        monkeypatch.setitem(workloads.GRID, name, spec)
    monkeypatch.setattr(workloads, "VERIFY_CODE", "2-2-1")


def _traced_run(seed):
    """Set-up, channel trials and one analyze pass, all traced."""
    tracer = Tracer()
    gate = workloads.Gate()
    with tracer.installed():
        prepared = workloads.setup(tuple(SMALL), gate, tracer)
        rng = workloads.trial_rng("test", seed)
        workloads.run_trials(prepared, workloads.simulate_erasures, rng, gate, count=30)
        workloads.run_trials(
            prepared, workloads.deep_erasures, rng, gate, count=30, forbid_step1=True
        )
        workloads.run_passes(prepared, gate, count=1)
    return tracer, gate


def _library_bindings():
    """Every attribute of every library module and of the patched classes."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "flagcodes"]
    owners += [flagcodes.FiniteField, flagcodes.MatrixFq, flagcodes.SandwichParams]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


def test_every_wrapped_attribute_is_restored(small_grid):
    before = _library_bindings()
    _traced_run(seed=1)
    after = _library_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_restored_when_the_traced_block_raises():
    before = _library_bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert flagcodes.decode is not before[(id(flagcodes), "decode")]
            raise RuntimeError("boom")
    after = _library_bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_for_a_fixed_seed(small_grid):
    first, gate = _traced_run(seed=7)
    second, _ = _traced_run(seed=7)
    assert gate.failed == 0 and gate.attempted > 60
    assert first.counts == second.counts
    counts = {k for k, unit in LAYER_METRICS.items() if unit != "s"}
    m1, m2 = first.metrics(), second.metrics()
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}


def test_every_layer_is_exercised(small_grid):
    tracer, _ = _traced_run(seed=3)
    metrics = tracer.metrics()
    assert metrics.keys() == LAYER_METRICS.keys()
    # Deep trials never stop at step 1, and (2,2,0) has no middle band, so
    # only step 2 may stay idle here.
    idle = {k for k, v in metrics.items() if v["value"] == 0}
    assert idle <= {"decoder.decode_step2_s", "linalg.subspace_sum_calls"}
    # Spans nest: each contains call below decode is counted once.
    assert metrics["decoder.contains_per_decode"]["value"] > 0


def test_verify_spans_are_named_after_the_checks(small_grid):
    code = flagcodes.build_code(flagcodes.SandwichParams(flagcodes.field_new(2), 2, 1))
    names = {f"verify.{r.name}_s" for r in flagcodes.verify_code(code)}
    assert names == {k for k in LAYER_METRICS if k.startswith("verify.") and k.endswith("_s")}


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
