"""Tests of the benchmark's own pieces, on scaled-down workloads.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (ROOT, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.simmpi import DeadlockError  # noqa: E402

from perfbench import run, trace, workloads as W  # noqa: E402

SMALL = {
    "fig5-mem-ranks": W.Spec("fig5-mem-ranks", "fig5", 4, elems=2000),
    "fig5-mem-bulk": W.Spec("fig5-mem-bulk", "fig5", 4, elems=3000),
    "fig5-file-bulk": W.Spec("fig5-file-bulk", "fig5", 4, mode="file",
                             elems=2000),
    "stream-epochs": W.Spec("stream-epochs", "stream", 4, epochs=3,
                            shape=(8, 6)),
}


def _run(spec, seed):
    inp = W.prepare(spec, seed)
    built = W.build(inp)
    return inp, built, W.run_once(built)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(W, "WORKLOADS", SMALL)
    return SMALL


def test_corrupted_value_is_one_failed_operation():
    inp, _, res = _run(SMALL["fig5-mem-ranks"], 5)
    returns = res.returns["consumer"]
    assert W.failed_operations(inp, returns) == 0
    grid = np.array(returns[0][0], copy=True)
    grid[len(grid) // 2] += 1
    returns[0][0] = grid
    assert W.failed_operations(inp, returns) == 1
    assert W.failed_operations(inp, None) == W.operations(inp)


def test_corrupted_epoch_digest_is_one_failed_operation():
    inp, _, res = _run(SMALL["stream-epochs"], 5)
    returns = res.returns["consumer"]
    assert W.failed_operations(inp, returns) == 0
    returns[1][2] = "0" * 32
    assert W.failed_operations(inp, returns) == 1


def test_raising_run_counts_every_operation_failed(small, monkeypatch):
    bench = run.Bench(SMALL["fig5-mem-ranks"], 1, 0.0)

    def deadlock(built, obs=None):
        raise DeadlockError("injected")

    monkeypatch.setattr(W, "run_once", deadlock)
    res, _, _ = bench.execute()
    assert res is None
    assert bench.failed == bench.attempted == W.operations(bench.inputs)
    assert not bench.problems  # a failed run is counted, not a check


def test_wrappers_removed_after_traced_run():
    assert trace.unwrapped()
    tracer = trace.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert not trace.unwrapped()
            _run(SMALL["stream-epochs"], 1)
            raise RuntimeError("leave the traced region early")
    assert trace.unwrapped()
    spans = tracer.spans()
    assert spans["name"].size > 0
    m = trace.span_metrics(spans)
    assert m["stream.publish_wall_s"] > 0 and m["simmpi.send_calls"] > 0


def test_memory_mode_touches_no_pfs_and_file_mode_moves_payload():
    for name in ("fig5-mem-bulk", "fig5-file-bulk"):
        inp, built, res = _run(SMALL[name], 2)
        assert W.property_problems(inp, built, res) == []
        assert W.conservation_problems(res) == []
    assert built.store.bytes_read >= inp.payload_bytes


def _benchmark_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


@pytest.mark.parametrize("trace_flag,key", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_are_the_benchmark_json_metrics(
        small, capsys, tmp_path, monkeypatch, trace_flag, key):
    monkeypatch.chdir(tmp_path)
    for name in ("fig5-file-bulk", "stream-epochs"):
        assert run.main(["--workload", name, "--seed", "3", "--seconds",
                         "0", "--trace", str(trace_flag)]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["correct"] and out["failed"] == 0
        printed = {k: v["unit"] for k, v in out["metrics"].items()}
        assert printed == _benchmark_metrics(key)
    if trace_flag:
        assert (tmp_path / ".perfbench" / "spans-stream-epochs.npz").exists()


def test_two_seeds_give_identical_virtual_results():
    for spec in SMALL.values():
        inp1, _, a = _run(spec, 1)
        inp2, _, b = _run(spec, 2)
        assert (a.vtime, a.messages, a.bytes_sent) == \
            (b.vtime, b.messages, b.bytes_sent)
        assert inp1.shape == inp2.shape
        assert inp1.expected[0][0] is not inp2.expected[0][0]
        assert not np.array_equal(np.asarray(inp1.expected[0][0]),
                                  np.asarray(inp2.expected[0][0]))


def test_full_size_inputs_partition_the_data():
    for spec in W.WORKLOADS.values():
        assert W.prepare(spec, 7).covered, spec.name
