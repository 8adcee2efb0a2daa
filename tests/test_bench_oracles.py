"""The benchmark's output oracles, replayed on the CLI.

A benchmark run is ``correct`` when every request it makes either passes
``perfbench/oracles.py`` or fails with a defect named in ``KNOWN_DEFECTS``.
This replays one quadric round, one session round and eight toric-stream
fans (round 0 of two seeds) through ``cli.main`` as the benchmark's workers
do, with their ``_execute``: ``TVARTOP_SEED=0``, and each ``downgrade``
output written where the next requests read it.  The benchmark's modules
are loaded by path and left unchanged.
"""

import pytest

from conftest import perfbench_module
from tvartop import cli


@pytest.mark.parametrize("workload,seed", [
    ("quadric", 0), ("session", 0), ("toric-stream", 13), ("toric-stream", 24),
])
def test_benchmark_outputs_are_correct(workload, seed, tmp_path, monkeypatch):
    # dependencies first: workloads imports toricgen, worker imports calibrate
    *_, workloads, oracles, worker = map(
        perfbench_module, ("toricgen", "calibrate", "workloads", "oracles", "worker"))
    monkeypatch.setenv("TVARTOP_SEED", "0")
    w = workloads.WORKLOADS[workload]()
    for name, data in w.documents(seed).items():
        (tmp_path / name).write_bytes(data)
    unexpected = []
    for req in w.round(0):
        argv = [req["cmd"], str(tmp_path / req["doc"])]
        if req["cmd"] != "downgrade":
            argv += ["--format", "json"]
        code, stdout, stderr = worker._execute(cli, argv)
        if req["produces"]:
            target = tmp_path / req["produces"]
            if code == 0:
                target.write_text(stdout, encoding="utf-8")
            elif target.exists():
                target.unlink()
        outcome = oracles.check(req["cmd"], req["expect"], code, stdout, stderr)
        if outcome.status == "failed" and outcome.known is None:
            unexpected.append((req["id"], outcome.reason))
    assert unexpected == []
