"""Smoke test of the benchmark (not part of the tier-1 suite).

    python3 -m pytest bench/test_smoke.py -q

One tiny pass of each workload must pass every gate, every tracer target
must resolve on the current code, and the work counts of a traced pass
must repeat exactly.
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_tiny_pass_passes_every_gate(workload, tmp_path):
    tasks = worker.build(workload, 1, str(tmp_path), "tiny")
    rows, _ = worker.run_pass(tasks, str(tmp_path), {})
    assert rows
    assert [f"{name}: {why}" for name, _, why, _ in rows if why] == []


def test_every_tracer_target_resolves():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    import nbodyred.dynamics
    assert not hasattr(nbodyred.dynamics.integrate_absolute, "__wrapped__")


def test_traced_counts_repeat(tmp_path):
    def counts():
        tracer = Tracer()
        tracer.install()
        try:
            for workload in worker.WORKLOADS:
                rows, written = worker.run_pass(worker.build(workload, 2, str(tmp_path), "tiny"),
                                                str(tmp_path), {}, tracer)
                assert not [why for _, _, why, _ in rows if why]
                tracer.counts["serialize.bytes_written"] += written
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        metrics = worker.layer_metrics(summary, tracer.counts)
        return {name: value for name, value in metrics.items()
                if run.layer_unit(name) in ("count", "bytes")}

    first = counts()
    assert None not in first.values()
    assert first["dynamics.rhs_evals"] > 0 and first["action.action_grad.calls"] > 0
    assert counts() == first


def test_tail_and_importtime_parsing():
    assert run.tail([float(k) for k in range(20)]) == (9.0, 50.0, 20)
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:        30 |        300 |     scipy.integrate",
        "import time:        20 |        400 |   nbodyred.dynamics",
        "import time:        10 |        500 | nbodyred.cli",
    ])
    assert run.scipy_import_s(text) == pytest.approx(450e-6)


def test_refuses_a_directory_without_the_program(tmp_path):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "hiphop",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
