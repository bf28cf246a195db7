"""The host-resident baseline model, trace export, and binding scripts."""

from __future__ import annotations

import json

import pytest

from repro.binding import compute_bindings
from repro.binding.coremap import launch_script, omp_places
from repro.machine.frontier import crusher_cluster
from repro.machine.spec import LinkSpec
from repro.perf.hostresident import (
    crossover_sweep,
    required_nb_for_device,
    simulate_host_resident,
    update_rate_cap_tflops,
)
from repro.perf.ledger import PerfConfig
from repro.sched.engine import Task, simulate
from repro.sched.trace import to_chrome_trace, write_chrome_trace


class TestHostResidentBaseline:
    CFG = PerfConfig(n=65_536, nb=512, p=4, q=2, pl=4, ql=2)

    def test_mi250x_is_link_starved(self):
        """The paper's motivation: on MI250X-class devices the pipelined
        host-resident design achieves a small fraction of capability."""
        pt = simulate_host_resident(self.CFG, crusher_cluster(1))
        assert not pt.compute_bound
        assert pt.device_utilization < 0.10

    def test_resident_design_beats_baseline_by_an_order_of_magnitude(self):
        from repro.perf.hplsim import simulate_run

        cluster = crusher_cluster(1)
        full = PerfConfig(n=256_000, nb=512, p=4, q=2, pl=4, ql=2)
        resident = simulate_run(full, cluster).score_tflops
        baseline = simulate_host_resident(full, cluster).score_tflops
        assert resident > 10 * baseline

    def test_old_gpus_were_compute_bound(self):
        """At early-2010s FP64 rates (~1 TFLOPS) pipelining kept up --
        which is why the Fatica-era design worked then."""
        sweep = crossover_sweep(crusher_cluster(1))
        slowest = sweep[0][1]
        assert slowest.compute_bound
        assert slowest.device_utilization == pytest.approx(1.0)
        fastest = sweep[-1][1]
        assert not fastest.compute_bound

    def test_utilization_monotone_decreasing_in_device_speed(self):
        utils = [p.device_utilization for _, p in crossover_sweep(crusher_cluster(1))]
        assert all(b <= a + 1e-12 for a, b in zip(utils, utils[1:]))

    def test_required_nb_unreasonably_large(self):
        """Hiding transfers on MI250X needs NB in the thousands -- the
        paper's 'unreasonably large blocking parameters'."""
        cluster = crusher_cluster(1)
        nb = required_nb_for_device(cluster.node.h2d, 24.5)
        assert nb > 4_000

    def test_rate_cap_scales_with_link_and_nb(self):
        slow = LinkSpec(12.0, 5e-6)
        fast = LinkSpec(48.0, 5e-6)
        assert update_rate_cap_tflops(fast, 512) == pytest.approx(
            4 * update_rate_cap_tflops(slow, 512)
        )
        assert update_rate_cap_tflops(slow, 1024) == pytest.approx(
            2 * update_rate_cap_tflops(slow, 512)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            update_rate_cap_tflops(LinkSpec(10.0, 1e-6), 0)
        with pytest.raises(ValueError):
            required_nb_for_device(LinkSpec(10.0, 1e-6), 0.0)


class TestChromeTrace:
    def _result(self):
        a = Task("dgemm.0", 2.0, "gpu", phase="GPU", tag=0)
        b = Task("fact.0", 1.0, "cpu", deps=[a], phase="FACT", tag=0)
        c = Task("marker", 0.0, None, deps=[b], tag=0)
        return simulate([a, b, c])

    def test_events_structure(self):
        doc = to_chrome_trace(self._result())
        events = doc["traceEvents"]
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert names == ["dgemm.0", "fact.0"]  # markers/zero-dur excluded
        gemm = next(e for e in events if e["name"] == "dgemm.0")
        assert gemm["ts"] == 0.0 and gemm["dur"] == 2e6
        fact = next(e for e in events if e["name"] == "fact.0")
        assert fact["ts"] == 2e6

    def test_resource_rows_labeled(self):
        doc = to_chrome_trace(self._result())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} >= {"gpu", "cpu", "mpi", "hd"}

    def test_unknown_resources_get_their_own_labeled_rows(self):
        """Consecutive rows in first-seen order: nothing depends on
        ``hash(str)``, which is salted per process."""
        tasks = [Task(f"{res}.{i}", 1.0, res, phase="MPI", tag=0)
                 for i in range(2) for res in ("xgmi", "mpi", "nic2")]
        events = to_chrome_trace(simulate(tasks))["traceEvents"]
        labels = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        assert labels == {0: "gpu", 1: "hd", 2: "cpu", 3: "mpi",
                          4: "xgmi", 5: "nic2"}
        assert all(e["name"].startswith(labels[e["tid"]] + ".")
                   for e in events if e["ph"] == "X")

    def test_roundtrips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._result(), str(path))
        doc = json.loads(path.read_text())
        assert doc["otherData"]["makespan_s"] == 3.0

    def test_full_run_trace(self, tmp_path):
        from repro.perf import simulate_timeline

        cfg = PerfConfig(n=8_192, nb=512, p=4, q=2, pl=4, ql=2)
        doc = to_chrome_trace(simulate_timeline(cfg, crusher_cluster(1)))
        assert len(doc["traceEvents"]) > 100


class TestBindingScripts:
    def test_omp_places_format(self):
        bindings = compute_bindings(4, 2)
        places = omp_places(bindings[0])
        assert places.startswith(f"{{{bindings[0].root_core}}}")
        assert places.count("{") == bindings[0].nthreads

    def test_launch_script_contents(self):
        bindings = compute_bindings(2, 4)
        script = launch_script(bindings, command="./xhpl")
        assert script.startswith("#!/bin/bash")
        assert "OMP_NUM_THREADS=29" in script
        assert 'exec ./xhpl "$@"' in script
        for rank in range(8):
            assert f"  {rank})" in script

    def test_launch_script_is_valid_bash(self, tmp_path):
        import subprocess

        script = launch_script(compute_bindings(1, 8), command="true")
        path = tmp_path / "wrap.sh"
        path.write_text(script)
        check = subprocess.run(
            ["bash", "-n", str(path)], capture_output=True, text=True
        )
        assert check.returncode == 0, check.stderr
