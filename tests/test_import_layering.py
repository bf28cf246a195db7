"""The simulator stack never imports scipy or the numeric engine.

scipy's BLAS belongs to the numeric solves only (``repro.blas.kernels``
loads ``scipy.linalg`` on the first triangular solve).  Every pricing
path -- the figures, the CLI's model commands, a ``sim`` job's runner --
must run in an interpreter where importing scipy raises, and must load
neither the numeric engine (``repro.hpl``) nor, through the index math
of ``repro.grid``, the simulated MPI runtime.  Nor does any of them
load the claims registry (``repro.perf.claims``): a ``sim`` runner's
cold import and every pricing call stay free of it.
"""

from __future__ import annotations

import subprocess
import sys

_NO_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError

from repro import cli
from repro.config import PerfConfig
from repro.machine.frontier import crusher_cluster
from repro.perf import simulate_run, simulate_timeline
from repro.perf.scaling import weak_scaling
from repro.service.workers import runner_for

cfg = PerfConfig(n=8192, nb=512, p=2, q=2, pl=2, ql=2)
assert simulate_run(cfg, crusher_cluster(1)).makespan > 0
assert simulate_timeline(cfg, crusher_cluster(1)).makespan > 0
assert weak_scaling([1], n_single=16384)[0].tflops > 0
assert runner_for("sim")({"n": 8192, "nb": 512, "p": 2, "q": 2}, None)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["sim", "-N", "8192", "-NB", "512", "-P", "4", "-Q", "2"]) == 0
    assert cli.main(["scale", "-N", "16384", "--max-doublings", "1"]) == 0
    assert cli.main(["fact"]) == 0
loaded = sorted(m for m in sys.modules
                if m.startswith(("scipy.", "repro.simmpi", "repro.hpl",
                                 "repro.perf.claims")))
assert not loaded, loaded
"""


def test_the_simulator_runs_where_scipy_cannot_be_imported():
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
