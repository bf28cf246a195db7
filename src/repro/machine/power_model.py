"""Node power model: HPL as a peak-power stress test.

The paper motivates HPL partly as a reliability/burn-in tool because it
"draws essentially the peak amount of power the system can use".  This
module prices a simulated run's energy: each device draws its busy power
while its resource is active in the timeline and idle power otherwise,
yielding total joules, mean node watts, and the GFLOPS/W figure of merit
(the Green500 metric).

Defaults follow public Crusher/Frontier numbers: 560 W per MI250X module
(280 W per GCD), a 280 W EPYC socket, and a few hundred watts of residual
node overhead (NICs, memory, fans), putting a busy node a little above
3 kW -- consistent with Frontier's ~52 GFLOPS/W HPL efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from .spec import NodeSpec


@dataclass(frozen=True)
class PowerSpec:
    """Power draw of one node's components (watts)."""

    gpu_busy_w: float = 280.0  # per GCD, compute-saturated
    gpu_idle_w: float = 90.0  # per GCD, HBM refresh + fabric
    cpu_busy_w: float = 280.0  # socket at full FACT throughput
    cpu_idle_w: float = 95.0
    overhead_w: float = 450.0  # NICs, DIMMs, fans, VR losses

    def __post_init__(self) -> None:
        if self.gpu_busy_w < self.gpu_idle_w:
            raise ConfigError("GPU busy power below idle power")
        if self.cpu_busy_w < self.cpu_idle_w:
            raise ConfigError("CPU busy power below idle power")

    def node_peak_w(self, node: NodeSpec) -> float:
        """Draw with every device saturated."""
        return (
            node.gpus * self.gpu_busy_w + self.cpu_busy_w + self.overhead_w
        )

    def node_idle_w(self, node: NodeSpec) -> float:
        return node.gpus * self.gpu_idle_w + self.cpu_idle_w + self.overhead_w


@dataclass
class EnergyReport:
    """Energy accounting of one simulated run on one node type."""

    seconds: float
    node_count: int
    joules: float
    mean_node_w: float
    peak_node_w: float
    gflops_per_w: float
    components: dict[str, float] = field(default_factory=dict)  # joules by part

    @property
    def mean_total_w(self) -> float:
        return self.mean_node_w * self.node_count


def energy_of_run(
    report,
    node: NodeSpec,
    power: PowerSpec | None = None,
    node_count: int = 1,
) -> EnergyReport:
    """Price a :class:`~repro.perf.hplsim.RunReport`'s energy.

    The per-iteration breakdown gives GPU-active and CPU(FACT) seconds at
    the focal rank; in HPL's bulk-synchronous steady state every rank does
    the same work per iteration, so focal busy fractions stand for all
    devices of the node.
    """
    if power is None:
        power = PowerSpec()
    total = report.makespan
    if total <= 0:
        raise ConfigError("run has no duration")
    gpu_busy = sum(report.gpu_active.tolist())
    cpu_busy = sum(report.fact.tolist())
    gpu_busy = min(gpu_busy, total)
    cpu_busy = min(cpu_busy, total)

    gpus = node.gpus
    joules_gpu = gpus * (
        gpu_busy * power.gpu_busy_w + (total - gpu_busy) * power.gpu_idle_w
    )
    joules_cpu = cpu_busy * power.cpu_busy_w + (total - cpu_busy) * power.cpu_idle_w
    joules_overhead = total * power.overhead_w
    joules_node = joules_gpu + joules_cpu + joules_overhead
    joules = joules_node * node_count

    flops = report.cfg.total_flops
    return EnergyReport(
        seconds=total,
        node_count=node_count,
        joules=joules,
        mean_node_w=joules_node / total,
        peak_node_w=power.node_peak_w(node),
        gflops_per_w=flops / 1e9 / joules,
        components={
            "gpu": joules_gpu * node_count,
            "cpu": joules_cpu * node_count,
            "overhead": joules_overhead * node_count,
        },
    )
