"""AXI-REALM reproduction: a cycle-accurate AXI4 interconnect simulator
with real-time traffic regulation and monitoring.

Reproduces *AXI-REALM: A Lightweight and Modular Interconnect Extension for
Traffic Regulation and Monitoring of Heterogeneous Real-Time SoCs*
(Benz, Ottaviano, et al., DATE 2024) in pure Python: the REALM unit and all
the substrates its evaluation depends on (AXI4 protocol model, crossbar,
LLC/DRAM/SPM memories, core and DMA traffic generators, baseline
regulators, and the 12 nm area model).

Quick start (Figure 6a, from the shipped scenario file)::

    from repro.scenario import load_file, run_campaign

    result = run_campaign(load_file("scenarios/fig6a.toml"))
    regulated = result.point("frag=1")
    print(regulated.perf_percent, regulated.worst_case_latency)
"""

__version__ = "1.0.0"

from repro import analysis, area, axi, baselines, control, interconnect
from repro import mem, realm, sim, soc, system, traffic

__all__ = [
    "__version__",
    "analysis",
    "area",
    "axi",
    "baselines",
    "control",
    "interconnect",
    "mem",
    "realm",
    "sim",
    "soc",
    "system",
    "traffic",
]
