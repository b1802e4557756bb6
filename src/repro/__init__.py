"""repro — an open reproduction of Project Silica (SOSP 2023).

Silica is a cloud archival storage system underpinned by quartz glass: a
WORM medium with no bit rot over 1000+ years, read by polarization
microscopy and written by femtosecond lasers, served by a robotic library
of free-roaming shuttles. This package rebuilds the complete system in
Python — media model, error correction (LDPC + three-level network coding),
the glass library with its scheduler and traffic management, the ML decode
stack, data layout policies, the archival service front end, and the
full-system discrete event simulator used to reproduce every figure and
table of the paper's evaluation.

Quickstart::

    from repro.core import SimConfig, SimKernel
    from repro.workload import WorkloadGenerator, IOPS

    generator = WorkloadGenerator(seed=0)
    trace, start, end = IOPS.trace(generator)
    kernel = SimKernel(SimConfig(num_shuttles=20))
    kernel.lifecycle.assign_trace(trace, start, end)
    report = kernel.run()
    print(report.summary())

Subpackages
-----------

``import repro`` loads only this module. Each subpackage loads on
``import repro.<sub>`` (or ``from repro.<sub> import ...``), so an entry
point pays only for what it uses.

- :mod:`repro.core` — discrete event simulator, scheduler, traffic policies
- :mod:`repro.media` — platters, voxel modulation, drives, read channel
- :mod:`repro.ecc` — LDPC, CRC, GF(256) network coding, durability math
- :mod:`repro.library` — racks/shelves/slots, shuttles, motion models, failures
- :mod:`repro.layout` — file packing, platter placement, platter-sets, metadata
- :mod:`repro.workload` — calibrated cloud archival workload generator
- :mod:`repro.decode` — sector imaging, numpy voxel-net, elastic decode pipeline
- :mod:`repro.service` — staging, verification, put/get/delete front end
- :mod:`repro.costs` — tape-vs-glass sustainability model (Table 2)
- :mod:`repro.observability` — structured tracing, spans, metrics export
"""

__version__ = "1.0.0"
