"""The synthetic application (reimplementation of the PDP'23 tool [17]).

Five modules, as in Figure 1 of the paper:

* **Initialization** — :func:`launch_synthetic` reads the configuration and
  starts the first process group (the config travels to spawned groups via
  the manager's child plumbing);
* **Application emulation** — :meth:`SyntheticApp.iterate` runs the
  configured stage sequence each iteration;
* **Malleability** — delegated to :mod:`repro.malleability` (Stages 1-4);
* **Monitoring** — :class:`~repro.malleability.stats.RunStats`, which the
  harness turns into a results-CSV row;
* **Completion** — process finalisation inside the manager.
"""

from __future__ import annotations

from typing import Optional

from ..malleability.config import ReconfigConfig
from ..malleability.manager import run_malleable
from ..malleability.stats import RunStats
from ..redistribution.plan import RedistributionPlan
from ..redistribution.stores import FieldSpec
from .configfile import SyntheticConfig
from .stages import run_stage

__all__ = ["SyntheticApp", "launch_synthetic"]


class SyntheticApp:
    """A :class:`~repro.malleability.manager.MalleableApp` that emulates an
    iterative MPI code from a :class:`SyntheticConfig`.

    Data is purely virtual (byte-accounted, never allocated), split into a
    constant and a variable field with the configured sizes — e.g. the CG
    preset's 96.6 % / 3.4 %.
    """

    def __init__(self, config: SyntheticConfig):
        self.config = config
        self.n_iterations = config.iterations
        self.n_rows = config.n_rows
        self.specs = (
            FieldSpec(
                "const_data", "virtual", constant=True,
                bytes_per_row=config.constant_bytes / config.n_rows,
            ),
            FieldSpec(
                "var_data", "virtual", constant=False,
                bytes_per_row=config.variable_bytes / config.n_rows,
            ),
        )

    def initial_data(self, lo: int, hi: int) -> dict:
        return {}  # virtual fields are filled by fill_virtual=True

    def iterate(self, mpi, comm, dataset, iteration):
        for spec in self.config.stages:
            yield from run_stage(mpi, comm, spec, iteration, self.config.fidelity)

    def on_handoff(self, mpi, dataset) -> None:
        # Completeness check: the reconfiguration must have delivered every
        # virtual row to this rank (cheap, and catches plan/session bugs in
        # every sweep run, not just in unit tests).
        for store in dataset.stores.values():
            if not store.complete:
                raise RuntimeError(
                    f"rank gid={mpi.gid}: field {store.spec.name} incomplete "
                    f"after reconfiguration"
                )


def launch_synthetic(
    world,
    config: SyntheticConfig,
    reconfig_config: ReconfigConfig,
    n_initial: int,
    stats: Optional[RunStats] = None,
    plan_factory=RedistributionPlan.block,
) -> RunStats:
    """Initialization module: start the first group on slots ``0..n-1``.

    Returns the shared :class:`RunStats`; run ``world.sim.run()`` to execute.
    """
    stats = stats if stats is not None else RunStats()
    app = SyntheticApp(config)
    world.launch(
        run_malleable,
        slots=range(n_initial),
        args=(app, reconfig_config, list(config.reconfigurations), stats, plan_factory),
    )
    return stats
