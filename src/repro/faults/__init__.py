"""Deterministic fault injection and crash-recovery drills.

``repro.faults`` makes failure a first-class, *tested* behaviour of the
reproduction: a seeded :class:`FaultPlan` decides when torn writes,
bit flips, packet loss, link stalls, link partitions, node deaths and
machine crashes happen; the :class:`RecoveryDrill` harness proves the
§4.8 checkpoint + command-log recovery path actually recovers — every
acknowledged transaction survives, and the recovered state matches an
uninterrupted golden run — and the :class:`ClusterDrill` harness proves
the same contract across nodes: failover, epoch fencing, and live
migration under seeded incidents.

Run both drill sweeps from the command line::

    python -m repro.faults.drill --seeds 200
"""

from .plan import (
    APPEND_BIT_FLIP, CRASH_AFTER_RENAME, CRASH_BEFORE_RENAME, FaultPlan,
    HEARTBEAT_LOSS, LINK_DROP, LINK_PARTITION, LINK_STALL, MACHINE_CRASH,
    NIC_CORRUPT, NIC_DROP, NIC_DUPLICATE, NODE_DEATH, SITES,
    STALE_EPOCH_SUBMIT, TORN_APPEND, Trigger, WORKER_CRASH,
)


def __getattr__(name):
    # lazy: `python -m repro.faults.drill` must not import the drill
    # module twice (runpy), and plain fault injection must not pay for
    # the workload imports the drills pull in
    if name in __all__:
        from . import cluster_drill, drill, overload_drill
        for module in (drill, cluster_drill, overload_drill):
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FaultPlan", "Trigger", "SITES",
    "TORN_APPEND", "APPEND_BIT_FLIP",
    "CRASH_BEFORE_RENAME", "CRASH_AFTER_RENAME",
    "NIC_DROP", "NIC_DUPLICATE", "NIC_CORRUPT",
    "LINK_DROP", "LINK_STALL", "LINK_PARTITION",
    "HEARTBEAT_LOSS", "NODE_DEATH", "STALE_EPOCH_SUBMIT",
    "MACHINE_CRASH", "WORKER_CRASH",
    "DrillConfig", "DrillResult", "RecoveryDrill", "run_sweep",
    "ClusterDrillConfig", "ClusterDrillResult", "ClusterDrill",
    "OverloadDrillConfig", "OverloadDrillResult", "OverloadDrill",
]
