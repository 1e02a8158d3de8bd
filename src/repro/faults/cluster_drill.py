"""Cluster failover/migration drills: prove HA safety, don't assert it.

The single-node suite (:mod:`repro.faults.drill`) proves crash
recovery; this suite proves the *cluster* invariants under seeded
incidents.  One drill runs a YCSB RMW stream two ways:

1. **Golden** — an uninterrupted single-machine run (all partitions on
   one full-width BionicDB): per-transaction outcomes, per-transaction
   engine time, final per-partition content hashes.
2. **Cluster** — the same stream through an :class:`HACluster` (three
   nodes, epoch-fenced router, owner→follower log shipping) while a
   plan-chosen incident plays out.  The client is the production
   :class:`~repro.frontend.router.ClusterRetryRouter` with its retry
   budget and circuit breakers switched off: typed retryable errors
   back off and retry; :class:`StaleEpochError` re-caches the whole
   ownership map and re-submits; a retry *reconciles against the
   authoritative log* before re-executing, so a committed transaction
   is never double-applied.

Incident flavours (``CLUSTER_FLAVORS``): clean runs, node death,
failure-detector false positives (a muted heartbeat egress — the node
still runs, and fencing must hold), random heartbeat loss storms, link
partitions under traffic, injected stale-epoch submits, and live
migration — including the source or destination dying mid-transfer.

Invariants checked after every drill, regardless of flavour (shared
with the overload suite's cluster flavours):

* **Durability** — every transaction acknowledged to the client is
  present, with the same outcome, in the *current owner's* log
  (followers inherit acked work across failovers by construction).
* **Completeness/determinism** — after retries settle, every
  transaction reaches a terminal outcome equal to the golden run's.
* **Equivalence** — per-partition content hashes read from current
  owners equal the golden run's.
* **Fencing** — the audit trail contains no execution whose claimed
  epoch differs from the ownership epoch that authorized it.

Flavour-specific checks ride on top: failovers must actually happen
(node death, false positive), stale submits must be rejected, and a
completed live migration must respect its unavailability budget while
per-transaction engine time on *untouched* partitions stays within 5%
of golden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..cluster.ha import HACluster
from ..cluster.migration import MigrationState
from ..core.config import HAConfig
from ..errors import FrontendError
from ..frontend import (
    BreakerConfig, ClusterRetryRouter, ClusterRouterConfig, RetryBudgetConfig,
)
from .drill import (
    BaseResult, DrillFailure, Golden, check_determinism, check_hashes,
    draw_flavor, golden_run, make_workload, new_machine, run_guard,
)
from .plan import (
    FaultPlan, HEARTBEAT_LOSS, LINK_PARTITION, NODE_DEATH,
    STALE_EPOCH_SUBMIT,
)

__all__ = ["ClusterDrillConfig", "ClusterDrillResult", "ClusterDrill",
           "CLUSTER_FLAVORS"]

#: incident flavours and their selection weights
CLUSTER_FLAVORS: Tuple[Tuple[str, float], ...] = (
    ("node_death", 0.18),        # a node powers off mid-stream
    ("false_positive", 0.12),    # heartbeat egress wedges; node still runs
    ("hb_loss_storm", 0.10),     # random heartbeat loss; detector holds
    ("link_partition", 0.12),    # a node pair loses connectivity
    ("stale_epoch", 0.12),       # a submit claims an outdated epoch
    ("migration_live", 0.14),    # drain→transfer→re-own under traffic
    ("migration_src_death", 0.10),   # source dies mid-transfer
    ("migration_dst_death", 0.07),   # destination dies mid-transfer
    ("clean", 0.05),             # no incident; everything must still hold
)


# -- cluster pieces shared with the overload suite ---------------------------

def build_cluster(cfg, wl, plan: FaultPlan, **kwargs):
    """``cfg.n_nodes`` full-width machines loaded with ``wl``."""
    return HACluster(
        cfg.n_nodes, cfg.n_partitions,
        build_node=lambda: new_machine(cfg.n_partitions),
        install_node=lambda db: wl.install(db, load_data=True),
        ha=cfg.ha, faults=plan,
        max_events_per_txn=cfg.max_events_per_txn, **kwargs)


def begin_migration(cluster, partition: int):
    """Move ``partition`` to the next routable node after its owner."""
    src = cluster.owner_of(partition)
    n = cluster.n_nodes
    dst = next(node for k in range(1, n) for node in [(src + k) % n]
               if node in cluster.routable and node != src)
    return src, dst, cluster.begin_migration(partition, dst)


def wait_until(cluster, router, done: Callable[[], bool],
               step_ns: float) -> None:
    """A short stream can finish before the failure detector or the
    migration acts: advance the control plane until ``done()``."""
    for _ in range(8):
        if done():
            return
        cluster.advance(step_ns)
        router.pump()


def check_acked(cluster, specs, acked: Dict[int, tuple],
                golden: Golden) -> None:
    """Durability (each ack is in its current owner's log) and
    determinism (each acked outcome is the golden run's)."""
    for i, (txn_id, outcome) in sorted(acked.items()):
        durable = cluster.durable_status(specs[i].home, txn_id)
        if durable != outcome:
            raise DrillFailure(
                f"durability violated: txn #{i} acked {outcome!r} but "
                f"the authoritative log says {durable!r}")
    check_determinism({i: outcome for i, (_id, outcome)
                       in sorted(acked.items())}, golden)


def check_fencing(cluster) -> None:
    """No execution ran under an epoch other than the one it claimed."""
    for entry in cluster.audit:
        if entry[0] == "exec" and entry[3] != entry[4]:
            raise DrillFailure(
                f"stale-epoch execution: txn tag {entry[1]} ran under "
                f"epoch {entry[3]} while claiming {entry[4]}")


def untouched_service_ns(cluster, specs, golden: Golden, partition: int
                         ) -> Tuple[float, float]:
    """Mean engine ns per transaction ``(cluster, golden)`` over the
    transactions not homed on ``partition`` (``(0, 0)`` if none ran)."""
    untouched = [i for i in range(len(specs))
                 if specs[i].home != partition and i in cluster.txn_engine_ns]
    if not untouched:
        return 0.0, 0.0
    got = sum(cluster.txn_engine_ns[i] for i in untouched) / len(untouched)
    want = sum(golden.engine_ns[i] for i in untouched) / len(untouched)
    return got, want


# -- the cluster suite -------------------------------------------------------

@dataclass
class ClusterDrillConfig:
    n_txns: int = 18
    n_nodes: int = 3
    n_partitions: int = 4
    seed: int = 0
    records_per_partition: int = 32
    reads_per_txn: int = 4
    max_events_per_txn: int = 2_000_000
    #: settle rounds after the stream before declaring non-convergence
    max_settle_rounds: int = 60
    ha: HAConfig = field(default_factory=HAConfig)


@dataclass
class ClusterDrillResult(BaseResult):
    event_txn: Optional[int] = None
    victim: Optional[int] = None
    acked: int = 0
    reexecuted: int = 0
    stale_rejections: int = 0
    failovers: int = 0
    migrations: int = 0
    unavailability_ns: Optional[float] = None

    def summary(self) -> str:
        state = "ok" if self.ok else f"FAIL: {self.failure}"
        unav = (f" unavail={self.unavailability_ns:.0f}ns"
                if self.unavailability_ns is not None else "")
        return (f"seed={self.seed} cluster flavor={self.flavor} "
                f"event@{self.event_txn} victim={self.victim} "
                f"acked={self.acked} reexec={self.reexecuted} "
                f"stale_rej={self.stale_rejections} "
                f"failovers={self.failovers}{unav} — {state}")


class ClusterDrill:
    """One seeded cluster-incident exercise; see the module docstring."""

    def __init__(self, config: Optional[ClusterDrillConfig] = None):
        self.config = config or ClusterDrillConfig()

    def _choose(self, plan: FaultPlan):
        cfg = self.config
        flavor = draw_flavor(plan, CLUSTER_FLAVORS)
        event_txn = plan.draw_int(1, max(1, cfg.n_txns - 3))
        victim = plan.draw_int(0, cfg.n_nodes - 1)
        mig_part = plan.draw_int(0, cfg.n_partitions - 1)
        if flavor == "hb_loss_storm":
            plan.arm(HEARTBEAT_LOSS, prob=0.25, times=None)
        elif flavor == "link_partition":
            plan.arm(LINK_PARTITION, nth=plan.draw_int(1, 40))
        elif flavor == "stale_epoch":
            plan.arm(STALE_EPOCH_SUBMIT, nth=plan.draw_int(1, cfg.n_txns))
        elif flavor in ("node_death", "false_positive",
                        "migration_src_death", "migration_dst_death"):
            plan.arm(NODE_DEATH, nth=1)
        return flavor, event_txn, victim, mig_part

    def run(self) -> ClusterDrillResult:
        cfg = self.config
        result = ClusterDrillResult(seed=cfg.seed)
        plan = FaultPlan(cfg.seed)
        with run_guard(result, plan):
            wl, specs = make_workload(
                "ycsb", cfg.seed, cfg.n_txns, cfg.n_partitions,
                cfg.records_per_partition, cfg.reads_per_txn)
            golden = golden_run(wl, specs, cfg.n_partitions,
                                cfg.max_events_per_txn)
            flavor, result.event_txn, victim, mig_part = self._choose(plan)
            result.flavor = flavor
            cluster = build_cluster(cfg, wl, plan)
            try:
                self._drive(cluster, wl, specs, golden, flavor, victim,
                            mig_part, result)
            finally:
                result.failovers = len(cluster.failovers)
                result.migrations = len(cluster.migrations)
        return result

    def _fire(self, cluster, flavor: str, victim: int, mig_part: int):
        """Start the flavour's incident; returns ``(victim, migration)``."""
        migration = None
        if flavor == "node_death":
            cluster.kill_node(victim)
        elif flavor == "false_positive":
            cluster.links.mute_heartbeats(
                victim,
                cluster.now_ns + 4 * self.config.ha.heartbeat_timeout_ns)
        elif flavor.startswith("migration_"):
            src, dst, migration = begin_migration(cluster, mig_part)
            if flavor == "migration_src_death":
                victim = src
                cluster.kill_node(src)
            elif flavor == "migration_dst_death":
                victim = dst
                cluster.kill_node(dst)
        return victim, migration

    def _drive(self, cluster, wl, specs, golden: Golden, flavor: str,
               victim: int, mig_part: int,
               result: ClusterDrillResult) -> None:
        cfg = self.config
        step_ns = cfg.ha.heartbeat_timeout_ns
        router = ClusterRetryRouter(cluster, ClusterRouterConfig(
            budget=RetryBudgetConfig(enabled=False),
            breaker=BreakerConfig(enabled=False),
            round_refill=0.0, max_epoch_refreshes=3))
        migration = None
        try:
            for i, spec in enumerate(specs):
                if i == result.event_txn:
                    victim, migration = self._fire(cluster, flavor, victim,
                                                   mig_part)
                router.route(i, spec, wl.layout_for(spec))
            router.settle(cfg.max_settle_rounds, step_ns / 2)
        except FrontendError as exc:
            raise DrillFailure(str(exc)) from exc
        finally:
            result.reexecuted = router.reexecuted
            result.stale_rejections = router.stale_refreshes

        promises_failover = flavor in ("node_death", "false_positive")
        if promises_failover:
            wait_until(cluster, router, lambda: bool(cluster.failovers),
                       step_ns)
        result.victim = victim
        result.acked = len(router.acked)

        # ---- invariants ----
        check_acked(cluster, specs, router.acked, golden)
        check_fencing(cluster)
        check_hashes(golden, cluster.partition_hashes(), after="incidents")

        # ---- flavour-specific checks ----
        if promises_failover and not cluster.failovers:
            raise DrillFailure(f"{flavor}: no failover happened")
        if flavor == "stale_epoch" and not any(
                e[0] == "reject_stale" for e in cluster.audit):
            raise DrillFailure("stale_epoch: injected submit was not rejected")
        if flavor == "migration_live":
            if migration is None or migration.state is not MigrationState.DONE:
                raise DrillFailure(
                    f"migration did not complete: "
                    f"{migration.summary() if migration else 'never started'}")
            result.unavailability_ns = migration.unavailability_ns
            if migration.unavailability_ns > cfg.ha.migration_budget_ns:
                raise DrillFailure(
                    f"migration unavailability "
                    f"{migration.unavailability_ns:.0f}ns exceeds budget")
            got, want = untouched_service_ns(cluster, specs, golden, mig_part)
            if want > 0 and abs(got - want) / want > 0.05:
                raise DrillFailure(
                    f"untouched-partition throughput drifted "
                    f"{abs(got - want) / want:.1%} from golden "
                    f"(got {got:.0f}ns/txn, golden {want:.0f}ns/txn)")
        if migration is not None and migration.state not in (
                MigrationState.DONE, MigrationState.ABORTED):
            raise DrillFailure(
                f"mid-migration death left the state machine wedged: "
                f"{migration.summary()}")

