"""Metastable-failure overload drills: prove the system *recovers*.

The crash drills (:mod:`repro.faults.drill`) prove durability; the
cluster drills (:mod:`repro.faults.cluster_drill`) prove failover
safety.  This suite proves the third leg of production readiness:
**overload resilience** — that the retry router, circuit breakers,
retry budgets and brownout shedding of :mod:`repro.frontend` turn the
classic metastable-failure shapes into bounded, recoverable incidents
instead of self-sustaining outages.

Four seeded flavours (``OVERLOAD_FLAVORS``):

* ``retry_storm_failover`` — a node dies mid-stream; the
  :class:`~repro.frontend.router.ClusterRetryRouter` must converge the
  stream through the failover without double-executing anything, with
  retry amplification under its cap, and with every tripped breaker
  closed again by the end.
* ``migration_under_load`` — a live drain→transfer→re-own migration
  under traffic; submits during the window queue at the cluster and
  are released after the re-own, inside the unavailability budget.
* ``flash_crowd`` — a low-priority crowd arrives at several times the
  box's capacity while a high-priority base tenant keeps its SLO:
  brownout sheds the crowd first (exact per-class accounting), and
  base goodput returns to ≥ ``goodput_recovery_fraction`` of its
  steady state once the crowd passes.
* ``slow_client_storm`` — slow clients with aggressive retry policies
  overflow the bounded RX ring; the per-class retry budget caps the
  amplification so the storm decays instead of feeding itself.

Invariants shared by every flavour: exact terminal-outcome
conservation, recovery within the budget, and retry amplification
under ``amplification_cap``.  Cluster flavours additionally run the
cluster suite's invariants (:mod:`repro.faults.cluster_drill`) and a
``reconcile()`` check to prove no double execution against an
uninterrupted golden run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..cluster.migration import MigrationState
from ..core.config import HAConfig
from ..frontend import (
    AdmissionConfig, BreakerConfig, BrownoutConfig, ClusterRetryRouter,
    ClusterRouterConfig, FrontEnd, FrontendConfig, NicConfig,
    ResilienceConfig, RetryBudgetConfig, SchedulerConfig, SessionConfig,
)
from .cluster_drill import (
    begin_migration, build_cluster, check_acked, check_fencing,
    untouched_service_ns, wait_until,
)
from .drill import (
    BaseResult, DrillFailure, check_hashes, draw_flavor, golden_run,
    make_workload, new_machine, run_guard,
)
from .plan import FaultPlan

__all__ = ["OverloadDrillConfig", "OverloadDrillResult", "OverloadDrill",
           "OVERLOAD_FLAVORS"]

#: flavours and their selection weights
OVERLOAD_FLAVORS: Tuple[Tuple[str, float], ...] = (
    ("retry_storm_failover", 0.30),
    ("flash_crowd", 0.27),
    ("slow_client_storm", 0.23),
    ("migration_under_load", 0.20),
)


@dataclass
class OverloadDrillConfig:
    seed: int = 0
    #: force one flavour instead of drawing from the weights (tests)
    flavor: Optional[str] = None

    # -- cluster flavours ---------------------------------------------------
    n_txns: int = 14
    n_nodes: int = 3
    n_partitions: int = 4
    records_per_partition: int = 24
    max_events_per_txn: int = 2_000_000
    max_settle_rounds: int = 60
    #: settle rounds the stream must converge within to count as
    #: "recovered" (the recovery-budget invariant; < max_settle_rounds)
    recovery_rounds_budget: int = 40
    #: submit attempts per routed transaction must stay under this
    amplification_cap: float = 3.0
    ha: HAConfig = field(default_factory=HAConfig)

    # -- front-end flavours -------------------------------------------------
    #: base-tenant offered rate (well under the ~1.7 MTps saturation
    #: of the 2-worker kv-get box the drill builds)
    base_rate_tps: float = 400_000.0
    base_requests: int = 200
    base_deadline_ns: float = 120_000.0
    #: windowed goodput (success fraction of base requests created in
    #: the window) must be at least this, before and after the incident
    goodput_recovery_fraction: float = 0.9
    #: slack after the incident's last arrival before the recovery
    #: window opens
    recovery_margin_ns: float = 80_000.0


@dataclass
class OverloadDrillResult(BaseResult):
    event_txn: Optional[int] = None
    victim: Optional[int] = None
    offered: int = 0
    acked: int = 0
    shed: int = 0
    retries: int = 0
    retries_denied: int = 0
    amplification: float = 0.0
    recovery_rounds: Optional[int] = None
    pre_goodput: Optional[float] = None
    post_goodput: Optional[float] = None
    breaker_transitions: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        state = "ok" if self.ok else f"FAIL: {self.failure}"
        recovery = ""
        if self.recovery_rounds is not None:
            recovery = f" rounds={self.recovery_rounds}"
        if self.post_goodput is not None:
            recovery += (f" goodput={self.pre_goodput:.2f}"
                         f"->{self.post_goodput:.2f}")
        return (f"seed={self.seed} overload flavor={self.flavor} "
                f"offered={self.offered} acked={self.acked} "
                f"shed={self.shed} retries={self.retries} "
                f"amp={self.amplification:.2f} "
                f"breakers={self.breaker_transitions}{recovery} — {state}")


class OverloadDrill:
    """One seeded metastable-failure exercise; see the module docstring."""

    def __init__(self, config: Optional[OverloadDrillConfig] = None):
        self.config = config or OverloadDrillConfig()

    def run(self) -> OverloadDrillResult:
        cfg = self.config
        result = OverloadDrillResult(seed=cfg.seed)
        plan = FaultPlan(cfg.seed)
        flavor = draw_flavor(plan, OVERLOAD_FLAVORS, forced=cfg.flavor)
        result.flavor = flavor
        with run_guard(result, plan):
            if flavor == "retry_storm_failover":
                self._cluster_flavor(plan, result, migrate=False)
            elif flavor == "migration_under_load":
                self._cluster_flavor(plan, result, migrate=True)
            elif flavor == "flash_crowd":
                self._flash_crowd(plan, result)
            elif flavor == "slow_client_storm":
                self._slow_client_storm(plan, result)
            else:
                raise DrillFailure(f"unknown overload flavour {flavor!r}")
        return result

    # -- cluster flavours: retry storm after failover, migration ------------
    def _cluster_flavor(self, plan: FaultPlan, result: OverloadDrillResult,
                        migrate: bool) -> None:
        cfg = self.config
        wl, specs = make_workload("ycsb", cfg.seed, cfg.n_txns,
                                  cfg.n_partitions, cfg.records_per_partition)
        golden = golden_run(wl, specs, cfg.n_partitions,
                            cfg.max_events_per_txn)
        event_txn = plan.draw_int(1, max(1, cfg.n_txns - 3))
        # hit the partition the very next transaction targets, so the
        # incident is guaranteed to land in the live traffic's path
        target_part = specs[event_txn].home
        result.event_txn = event_txn
        result.offered = len(specs)

        # control-plane step shorter than the migration drain barrier
        # (links.inter_latency_ns), so in-flight traffic actually lands
        # inside the drain/transfer window instead of time-warping past
        # it between submits
        cluster = build_cluster(cfg, wl, plan, step_ns=1_000.0)
        router = ClusterRetryRouter(cluster, ClusterRouterConfig(
            budget=RetryBudgetConfig(ratio=0.5, burst=8),
            breaker=BreakerConfig(window=8, min_samples=2,
                                  open_ns=cfg.ha.heartbeat_timeout_ns,
                                  half_open_probes=2, close_after=1)))

        migration = None
        for i, spec in enumerate(specs):
            if i == event_txn:
                if migrate:
                    result.victim, _dst, migration = begin_migration(
                        cluster, target_part)
                else:
                    result.victim = cluster.owner_of(target_part)
                    cluster.kill_node(result.victim)
            router.route(i, spec, wl.layout_for(spec))

        step_ns = cfg.ha.heartbeat_timeout_ns
        rounds = router.settle(cfg.max_settle_rounds, step_ns / 2)
        result.recovery_rounds = rounds
        wait_until(cluster, router, lambda: (
            migration.state in (MigrationState.DONE, MigrationState.ABORTED)
            if migrate else bool(cluster.failovers)), step_ns)

        result.acked = len(router.acked)
        result.retries = router.attempts - router.first_attempts
        result.amplification = router.amplification
        result.breaker_transitions = router.breakers.transitions()

        # ---- recovery invariants ----
        if rounds > cfg.recovery_rounds_budget:
            raise DrillFailure(
                f"recovery blew its budget: {rounds} settle rounds "
                f"(budget {cfg.recovery_rounds_budget})")
        if router.amplification > cfg.amplification_cap:
            raise DrillFailure(
                f"retry amplification {router.amplification:.2f} exceeds "
                f"cap {cfg.amplification_cap}")
        if not router.breakers.all_closed():
            raise DrillFailure(
                f"breakers did not quiesce: {router.breakers.states()}")

        # ---- safety invariants (no double execution) ----
        if sorted(router.acked) != list(range(len(specs))):
            raise DrillFailure(
                f"acked set wrong: {sorted(router.acked)}")
        for i, (_txn_id, outcome) in sorted(router.acked.items()):
            rc = cluster.reconcile(i)
            if rc is None or rc[0] != "acked" or rc[1] != outcome:
                raise DrillFailure(
                    f"reconcile disagrees for txn #{i}: acked {outcome!r} "
                    f"but reconcile says {rc!r} — double execution risk")
        check_acked(cluster, specs, router.acked, golden)
        check_fencing(cluster)
        check_hashes(golden, cluster.partition_hashes(), after="overload")

        # ---- goodput recovery: untouched partitions unaffected ----
        got, want = untouched_service_ns(cluster, specs, golden, target_part)
        if want > 0 and got > want * (2 - cfg.goodput_recovery_fraction):
            raise DrillFailure(
                f"untouched-partition service time degraded "
                f"{got / want:.2f}x vs golden — goodput did not recover")

        # ---- flavour-specific ----
        if migrate:
            if migration.state is not MigrationState.DONE:
                raise DrillFailure(
                    f"migration did not complete: {migration.summary()}")
            if migration.unavailability_ns > cfg.ha.migration_budget_ns:
                raise DrillFailure(
                    f"migration unavailability "
                    f"{migration.unavailability_ns:.0f}ns exceeds budget")
            if (any(specs[i].home == target_part
                    for i in range(event_txn, len(specs)))
                    and router.queued_total == 0):
                raise DrillFailure(
                    "traffic hit the migrating partition but nothing was "
                    "queued-and-replayed")
        elif not cluster.failovers:
            raise DrillFailure("node death never produced a failover")

    # -- front-end flavours: flash crowd, slow-client storm ------------------
    def _frontend(self, plan: FaultPlan, budget: RetryBudgetConfig,
                  nic: Optional[NicConfig] = None):
        """The 2-worker kv-get box behind a resilient front-end."""
        from ..isa import Gp, ProcedureBuilder
        from ..mem.schema import TableSchema
        db = new_machine(2)
        db.define_table(TableSchema(0, "kv", hash_buckets=512))
        builder = ProcedureBuilder("get")
        builder.search(cp=0, table=0, key=builder.at(0))
        builder.commit_handler()
        builder.ret(0, 0)
        builder.store(Gp(0), builder.at(1))
        builder.commit()
        db.register_procedure(1, builder.build())
        for k in range(200):
            db.load(0, k, [f"v{k}"])
        fe = FrontEnd(db, FrontendConfig(
            nic=nic or NicConfig(),
            admission=AdmissionConfig(enabled=True, max_backlog=48),
            scheduler=SchedulerConfig(policy="fifo",
                                      max_inflight_per_worker=8),
            resilience=ResilienceConfig(
                enabled=True, budget=budget,
                brownout=BrownoutConfig(shed_at=(2.0, 0.85, 0.6)))))

        def factory(i):
            key = i % 200
            home = db.schemas.table(0).route(key, 2)
            return db.new_block(1, [key, None], worker=home), home

        return fe, factory, random.Random(plan.draw_int(0, 2 ** 31 - 1))

    def _base_session(self, fe, factory, rng, max_retries: int,
                      retry_backoff_ns: float):
        """The high-priority tenant whose goodput must recover."""
        cfg = self.config
        return fe.session(factory, SessionConfig(
            name="base", arrival="open", rate_tps=cfg.base_rate_tps,
            n_requests=cfg.base_requests, deadline_ns=cfg.base_deadline_ns,
            priority=0, weight=4.0, max_retries=max_retries,
            retry_backoff_ns=retry_backoff_ns, retry_jitter=0.5), rng=rng)

    def _serve(self, fe, budget: RetryBudgetConfig,
               result: OverloadDrillResult):
        """Run to completion; check conservation and amplification."""
        report = fe.run()
        fe.detach()
        result.offered = report.offered
        result.acked = report.committed
        result.shed = report.rejected + report.timed_out
        result.breaker_transitions = report.breaker_transitions
        self._check_class_conservation(report)
        self._check_amplification(report, budget, result)
        return report

    @staticmethod
    def _window_goodput(session, lo_ns: float, hi_ns: float
                        ) -> Tuple[int, int]:
        """(requests created in [lo, hi), of those: commits in deadline)."""
        total = good = 0
        for req in session.requests:
            if not lo_ns <= req.created_at_ns < hi_ns:
                continue
            total += 1
            if req.outcome == "committed" and (
                    req.deadline_at_ns is None
                    or req.block.done_at_ns <= req.deadline_at_ns):
                good += 1
        return total, good

    def _check_recovery_windows(self, base, incident_start_ns: float,
                                incident_end_ns: float,
                                result: OverloadDrillResult) -> None:
        cfg = self.config
        pre_n, pre_good = self._window_goodput(base, 0.0, incident_start_ns)
        post_n, post_good = self._window_goodput(
            base, incident_end_ns + cfg.recovery_margin_ns, float("inf"))
        if pre_n == 0 or post_n == 0:
            raise DrillFailure(
                f"degenerate windows: pre={pre_n} post={post_n} base "
                f"requests — incident timing swallowed the baseline")
        result.pre_goodput = pre_good / pre_n
        result.post_goodput = post_good / post_n
        floor = cfg.goodput_recovery_fraction
        if result.pre_goodput < floor:
            raise DrillFailure(
                f"steady-state goodput only {result.pre_goodput:.2f} "
                f"before the incident (floor {floor})")
        if result.post_goodput < floor * result.pre_goodput:
            raise DrillFailure(
                f"goodput did not recover: {result.post_goodput:.2f} after "
                f"vs {result.pre_goodput:.2f} before (needs ≥ {floor:.0%} "
                f"of steady state)")

    def _check_class_conservation(self, report) -> None:
        for cls, row in report.by_class().items():
            resolved = (row["committed"] + row["aborted"]
                        + row["rejected"] + row["timed_out"])
            if resolved != row["offered"]:
                raise DrillFailure(
                    f"class {cls} accounting leaked: offered "
                    f"{row['offered']} != resolved {resolved}")
        if not report.conserved:
            raise DrillFailure("terminal-outcome conservation violated")

    def _check_amplification(self, report, budget: RetryBudgetConfig,
                             result: OverloadDrillResult) -> None:
        cfg = self.config
        by_class = report.by_class()
        for cls, row in by_class.items():
            bound = budget.burst + budget.ratio * row["offered"]
            if row["retries"] > bound:
                raise DrillFailure(
                    f"class {cls} retry amplification broke its budget: "
                    f"{row['retries']} retries > {bound:.0f} allowed")
        offered = sum(r["offered"] for r in by_class.values())
        retries = sum(r["retries"] for r in by_class.values())
        result.retries = retries
        result.retries_denied = sum(r["retries_denied"]
                                    for r in by_class.values())
        result.amplification = ((offered + retries) / offered
                                if offered else 0.0)
        if result.amplification > cfg.amplification_cap:
            raise DrillFailure(
                f"aggregate retry amplification {result.amplification:.2f} "
                f"exceeds cap {cfg.amplification_cap}")

    def _flash_crowd(self, plan: FaultPlan, result: OverloadDrillResult
                     ) -> None:
        budget = RetryBudgetConfig(ratio=0.3, burst=8)
        fe, factory, rng = self._frontend(plan, budget)
        crowd_start = 150_000.0
        crowd_rate = 4_000_000.0 + plan.draw() * 4_000_000.0
        crowd_n = 180 + plan.draw_int(0, 120)
        base = self._base_session(fe, factory, rng, 2, 5_000.0)
        crowd = fe.session(factory, SessionConfig(
            name="crowd", arrival="open", rate_tps=crowd_rate,
            n_requests=crowd_n, deadline_ns=150_000.0, priority=2,
            weight=1.0, start_ns=crowd_start, max_retries=2,
            retry_backoff_ns=5_000.0, retry_jitter=0.5), rng=rng)
        report = self._serve(fe, budget, result)

        crowd_end = max(r.created_at_ns for r in crowd.requests)
        self._check_recovery_windows(base, crowd_start, crowd_end, result)
        crowd_row = report.by_class()[2]
        if crowd_row["rejected_brownout"] == 0:
            raise DrillFailure(
                "the crowd never overloaded the box: brownout shed nothing "
                f"(crowd rate {crowd_rate / 1e6:.1f} MTps)")
        if base.stats.rejected_brownout:
            raise DrillFailure(
                f"brownout shed {base.stats.rejected_brownout} class-0 "
                f"requests — priority ordering violated")

    def _slow_client_storm(self, plan: FaultPlan,
                           result: OverloadDrillResult) -> None:
        budget = RetryBudgetConfig(ratio=0.3, burst=10)
        fe, factory, rng = self._frontend(plan, budget, nic=NicConfig(
            rx_queue_depth=32, rx_process_ns=500.0))
        storm_start = 120_000.0
        storm_rate = 700_000.0 + plan.draw() * 400_000.0
        storm_n = 80 + plan.draw_int(0, 40)
        base = self._base_session(fe, factory, rng, 3, 4_000.0)
        storms = [
            fe.session(factory, SessionConfig(
                name=f"storm{k}", arrival="open", rate_tps=storm_rate,
                n_requests=storm_n, priority=2, weight=1.0,
                start_ns=storm_start, max_retries=6,
                retry_backoff_ns=2_000.0, retry_jitter=0.5), rng=rng)
            for k in range(3)
        ]
        report = self._serve(fe, budget, result)

        if report.nic_dropped == 0 and not report.brownout_shed:
            raise DrillFailure(
                "the storm never pressured the box: no RX drops and no "
                f"brownout shed (storm rate {storm_rate / 1e3:.0f} kTps x3)")
        storm_end = max(r.created_at_ns
                        for s in storms for r in s.requests)
        self._check_recovery_windows(base, storm_start, storm_end, result)

