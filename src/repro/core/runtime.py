"""The assembled runtime: every subsystem of the paper wired together."""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from repro.cluster import BackgroundLoad, Cluster, ClusterConfig, FailureInjector
from repro.core.config import RuntimeConfig
from repro.errors import ConfigurationError
from repro.ft import (
    FtContext,
    FtPolicy,
    HostBreakerRegistry,
    ObjectFactoryServant,
    RecoveryCoordinator,
    make_ft_proxy,
)
from repro.ft.recovery import FACTORY_GROUP
from repro.orb import Orb, cdr
from repro.orb.ior import IOR
from repro.services.checkpoint import (
    CheckpointStoreServant,
    CheckpointStoreStub,
    DiskBackend,
    MemoryBackend,
)
from repro.services.naming import (
    BreakerAwareStrategy,
    FirstBoundStrategy,
    LoadDistributingContextServant,
    RandomStrategy,
    RoundRobinStrategy,
    WinnerStrategy,
    idl as naming_idl,
)
from repro.services.naming.names import to_name
from repro.sim import Simulator
from repro.winner import NodeManager, SystemManager


class Runtime:
    """One complete deployment of the paper's runtime support.

    Usage::

        rt = Runtime(RuntimeConfig(num_hosts=10, seed=7))
        rt.start()
        rt.register_type("Worker", make_worker_servant)
        iors = rt.run(rt.deploy_group("workers.service", "Worker", hosts=[1, 2]))
        ...
    """

    def __init__(self, config: Optional[RuntimeConfig] = None) -> None:
        self.config = config or RuntimeConfig()
        self.config.validate()
        self.sim = Simulator(seed=self.config.seed)
        self.cluster = Cluster(
            self.sim,
            ClusterConfig(
                num_hosts=self.config.num_hosts,
                speeds=self.config.speeds,
                cores=self.config.cores,
                latency=self.config.latency,
                bandwidth=self.config.bandwidth,
            ),
        )
        self.network = self.cluster.network
        self.failures = FailureInjector(self.cluster)
        policy = self.config.recovery_policy or FtPolicy()
        #: shared per-host circuit breakers; consulted by recovery
        #: coordinators and the naming strategy when config.breakers is on.
        self.breakers = HostBreakerRegistry(
            self.sim,
            failure_threshold=policy.breaker_failure_threshold,
            reset_timeout=policy.breaker_reset_timeout,
        )
        self._orbs: dict[str, Orb] = {}
        self._node_managers: dict[str, NodeManager] = {}
        self._factories: dict[str, ObjectFactoryServant] = {}
        self._factory_types: dict[str, Callable[[], object]] = {}
        self._coordinators: dict[str, RecoveryCoordinator] = {}
        #: every FtContext built via ft_proxy — runtime_report aggregates
        #: their per-proxy checkpoint counters.
        self._ft_contexts: list[FtContext] = []
        #: every ReplicatedServant any factory activated (survives host
        #: heals) — the chaos no-stale-primary invariant audits these.
        self._replica_members: list = []
        self.system_manager: Optional[SystemManager] = None
        self.naming_root: Optional[LoadDistributingContextServant] = None
        self.naming_ior: Optional[IOR] = None
        self.store_servant: Optional[CheckpointStoreServant] = None
        self.store_ior: Optional[IOR] = None
        self._started = False
        #: process-wide CDR plan-cache counters when this runtime started;
        #: ``runtime_report`` subtracts them so it counts this runtime only.
        self._plan_stats_at_start = cdr.plan_cache_stats()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Runtime":
        """Bring up ORBs, Winner, naming, store and factories."""
        if self._started:
            return self
        self._started = True
        self._plan_stats_at_start = cdr.plan_cache_stats()
        config = self.config
        service_host = self.cluster.host(config.service_host)

        for host in self.cluster:
            self._orbs[host.name] = self._make_orb(host)
            if config.auto_heal_delay is not None:
                host.on_restart(self._schedule_heal)

        self.system_manager = SystemManager(service_host, self.network)
        for host in self.cluster:
            self._start_node_manager(host)

        self.naming_root = LoadDistributingContextServant(
            self._make_strategy(),
            resolve_cache=self._make_resolve_cache(),
            resolve_scoring_work=config.resolve_scoring_work,
        )
        self.naming_ior = self.orb(service_host.name).poa.activate(self.naming_root)

        backend = (
            DiskBackend(self.sim)
            if config.checkpoint_backend == "disk"
            else MemoryBackend()
        )
        self.store_servant = CheckpointStoreServant(
            backend=backend,
            processing_work=config.checkpoint_processing_work,
        )
        self.store_ior = self.orb(service_host.name).poa.activate(self.store_servant)

        for host in self.cluster:
            self._start_factory(host)
        return self

    def _make_orb(self, host) -> Orb:
        return Orb(host, self.network, config=self.config.orb, traced=True)

    def _make_strategy(self):
        name = self.config.naming_strategy
        if name == "winner":
            assert self.system_manager is not None
            strategy = WinnerStrategy(self.system_manager)
        elif name == "round-robin":
            strategy = RoundRobinStrategy()
        elif name == "random":
            strategy = RandomStrategy(self.sim.rng("naming-random"))
        else:
            strategy = FirstBoundStrategy()
        if self.config.breakers:
            strategy = BreakerAwareStrategy(strategy, self.breakers)
        return strategy

    def _make_resolve_cache(self):
        if not self.config.resolve_cache:
            return None
        from repro.services.naming import ResolveCache

        # Only the winner strategy has a local manager to rank against;
        # load-oblivious strategies still cache, just without ranking.
        manager = (
            self.system_manager
            if self.config.naming_strategy == "winner"
            else None
        )
        return ResolveCache(
            self.sim,
            manager=manager,
            breakers=self.breakers if self.config.breakers else None,
        )

    def _start_node_manager(self, host) -> None:
        manager_host = self.cluster.host(self.config.service_host).name
        nm = NodeManager(
            host,
            self.network,
            manager_host=manager_host,
            interval=self.config.winner_interval,
            delta_reports=self.config.winner_delta_reports,
        )
        self._node_managers[host.name] = nm.start()

    def _start_factory(self, host) -> None:
        factory = ObjectFactoryServant(
            member_listener=self._replica_members.append
        )
        for type_name, maker in self._factory_types.items():
            factory.register_type(type_name, maker)
        self._factories[host.name] = factory
        factory_ior = self.orb(host.name).poa.activate(factory)

        def bind():
            from repro.errors import SystemException

            naming = self.naming_stub(host.name)
            try:
                yield naming.bind_service(to_name(FACTORY_GROUP), factory_ior)
            # analysis: ignore[EXC003]: naming unreachable during bind — the host re-binds when healed
            except (naming_idl.AlreadyBound, SystemException):
                pass

        # Host-bound: a crash before/while binding kills the process cleanly.
        host.spawn(bind(), name=f"bind-factory:{host.name}")

    # -- healing after restarts ---------------------------------------------------

    def _schedule_heal(self, host) -> None:
        delay = self.config.auto_heal_delay
        assert delay is not None
        self.sim.schedule(delay, lambda: self.heal_host(host.name))

    def heal_host(self, host_name: str) -> None:
        """Re-join a restarted host: fresh ORB, node manager, factory."""
        host = self.cluster.host(host_name)
        if not host.up:
            return
        self._orbs[host.name] = self._make_orb(host)
        self._start_node_manager(host)
        self._start_factory(host)

    # -- accessors ---------------------------------------------------------------

    @property
    def obs(self):
        """The simulation's observability hub (metrics + tracer)."""
        return self.sim.obs

    def orb(self, host: int | str) -> Orb:
        name = host if isinstance(host, str) else self.cluster.host(host).name
        try:
            return self._orbs[name]
        except KeyError:
            raise ConfigurationError(f"no ORB on host {name!r} (not started?)") from None

    def naming_stub(self, host: int | str = 0):
        assert self.naming_ior is not None
        return self.orb(host).stub(
            self.naming_ior, naming_idl.LoadDistributingNamingContextStub
        )

    def store_stub(self, host: int | str = 0):
        assert self.store_ior is not None
        return self.orb(host).stub(self.store_ior, CheckpointStoreStub)

    def coordinator(self, host: int | str = 0) -> RecoveryCoordinator:
        name = host if isinstance(host, str) else self.cluster.host(host).name
        if name not in self._coordinators:
            orb = self.orb(name)
            self._coordinators[name] = RecoveryCoordinator(
                orb,
                self.naming_stub(name),
                self.store_stub(name),
                policy=self.config.recovery_policy,
                breakers=self.breakers if self.config.breakers else None,
            )
        return self._coordinators[name]

    # -- deployment ------------------------------------------------------------------

    def register_type(self, type_name: str, maker: Callable[[], object]) -> None:
        """Make a servant type creatable by every host factory."""
        self._factory_types[type_name] = maker
        for factory in self._factories.values():
            factory.register_type(type_name, maker)

    def deploy_group(
        self,
        group_name: str,
        type_name: str,
        hosts: Sequence[int | str],
    ) -> Generator:
        """Generator: instantiate the type on each host and register the
        instances as a service group; returns the IORs."""
        if type_name not in self._factory_types:
            raise ConfigurationError(f"unregistered servant type {type_name!r}")
        naming = self.naming_stub(self.config.service_host)
        name = to_name(group_name)
        iors = []
        for host in hosts:
            host_name = (
                host if isinstance(host, str) else self.cluster.host(host).name
            )
            servant = self._factory_types[type_name]()
            ior = self.orb(host_name).poa.activate(servant)
            yield naming.bind_service(name, ior)
            iors.append(ior)
        return iors

    def ft_proxy(
        self,
        stub_class: type,
        ior: IOR,
        key: str,
        type_name: str,
        client_host: int | str = 0,
        group_name: Optional[str] = None,
        policy: Optional[FtPolicy] = None,
        with_store: bool = True,
        with_recovery: bool = True,
    ):
        """Build a fault-tolerance proxy wired to this runtime's services."""
        orb = self.orb(client_host)
        context = FtContext(
            key=key,
            type_name=type_name,
            store=self.store_stub(client_host) if with_store else None,
            recovery=self.coordinator(client_host) if with_recovery else None,
            policy=policy or self.config.recovery_policy or FtPolicy(),
            group_name=group_name,
        )
        self._ft_contexts.append(context)
        proxy_class = make_ft_proxy(stub_class)
        return proxy_class(orb, ior, context)

    # -- load & failures -----------------------------------------------------------------

    def background_load(
        self, hosts: Sequence[int | str], intensity: int = 1
    ) -> list[BackgroundLoad]:
        """Start CPU-bound background load on the given hosts."""
        loads = []
        for host in hosts:
            host_obj = self.cluster.host(host)
            load = BackgroundLoad(host_obj, intensity=intensity).start()
            loads.append(load)
        return loads

    # -- execution --------------------------------------------------------------------------

    def run(self, generator: Generator, limit: float = 1e7):
        """Run a generator as a simulation process to completion."""
        process = self.sim.spawn(generator)
        value = self.sim.run_until_done(process, limit=limit)
        self.sim.check_unhandled()
        return value

    def settle(self, duration: Optional[float] = None) -> None:
        """Let Winner reports accumulate (default: three intervals)."""
        horizon = duration if duration is not None else 3.2 * self.config.winner_interval
        self.sim.run(until=self.sim.now + horizon)
