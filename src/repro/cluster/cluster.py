"""The Cluster: nodes + network + filesystems + a wired simulator.

This is the main entry point of the substrate.  Typical use::

    from repro.cluster import Cluster, MachineSpec

    cluster = Cluster.voltrino(num_nodes=8)
    proc = cluster.spawn("work", body_fn, node="node0", core=0)
    cluster.sim.run(until=600.0)
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.cluster.node import Node
from repro.cluster.ratemodel import ClusterRateModel
from repro.cluster.specs import MachineSpec
from repro.errors import ConfigError
from repro.memory.bandwidth import ShareFn
from repro.network.topology import NetworkTopology, aries_like, star
from repro.resources.fairshare import max_min_fair_share
from repro.sim.engine import Simulator
from repro.sim.process import Body, SimProcess
from repro.storage.filesystem import SharedFilesystem

#: callbacks invoked with every newly constructed Cluster.  The trace
#: recorder uses this to attach to clusters built *inside* an experiment
#: runner (see :func:`repro.traces.recorder.recording_session`); empty in
#: normal operation, so construction pays one truthiness check.
_CLUSTER_OBSERVERS: list[Callable[["Cluster"], None]] = []


class Cluster:
    """A simulated HPC system.

    Parameters
    ----------
    num_nodes:
        Compute-node count; nodes are named ``node0..node{n-1}`` to match
        the network topology's endpoints.
    spec:
        Per-node hardware description.
    topology:
        A :class:`NetworkTopology`, or ``None`` for no network model
        (single-node studies).
    filesystems:
        Shared filesystems reachable from every node.
    share_fn / cache_sharpness / k_paths:
        Rate-model ablation knobs (see
        :class:`~repro.cluster.ratemodel.ClusterRateModel`).
    """

    def __init__(
        self,
        num_nodes: int = 4,
        spec: MachineSpec | None = None,
        topology: NetworkTopology | None = None,
        filesystems: Iterable[SharedFilesystem] = (),
        share_fn: ShareFn = max_min_fair_share,
        cache_sharpness: float = 1.0,
        k_paths: int = 4,
    ) -> None:
        if num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        self.spec = spec if spec is not None else MachineSpec.voltrino()
        self.nodes: dict[str, Node] = {
            f"node{i}": Node(f"node{i}", self.spec) for i in range(num_nodes)
        }
        if topology is not None:
            missing = set(self.nodes) - set(topology.compute_nodes)
            if missing:
                raise ConfigError(
                    f"topology lacks endpoints for nodes: {sorted(missing)}"
                )
        self.topology = topology
        self.filesystems: dict[str, SharedFilesystem] = {
            fs.name: fs for fs in filesystems
        }
        #: attached :class:`~repro.faults.state.FaultState`, or None.  Set
        #: by a FaultInjector; every consumer (rate model, scheduler) is
        #: guarded by a None-check, so an un-faulted simulation pays
        #: nothing beyond the attribute read.
        self.faults = None
        self.model = ClusterRateModel(
            self,
            share_fn=share_fn,
            cache_sharpness=cache_sharpness,
            k_paths=k_paths,
        )
        self.sim = Simulator(self.model)
        for node in self.nodes.values():
            node.memory.oom_killer = self._oom_kill
        if _CLUSTER_OBSERVERS:
            for observer in list(_CLUSTER_OBSERVERS):
                observer(self)

    # -- constructors -----------------------------------------------------

    @classmethod
    def voltrino(cls, num_nodes: int = 8, **kwargs) -> "Cluster":
        """Voltrino-like system: Haswell nodes on an Aries-like fabric."""
        spec = kwargs.pop("spec", MachineSpec.voltrino())
        topology = kwargs.pop(
            "topology", aries_like(num_nodes=num_nodes, nic_bw=spec.nic_bw)
        )
        return cls(num_nodes=num_nodes, spec=spec, topology=topology, **kwargs)

    @classmethod
    def chameleon(cls, num_nodes: int = 6, with_nfs: bool = True, **kwargs) -> "Cluster":
        """Chameleon-like system: star network, optional NFS appliance."""
        spec = kwargs.pop("spec", MachineSpec.chameleon())
        topology = kwargs.pop("topology", star(num_nodes=num_nodes, link_bw=spec.nic_bw))
        filesystems = kwargs.pop(
            "filesystems", (SharedFilesystem.nfs_appliance(),) if with_nfs else ()
        )
        return cls(
            num_nodes=num_nodes,
            spec=spec,
            topology=topology,
            filesystems=filesystems,
            **kwargs,
        )

    # -- lookup -------------------------------------------------------------

    def node(self, which: str | int) -> Node:
        """Fetch a node by name or index."""
        name = f"node{which}" if isinstance(which, int) else which
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigError(f"unknown node {which!r}") from None

    def filesystem(self, name: str) -> SharedFilesystem:
        try:
            return self.filesystems[name]
        except KeyError:
            raise ConfigError(f"unknown filesystem {name!r}") from None

    @property
    def node_names(self) -> list[str]:
        return sorted(self.nodes, key=lambda n: int(n.removeprefix("node")))

    # -- process management -----------------------------------------------------

    def spawn(
        self,
        name: str,
        body: Callable[[SimProcess], Body],
        node: str | int,
        core: int,
        at: float | None = None,
    ) -> SimProcess:
        """Create a process pinned to ``(node, core)`` and start it at ``at``."""
        node_obj = self.node(node)
        node_obj.spec._check_core(core)
        proc = SimProcess(name=name, body=body, node=node_obj.name, core=core)
        return self.sim.spawn(proc, at=at)

    def _oom_kill(self, pid: int) -> None:
        proc = self.sim.process(pid)
        self.sim.kill(proc, reason="oom-killed")
