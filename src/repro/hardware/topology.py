"""Interconnect topology of a simulated node.

Models the DGX-A100 wiring of paper Fig. 6 as a graph:

- every GPU has one NVLink trunk into the NVSwitch fabric (all-to-all
  GPU<->GPU at full per-GPU NVLink bandwidth);
- GPUs hang in pairs off PCIe switches; each switch has one x16 uplink to
  the host, shared by its 2 GPUs (and 2 NICs);
- the host CPU/DRAM is one endpoint.

`path()` resolves the link sequence between two endpoints by breadth-first
search;
`effective_bandwidth()` returns the bottleneck bandwidth of a path given how
many peers share each hop — this is what makes host->GPU streaming top out at
16 GB/s per GPU when all 8 GPUs read concurrently (paper §III-B).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.hardware.spec import LinkSpec, NodeSpec


@dataclass(frozen=True)
class Link:
    """A physical link instance in the topology graph."""

    name: str
    spec: LinkSpec
    #: maximum number of concurrent users this link is shared by in the
    #: worst case (e.g. a PCIe uplink shared by 2 GPUs)
    max_sharers: int = 1


def gpu_name(i: int) -> str:
    return f"gpu{i}"


HOST = "host"
NVSWITCH = "nvswitch"


class Topology:
    """Endpoint/link graph with path and bandwidth resolution."""

    def __init__(self) -> None:
        #: endpoint -> kind, in insertion order
        self.kinds: dict[str, str] = {}
        #: endpoint -> {neighbour: link}, each in insertion order
        self.adjacency: dict[str, dict[str, Link]] = {}

    def add_endpoint(self, name: str, kind: str) -> None:
        self.kinds[name] = kind
        self.adjacency.setdefault(name, {})

    def add_link(self, a: str, b: str, link: Link) -> None:
        self.adjacency[a][b] = link
        self.adjacency[b][a] = link

    def endpoints(self, kind: str | None = None) -> list[str]:
        return [n for n, k in self.kinds.items() if kind in (None, k)]

    def path(self, src: str, dst: str) -> list[Link]:
        """Links along a shortest route from ``src`` to ``dst``.

        A breadth-first search from ``src`` that visits each endpoint's
        neighbours in link-insertion order; of several equally short routes
        it returns the first one that order reaches.  Raises ``ValueError``
        for an unknown endpoint.
        """
        for name in (src, dst):
            if name not in self.adjacency:
                raise ValueError(f"unknown endpoint {name!r}")
        parent = {src: src}
        queue = deque([src])
        while dst not in parent:
            u = queue.popleft()
            for v in self.adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        links = []
        while dst != src:
            links.append(self.adjacency[parent[dst]][dst])
            dst = parent[dst]
        return links[::-1]

    def effective_bandwidth(self, src: str, dst: str, concurrent: bool = True) -> float:
        """Bottleneck bandwidth between two endpoints.

        With ``concurrent=True`` every link is divided by its worst-case
        sharer count (all GPUs streaming at once, the paper's measurement
        condition); otherwise the path gets each link exclusively.
        """
        return min(
            link.spec.bandwidth / (link.max_sharers if concurrent else 1)
            for link in self.path(src, dst)
        )

    def link_names(self) -> list[str]:
        """All physical link names in the topology.

        Each link is listed once, from the endpoint added first: endpoints
        in insertion order, each one's links in insertion order.
        """
        seen: set[str] = set()
        names = []
        for u, links in self.adjacency.items():
            names += [link.name for v, link in links.items() if v not in seen]
            seen.add(u)
        return names

    def latency(self, src: str, dst: str) -> float:
        """Sum of per-hop message latencies along the route."""
        return sum(link.spec.latency for link in self.path(src, dst))


def build_dgx_topology(spec: NodeSpec) -> Topology:
    """Build the Fig. 6 DGX-A100 topology for ``spec.num_gpus`` GPUs."""
    topo = Topology()
    topo.add_endpoint(HOST, kind="host")
    topo.add_endpoint(NVSWITCH, kind="switch")
    # ceil division: an odd GPU count (elastic shrink leaves e.g. 7 GPUs)
    # still needs a switch for the unpaired GPU
    num_switches = max(1, -(-spec.num_gpus // spec.gpus_per_pcie_switch))
    for s in range(num_switches):
        sw = f"pcie_sw{s}"
        topo.add_endpoint(sw, kind="switch")
        # one x16 uplink to the host, shared by the GPUs under this switch
        topo.add_link(
            sw,
            HOST,
            Link(
                name=f"pcie_uplink{s}",
                spec=spec.pcie,
                max_sharers=spec.gpus_per_pcie_switch,
            ),
        )
    for g in range(spec.num_gpus):
        name = gpu_name(g)
        topo.add_endpoint(name, kind="gpu")
        # NVLink trunk into NVSwitch (exclusive per GPU)
        topo.add_link(
            name, NVSWITCH, Link(name=f"nvlink{g}", spec=spec.nvlink)
        )
        # PCIe x16 down-link from the pair switch (exclusive per GPU)
        sw = f"pcie_sw{g // spec.gpus_per_pcie_switch}"
        topo.add_link(
            name, sw, Link(name=f"pcie_down{g}", spec=spec.pcie)
        )
    return topo
