"""Optimised GNN layer ops (paper §III-C4): GCN, GraphSage and GAT."""

from repro.nn.layers.gcn import GCNConv
from repro.nn.layers.sage import SAGEConv
from repro.nn.layers.gat import GATConv

__all__ = ["GCNConv", "SAGEConv", "GATConv"]
