"""Minimal dense-NN substrate (the PyTorch stand-in).

WholeGraph builds on PyTorch only for reverse-mode autodiff, dense layers
and optimizers; this package supplies exactly that surface:

- :mod:`repro.nn.tensor` — a NumPy-backed reverse-mode autograd ``Tensor``;
- :mod:`repro.nn.functional` — activations, losses, dropout, and the
  *graph* autograd ops (g-SpMM, segment softmax, row gather) whose
  backward passes implement the paper's §III-C4 recipes;
- :mod:`repro.nn.module` / :mod:`repro.nn.linear` — parameter containers;
- :mod:`repro.nn.optim` — SGD and Adam;
- :mod:`repro.nn.layers` — GCNConv / SAGEConv / GATConv on sampled blocks;
- :mod:`repro.nn.models` — the paper's 3-layer evaluation models.
"""

from repro.nn.tensor import Tensor
from repro.nn import functional
from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.optim import SGD, Adam
from repro.nn.sparse_optim import RowGrads, SparseAdam, SparseSGD, average_row_grads
from repro.nn.layers import GCNConv, SAGEConv, GATConv
from repro.nn.models import GCN, GraphSage, GAT, build_model, MODEL_NAMES

__all__ = [
    "Tensor",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "SGD",
    "Adam",
    "RowGrads",
    "SparseAdam",
    "SparseSGD",
    "average_row_grads",
    "GCNConv",
    "SAGEConv",
    "GATConv",
    "GCN",
    "GraphSage",
    "GAT",
    "build_model",
    "MODEL_NAMES",
]
