"""NCCL-style collectives and the unified-memory page-migration model."""

import numpy as np
import pytest

from repro.dsm.comm import Communicator
from repro.dsm.unified_memory import UnifiedMemorySpace


@pytest.fixture
def comm(node):
    return Communicator(node)


def test_allgather_delivers_everything(comm):
    objs = [f"h{r}" for r in range(8)]
    out = comm.allgather(objs)
    assert all(row == objs for row in out)


def test_alltoallv_transpose_semantics(comm):
    send = [
        [np.array([s * 10 + d]) for d in range(8)] for s in range(8)
    ]
    recv = comm.alltoallv(send)
    for dst in range(8):
        for src in range(8):
            assert recv[dst][src][0] == src * 10 + dst


def test_alltoallv_charges_all_ranks(comm, node):
    node.reset_clocks()
    send = [[np.zeros(1000) for _ in range(8)] for _ in range(8)]
    comm.alltoallv(send)
    assert all(c.now > 0 for c in node.gpu_clock)


def test_allreduce_sums_correctly(comm):
    arrays = [np.full(16, float(r)) for r in range(8)]
    out = comm.allreduce(arrays)
    assert all(np.allclose(o, sum(range(8))) for o in out)


def test_allreduce_dtype_preserved(comm):
    arrays = [np.ones(4, dtype=np.float32) for _ in range(8)]
    out = comm.allreduce(arrays)
    assert out[0].dtype == np.float32


def test_broadcast_replicates(comm):
    data = np.arange(10)
    out = comm.broadcast(data, root=2)
    assert all(np.array_equal(o, data) for o in out)


def test_collective_rank_count_enforced(comm):
    with pytest.raises(ValueError):
        comm.allreduce([np.zeros(1)] * 3)


# -- unified memory ----------------------------------------------------------

def test_um_pages_initially_distributed(node):
    um = UnifiedMemorySpace(node, 8 * 64 * 1024, page_bytes=64 * 1024)
    owners = set(um.page_owner.tolist())
    assert len(owners) == 8


def test_um_fault_migrates_page(node):
    um = UnifiedMemorySpace(node, 8 * 64 * 1024, page_bytes=64 * 1024)
    # page 7 starts on rank 7; access from rank 0 faults and migrates
    addr = 7 * 64 * 1024
    um.access(np.array([addr]), rank=0)
    assert um.fault_count == 1
    assert um.page_owner[7] == 0
    # second access is now a local hit
    um.access(np.array([addr]), rank=0)
    assert um.hit_count == 1


def test_um_fault_slower_than_hit(node):
    um = UnifiedMemorySpace(node, 8 * 64 * 1024, page_bytes=64 * 1024)
    t_fault = um.access(np.array([7 * 64 * 1024]), rank=0)
    t_hit = um.access(np.array([7 * 64 * 1024]), rank=0)
    assert t_fault > 10 * t_hit


def test_um_out_of_range_access(node):
    um = UnifiedMemorySpace(node, 1024, page_bytes=64 * 1024)
    with pytest.raises(IndexError):
        um.access(np.array([1 << 30]), rank=0)
