"""WholeMemory setup protocol, IPC semantics and pointer tables."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.dsm import ipc
from repro.dsm.ipc import ipc_get_mem_handle, ipc_open_mem_handle
from repro.dsm.pointer_table import MemoryPointerTable
from repro.dsm.whole_memory import WholeMemory, split_evenly
from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import SimNode


def test_split_evenly_covers_total():
    sizes = split_evenly(1003, 8)
    assert sum(sizes) == 1003
    assert max(sizes) - min(sizes) <= 1


def test_ipc_cannot_open_own_handle():
    buf = np.zeros(16, dtype=np.uint8)
    h = ipc_get_mem_handle(3, buf)
    with pytest.raises(ValueError):
        ipc_open_mem_handle(h, 3)
    assert ipc_open_mem_handle(h, 0) is buf


def test_ipc_freed_handle_rejected():
    from repro.dsm.ipc import ipc_close_mem_handle

    buf = np.zeros(16, dtype=np.uint8)
    h = ipc_get_mem_handle(0, buf)
    ipc_close_mem_handle(h)
    with pytest.raises(KeyError):
        ipc_open_mem_handle(h, 1)


def test_pointer_table_requires_complete_exchange():
    t = MemoryPointerTable(0, 4)
    assert not t.complete
    with pytest.raises(RuntimeError):
        t.pointer(2)
    for r in range(4):
        t.set_pointer(r, np.zeros(1, dtype=np.uint8))
    assert t.complete


def test_pointer_table_is_64_bytes_on_8_gpus():
    # paper §III-B: "For DGX-A100 with 8 GPUs, it is just 8x8 = 64 bytes"
    assert MemoryPointerTable(0, 8).nbytes == 64


def _address(buf: np.ndarray) -> int:
    return buf.__array_interface__["data"][0]


def test_whole_memory_partitions_and_tables(node: SimNode):
    wm = WholeMemory(node, [1000, 0, 1001, 999, 1000, 2000, 1000, 1000],
                     tag="t")
    assert sum(wm.partition_sizes) == 8000
    assert len(wm.buffers) == 8
    for materialized in (False, True):
        if materialized:
            wm.materialize()
        for rank, table in enumerate(wm.pointer_tables):
            assert table.complete
            for peer in range(8):
                # every rank's table points at the peer's actual buffer,
                # and the peer's IPC handle opens to that same view
                assert table.pointer(peer) is wm.buffers[peer]
                if peer != rank:
                    assert ipc_open_mem_handle(
                        wm._handles[peer], rank
                    ) is wm.buffers[peer]
    # materialized partitions are consecutive views of one rank-major buffer
    assert wm.storage.size == 8000
    offset = 0
    for size, buf in zip(wm.partition_sizes, wm.buffers):
        assert buf.base is wm.storage and buf.size == size
        if size:  # NumPy does not keep the offset of an empty view
            assert _address(buf) == _address(wm.storage) + offset
        offset += size
    wm.buffers[5][:] = 7
    assert np.all(wm.storage[4000:6000] == 7)
    assert np.count_nonzero(wm.storage) == 2000


def test_dropped_tensor_releases_host_bytes_and_handles(node: SimNode):
    """A WholeTensor dropped without ``free()`` leaves nothing behind: the
    IPC registry holds its partitions weakly, so collection frees the host
    bytes and the handles then fail to open like freed ones."""
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        t = WholeTensor(node, 20_000, 16, tag="leak", charge_setup=False)
        nbytes = t.total_bytes
        assert tracemalloc.get_traced_memory()[0] - baseline >= nbytes
        handles = list(t.memory._handles)
        assert all(h.token in ipc._registry for h in handles)
        del t
        gc.collect()
        residual = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert not any(h.token in ipc._registry for h in handles)
    for handle in handles:
        with pytest.raises(KeyError, match="freed allocation"):
            ipc_open_mem_handle(handle, (handle.owner_rank + 1) % 8)
    # only the device-memory bookkeeping of the never-freed allocation
    # outlives the tensor, a few KiB against the 1.2 MiB of rows
    assert residual < nbytes // 100


def test_whole_memory_charges_device_memory(node: SimNode):
    WholeMemory(node, 8 * 1024, tag="graph")
    usage = node.memory_usage_by_tag()
    assert usage["graph"] == 8 * 1024


def test_whole_memory_setup_time_charged(node: SimNode):
    WholeMemory(node, 1024, tag="x")
    assert node.timeline.phase_total("dsm_setup") > 0
    assert all(c.now > 0 for c in node.gpu_clock)


def test_whole_memory_free_releases(node: SimNode):
    wm = WholeMemory(node, 800, tag="x", charge_setup=False)
    wm.free()
    assert node.total_memory_usage() == 0
    with pytest.raises(RuntimeError):
        wm.free()


def test_whole_memory_wrong_partition_count(node: SimNode):
    with pytest.raises(ValueError):
        WholeMemory(node, [100, 100], tag="x")
