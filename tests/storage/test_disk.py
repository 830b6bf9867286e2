"""Unit tests for the disk cost model."""

import pytest

from repro.storage.disk import DiskModel
from repro.storage.pages import MB, PAGE_SIZE_BYTES


def random_read_seconds(disk, num_bytes):
    """Reference: service time to read ``num_bytes`` of scattered pages."""
    if num_bytes <= 0:
        return 0.0
    pages = num_bytes / PAGE_SIZE_BYTES
    return pages * disk.random_read_ms_per_page / 1000.0


def sequential_read_seconds(disk, num_bytes):
    """Reference: service time to stream ``num_bytes`` sequentially."""
    if num_bytes <= 0:
        return 0.0
    return num_bytes / (disk.sequential_read_mb_per_s * MB)


def test_random_read_cost_scales_with_pages():
    disk = DiskModel(random_read_ms_per_page=10.0)
    one = disk.read_seconds(PAGE_SIZE_BYTES, 0.0)
    ten = disk.read_seconds(10 * PAGE_SIZE_BYTES, 0.0)
    assert one == pytest.approx(0.010)
    assert ten == pytest.approx(0.100)


def test_sequential_read_uses_bandwidth():
    disk = DiskModel(sequential_read_mb_per_s=50.0)
    assert disk.read_seconds(0.0, 50 * MB) == pytest.approx(1.0)


def test_zero_bytes_cost_nothing():
    disk = DiskModel()
    assert disk.read_seconds(0.0, 0.0) == 0.0
    assert disk.write_seconds(0) == 0.0


def test_write_coalescing_reduces_cost():
    eager = DiskModel(write_coalesce_factor=1.0)
    lazy = DiskModel(write_coalesce_factor=0.5)
    volume = 100 * PAGE_SIZE_BYTES
    assert lazy.write_seconds(volume) < eager.write_seconds(volume)
    assert lazy.effective_write_bytes(volume) == pytest.approx(volume * 0.5)


def test_combined_read_seconds():
    """``read_seconds`` is the two reference costs added, bit for bit."""
    disk = DiskModel()
    for random_bytes, sequential_bytes in ((PAGE_SIZE_BYTES, MB), (0.0, MB),
                                           (3 * PAGE_SIZE_BYTES, 0.0),
                                           (12345.0, 678.9), (0.0, 0.0)):
        assert disk.read_seconds(random_bytes, sequential_bytes) == \
            random_read_seconds(disk, random_bytes) + \
            sequential_read_seconds(disk, sequential_bytes)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        DiskModel(random_read_ms_per_page=0)
    with pytest.raises(ValueError):
        DiskModel(sequential_read_mb_per_s=-1)
    with pytest.raises(ValueError):
        DiskModel(write_coalesce_factor=0.0)
