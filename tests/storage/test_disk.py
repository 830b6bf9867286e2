"""Unit tests for the disk cost model."""

import pytest

from repro.storage import disk
from repro.storage.pages import MB, PAGE_SIZE_BYTES


def random_read_seconds(num_bytes):
    """Reference: service time to read ``num_bytes`` of scattered pages."""
    if num_bytes <= 0:
        return 0.0
    pages = num_bytes / PAGE_SIZE_BYTES
    return pages * disk.RANDOM_READ_MS_PER_PAGE / 1000.0


def sequential_read_seconds(num_bytes):
    """Reference: service time to stream ``num_bytes`` sequentially."""
    if num_bytes <= 0:
        return 0.0
    return num_bytes / (disk.SEQUENTIAL_READ_MB_PER_S * MB)


def test_random_read_cost_scales_with_pages(monkeypatch):
    monkeypatch.setattr(disk, "RANDOM_READ_MS_PER_PAGE", 10.0)
    one = disk.read_seconds(PAGE_SIZE_BYTES, 0.0)
    ten = disk.read_seconds(10 * PAGE_SIZE_BYTES, 0.0)
    assert one == pytest.approx(0.010)
    assert ten == pytest.approx(0.100)


def test_sequential_read_uses_bandwidth(monkeypatch):
    monkeypatch.setattr(disk, "SEQUENTIAL_READ_MB_PER_S", 50.0)
    assert disk.read_seconds(0.0, 50 * MB) == pytest.approx(1.0)


def test_zero_bytes_cost_nothing():
    assert disk.read_seconds(0.0, 0.0) == 0.0
    assert disk.write_seconds(0) == 0.0


def test_write_coalescing_reduces_cost(monkeypatch):
    volume = 100 * PAGE_SIZE_BYTES
    monkeypatch.setattr(disk, "WRITE_COALESCE_FACTOR", 1.0)
    eager = disk.write_seconds(volume)
    monkeypatch.setattr(disk, "WRITE_COALESCE_FACTOR", 0.5)
    assert disk.write_seconds(volume) < eager
    assert disk.effective_write_bytes(volume) == pytest.approx(volume * 0.5)


def test_combined_read_seconds():
    """``read_seconds`` is the two reference costs added, bit for bit."""
    for random_bytes, sequential_bytes in ((PAGE_SIZE_BYTES, MB), (0.0, MB),
                                           (3 * PAGE_SIZE_BYTES, 0.0),
                                           (12345.0, 678.9), (0.0, 0.0)):
        assert disk.read_seconds(random_bytes, sequential_bytes) == \
            random_read_seconds(random_bytes) + \
            sequential_read_seconds(sequential_bytes)
