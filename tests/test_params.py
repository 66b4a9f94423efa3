"""Unit tests for MachineConfig and CostModel."""

import pytest

from repro.params import CostModel, MachineConfig, ProtocolOptions


def test_default_geometry():
    config = MachineConfig()
    assert config.total_processors == 32
    assert config.num_clusters == 1
    assert config.hardware_only
    assert config.words_per_page == 128
    assert config.lines_per_page == 64
    assert config.words_per_line == 2


def test_cluster_partitioning():
    config = MachineConfig(total_processors=32, cluster_size=4)
    assert config.num_clusters == 8
    assert config.cluster_of(0) == 0
    assert config.cluster_of(3) == 0
    assert config.cluster_of(4) == 1
    assert config.cluster_of(31) == 7
    assert list(config.processors_of(2)) == [8, 9, 10, 11]


@pytest.mark.parametrize("bad", [0, 3, 5, 33, 64])
def test_invalid_cluster_size_rejected(bad):
    with pytest.raises(ValueError):
        MachineConfig(total_processors=32, cluster_size=bad)


def test_page_must_be_multiple_of_line():
    with pytest.raises(ValueError):
        MachineConfig(page_size=1000, line_size=16)


def test_negative_hw_dir_pointers_rejected():
    # At -1 every hardware miss would read as software-serviced.
    with pytest.raises(ValueError, match="hw_dir_pointers"):
        MachineConfig(hw_dir_pointers=-1)
    assert MachineConfig(hw_dir_pointers=0).hw_dir_pointers == 0


def test_with_cluster_size_preserves_other_fields():
    config = MachineConfig(
        total_processors=16, cluster_size=16, inter_ssmp_delay=777
    )
    smaller = config.with_cluster_size(2)
    assert smaller.cluster_size == 2
    assert smaller.inter_ssmp_delay == 777
    assert smaller.total_processors == 16
    assert not smaller.hardware_only


def test_tlb_fill_identity():
    """fault_overhead + map_fill is the paper's 1037-cycle TLB fill."""
    costs = CostModel()
    assert costs.fault_overhead + costs.map_fill == 1037


def test_cost_helpers():
    costs = CostModel()
    assert costs.dma_page(64) == costs.dma_fixed + 64 * costs.dma_per_line
    assert costs.clean_page(64) == 64 * costs.clean_per_line
    assert costs.make_twin(128) == costs.twin_fixed + 128 * costs.twin_per_word
    assert costs.make_diff(128) == costs.diff_fixed + 128 * costs.diff_per_word


def test_protocol_options_frozen_defaults():
    opts = ProtocolOptions()
    assert opts.single_writer_opt
    assert not opts.fast_read_clean
    config = MachineConfig(options=ProtocolOptions(single_writer_opt=False))
    assert not config.options.single_writer_opt
