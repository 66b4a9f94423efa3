"""Unit tests for the Delayed Update Queue."""

from hypothesis import given
from hypothesis import strategies as st

from repro.protocols.mgs.duq import DUQ


def test_fifo_order():
    duq = DUQ(0)
    for vpn in (5, 3, 9):
        duq.add(vpn)
    assert duq.pop_head() == 5
    assert duq.pop_head() == 3
    assert duq.pop_head() == 9
    assert not duq


def test_add_is_idempotent():
    duq = DUQ(0)
    duq.add(7)
    duq.add(7)
    assert len(duq) == 1
    assert duq.enqueues == 1


def test_early_removal():
    duq = DUQ(0)
    duq.add(1)
    duq.add(2)
    assert duq.remove_if_present(1)
    assert not duq.remove_if_present(1)
    assert duq.early_removals == 1
    assert duq.pop_head() == 2


def test_contains_and_bool():
    duq = DUQ(0)
    assert not duq
    duq.add(4)
    assert 4 in duq
    assert 5 not in duq
    assert duq


@given(st.lists(st.integers(0, 50)))
def test_pop_order_matches_first_insertion(vpns):
    duq = DUQ(0)
    for v in vpns:
        duq.add(v)
    expected = list(dict.fromkeys(vpns))
    popped = []
    while duq:
        popped.append(duq.pop_head())
    assert popped == expected
