"""Property-based tests for the hardware coherence directory."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw import CacheSystem
from repro.hw.coherence import _CLASSES
from repro.params import CostModel, MachineConfig
from repro.sim.snapshot import array_digest

COSTS = CostModel()


@st.composite
def access_traces(draw):
    nprocs = draw(st.sampled_from([2, 4, 8]))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, nprocs - 1),  # pid
                st.integers(0, 5),  # line
                st.booleans(),  # is_write
                st.integers(0, nprocs - 1),  # home pid
            ),
            min_size=1,
            max_size=60,
        )
    )
    return nprocs, ops


@settings(max_examples=200, deadline=None)
@given(trace=access_traces())
def test_directory_invariants(trace):
    """After every access: a dirty line has no sharers; costs are always
    one of the Table 3 classes; a repeated access by the same processor
    is always a hit."""
    nprocs, ops = trace
    config = MachineConfig(total_processors=nprocs, cluster_size=nprocs)
    cache = CacheSystem(config, COSTS)
    valid_costs = {
        COSTS.cache_hit,
        COSTS.miss_local,
        COSTS.miss_remote,
        COSTS.miss_2party,
        COSTS.miss_3party,
        COSTS.miss_software_dir,
    }
    for pid, line, is_write, home in ops:
        cost = cache.access(0, pid, line, is_write, home)
        assert cost in valid_costs
        state = cache._lines[0].get(line)
        owner, sharers = state[0], state[1]
        if owner != -1:
            assert not sharers, "dirty line must have no sharers"
        # Immediate re-access hits.
        assert cache.access(0, pid, line, is_write, home) == COSTS.cache_hit


@settings(max_examples=100, deadline=None)
@given(
    readers=st.lists(st.integers(0, 7), min_size=1, max_size=12),
    home=st.integers(0, 7),
)
def test_read_sharing_accumulates_sharers(readers, home):
    config = MachineConfig(total_processors=8, cluster_size=8)
    cache = CacheSystem(config, COSTS)
    for pid in readers:
        cache.access(0, pid, 0, False, home)
    owner, mask = cache._lines[0][0]
    assert owner == -1
    assert mask == sum(1 << pid for pid in set(readers))


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=30))
def test_flush_resets_everything(ops):
    config = MachineConfig(total_processors=4, cluster_size=4)
    cache = CacheSystem(config, COSTS)
    for pid, is_write in ops:
        cache.access(0, pid, 7, is_write, 0)
    cache.flush_page(0, 0)
    assert cache.lines_cached(0) == 0


# ---------------------------------------------------------------------------
# differential: the sharer-mask directory against a sharer-set reference
# ---------------------------------------------------------------------------

_HIT, _LOCAL, _REMOTE, _TWO, _THREE, _SOFT = range(len(_CLASSES))


class _SetDirectory:
    """Reference Table 3 classifier keeping each line's sharers as a set,
    as the directory did before it stored bitmasks."""

    def __init__(self, config: MachineConfig) -> None:
        self.hw_ptrs = config.hw_dir_pointers
        self.lines = [{} for _ in range(config.num_clusters)]
        self.counts = [0] * len(_CLASSES)

    def hit(self, cluster, pid, line, is_write):
        state = self.lines[cluster].get(line)
        if state is None:
            return False
        owner, sharers = state
        return owner == pid or (
            not is_write and owner == -1 and pid in sharers
        )

    def access(self, cluster, pid, line, is_write, home_pid):
        i = self._classify(cluster, pid, line, is_write, home_pid)
        self.counts[i] += 1
        return i

    def _classify(self, cluster, pid, line, is_write, home_pid):
        state = self.lines[cluster].setdefault(line, [-1, set()])
        owner, sharers = state
        if is_write:
            if owner == pid:
                return _HIT
            if owner != -1:
                klass = _TWO if home_pid in (pid, owner) else _THREE
            elif len(sharers) > self.hw_ptrs:
                klass = _SOFT
            else:
                others = sharers - {pid}
                if not others:
                    klass = _LOCAL if home_pid == pid else _REMOTE
                elif len(others) > 1:
                    klass = _THREE
                elif home_pid == pid:
                    klass = _TWO
                else:
                    klass = _TWO if home_pid == min(others) else _THREE
            state[0], state[1] = pid, set()
            return klass
        if owner == pid or (owner == -1 and pid in sharers):
            return _HIT
        if owner != -1:
            klass = _TWO if home_pid in (pid, owner) else _THREE
            state[0], state[1] = -1, {pid, owner}
            return klass
        klass = _SOFT if len(sharers) > self.hw_ptrs else None
        sharers.add(pid)
        if klass is None:
            klass = _LOCAL if home_pid == pid else _REMOTE
        return klass

    def state(self):
        out = []
        for directory in self.lines:
            rows = [
                (line, owner, sum(1 << p for p in sharers))
                for line, (owner, sharers) in directory.items()
            ]
            rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
            out.append(array_digest(rows[rows[:, 0].argsort()]))
        return tuple(out)


@st.composite
def sharing_traces(draw):
    """Traces on a few hot lines with up to 8 readers per line, so the
    5-pointer LimitLESS boundary is crossed in both directions."""
    nprocs = draw(st.sampled_from([4, 8]))
    clusters = draw(st.sampled_from([1, 2]))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, clusters - 1),  # cluster
                st.integers(0, nprocs - 1),  # pid
                st.integers(0, 3),  # line
                st.integers(0, 3).map(lambda k: k == 0),  # mostly loads
                st.integers(0, nprocs - 1),  # home pid
            ),
            min_size=1,
            max_size=80,
        )
    )
    return nprocs, clusters, ops


#: eight readers overflow the five pointers, then writes upgrade lines
#: with one other sharer: at the issuer's home, at the sharer's home
#: (pid 0 included, the lowest bit) and at a third node
_BOUNDARY_TRACE = (
    8,
    1,
    [(0, p, 0, False, 0) for p in range(8)]
    + [(0, 3, 0, True, 0), (0, 5, 0, False, 2)]
    + [(0, p, 1, False, 7) for p in range(6)]
    + [(0, 7, 1, True, 7)]
    + [(0, 0, 2, False, 0), (0, 1, 2, True, 1)]
    + [(0, 0, 3, False, 0), (0, 2, 3, True, 0)]
    + [(0, 4, 2, False, 4), (0, 2, 2, True, 6)]
)


@settings(max_examples=200, deadline=None)
@given(trace=sharing_traces())
@example(trace=_BOUNDARY_TRACE)
def test_mask_directory_matches_set_reference(trace):
    """The mask directory charges every access the class the set-based
    classifier charges, and ends in the same ``state()`` digest."""
    nprocs, clusters, ops = trace
    config = MachineConfig(
        total_processors=nprocs * clusters, cluster_size=nprocs
    )
    cache = CacheSystem(config, COSTS)
    ref = _SetDirectory(config)
    cost_of = cache._cost_of
    for cluster, local_pid, line, is_write, home in ops:
        pid = cluster * nprocs + local_pid
        home_pid = cluster * nprocs + home
        expect_hit = ref.hit(cluster, pid, line, is_write)
        expected = cost_of[ref.access(cluster, pid, line, is_write, home_pid)]
        cost = cache.access(cluster, pid, line, is_write, home_pid)
        assert cost == expected
        assert (cost == COSTS.cache_hit) == expect_hit
    assert cache._counts == ref.counts
    assert cache.state() == ref.state()


@settings(max_examples=200, deadline=None)
@given(
    trace=sharing_traces(),
    ptrs=st.sampled_from([0, 1, 5]),
    inline_hit=st.booleans(),
)
@example(trace=_BOUNDARY_TRACE, ptrs=0, inline_hit=True)
@example(trace=_BOUNDARY_TRACE, ptrs=1, inline_hit=False)
@example(trace=_BOUNDARY_TRACE, ptrs=5, inline_hit=True)
def test_probed_access_matches_set_reference(trace, ptrs, inline_hit):
    """``access`` given the entry its caller probed charges what the
    set-based classifier charges.  With ``inline_hit`` the caller takes
    hits itself and passes only misses, as ``Env`` does; without it
    every access goes through ``access`` with its probed entry."""
    nprocs, clusters, ops = trace
    config = MachineConfig(
        total_processors=nprocs * clusters,
        cluster_size=nprocs,
        hw_dir_pointers=ptrs,
    )
    cache = CacheSystem(config, COSTS)
    ref = _SetDirectory(config)
    cost_of = cache._cost_of
    for cluster, local_pid, line, is_write, home in ops:
        pid = cluster * nprocs + local_pid
        home_pid = cluster * nprocs + home
        expected = cost_of[ref.access(cluster, pid, line, is_write, home_pid)]
        state = cache._lines[cluster].get(line)
        if inline_hit and state is not None and (
            state[0] == pid
            or not is_write and state[0] == -1 and state[1] >> pid & 1
        ):
            cache._counts[0] += 1
            cost = cache.hit_cost
        else:
            cost = cache.access(cluster, pid, line, is_write, home_pid, state)
        assert cost == expected
    assert cache._counts == ref.counts
    assert cache.state() == ref.state()
    for c in range(clusters):
        index = sorted(line for lines in cache._pages[c].values() for line in lines)
        assert index == sorted(cache._lines[c])


# ---------------------------------------------------------------------------
# differential: page cleaning through the page index against the
# full-range flush that probed every line of the page
# ---------------------------------------------------------------------------

#: 8 lines per page, so four pages span the traced lines
_SMALL_PAGES = dict(page_size=128, line_size=16)


class _PopLog(dict):
    """A line directory recording every line ``pop`` is asked for."""

    def __init__(self) -> None:
        super().__init__()
        self.popped: list[int] = []

    def pop(self, line, *default):
        self.popped.append(line)
        return super().pop(line, *default)


def _full_range_flush(cache: CacheSystem, cluster: int, vpn: int) -> None:
    """Page cleaning as it was before the page index: probe every line."""
    lines = cache.config.lines_per_page
    pop = cache._lines[cluster].pop
    for line in range(vpn * lines, (vpn + 1) * lines):
        pop(line, None)


def _index_of(directory: dict, lines_per_page: int) -> dict:
    """The page -> sorted lines index a directory's entries imply."""
    pages: dict[int, list[int]] = {}
    for line in sorted(directory):
        pages.setdefault(line // lines_per_page, []).append(line)
    return pages


@st.composite
def cleaning_traces(draw):
    """Accesses, runs of accesses to consecutive lines (as a block
    walk makes) and page flushes over four pages in two clusters."""
    nprocs = draw(st.sampled_from([2, 4]))
    access = st.tuples(
        st.just("access"),
        st.integers(0, 1),  # cluster
        st.integers(0, nprocs - 1),  # pid
        st.integers(0, 31),  # line
        st.booleans(),  # is_write
        st.integers(0, nprocs - 1),  # home pid
    )
    run = st.tuples(
        st.just("run"),
        st.integers(0, 1),
        st.integers(0, nprocs - 1),
        st.integers(0, 31),  # first line
        st.booleans(),
        st.integers(0, nprocs - 1),
        st.integers(1, 12),  # lines offered
    )
    flush = st.tuples(st.just("flush"), st.integers(0, 1), st.integers(0, 3))
    ops = draw(st.lists(st.one_of(access, run, flush), min_size=1, max_size=80))
    return nprocs, ops


@settings(max_examples=200, deadline=None)
@given(trace=cleaning_traces())
def test_indexed_flush_matches_full_range_flush(trace):
    """Directories, class counts and ``state()`` digests match a cache
    cleaned by probing every line; the index always lists exactly the
    cached lines, and a flush pops only those."""
    nprocs, ops = trace
    config = MachineConfig(
        total_processors=2 * nprocs, cluster_size=nprocs, **_SMALL_PAGES
    )
    lines_per_page = config.lines_per_page
    cache = CacheSystem(config, COSTS)
    ref = CacheSystem(config, COSTS)
    cache._lines = [_PopLog() for _ in range(config.num_clusters)]
    for op in ops:
        kind, cluster = op[0], op[1]
        if kind == "flush":
            vpn = op[2]
            directory = cache._lines[cluster]
            cached = sorted(
                line for line in directory if line // lines_per_page == vpn
            )
            directory.popped.clear()
            cache.flush_page(cluster, vpn)
            assert sorted(directory.popped) == cached
            _full_range_flush(ref, cluster, vpn)
        else:
            local_pid, line, is_write, home = op[2:6]
            pid = cluster * nprocs + local_pid
            home_pid = cluster * nprocs + home
            for c in (cache, ref):
                for k in range(1 if kind == "access" else op[6]):
                    c.access(cluster, pid, line + k, is_write, home_pid)
        for c in range(config.num_clusters):
            assert cache._lines[c] == ref._lines[c]
            index = {page: sorted(lines) for page, lines in cache._pages[c].items()}
            assert index == _index_of(cache._lines[c], lines_per_page)
    assert cache._counts == ref._counts
    assert cache.state() == ref.state()
