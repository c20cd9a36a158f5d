"""Property tests: fetch engine and warp launchers."""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import int_op
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.frontend import (
    FetchEngine,
    MultiKernelLauncher,
    WarpContext,
    WarpLauncher,
)


def make_kernel(name: str, lengths):
    warps = tuple(
        WarpTrace(i, tuple(int_op(dest=j % 8) for j in range(n)))
        for i, n in enumerate(lengths))
    return KernelTrace(name=name, warps=warps, max_resident_warps=48)


warp_lengths = st.lists(st.integers(min_value=1, max_value=12),
                        min_size=1, max_size=10)


@given(lengths=warp_lengths,
       fetch_width=st.integers(min_value=1, max_value=8),
       buffer_size=st.integers(min_value=1, max_value=4),
       n_slots=st.integers(min_value=1, max_value=10))
@settings(max_examples=150, deadline=None)
def test_fetch_delivers_every_instruction_exactly_once(
        lengths, fetch_width, buffer_size, n_slots):
    kernel = make_kernel("k", lengths)
    warps = [WarpContext(i) for i in range(n_slots)]
    launcher = WarpLauncher(kernel, max_resident=n_slots)
    fetch = FetchEngine(fetch_width, buffer_size)
    delivered = 0
    for _ in range(5000):
        # Consume buffered heads (simulating perfect issue) and recycle
        # finished warps.
        for warp in warps:
            while warp.ibuffer:
                warp.pop_head()
                delivered += 1
            if warp.occupied and warp.trace_exhausted:
                warp.release()
        launcher.launch_into(warps)
        fetched = fetch.tick(warps)
        if (launcher.remaining == 0 and fetched == 0
                and all(not w.ibuffer for w in warps)
                and all(not w.occupied or w.trace_exhausted
                        for w in warps)):
            for warp in warps:
                while warp.ibuffer:
                    warp.pop_head()
                    delivered += 1
            break
    assert delivered == kernel.total_instructions


@given(lengths=warp_lengths,
       fetch_width=st.integers(min_value=1, max_value=8),
       buffer_size=st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_buffers_never_exceed_capacity(lengths, fetch_width, buffer_size):
    kernel = make_kernel("k", lengths)
    warps = [WarpContext(i) for i in range(len(lengths))]
    WarpLauncher(kernel, max_resident=len(lengths)).launch_into(warps)
    fetch = FetchEngine(fetch_width, buffer_size)
    for _ in range(50):
        fetched = fetch.tick(warps)
        assert fetched <= fetch_width
        for warp in warps:
            assert len(warp.ibuffer) <= buffer_size


@given(groups=st.lists(warp_lengths, min_size=1, max_size=4),
       gap=st.integers(min_value=0, max_value=30))
@settings(max_examples=100, deadline=None)
def test_multikernel_launches_in_program_order(groups, gap):
    kernels = [make_kernel(f"k{i}", lengths)
               for i, lengths in enumerate(groups)]
    launcher = MultiKernelLauncher(kernels, max_resident=48,
                                   gap_cycles=gap)
    launched = []
    cycle = 0
    resident = 0
    for _ in range(5000):
        trace = launcher.pop_next(cycle, resident)
        if trace is not None:
            launched.append((launcher.current_kernel_index,
                             trace.warp_id))
            resident += 1
        else:
            # Model instant completion of everything resident.
            resident = 0
            cycle += 1
        if launcher.remaining == 0:
            break
    # Every warp of every kernel launched, kernels in order.
    expected = [(i, w.warp_id) for i, k in enumerate(kernels)
                for w in k.warps]
    assert launched == expected


class ScanFetch:
    """Oracle: the full-slot round-robin scan the needy mask replaced.

    Visits every slot from the round-robin pointer each cycle and skips
    the ones with no trace left or no buffer room — the reference the
    mask-driven :meth:`FetchEngine.tick` must match tick for tick.
    """

    def __init__(self, fetch_width, ibuffer_entries):
        self.fetch_width = fetch_width
        self.ibuffer_entries = ibuffer_entries
        self._rr_start = 0

    def tick(self, warps):
        n = len(warps)
        if n == 0:
            return 0
        fetched = 0
        i = self._rr_start
        self._rr_start = (i + 1) % n
        for _ in range(n):
            warp = warps[i]
            i = (i + 1) % n
            room = warp.trace_len - warp.fetch_pc
            free = self.ibuffer_entries - len(warp.ibuffer)
            if room <= 0 or free <= 0:
                continue
            take = min(self.fetch_width - fetched, free, room)
            for k in range(warp.fetch_pc, warp.fetch_pc + take):
                warp.ibuffer.append(warp.trace[k])
            warp.fetch_pc += take
            fetched += take
            if fetched >= self.fetch_width:
                break
        return fetched


def exact_needy_mask(warps, ibuffer_entries):
    return sum(1 << i for i, w in enumerate(warps)
               if w.fetch_pc < w.trace_len
               and len(w.ibuffer) < ibuffer_entries)


@st.composite
def front_end_scripts(draw):
    n_slots = draw(st.integers(min_value=1, max_value=48))
    # Half the examples are sparse parts: 1-3 live warps in up to 48
    # slots, the shape a 15-SM device split leaves each SM.
    max_live = draw(st.one_of(
        st.integers(min_value=1, max_value=min(3, n_slots)),
        st.integers(min_value=1, max_value=n_slots)))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(("assign", "pop", "release", "tick",
                                   "tick")),
                  st.integers(min_value=0, max_value=47),
                  st.integers(min_value=0, max_value=12)),
        max_size=200))
    return n_slots, max_live, ops


@given(script=front_end_scripts(),
       fetch_width=st.integers(min_value=1, max_value=8),
       buffer_size=st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_mask_driven_tick_matches_full_slot_scan(script, fetch_width,
                                                  buffer_size):
    n_slots, max_live, ops = script
    masked = [WarpContext(i) for i in range(n_slots)]
    scanned = [WarpContext(i) for i in range(n_slots)]
    fetch = FetchEngine(fetch_width, buffer_size)
    oracle = ScanFetch(fetch_width, buffer_size)
    next_id = 0
    for kind, pick, length in ops:
        slot = pick % n_slots
        if kind == "assign":
            live = sum(w.occupied for w in masked)
            free = [i for i in range(n_slots) if not masked[i].occupied]
            if live >= max_live or not free:
                continue
            slot = min(free, key=lambda i: (i - slot) % n_slots)
            trace = WarpTrace(next_id, tuple(int_op(dest=j % 8)
                                             for j in range(length)))
            next_id += 1
            masked[slot].assign(trace)
            scanned[slot].assign(trace)
        elif kind == "pop":
            if not masked[slot].ibuffer:
                continue
            assert masked[slot].pop_head() is scanned[slot].pop_head()
        elif kind == "release":
            if not masked[slot].occupied:
                continue
            masked[slot].release()
            scanned[slot].release()
        else:
            assert fetch.tick(masked) == oracle.tick(scanned)
            assert fetch._rr_start == oracle._rr_start
            assert [list(w.ibuffer) for w in masked] == \
                [list(w.ibuffer) for w in scanned]
            assert [w.fetch_pc for w in masked] == \
                [w.fetch_pc for w in scanned]
        if fetch._warps is masked:
            assert fetch.needy == exact_needy_mask(masked, buffer_size)
