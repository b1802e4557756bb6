"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.events import Event, Simulation, drain
from repro.ecc.crc import append_checksum, crc32c, verify_checksum
from repro.ecc.durability import binomial_tail
from repro.ecc.gf256 import gf_div, gf_inv, gf_mul, gf_pow
from repro.ecc.network_coding import NetworkGroup
from repro.media.geometry import PlatterGeometry, SectorAddress
from repro.media.voxel import (
    VoxelConstellation,
    bits_to_symbols,
    bytes_to_symbols,
    symbols_to_bits,
    symbols_to_bytes,
)
from repro.workload.traces import IngressSeries, ReadRequest, ReadTrace


field_elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


class TestFieldProperties:
    @given(field_elements, field_elements)
    def test_multiplication_commutes(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(field_elements, field_elements, field_elements)
    def test_multiplication_associates(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(field_elements, field_elements, field_elements)
    def test_distributes_over_xor(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(nonzero_elements)
    def test_inverse_cancels(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(field_elements, nonzero_elements)
    def test_div_inverts_mul(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a

    @given(nonzero_elements, st.integers(min_value=0, max_value=50))
    def test_pow_is_repeated_mul(self, a, n):
        acc = 1
        for _ in range(n):
            acc = gf_mul(acc, a)
        assert gf_pow(a, n) == acc


class TestCrcProperties:
    @given(st.binary(max_size=200))
    def test_frame_roundtrip(self, payload):
        ok, recovered = verify_checksum(append_checksum(payload))
        assert ok and recovered == payload

    @given(st.binary(min_size=1, max_size=100), st.data())
    def test_bit_flip_detected(self, payload, data):
        frame = bytearray(append_checksum(payload))
        index = data.draw(st.integers(0, len(frame) - 1))
        bit = data.draw(st.integers(0, 7))
        frame[index] ^= 1 << bit
        ok, _ = verify_checksum(bytes(frame))
        assert not ok

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_incremental_matches_whole(self, a, b):
        # CRC with `initial` continues a previous computation.
        whole = crc32c(a + b)
        incremental = crc32c(b, initial=crc32c(a))
        assert whole == incremental


class TestNetworkCodingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=32),
        st.randoms(use_true_random=False),
    )
    def test_any_i_subset_recovers(self, information, redundancy, width, random):
        group = NetworkGroup(information, redundancy)
        rng = np.random.default_rng(random.randint(0, 2**31))
        sectors = [
            rng.integers(0, 256, width, dtype=np.uint8).tobytes()
            for _ in range(information)
        ]
        parity = group.encode(sectors)
        everything = {i: s for i, s in enumerate(sectors)}
        everything.update({information + j: p for j, p in enumerate(parity)})
        keep = sorted(
            random.sample(range(information + redundancy), information)
        )
        available = {i: everything[i] for i in keep}
        recovered = group.recover(available, wanted=range(information))
        for i in range(information):
            assert recovered[i] == sectors[i]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=4))
    def test_encode_deterministic(self, information, redundancy):
        rng = np.random.default_rng(0)
        sectors = [
            rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
            for _ in range(information)
        ]
        a = NetworkGroup(information, redundancy).encode(sectors)
        b = NetworkGroup(information, redundancy).encode(sectors)
        assert a == b


class TestVoxelProperties:
    @given(st.binary(min_size=1, max_size=128), st.integers(min_value=1, max_value=4))
    def test_bytes_symbols_roundtrip(self, data, bits_per_voxel):
        symbols = bytes_to_symbols(data, bits_per_voxel)
        assert symbols_to_bytes(symbols, len(data), bits_per_voxel) == data

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=4),
    )
    def test_bits_symbols_roundtrip(self, bits, bits_per_voxel):
        array = np.array(bits, dtype=np.uint8)
        symbols = bits_to_symbols(array, bits_per_voxel)
        recovered = symbols_to_bits(symbols, bits_per_voxel)[: len(bits)]
        assert (recovered == array).all()

    @given(st.integers(min_value=1, max_value=4))
    def test_symbols_within_constellation(self, bits_per_voxel):
        data = bytes(range(64))
        symbols = bytes_to_symbols(data, bits_per_voxel)
        assert symbols.max() < (1 << bits_per_voxel)

    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_hard_decision_inverts_modulation(self, bits_per_voxel, data):
        constellation = VoxelConstellation(bits_per_voxel=bits_per_voxel)
        symbols = np.array(
            data.draw(
                st.lists(
                    st.integers(0, constellation.num_symbols - 1),
                    min_size=1,
                    max_size=50,
                )
            )
        )
        observations = constellation.ideal_observations(symbols)
        assert (constellation.nearest_symbol(observations) == symbols).all()


class TestGeometryProperties:
    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    def test_serpentine_is_a_permutation(self, tracks, layers):
        geometry = PlatterGeometry(
            tracks=tracks, layers=layers, voxels_per_sector=10, sector_payload_bytes=1
        )
        order = list(geometry.serpentine_order())
        assert len(order) == tracks * layers
        assert len(set(order)) == tracks * layers

    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.data(),
    )
    def test_index_bijection(self, tracks, layers, data):
        geometry = PlatterGeometry(
            tracks=tracks, layers=layers, voxels_per_sector=10, sector_payload_bytes=1
        )
        index = data.draw(st.integers(0, geometry.total_sectors - 1))
        assert geometry.sector_index(geometry.address_of(index)) == index


class TestSimulationEngineProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulation()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        drain(sim)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_run_until_never_overshoots(self, delays, until):
        sim = Simulation()
        for delay in delays:
            sim.schedule(delay, lambda: None)
        sim.run(until=until)
        fired_after = [d for d in delays if d <= until]
        assert sim.events_processed == len(fired_after)


#: One step of a randomized scheduler program. ``schedule`` delays are
#: drawn from a small palette with repeats so equal timestamps (the
#: tie-order case) arise constantly; the 1e5 outlier puts far-future
#: entries behind every ``run(until)`` horizon.
_scheduler_ops = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0, 40.0, 1e5]),
        st.sampled_from([None, "child", "cancel-next"]),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=100)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 1.0, 5.0, 250.0])),
)


class SortedListEngine:
    """Reference event engine: a plain list, sorted on every dequeue.

    The executable spec of :class:`repro.core.events.Simulation`'s order:
    each dequeue takes the minimum ``(time, seq)`` entry that is not
    cancelled, discarding (and counting) the cancelled entries ahead of
    it. ``run(until)`` dequeues the next entry and puts it back when it
    lies past the horizon; that probe counts as a pop, as it does in the
    engine. Samples due at or before an event fire before it, and the
    tail up to ``until`` is sampled before the clock is pinned there.
    """

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.observer = None
        self.scheduler_stats = {"pushes": 0, "pops": 0, "cancelled_skips": 0}
        self._entries = []
        self._seq = 0
        self._sampler = None

    def schedule(self, delay, callback, label=""):
        event = Event(self.now + delay, self._seq, callback, label)
        self._seq += 1
        self._entries.append(event)
        self.scheduler_stats["pushes"] += 1
        return event

    def set_sampler(self, interval, callback):
        self._sampler = [self.now + interval, callback]

    def _pop(self):
        self._entries.sort(key=lambda event: (event.time, event.seq))
        while self._entries:
            event = self._entries.pop(0)
            if event.cancelled:
                self.scheduler_stats["cancelled_skips"] += 1
                continue
            self.scheduler_stats["pops"] += 1
            return event
        return None

    def _sample_through(self, limit):
        while self._sampler is not None and self._sampler[0] <= limit:
            due, callback = self._sampler
            self.now = max(self.now, due)
            interval = callback(due)
            self._sampler = None if interval is None else [due + interval, callback]

    def run(self, until=None):
        while True:
            event = self._pop()
            if event is None:
                break
            if until is not None and event.time > until:
                self._entries.append(event)
                break
            self._sample_through(event.time)
            self.now = event.time
            self.events_processed += 1
            event.callback()
            if self.observer is not None:
                self.observer(event.label, 0.0)
        if until is not None and self.now < until:
            self._sample_through(until)
            self.now = until


class TestSchedulerBackendEquivalence:
    """The heap engine must replay any schedule/cancel/run interleaving
    exactly as the :class:`SortedListEngine` reference does: same fire
    order, same clock, same sampler ticks and observer labels, same
    push/pop/cancelled-skip counters — with and without an observer,
    which selects between the engine's two run loops."""

    @staticmethod
    def _execute(program, sim, observe=True):
        """Run ``program`` on ``sim``; return every observable."""
        log = []
        samples = []
        observed = []
        handles = []
        if observe:
            sim.observer = lambda label, wall: observed.append(label)
        sim.set_sampler(3.0, lambda ts: (samples.append(ts), 3.0)[1])

        def make_callback(uid, action):
            """A callback that logs, then optionally schedules or cancels."""

            def fire():
                log.append((sim.now, uid))
                if action == "child":
                    handles.append(
                        sim.schedule(
                            1.0, make_callback(uid + ".c", None), label="child"
                        )
                    )
                elif action == "cancel-next":
                    # Mid-run cancellation of the earliest still-pending
                    # handle: exercises lazy-deletion skips at matching
                    # points in the run.
                    for handle in handles:
                        if not handle.cancelled and handle.time >= sim.now:
                            handle.cancel()
                            break

            return fire

        for i, op in enumerate(program):
            if op[0] == "schedule":
                handles.append(
                    sim.schedule(
                        op[1], make_callback(str(i), op[2]), label=f"op{i}"
                    )
                )
            elif op[0] == "cancel":
                if handles:
                    handles[op[1] % len(handles)].cancel()
            else:  # run
                sim.run(until=sim.now + op[1])
                # Events fired by each horizon, not just in total: an
                # event exactly at ``until`` must fire inside that run.
                log.append(("run", sim.now, sim.events_processed))
        sim.run()
        return log, samples, observed, sim.now, sim.events_processed, sim.scheduler_stats

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_scheduler_ops, min_size=1, max_size=40))
    def test_backends_replay_identically(self, program):
        reference = self._execute(program, SortedListEngine())
        # Fire order, sampler ticks, observer labels, clock, event count
        # and the push/pop/cancelled-skip counters.
        assert self._execute(program, Simulation()) == reference
        unobserved = self._execute(program, Simulation(), observe=False)
        assert unobserved[2] == []
        assert unobserved[:2] + unobserved[3:] == reference[:2] + reference[3:]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_scheduler_ops, min_size=1, max_size=25))
    def test_peek_matches_next_fire(self, program):
        """``peek`` is exactly the next fired time."""
        sim = Simulation()
        for i, op in enumerate(program):
            if op[0] == "schedule":
                sim.schedule(op[1], lambda: None)
        fired = []
        while True:
            head = sim.peek()
            if head is None:
                break
            before = sim.events_processed
            assert sim.step()
            assert sim.now == head
            assert sim.events_processed == before + 1
            fired.append(head)
        assert fired == sorted(fired)


class TestWorkloadProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.integers(min_value=1, max_value=10**12),
            ),
            min_size=1,
            max_size=100,
        )
    )
    def test_trace_window_partition(self, raw):
        trace = ReadTrace(
            [ReadRequest(t, f"f{i}", s) for i, (t, s) in enumerate(raw)]
        )
        mid = 5e5
        left = trace.window(0, mid)
        right = trace.window(mid, 2e6)
        assert len(left) + len(right) == len(trace)
        assert left.total_bytes + right.total_bytes == trace.total_bytes

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=90),
        st.data(),
    )
    def test_peak_over_mean_at_least_one(self, volumes, data):
        series = IngressSeries(np.array(volumes), np.ones(len(volumes)))
        window = data.draw(st.integers(1, len(volumes)))
        assert series.peak_over_mean(window) >= 1.0 - 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=40, max_size=90))
    def test_smoothing_monotone_at_extremes(self, volumes):
        """The full-series window always has ratio 1; the 1-day window is
        maximal among all windows' ... at least as large as the full one."""
        series = IngressSeries(np.array(volumes), np.ones(len(volumes)))
        assert series.peak_over_mean(1) >= series.peak_over_mean(series.num_days) - 1e-9
        assert series.peak_over_mean(series.num_days) == pytest.approx(1.0)


class TestDurabilityProperties:
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=301),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_tail_is_a_probability(self, n, k, p):
        tail = binomial_tail(n, k, p)
        assert 0.0 <= tail <= 1.0 + 1e-12

    @given(
        st.integers(min_value=2, max_value=100),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.001, max_value=0.5),
    )
    def test_tail_monotone_in_threshold(self, n, k, p):
        assert binomial_tail(n, k, p) >= binomial_tail(n, k + 1, p) - 1e-12


class TestDeploymentPlacerProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(
            st.integers(min_value=1, max_value=19), min_size=1, max_size=6
        ),
        st.randoms(use_true_random=False),
    )
    def test_blast_zone_invariant_always_holds(self, num_libraries, set_sizes, random):
        """No two platters of any set ever share a blast zone, for any
        library count and any mix of set sizes that fits."""
        from repro.layout.deployment import DeploymentPlacer, PlacementError
        from repro.library.layout import LibraryConfig, LibraryLayout

        placer = DeploymentPlacer(
            [LibraryLayout(LibraryConfig()) for _ in range(num_libraries)]
        )
        sets = {}
        for index, size in enumerate(set_sizes):
            set_id = f"set{index}"
            platters = [f"S{index}P{i}" for i in range(size)]
            try:
                placer.place_set(set_id, platters)
            except PlacementError:
                continue  # ran out of disjoint zones: acceptable refusal
            sets[set_id] = platters
        assert placer.verify_invariant(sets)


class TestPackerProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=900),
                st.sampled_from(["a", "b", "c"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_every_byte_packed_exactly_once(self, files):
        """Conservation: packing never loses or duplicates bytes."""
        from repro.layout.packing import FilePacker, PackingConfig, StagedFile

        packer = FilePacker(
            PackingConfig(platter_capacity_bytes=1000, shard_threshold_bytes=400)
        )
        staged = [
            StagedFile(f"f{i}", size, account, float(i))
            for i, (size, account) in enumerate(files)
        ]
        plans = packer.pack(staged)
        packed_bytes = sum(p.used_bytes for p in plans)
        assert packed_bytes == sum(f.size_bytes for f in staged)
        for plan in plans:
            assert plan.used_bytes <= plan.capacity_bytes
