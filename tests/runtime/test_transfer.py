"""Tests for the KV-transfer stream and transfer pricing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.config import llama3_405b_config
from repro.perf.hardware import gtt_host
from repro.perf.latency import LatencySimulator
from repro.runtime.clock import SimulatedStepClock, UnitStepClock
from repro.runtime.transfer import KVTransferStream


class TestTransferPricing:
    def test_unit_clock_fixed_cost(self):
        c = UnitStepClock(transfer_cost=2.5)
        assert c.price_transfer(1) == 2.5
        assert c.price_transfer(10_000) == 2.5

    def test_unit_clock_zero_tokens_free(self):
        assert UnitStepClock().price_transfer(0) == 0.0

    def test_unit_clock_validation(self):
        with pytest.raises(ValueError):
            UnitStepClock(transfer_cost=-1.0)
        with pytest.raises(ValueError):
            UnitStepClock().price_transfer(-1)

    def test_simulated_clock_bandwidth_model(self):
        sim = LatencySimulator(llama3_405b_config(), gtt_host())
        clock = SimulatedStepClock(sim, n_ranks=4)
        tokens = 131072
        want = tokens * sim.config.kv_bytes_per_token() / sim.host.ring_bandwidth
        assert clock.price_transfer(tokens) == pytest.approx(want)
        assert clock.price_transfer(0) == 0.0
        # linear in payload
        assert clock.price_transfer(2 * tokens) == pytest.approx(2 * clock.price_transfer(tokens))

    def test_simulated_clock_tp_decode_pricing(self):
        sim = LatencySimulator(llama3_405b_config(), gtt_host())
        cp = SimulatedStepClock(sim, n_ranks=4)
        tp = SimulatedStepClock(sim, n_ranks=4, tp_decode=True)
        ctx = [131072]
        assert tp.price_decode(ctx) == pytest.approx(sim.tp_decode(131072, batch=1, n_nodes=1).total)
        # the dedicated decode host avoids the CP decode regression
        assert tp.price_decode(ctx) < cp.price_decode(ctx)


class TestKVTransferStream:
    def make(self, cost=2.0):
        return KVTransferStream(UnitStepClock(transfer_cost=cost))

    def test_schedule_and_ready(self):
        s = self.make()
        t = s.schedule(seq_id=0, request_id=10, tokens=16, now=1.0)
        assert (t.start, t.finish) == (1.0, 3.0)
        assert s.ready(2.9) == []
        assert s.ready(3.0) == [t]
        s.complete(t)
        assert s.in_flight() == []

    def test_channel_serializes(self):
        """A transfer scheduled while the wire is busy queues behind it."""
        s = self.make(cost=5.0)
        a = s.schedule(0, 1, 8, now=0.0)
        b = s.schedule(1, 2, 8, now=1.0)  # wire busy until 5.0
        assert a.finish == 5.0
        assert (b.start, b.finish) == (5.0, 10.0)
        assert s.busy_until == 10.0
        assert s.busy_s == 10.0

    def test_zero_token_transfer(self):
        """An up-to-date destination yields a legal zero-length transfer."""
        s = self.make()
        t = s.schedule(0, 1, 0, now=4.0)
        assert t.finish == 4.0
        assert s.ready(4.0) == [t]
        s.complete(t)
        assert s.in_flight() == []
        assert s.busy_s == 0.0

    def test_cancel_after_finish_sinks_everything(self):
        """A payload already fully streamed refunds nothing."""
        s = self.make(cost=3.0)
        s.schedule(0, 1, 8, now=0.0)
        cancelled = s.cancel(0, now=3.0)
        assert cancelled is not None and cancelled.seq_id == 0
        assert cancelled.refunded_s == 0.0 and cancelled.sunk_s == 3.0
        assert s.in_flight() == []
        assert s.busy_s == 3.0
        # the channel reservation stands: a later transfer queues behind
        assert s.schedule(1, 2, 8, now=0.0).start == 3.0

    def test_cancel_mid_stream_refunds_unstreamed_tail(self):
        """A mid-stream cancel sinks only the seconds already streamed."""
        s = self.make(cost=4.0)
        s.schedule(0, 1, 8, now=0.0)
        cancelled = s.cancel(0, now=1.5)
        assert cancelled.refunded_s == pytest.approx(2.5)
        assert cancelled.sunk_s == pytest.approx(1.5)
        assert s.busy_s == pytest.approx(1.5)
        # the wire frees at the cancel instant, not the phantom finish
        assert s.schedule(1, 2, 8, now=1.5).start == 1.5

    def test_cancel_queued_refunds_fully_and_unblocks_successors(self):
        """Regression: a transfer cancelled while still queued used to
        leave ``busy_until`` at its phantom finish, delaying every later
        transfer; now the reservation refunds and successors re-pack."""
        s = self.make(cost=3.0)
        a = s.schedule(0, 1, 8, now=0.0)   # streams [0, 3)
        b = s.schedule(1, 2, 8, now=0.5)   # queued  [3, 6)
        c = s.schedule(2, 3, 8, now=1.0)   # queued  [6, 9)
        cancelled = s.cancel(1, now=2.0)   # b never started
        assert cancelled.refunded_s == pytest.approx(3.0)
        assert cancelled.sunk_s == 0.0
        assert s.busy_s == pytest.approx(6.0)
        # a untouched, c takes b's slot
        assert (a.start, a.finish) == (0.0, 3.0)
        assert (c.start, c.finish) == (3.0, 6.0)
        assert s.busy_until == 6.0
        # and the wire frees for new work at 6.0, not 9.0
        assert s.schedule(3, 4, 8, now=2.0).start == 6.0

    def test_cancel_repack_respects_requested_times(self):
        """A successor never re-packs earlier than its own request."""
        s = self.make(cost=2.0)
        s.schedule(0, 1, 8, now=0.0)       # streams [0, 2)
        b = s.schedule(1, 2, 8, now=1.0)   # queued  [2, 4)
        c = s.schedule(2, 3, 8, now=5.0)   # queued  [5, 7)
        s.cancel(1, now=1.5)               # b cancelled while queued
        assert (c.start, c.finish) == (5.0, 7.0)
        assert s.busy_until == 7.0

    def test_cancel_unknown_is_noop(self):
        s = self.make()
        assert s.cancel(7, now=0.0) is None

    def test_cancel_extended_transfer_never_refunds_gap_time(self):
        """An extended payload's [start, finish] spans the idle gap
        before the extension re-entered the wire; the refund must cover
        only wire segments still ahead of the cancel, not the gap."""
        s = self.make(cost=10.0)
        t = s.schedule(0, 1, 8, now=0.0)        # streams [0, 10)
        s.extend(t, 4, now=20.0)                # re-enters wire [20, 30)
        assert t.wire_s == 20.0
        cancelled = s.cancel(0, now=12.0)       # first segment fully streamed
        assert cancelled.refunded_s == pytest.approx(10.0)  # only the extension
        assert cancelled.sunk_s == pytest.approx(10.0)      # the streamed delta
        assert s.busy_s == pytest.approx(10.0)

    def test_repack_never_reuses_completed_wire_time(self):
        """Slots physically consumed by already-landed transfers stay
        consumed: a cancel-triggered repack must not move a queued
        successor into them."""
        s = self.make(cost=5.0)
        refused = s.schedule(0, 1, 8, now=0.0)   # streams [0, 5), lands but is refused
        landed = s.schedule(1, 2, 8, now=1.0)    # streams [5, 10)
        queued = s.schedule(2, 3, 8, now=2.0)    # queued  [10, 15)
        s.complete(landed)                       # decode pool imported it
        # the refused payload's request is evicted at a lagging clock
        s.cancel(0, now=1.0)
        # queued must not slide into [5, 10) — that wire time was spent
        assert queued.start >= 10.0
        assert s.busy_until >= queued.finish

    def test_duplicate_in_flight_rejected(self):
        s = self.make()
        s.schedule(0, 1, 8, now=0.0)
        with pytest.raises(ValueError):
            s.schedule(0, 2, 4, now=0.0)

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            self.make().schedule(0, 1, -1, now=0.0)

    def test_ready_orders_by_finish(self):
        s = self.make(cost=1.0)
        a = s.schedule(0, 1, 8, now=0.0)
        b = s.schedule(1, 2, 8, now=0.0)
        assert s.ready(10.0) == [a, b]
        assert s.in_flight() == [a, b]

    def test_extend_reships_extra_tokens(self):
        """Growing an in-flight payload occupies the wire again for the
        extra tokens only, pushing its finish out."""
        s = self.make(cost=3.0)
        t = s.schedule(0, 1, 8, now=0.0)
        assert t.finish == 3.0
        s.extend(t, 40, now=5.0)
        assert t.tokens == 48
        assert (t.start, t.finish) == (0.0, 8.0)  # 5.0 + another 3.0 on the wire
        assert s.busy_until == 8.0
        assert s.busy_s == 6.0
        assert s.ready(7.9) == []
        assert s.ready(8.0) == [t]

    def test_extend_validation(self):
        s = self.make()
        t = s.schedule(0, 1, 8, now=0.0)
        with pytest.raises(ValueError):
            s.extend(t, 0, now=0.0)
        s.cancel(0, now=0.0)
        with pytest.raises(ValueError, match="not in flight"):
            s.extend(t, 4, now=0.0)

    def test_extend_rearms_refusal_dedup(self):
        """A reshipped (grown) payload is a new admission decision: its
        ``refused`` flag resets so the next refusal counts once, not zero
        times — and never twice for the same payload."""
        s = self.make(cost=3.0)
        t = s.schedule(0, 1, 8, now=0.0)
        t.refused = True
        s.extend(t, 4, now=1.0)
        assert t.refused is False

    def test_repeated_refuse_extend_cancel_cycle_refunds_exactly(self):
        """Regression for the refund accounting under the full admission
        grind: a payload refused at landing, reshipped by ``extend``
        (re-arming ``refused`` each cycle), refused again, reshipped
        again, then cancelled mid-stream. The refund must cover only the
        un-streamed tail of the *last* segment — every earlier segment
        was physically streamed and stays sunk, and the idle gaps
        between wire re-entries never count as refundable."""
        s = self.make(cost=2.0)
        t = s.schedule(0, 1, 8, now=0.0)          # seg [0, 2)
        t.refused = True                          # decode pool refuses at 2.0
        s.extend(t, 4, now=3.0)                   # seg [3, 5)
        assert t.refused is False                 # re-armed: new admission decision
        t.refused = True                          # refused again at 5.0
        s.extend(t, 4, now=6.0)                   # seg [6, 8)
        assert t.refused is False
        assert t.wire_s == pytest.approx(6.0)
        assert t.segments == [(0.0, 2.0), (3.0, 5.0), (6.0, 8.0)]

        cancelled = s.cancel(0, now=7.0)          # mid-third-segment
        assert cancelled.refunded_s == pytest.approx(1.0)   # only [7, 8)
        assert cancelled.sunk_s == pytest.approx(5.0)       # all streamed seconds
        assert s.busy_s == pytest.approx(5.0)
        # the wire frees at the cancel instant, not the phantom finish
        assert s.schedule(1, 2, 8, now=6.0).start == pytest.approx(7.0)

    def test_refuse_extend_cycle_cancelled_at_landing_sinks_all(self):
        """The injected-fault path: a transfer that dies *at landing
        time* — after any number of refuse/extend cycles — has streamed
        every reserved second, so the cancel refunds nothing and the
        whole wire cost is sunk (what the fault metrics charge)."""
        s = self.make(cost=2.0)
        t = s.schedule(0, 1, 8, now=0.0)          # seg [0, 2)
        t.refused = True
        s.extend(t, 4, now=4.0)                   # seg [4, 6)
        cancelled = s.cancel(0, now=6.0)          # dies exactly at landing
        assert cancelled.refunded_s == 0.0
        assert cancelled.sunk_s == pytest.approx(4.0)
        assert s.busy_s == pytest.approx(4.0)
        # the retry reschedule (fault path) is a fresh transfer and may
        # start immediately: the dead payload holds no future reservation
        retry = s.schedule(0, 1, 12, now=6.5)
        assert retry.start == pytest.approx(6.5)

    def test_refuse_extend_cancel_cycles_with_queued_successor(self):
        """Refunds from a cancelled refuse/extend grind re-pack queued
        successors without ever handing them wire time that was spent."""
        s = self.make(cost=2.0)
        t = s.schedule(0, 1, 8, now=0.0)          # seg [0, 2)
        t.refused = True
        s.extend(t, 4, now=3.0)                   # seg [3, 5)
        queued = s.schedule(1, 2, 8, now=3.5)     # queued [5, 7)
        cancelled = s.cancel(0, now=4.0)          # mid-second-segment
        assert cancelled.refunded_s == pytest.approx(1.0)   # only [4, 5)
        assert cancelled.sunk_s == pytest.approx(3.0)
        # the successor slides into the freed tail, never before its
        # own request nor into streamed wire time
        assert queued.start == pytest.approx(4.0)
        assert queued.finish == pytest.approx(6.0)
        assert s.busy_s == pytest.approx(5.0)
        assert s.busy_until == pytest.approx(6.0)


class TestCancelRefundProperty:
    """A transfer cancelled before it starts must be invisible: every
    later transfer's (start, finish) matches a channel where the
    cancelled transfer was never scheduled at all."""

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 10.0), st.integers(0, 64)),
            min_size=2,
            max_size=6,
        ),
        st.integers(0, 5),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cancelled_before_start_leaves_no_trace(self, reqs, cancel_idx, gap):
        reqs = sorted(reqs)  # schedule calls happen in time order
        cancel_idx = cancel_idx % len(reqs)
        cancel_now = reqs[cancel_idx][0] + gap  # any time >= its request

        real = KVTransferStream(UnitStepClock(transfer_cost=2.0))
        scheduled = []
        for i, (now, tokens) in enumerate(reqs):
            scheduled.append(real.schedule(i, i, tokens, now=now))
        target = scheduled[cancel_idx]
        if target.start < cancel_now:
            return  # already streaming: sunk time is legitimate
        cancelled = real.cancel(target.seq_id, now=cancel_now)
        assert cancelled.sunk_s == 0.0

        counterfactual = KVTransferStream(UnitStepClock(transfer_cost=2.0))
        expected = {}
        for i, (now, tokens) in enumerate(reqs):
            if i == cancel_idx:
                continue
            t = counterfactual.schedule(i, i, tokens, now=now)
            expected[i] = (t.start, t.finish)

        got = {t.seq_id: (t.start, t.finish) for t in real.in_flight()}
        assert got == pytest.approx(expected)
        assert real.busy_s == pytest.approx(counterfactual.busy_s)
        # the next schedule lands identically on both channels
        n = len(reqs)
        t_real = real.schedule(n, n, 8, now=cancel_now)
        t_cf = counterfactual.schedule(n, n, 8, now=cancel_now)
        assert (t_real.start, t_real.finish) == pytest.approx((t_cf.start, t_cf.finish))
