"""Unit tests: the radix prefix index (tree structure, LRU, pins)."""

import numpy as np
import pytest

from repro.kvcache.prefix_index import PrefixIndex


def toks(*ids):
    return np.asarray(ids, dtype=np.int64)


class TestInsertAndMatch:
    def test_empty_index_matches_nothing(self):
        idx = PrefixIndex()
        assert idx.match(toks(1, 2, 3)) == (0, None)
        assert len(idx) == 0

    def test_exact_and_partial_match(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2, 3, 4))
        assert idx.match(toks(1, 2, 3, 4)) == (4, 0)
        assert idx.match(toks(1, 2, 3, 4, 5, 6)) == (4, 0)
        assert idx.match(toks(1, 2, 9)) == (2, 0)
        assert idx.match(toks(9, 1, 2)) == (0, None)

    def test_zero_length_insert_is_noop(self):
        idx = PrefixIndex()
        idx.insert(0, toks())
        assert 0 not in idx
        assert idx.match(toks(1)) == (0, None)

    def test_extension_reinsert_is_idempotent(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2))
        idx.insert(0, toks(1, 2, 3, 4))
        idx.insert(0, toks(1, 2, 3, 4))
        assert idx.anchor_length(0) == 4
        assert idx.match(toks(1, 2, 3, 4, 7)) == (4, 0)

    def test_divergent_histories_split_nodes(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2, 3, 4))
        idx.insert(1, toks(1, 2, 7, 8))
        # the shared [1, 2] node serves both; deeper nodes are exclusive
        length, donor = idx.match(toks(1, 2))
        assert length == 2 and donor in (0, 1)
        assert idx.match(toks(1, 2, 3, 9))[0] == 3
        assert idx.match(toks(1, 2, 7, 8, 9)) == (4, 1)

    def test_donor_prefers_most_recently_used(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2, 3))
        idx.insert(1, toks(1, 2, 3))
        idx.touch(0)
        idx.touch(1)
        assert idx.match(toks(1, 2, 3))[1] == 1
        idx.touch(0)
        assert idx.match(toks(1, 2, 3))[1] == 0

    def test_donor_is_the_deepest_levels_and_chosen_once(self):
        """Three levels whose LRU favourite differs: each match returns the
        favourite among the holders of the deepest edge it reached, and
        ranks only those holders (it used to rank every level it crossed)."""

        class CountingDict(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        idx = PrefixIndex()
        idx.insert(0, toks(1, 2))
        idx.insert(1, toks(1, 2, 3, 4))
        idx.insert(2, toks(1, 2, 3, 4, 5, 6))
        for seq_id in (2, 1, 0):  # level 1 favours 0, level 2 favours 1, level 3 holds only 2
            idx.touch(seq_id)
        assert idx.match(toks(1, 2)) == (2, 0)
        assert idx.match(toks(1, 9)) == (1, 0)
        assert idx.match(toks(1, 2, 3, 4)) == (4, 1)
        assert idx.match(toks(1, 2, 3, 9)) == (3, 1)
        assert idx.match(toks(1, 2, 3, 4, 5, 9)) == (5, 2)
        idx._last_used = CountingDict(idx._last_used)
        assert idx.match(toks(1, 2, 3, 4, 5, 6, 7)) == (6, 2)
        assert idx._last_used.lookups == 1  # the one holder of the deepest edge
        idx._last_used.lookups = 0
        assert idx.match(toks(1, 2, 3, 4)) == (4, 1)
        assert idx._last_used.lookups == 2  # holders {1, 2} of the [3, 4] edge

    def test_match_rejects_bad_shape(self):
        idx = PrefixIndex()
        with pytest.raises(ValueError):
            idx.match(np.zeros((2, 2), dtype=np.int64))


class TestRemoveAndTrim:
    def test_remove_forgets_anchor(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2, 3))
        idx.remove(0)
        assert idx.match(toks(1, 2, 3)) == (0, None)
        assert 0 not in idx
        idx.remove(0)  # idempotent

    def test_remove_keeps_other_holders(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2, 3, 4))
        idx.insert(1, toks(1, 2, 3))
        idx.remove(0)
        assert idx.match(toks(1, 2, 3, 4)) == (3, 1)

    def test_trim_shortens_coverage(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2, 3, 4, 5))
        idx.trim(0, 2)
        assert idx.anchor_length(0) == 2
        assert idx.match(toks(1, 2, 3, 4, 5)) == (2, 0)

    def test_trim_mid_edge_keeps_other_holder_full(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2, 3, 4))
        idx.insert(1, toks(1, 2, 3, 4))
        idx.trim(0, 3)
        assert idx.match(toks(1, 2, 3, 4)) == (4, 1)
        # donor for the 3-token prefix can be either anchor
        length, donor = idx.match(toks(1, 2, 3, 9))
        assert length == 3 and donor in (0, 1)

    def test_trim_to_zero_removes(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2))
        idx.trim(0, 0)
        assert 0 not in idx

    def test_trim_then_regrow_different_suffix(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2, 3, 4))
        idx.trim(0, 2)
        idx.insert(0, toks(1, 2, 7, 8))
        assert idx.match(toks(1, 2, 7, 8)) == (4, 0)
        assert idx.match(toks(1, 2, 3, 4))[0] == 2

    def test_trim_longer_than_anchor_is_noop(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1, 2))
        idx.trim(0, 5)
        assert idx.anchor_length(0) == 2


class TestPinsAndLru:
    def test_pin_refcounts(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1))
        idx.pin(0)
        idx.pin(0)
        idx.unpin(0)
        assert idx.pinned(0)
        idx.unpin(0)
        assert not idx.pinned(0)
        idx.unpin(0)  # over-unpin is a no-op
        assert not idx.pinned(0)

    def test_unpin_unknown_is_noop(self):
        idx = PrefixIndex()
        idx.unpin(99)
        assert not idx.pinned(99)

    def test_lru_clock_monotonic(self):
        idx = PrefixIndex()
        idx.insert(0, toks(1))
        idx.insert(1, toks(2))
        assert idx.last_used(0) == 0
        idx.touch(0)
        idx.touch(1)
        assert 0 < idx.last_used(0) < idx.last_used(1)

    def test_remove_clears_lru_but_pins_survive(self):
        """Pins belong to borrowers (pin/unpin pairs bracket a request's
        lifetime), so removing the anchor must not strip them — a seq id
        reused by a new conversation would otherwise lose the protection
        a still-live borrower of the old incarnation paid for."""
        idx = PrefixIndex()
        idx.insert(0, toks(1))
        idx.pin(0)
        idx.touch(0)
        idx.remove(0)
        assert idx.pinned(0)
        assert idx.last_used(0) == 0
        assert idx.anchors() == []
        idx.unpin(0)  # the borrower finishes: balance restored
        assert not idx.pinned(0)

    def test_pin_balance_across_anchor_reuse(self):
        """Borrower A of the old incarnation unpinning must not strip
        borrower B's pin on the new incarnation of the same seq id."""
        idx = PrefixIndex()
        idx.insert(5, toks(1, 2))
        idx.pin(5)  # borrower A
        idx.remove(5)  # old incarnation evicted
        idx.insert(5, toks(3, 4))  # new conversation reuses the id
        idx.pin(5)  # borrower B
        idx.unpin(5)  # A finishes
        assert idx.pinned(5)  # B's protection intact
        idx.unpin(5)  # B finishes
        assert not idx.pinned(5)
