"""Model-based (stateful) testing of the kernel label representation.

Hypothesis drives long random sequences of the operations the kernel
actually performs on a label over its lifetime — sparse updates (handle
grants/releases), Figure 4 effect applications, receive raises — against
a plain-dict model.  This hunts for state-dependent corruption the
per-operation property tests cannot see (e.g. chunk splits/rebalances
interacting with earlier updates)."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import labelops
from repro.core.chunks import CHUNK_CAPACITY, ChunkedLabel, OpStats, level_bit
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L3, STAR
from tests.test_conformance import send_effect_spec

levels = st.sampled_from(ALL_LEVELS)
handles = st.integers(min_value=0, max_value=400)
small_labels = st.builds(
    Label,
    st.dictionaries(handles, levels, max_size=6),
    default=levels,
)


class LabelLifecycle(RuleBasedStateMachine):
    @initialize(default=levels)
    def start(self, default):
        self.label = ChunkedLabel.from_label(Label({}, default))
        self.model = {}
        self.default = default

    def _model_label(self) -> Label:
        return Label(dict(self.model), self.default)

    @rule(handle=handles, level=levels)
    def sparse_update(self, handle, level):
        self.label = labelops.sparse_update(self.label, {handle: level}, OpStats())
        if level == self.default:
            self.model.pop(handle, None)
        else:
            self.model[handle] = level

    @rule(updates=st.dictionaries(handles, levels, min_size=1, max_size=8))
    def sparse_update_batch(self, updates):
        self.label = labelops.sparse_update(self.label, updates, OpStats())
        for handle, level in updates.items():
            if level == self.default:
                self.model.pop(handle, None)
            else:
                self.model[handle] = level

    @rule(start=handles, count=st.integers(CHUNK_CAPACITY + 1, 150), level=levels)
    def fill_a_range(self, start, count, level):
        # More neighbours than a chunk holds: the routed chunk overflows
        # and splits, and the label goes (or stays) multi-chunk.
        self.sparse_update_batch({start + i: level for i in range(count)})

    @rule(updates=st.dictionaries(handles, levels, min_size=40, max_size=300))
    def sparse_update_many(self, updates):
        # Scattered over every chunk at once, deletions among them: the
        # routing walk hands each touched chunk its run of the sorted
        # handles.
        self.sparse_update_batch(updates)

    @rule(level=levels)
    def retire_a_level(self, level):
        # All but one entry at *level* go, then the last one on its own:
        # sparse_update carries the level mask forward, and this is where a
        # level leaves the label while other chunks carry on untouched.
        holders = sorted(h for h, lvl in self.model.items() if lvl == level)
        if holders:
            self.sparse_update_batch({h: self.default for h in holders[:-1]})
            self.aggregates_match_a_recompute()
            self.sparse_update(holders[-1], self.default)

    @rule(es=small_labels, ds=small_labels)
    def apply_effects(self, es, ds):
        self.label = labelops.apply_send_effects(
            self.label,
            ChunkedLabel.from_label(es),
            ChunkedLabel.from_label(ds),
            OpStats(),
        )
        want = send_effect_spec(self._model_label(), es, ds)
        self.default = want.default
        self.model = dict(want.entries())

    @rule(dr=small_labels)
    def raise_label(self, dr):
        self.label = labelops.raise_receive(
            self.label, ChunkedLabel.from_label(dr), OpStats()
        )
        want = self._model_label() | dr
        self.default = want.default
        self.model = dict(want.entries())

    @invariant()
    def matches_model(self):
        assert self.label.to_label() == self._model_label()

    @invariant()
    def chunks_are_sorted_and_bounded(self):
        previous = -1
        for chunk in self.label.chunks:
            assert 0 < len(chunk.entries) <= CHUNK_CAPACITY
            for handle, level in chunk.entries:
                assert handle > previous
                previous = handle
                assert level != self.label.default  # normalised

    @invariant()
    def aggregates_match_a_recompute(self):
        # What sparse_update's splice carries forward instead of walking
        # the directory for it, against that walk.
        label, chunks = self.label, self.label.chunks
        assert label._los == tuple(chunk.lo for chunk in chunks)
        assert len(label) == sum(len(chunk) for chunk in chunks) == len(self.model)
        mask = 0
        for level in self.model.values():
            mask |= level_bit(level)
        assert label.level_mask == mask
        present = sorted(set(self.model.values()))
        assert label.explicit_min == (present[0] if present else L3)
        assert label.explicit_max == (present[-1] if present else STAR)
        assert label.min_level == min(present + [label.default])
        assert label.max_level == max(present + [label.default])
        assert label.summary == (len(self.model), label.min_level, label.max_level)

    @invariant()
    def nonstar_view_is_consistent(self):
        want = tuple(
            (h, lvl) for h, lvl in self.label.iter_entries() if lvl != STAR
        )
        assert self.label.nonstar_entries() == want
        assert self.label.core_digest() == self.label.without_stars().digest()


TestLabelLifecycle = LabelLifecycle.TestCase
TestLabelLifecycle.settings = settings(max_examples=60, stateful_step_count=40)
