"""Property test: the freelist bitmask against a model of the allocator.

``AllocationBlock`` finds a reusable chunk through ``_free_mask`` instead
of scanning its 64 size classes.  Whatever the interleaving of
allocations and frees, under every policy, with and without PCSan:

* bit *b* of the mask is set exactly when ``_free_buckets[b] != -1``;
* a reused chunk is at least as large as the request, a recycled one
  fits exactly, anything else comes off the bump pointer — and no two
  live objects ever overlap;
* ``freed_bytes`` equals the bytes sitting on the freelists (or, under
  ``NO_REUSE``, every byte ever freed).
"""

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import sanitize_scope
from repro.memory import LIGHTWEIGHT_REUSE, NO_REUSE, RECYCLING, AllocationBlock
from repro.memory.block import _chunk_size

_BLOCK_SIZE = 1 << 16
#: type code -> payload size of the fixed-length types (the only ones
#: the recycling policy may put on a recycle list)
_FIXED = {200: 24, 201: 72}
_VARIABLE = 300

ops_strategy = st.lists(
    st.tuples(
        st.booleans(),                              # allocate (else free)
        st.integers(min_value=0, max_value=1023),   # victim picker
        st.integers(min_value=0, max_value=300),    # payload size
        st.sampled_from([_VARIABLE, _VARIABLE, 200, 201]),
    ),
    min_size=1, max_size=80,
)


def _assert_mask_matches_heads(block):
    for bucket, head in enumerate(block._free_buckets):
        assert bool(block._free_mask >> bucket & 1) == (head != -1), bucket


@settings(max_examples=80, deadline=None)
@given(
    ops=ops_strategy,
    policy=st.sampled_from([LIGHTWEIGHT_REUSE, NO_REUSE, RECYCLING]),
    sanitized=st.booleans(),
)
def test_mask_tracks_heads_and_chunks_fit(ops, policy, sanitized):
    scope = sanitize_scope() if sanitized else contextlib.nullcontext()
    with scope as san:
        block = AllocationBlock(_BLOCK_SIZE, policy=policy)
        live = {}       # offset -> (total, type code)
        free = {}       # offset -> chunk size, as the freelists hold them
        recycled = {}   # offset -> chunk size, per-type recycle lists
        abandoned = 0   # NO_REUSE: bytes freed and never handed out again
        for is_alloc, pick, size, code in ops:
            if is_alloc or not live:
                size = _FIXED.get(code, size)
                total = _chunk_size(size)
                bump = block.used
                offset = block.allocate(size, code)
                if offset in free:
                    assert policy != NO_REUSE
                    assert free.pop(offset) >= total
                elif offset in recycled:
                    assert policy == RECYCLING
                    assert recycled.pop(offset) == total
                else:
                    assert offset == bump
                    assert block.used == bump + total
                for other, (other_total, _code) in live.items():
                    assert offset + total <= other or \
                        other + other_total <= offset
                live[offset] = (total, code)
            else:
                offset = sorted(live)[pick % len(live)]
                total, code = live.pop(offset)
                fixed = code in _FIXED
                block.free_object(
                    offset, recycle_type_code=code if fixed else None
                )
                if policy == NO_REUSE:
                    abandoned += total
                elif policy == RECYCLING and fixed:
                    recycled[offset] = total
                else:
                    free[offset] = total
            _assert_mask_matches_heads(block)
            assert block.freed_bytes == abandoned + sum(free.values())
        assert block.alloc_count - block.free_count == len(live)
        if san is not None:
            assert san.report.by_kind("poison_violation") == []
