"""Unit tests for the recovery snapshot of the state registry."""

from __future__ import annotations

import numpy as np

from repro.state import StateRegistry


def make_registry(payload_rows: int = 10) -> StateRegistry:
    reg = StateRegistry()
    store = reg.store("op")
    store.put("rows", np.arange(payload_rows, dtype=np.int64))
    store.put("count", payload_rows)
    return reg


class TestValidation:
    def test_restore_roundtrip(self):
        reg = make_registry()
        snap = reg.checkpoint()
        reg.store("op").put("count", 999)
        reg.store("late")  # registered after the snapshot: must be cleared
        reg.store("late").put("junk", [1, 2, 3])
        reg.restore(snap)
        assert reg.store("op").get("count") == 10
        assert reg.store("late").get("junk") is None
        np.testing.assert_array_equal(reg.store("op").get("rows"), np.arange(10))
