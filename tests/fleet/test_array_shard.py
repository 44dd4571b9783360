"""Differential suite: ArrayShard must be bit-identical to the object Shard.

The struct-of-arrays backend (:class:`repro.fleet.shard.ArrayShard`) is
only admissible because every observable — ``state_hash``, every tagged
slowdown triple, rebuild counts, error messages — matches the
object-backed :class:`~repro.fleet.shard.Shard` bit for bit. These
tests pin that equivalence over seeded churn streams (arrive/depart,
extreme fractions that force the O(p²) rebuild fallback, mid-stream
checkpoints) plus the :func:`~repro.fleet.shard.stream_step` chain
invariance properties the frame protocol's accounting relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import DelayTable, SizedDelayTable
from repro.errors import ModelError
from repro.fleet.shard import (
    STREAM_FIELDS,
    ArrayShard,
    ReplayCheckpoint,
    Shard,
    replay_stream,
    stream_step,
)

MACHINES = 6

DELAY_COMP = DelayTable((0.4, 0.9, 1.3), label="comp")
DELAY_COMM = DelayTable((0.2, 0.5), label="comm")
DELAY_SIZED = SizedDelayTable(
    {
        1: DelayTable((0.1, 0.3)),
        500: DelayTable((0.5, 1.1, 1.6)),
        1000: DelayTable((0.8,)),
    }
)

TABLE_SETS = {
    "analytic": (None, None, None),
    "calibrated": (DELAY_COMP, DELAY_COMM, DELAY_SIZED),
    "comm-only": (DELAY_COMP, DELAY_COMM, None),
    "comp-only": (None, None, DELAY_SIZED),
}


def churn_stream(seed: int, events: int = 120) -> list[dict]:
    """Seeded arrive/depart stream with rebuild-provoking fractions."""
    rng = np.random.default_rng(seed)
    live: list[tuple[str, int]] = []
    out: list[dict] = []
    serial = 0
    for _ in range(events):
        if live and rng.random() < 0.4:
            name, machine = live.pop(int(rng.integers(len(live))))
            out.append({"op": "depart", "app": name, "machine": machine})
            continue
        name = f"app-{seed}-{serial}"
        serial += 1
        machine = int(rng.integers(MACHINES))
        frac = float(
            rng.choice([0.0, 1.0, 0.5, 1e-12, 1.0 - 1e-12, float(rng.random())])
        )
        size = (
            float(rng.choice([0.0, 64.0, 500.0, 2048.0]))
            if frac == 0.0
            else float(rng.choice([64.0, 500.0, 1000.0, 2048.0]))
        )
        out.append(
            {
                "op": "arrive",
                "app": name,
                "tenant": "t",
                "machine": machine,
                "comm_fraction": frac,
                "message_size": size,
            }
        )
        live.append((name, machine))
    return out


class TestDifferentialStateHash:
    """≥100 seeded streams: hash, slowdowns and rebuilds stay identical."""

    @pytest.mark.parametrize("tables_key", sorted(TABLE_SETS))
    def test_bit_identity_over_seeded_streams(self, tables_key):
        tables = TABLE_SETS[tables_key]
        for seed in range(30):
            oracle = Shard(0, range(MACHINES), *tables)
            array = ArrayShard(0, range(MACHINES), *tables)
            for step, event in enumerate(churn_stream(seed)):
                oracle.apply(event)
                array.apply(event)
                if step % 10 == 0:
                    # Mid-stream checkpoint: hashes and every machine's
                    # tagged triple agree exactly, not just at the end.
                    assert array.state_hash() == oracle.state_hash()
                    for machine in range(MACHINES):
                        assert array.slowdowns(machine) == oracle.slowdowns(machine)
            assert array.state_hash() == oracle.state_hash()
            assert array.rebuilds == oracle.rebuilds
            assert array.population() == oracle.population()

    def test_batch_matches_scalar_queries(self):
        tables = TABLE_SETS["calibrated"]
        oracle = Shard(1, range(1, MACHINES, 2), *tables)
        array = ArrayShard(1, range(1, MACHINES, 2), *tables)
        for event in churn_stream(99):
            if event["machine"] % 2 == 0:
                continue
            oracle.apply(event)
            array.apply(event)
        machines = list(array.machine_ids)
        assert array.slowdowns_batch(machines) == oracle.slowdowns_batch(machines)

    def test_error_messages_match_oracle(self):
        oracle = Shard(0, [0, 2])
        array = ArrayShard(0, [0, 2])
        bad_events = [
            {"op": "arrive", "app": "a", "machine": 1, "comm_fraction": 0.2,
             "message_size": 64.0},
            {"op": "nonsense", "app": "a", "machine": 0},
            {"op": "depart", "app": "ghost", "machine": 0},
            # comm without a message size: profile validation
            {"op": "arrive", "app": "a", "machine": 0, "comm_fraction": 0.2,
             "message_size": 0.0},
        ]
        for event in bad_events:
            with pytest.raises(ModelError) as oracle_exc:
                oracle.apply(event)
            with pytest.raises(ModelError) as array_exc:
                array.apply(event)
            assert str(array_exc.value) == str(oracle_exc.value)
        good = {"op": "arrive", "app": "a", "machine": 0, "comm_fraction": 0.2,
                "message_size": 64.0}
        oracle.apply(good)
        array.apply(good)
        with pytest.raises(ModelError) as oracle_exc:
            oracle.apply(good)
        with pytest.raises(ModelError) as array_exc:
            array.apply(good)
        assert str(array_exc.value) == str(oracle_exc.value)

    def test_replay_stream_accepts_array_shard(self):
        events = [e for e in churn_stream(5) if e["machine"] < MACHINES]
        oracle = Shard(0, range(MACHINES), *TABLE_SETS["calibrated"])
        for event in events:
            oracle.apply(event)
        checkpoint_at = len(events) // 2
        probe = Shard(0, range(MACHINES), *TABLE_SETS["calibrated"])
        for event in events[:checkpoint_at]:
            probe.apply(event)
        checkpoint = ReplayCheckpoint(checkpoint_at, probe.state_hash())
        rebuilt = ArrayShard(0, range(MACHINES), *TABLE_SETS["calibrated"])
        result = replay_stream(rebuilt, events, checkpoint=checkpoint)
        assert result.checkpoint_ok, result.detail
        assert result.count == len(events)
        assert rebuilt.state_hash() == oracle.state_hash()

    def test_out_of_band_depart_matches_oracle(self):
        # The desync probe used by the fleet tests and experiment: a
        # depart applied to the shard directly, outside the service's
        # stream, leaves both backends in the same state.
        array = ArrayShard(0, range(MACHINES), *TABLE_SETS["calibrated"])
        oracle = Shard(0, range(MACHINES), *TABLE_SETS["calibrated"])
        for event in churn_stream(13):
            array.apply(event)
            oracle.apply(event)
        assert array.state_hash() == oracle.state_hash()
        machine = next(m for m in range(MACHINES) if len(oracle.managers[m]))
        name = next(iter(oracle.managers[machine].snapshot()))
        depart = {"op": "depart", "app": name, "machine": machine}
        array.apply(depart)
        oracle.apply(depart)
        assert array.state_hash() == oracle.state_hash()
        assert array.slowdowns(machine) == oracle.slowdowns(machine)


EVENT_VALUES = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)


class TestStreamChainInvariance:
    @settings(max_examples=100, deadline=None)
    @given(
        st.permutations(list(STREAM_FIELDS)),
        st.dictionaries(
            st.text(min_size=1, max_size=10).filter(lambda k: k not in STREAM_FIELDS),
            EVENT_VALUES,
            max_size=4,
        ),
        st.binary(max_size=16),
    )
    def test_key_order_and_extra_keys_do_not_move_the_chain(
        self, field_order, extras, chain
    ):
        base = {
            "op": "arrive",
            "app": "app-0",
            "tenant": "tenant-1",
            "machine": 3,
            "comm_fraction": 0.25,
            "message_size": 64.0,
        }
        reference = stream_step(chain, base)
        # Same fields inserted in a different order: dict iteration
        # order differs, canonical JSON must not.
        reordered = {field: base[field] for field in field_order}
        assert stream_step(chain, reordered) == reference
        # Extra non-stream keys (seq stamps, annotations) are ignored.
        noisy = dict(base)
        noisy.update(extras)
        assert stream_step(chain, noisy) == reference

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(list(STREAM_FIELDS)), st.binary(max_size=16))
    def test_stream_fields_do_move_the_chain(self, field, chain):
        base = {
            "op": "arrive",
            "app": "app-0",
            "tenant": "tenant-1",
            "machine": 3,
            "comm_fraction": 0.25,
            "message_size": 64.0,
        }
        changed = dict(base)
        changed[field] = "different" if isinstance(base[field], str) else 7
        assert stream_step(chain, changed) != stream_step(chain, base)
