"""A fixed write sequence must leave bit-identical planes.

Every insert, update and delete repairs the table through the §IV-B
GetCost-guided walk, so the final planes pin every GetCost decision the
sequence makes: a change to the cost recursion, its tie-breaks or the
minimal-bucket shortcut that picks a different cell anywhere shows up as
a different digest. The expected digest was recorded from the tree the
sequence was written against; it must only change together with a
deliberate change to the walk.
"""

import hashlib
import random

from repro.core import VisionEmbedder

EXPECTED_SHA256 = (
    "ad2eec04aec2e58ced17f22daf90ac550b123e76c4737a60a2ba718790bc8aff"
)


def _run_sequence(ops=5_000, capacity=1_000, value_bits=16, seed=7):
    table = VisionEmbedder(capacity, value_bits, seed=seed)
    rng = random.Random(2024)
    live = []
    next_key = 1
    mirror = {}
    for _ in range(ops):
        roll = rng.random()
        fill = len(live) / capacity
        if not live or (roll < 0.5 and fill < 0.95):
            key = next_key
            next_key += rng.randrange(1, 40)
            value = rng.getrandbits(value_bits)
            table.insert(key, value)
            live.append(key)
        elif roll < 0.8:
            key = rng.choice(live)
            value = rng.getrandbits(value_bits)
            table.update(key, value)
        else:
            key = live.pop(rng.randrange(len(live)))
            table.delete(key)
            mirror.pop(key, None)
            continue
        mirror[key] = value
    return table, mirror


def test_fixed_sequence_plane_digest():
    table, mirror = _run_sequence()
    table.check_invariants()
    assert all(table.lookup(key) == value for key, value in mirror.items())
    digest = hashlib.sha256(table._table.to_dense().tobytes()).hexdigest()
    assert digest == EXPECTED_SHA256
