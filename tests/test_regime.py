"""The paper's counting argument as a checked regime, and its tight point.

Pruning marks at most two components per round over rounds t = 1..r-1,
so a family of m >= 2r-1 components keeps a free one. The Z-sweep derives
r sets over universe k, and set 0 is empty for a legal protocol, whose
middle nodes are silent in base round 0. A (k,k)-selective family needs
at least k nonempty sets, so r <= k leaves the derived sets not
selective. In that regime ``analyze`` must return a
verified pipeline witness for every legal protocol, never ``none`` and
never the direct-scan fallback.

selfam over ``greedy_selective(k, k)`` transmits by its k sets, so it
completes on every network at budget k+1: where m >= 2k-1 the bound the
pipeline certifies is attained.
"""

from __future__ import annotations

import random

import pytest

from radiolb import (
    C2Params,
    analyze,
    build_c2,
    completion_round,
    enumerate_c2,
    greedy_selective,
    round_robin,
    run,
    selfam_driven,
    silent_l1,
)

from preys import cyclic_prey, hash_prey, late_payload_prey, leaf_ack_prey, relay_prey
from test_generated_ladder import LABEL_CLASSES, MAX_PERIOD, MESSAGES, SENDER_CLASSES, table_prey

TABLES = 20


def legal_tables(params: C2Params, rng: random.Random):
    """Generated tables whose non-source nodes transmit only once informed
    and whose source sends a message in round 0."""
    for _ in range(TABLES):
        period = rng.randint(1, MAX_PERIOD)
        size = 3 * LABEL_CLASSES * period * len(MESSAGES) * SENDER_CLASSES
        actions = [rng.randrange(len(MESSAGES)) for _ in range(size)]
        yield table_prey(params, period, actions, spontaneous=False,
                         first=rng.randint(1, len(MESSAGES) - 1))


@pytest.mark.parametrize("m,k,r", [(3, 2, 2), (3, 3, 2), (5, 2, 2)])
def test_every_legal_protocol_gets_a_pipeline_witness_in_the_regime(m, k, r):
    assert m >= 2 * r - 1 and r <= k
    params = C2Params(m, k)
    protocols = [
        round_robin(params),
        silent_l1(params),
        selfam_driven(params, greedy_selective(k, k)),
        leaf_ack_prey(params),
        relay_prey(params),
        cyclic_prey(params),
        late_payload_prey(params),
        *(hash_prey(params, seed) for seed in range(4)),
        *legal_tables(params, random.Random(f"{m},{k},{r}")),
    ]
    for i, p0 in enumerate(protocols):
        out = analyze(p0, r, params)
        assert out.witness is not None and out.witness.verified, (i, p0.name)
        assert out.family is not None, (i, p0.name)  # not the direct-scan fallback


def test_selfam_greedy_attains_the_bound_at_the_tight_point():
    params = C2Params(3, 2)
    p0 = selfam_driven(params, greedy_selective(2, 2))
    out = analyze(p0, 2, params)
    assert out.witness is not None and out.witness.verified and out.family is not None
    nets = list(enumerate_c2(params))
    assert len(nets) == 27
    for tv in nets:
        assert completion_round(run(build_c2(params, tv), p0, 3)) is not None, tv
