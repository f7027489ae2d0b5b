"""The staged ladder on generated protocols and networks.

Each protocol is a finite-state table: a node's action in round t >= 1 is
read from a table keyed on (layer, own label mod 2, t mod period, class of
its last base observation, class of that observation's sender); the label
class lets nodes of one layer break their symmetry. The tables are legal by
construction: only the source transmits in round 0, and a non-source node
transmits only once it has received something. The source's key ignores
senders, the condition under which an echo loses nothing.

Networks are c2 networks, some with extra edges between non-source nodes.
Stage 2 must match stage 1 off the source on all of them; stages 3 and 4,
which rebuild echoes by simulating one component alone, on the c2 ones.
"""

from __future__ import annotations

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from radiolb import (
    LISTEN,
    PAYLOAD,
    SOURCE,
    BroadcastPayload,
    C2Params,
    Network,
    Opaque,
    Protocol,
    Received,
    TopologyVector,
    Transmit,
    build_c2,
    run,
    transform_chain,
)
from radiolb.c2 import layer_of

FAMILIES = (C2Params(1, 2), C2Params(2, 2), C2Params(2, 3), C2Params(3, 2))
MESSAGES = (None, BroadcastPayload(PAYLOAD), Opaque(b"a"), Opaque(b"b"))  # None: listen
LABEL_CLASSES = 2
SENDER_CLASSES = 3
MAX_PERIOD = 3
HORIZON = 30


def table_prey(params: C2Params, period: int, actions: list[int]) -> Protocol:
    keys = product(range(3), range(LABEL_CLASSES), range(period), range(len(MESSAGES)),
                   range(SENDER_CLASSES))
    table = dict(zip(keys, actions))

    def step(ctx):
        own, t = ctx.own_label, ctx.round
        if t == 0:
            return Transmit(BroadcastPayload(PAYLOAD)) if own == SOURCE else LISTEN
        layer = layer_of(own, params)
        if layer and not any(isinstance(o, Received) for o in ctx.history):
            return LISTEN
        last = ctx.history[-1]
        heard = MESSAGES.index(last.message) if isinstance(last, Received) else 0
        sender = last.sender % SENDER_CLASSES if layer and isinstance(last, Received) else 0
        msg = MESSAGES[table[layer, own % LABEL_CLASSES, t % period, heard, sender]]
        return LISTEN if msg is None else Transmit(msg)

    return Protocol(f"table-{period}", step, params=params)


@st.composite
def cases(draw):
    params = draw(st.sampled_from(FAMILIES))
    taus = tuple(draw(st.integers(1, (1 << params.k) - 1)) for _ in range(params.m))
    c2_edges = build_c2(params, TopologyVector(taus)).edges()
    others = sorted(set(combinations(range(1, params.n), 2)) - c2_edges)
    extra = draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    period = draw(st.integers(1, MAX_PERIOD))
    size = 3 * LABEL_CLASSES * period * len(MESSAGES) * SENDER_CLASSES
    actions = draw(st.lists(st.integers(0, len(MESSAGES) - 1), min_size=size, max_size=size))
    return params, taus, extra, period, actions


@given(cases())
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
def test_generated_sender_blind_protocols_climb_the_ladder(case):
    params, taus, extra, period, actions = case
    c2_edges = build_c2(params, TopologyVector(taus)).edges()
    net = Network(range(params.n), sorted(c2_edges) + extra, c2_params=params, c2_taus=taus)
    p0 = table_prey(params, period, actions)
    stages = (1, 2) if extra else (1, 2, 3, 4)
    columns = {}
    for stage in stages:
        trace = run(net, transform_chain(p0, params, stage), HORIZON)
        columns[stage] = [{x: a for x, a in rec.actions.items() if x != SOURCE}
                          for rec in trace.rounds]
    for stage in stages[1:]:
        assert columns[stage] == columns[1], stage
