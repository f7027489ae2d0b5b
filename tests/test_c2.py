"""Family construction, canonical labels, enumeration, encoding."""

from __future__ import annotations

import pytest

from radiolb import (
    C2Params,
    TopologyVector,
    build_c2,
    component_of,
    decode_c2,
    encode_c2,
    enumerate_c2,
    layer_of,
)
from radiolb.c2 import l1_index, l1_label, l2_label
from radiolb.errors import EnumerationTooLarge, InvalidTau, UnknownLabel


def test_build_examples_22():
    params = C2Params(2, 2)
    net = build_c2(params, TopologyVector((3, 1)))
    assert net.n == 7
    assert net.neighbors(0) == frozenset({1, 2, 3, 4})
    assert net.neighbors(5) == frozenset({1, 2})
    assert net.neighbors(6) == frozenset({3})


def test_build_smallest_instance_is_a_path():
    net = build_c2(C2Params(1, 1), TopologyVector((1,)))
    assert net.edges() == frozenset({(0, 1), (1, 2)})


def test_zero_tau_rejected():
    with pytest.raises(InvalidTau):
        build_c2(C2Params(2, 2), TopologyVector((0, 1)))
    with pytest.raises(InvalidTau):
        build_c2(C2Params(1, 2), TopologyVector((4,)))
    with pytest.raises(InvalidTau):
        build_c2(C2Params(2, 2), TopologyVector((1,)))


def test_enumeration_counts_and_order():
    assert [tv.taus for tv in enumerate_c2(C2Params(1, 2))] == [(1,), (2,), (3,)]
    vecs = list(enumerate_c2(C2Params(2, 2)))
    assert len(vecs) == 9
    assert vecs[0].taus == (1, 1)
    assert vecs[-1].taus == (3, 3)
    assert vecs == sorted(vecs)
    assert len(list(enumerate_c2(C2Params(2, 3)))) == 49


def test_enumeration_cap(monkeypatch):
    # the cap is checked at the call, before the first item is asked for
    monkeypatch.setenv("RADIOLB_ENUM_CAP", "8")
    with pytest.raises(EnumerationTooLarge):
        enumerate_c2(C2Params(2, 2))


def test_layer_and_component_arithmetic():
    params = C2Params(2, 2)
    assert layer_of(0, params) == 0
    assert component_of(0, params) is None
    assert (layer_of(4, params), component_of(4, params)) == (1, 1)
    assert (layer_of(6, params), component_of(6, params)) == (2, 1)
    assert l1_index(4, params) == 1
    with pytest.raises(UnknownLabel):
        layer_of(7, params)
    # labeling helpers invert layer/component lookups
    for i in range(params.m):
        for j in range(params.k):
            lab = l1_label(params, i, j)
            assert (component_of(lab, params), l1_index(lab, params)) == (i, j)
        assert component_of(l2_label(params, i), params) == i


@pytest.mark.parametrize("m,k", [(2, 2), (3, 3)])
def test_encode_decode_round_trip_full_family(m, k):
    params = C2Params(m, k)
    for tv in enumerate_c2(params):
        text = encode_c2(params, tv)
        params2, tv2 = decode_c2(text)
        assert (params2, tv2) == (params, tv)
        assert build_c2(params2, tv2) == build_c2(params, tv)


def test_encoding_is_the_documented_string():
    assert encode_c2(C2Params(2, 2), TopologyVector((3, 1))) == "c2:m=2,k=2,taus=3,1"


def test_every_enumerated_network_is_connected():
    params = C2Params(2, 2)
    for tv in enumerate_c2(params):
        net = build_c2(params, tv)
        # independent reachability check
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for y in net.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert seen == net.labels


def test_distinct_vectors_give_distinct_networks():
    params = C2Params(2, 2)
    nets = [build_c2(params, tv) for tv in enumerate_c2(params)]
    for i, a in enumerate(nets):
        for b in nets[i + 1:]:
            assert a != b


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_c2("c3:m=1,k=1,taus=1")
    with pytest.raises(ValueError):
        decode_c2("c2:m=1,k=1")
    with pytest.raises(InvalidTau):
        decode_c2("c2:m=2,k=2,taus=1")
