import numpy as np
import pytest

from hypactions.baumslag import parse_bs
from hypactions.errors import BudgetExceeded
from hypactions.cli import parse_config, schema
from hypactions.groups import BSOracle, FreeGroupOracle
from hypactions.sl2 import SL2Oracle
from hypactions.words import parse_word
from oracles import free_ball_naive, min_product_length, neighbour_table_naive


def test_free_ball_sizes():
    F2 = FreeGroupOracle(2)
    assert len(F2.enumerate_ball(0)) == 1
    ball = F2.enumerate_ball(2)
    assert len(ball) == 17  # 1 + 4 + 12
    assert [len(layer) for layer in ball.layers] == [1, 4, 12]
    ball3 = F2.enumerate_ball(3)
    assert len(ball3) == 53


def test_free_ball_matches_exhaustive_enumeration():
    F2 = FreeGroupOracle(2)
    ball = F2.enumerate_ball(3)
    naive = free_ball_naive(2, 3)
    assert {g.signed for g in ball.elements} == naive


def test_layer_index_is_min_product_length():
    F2 = FreeGroupOracle(2)
    ball = F2.enumerate_ball(3)
    gens = [g.signed for g in ball.gens]
    for g in ball.elements:
        assert ball.length[g] == min_product_length(g.signed, gens, 3)


def test_bs_layer_index_is_min_product_length():
    bs = BSOracle(2, 3)
    ball = bs.enumerate_ball(3)
    # cross-check the layer of a few normal forms by brute-force products
    from itertools import product as iproduct

    gens = ball.gens
    for g in list(ball.elements)[:40]:
        r = ball.length[g]
        if r == 0:
            continue
        found = None
        for k in range(1, r + 1):
            for combo in iproduct(gens, repeat=k):
                acc = bs.identity()
                for x in combo:
                    acc = acc * x
                if acc == g:
                    found = k
                    break
            if found:
                break
        assert found == r


def test_bs_ball_contains_expected_elements():
    bs = BSOracle(2, 3)
    ball = bs.enumerate_ball(2)
    for text in ("a^2", "t^2", "ta", "at", "a^-1t^-1"):
        assert parse_bs(text, 2, 3) in ball.index


def test_ball_budget():
    F2 = FreeGroupOracle(2)
    with pytest.raises(BudgetExceeded):
        F2.enumerate_ball(8, max_size=100)


def test_symmetrize_dedups_and_drops_identity():
    F2 = FreeGroupOracle(2)
    a = parse_word("a")
    sym = F2.symmetrize([a, a.inverse(), F2.identity(), a])
    assert len(sym) == 2


def test_group_axioms_spot_check():
    for oracle in (FreeGroupOracle(2), BSOracle(2, 3)):
        ball = oracle.enumerate_ball(2)
        e = oracle.identity()
        sample = ball.elements[:12]
        for x in sample:
            assert x * e == x
            assert e * x == x
            assert x * x.inverse() == e
        for x in sample[:6]:
            for y in sample[:6]:
                for z in sample[:6]:
                    assert (x * y) * z == x * (y * z)


def test_ball_words_are_geodesic_spellings():
    F2 = FreeGroupOracle(2)
    ball = F2.enumerate_ball(3)
    for i, g in enumerate(ball.elements):
        assert parse_word(ball.words[i].replace("*", "")) == g


def _oracle(group):
    """The oracle a config builds from `group`, or None with its problems."""
    config, problems = parse_config({"group": group, "experiment": "tightspan"})  # tightspan takes every kind
    return (config.oracle if config else None), problems


def test_group_spec_builds_its_oracle():
    free = _oracle({"kind": "free", "rank": 3})[0]
    assert isinstance(free, FreeGroupOracle) and free.rank == 3
    bs = _oracle({"kind": "bs", "m": 2, "n": 3})[0]
    assert isinstance(bs, BSOracle) and (bs.m, bs.n) == (2, 3)
    sl2 = _oracle({"kind": "sl2", "field": {"d": 2}})[0]
    assert sl2.d == 2
    assert _oracle({"kind": "nope"}) == (None, ["group.kind: must be one of free | bs | sl2"])
    assert _oracle({}) == (None, ["group.kind: required"])
    # an omitted field builds the default that `schema` prints
    defaults = schema()["group"]
    assert _oracle({"kind": "free"})[0].rank == defaults["free"]["rank"]["default"] == 2
    assert _oracle({"kind": "sl2"})[0].d == defaults["sl2"]["field"]["fields"]["d"]["default"] == 2


def test_a_ball_computes_its_adjacency_once(monkeypatch):
    # enumeration keeps the products it forms; the first adjacency() forms
    # those of the last sphere only, so each element meets each generator once
    from hypactions.baumslag import BSElement
    from hypactions.metrics import cone_off

    calls = []
    mul = BSElement.__mul__
    monkeypatch.setattr(BSElement, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    ball = BSOracle(2, 3).enumerate_ball(3)
    assert len(calls) == (len(ball) - len(ball.layers[-1])) * len(ball.gens)
    first = ball.adjacency()
    assert len(calls) == len(ball) * len(ball.gens)
    assert ball.adjacency() is first  # the second call multiplies nothing
    cone_off(ball, [ball.elements[0]], 0.0)  # asks for the adjacency twice, by itself and for its graph metric
    assert len(calls) == len(ball) * len(ball.gens)


@pytest.mark.parametrize(
    "oracle, radius",
    [(FreeGroupOracle(2), 4), (FreeGroupOracle(3), 3), (BSOracle(1, 2), 4), (BSOracle(2, 3), 4),
     (BSOracle(2, -3), 4), (SL2Oracle(d=2), 2)],
    ids=["F2-R4", "F3-R3", "BS12-R4", "BS23-R4", "BS2m3-R4", "sl2-d2-R2"],
)
def test_adjacency_is_the_product_table(oracle, radius):
    ball = oracle.enumerate_ball(radius)
    table = ball.adjacency()
    assert table.dtype == np.int32 and table.shape == (len(ball), len(ball.gens))
    naive = neighbour_table_naive(ball)
    assert table.tolist() == naive
    assert any(-1 in row for row in naive)  # the last sphere has products outside the ball
