import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypactions.compression import (
    BorelMapConfig,
    CompressedGenSet,
    PiPrefix,
    borel_map_f,
    compressed_word_length,
    make_bf_family,
    order_preservation_check,
    overlap_scan,
    qks_compare,
    subword_membership,
    subword_set,
    verify_length_bounds,
)
from hypactions.errors import BudgetExceeded
from hypactions.groups import FreeGroupOracle
from hypactions.loxodromic import build_quasi_axis
from hypactions.words import FreeWord, parse_word
from oracles import compressed_length_bfs, compressed_length_sliced, dijkstra_compressed_naive

F2 = FreeGroupOracle(2)
w = parse_word


def all_generator_sigs(W):
    return [u.signed for u in W.generators()]


def test_subword_membership_examples():
    ab = w("ab")
    assert subword_membership(ab, ab, 1)
    assert subword_membership(w("ba"), ab, 2)  # interior of abab
    assert not subword_membership(w("ba"), ab, 1)
    assert subword_membership(w("b^-1a^-1"), ab, 1)  # lives in (ab)^-1
    assert not subword_membership(w("a^2"), ab, 3)


def test_subword_set_contents():
    S = subword_set(w("ab"), 2)
    sigs = {u.signed for u in S}
    assert w("abab").signed in sigs and w("bab").signed in sigs
    assert w("b^-1a^-1").signed in sigs  # closed under inversion
    assert w("baba").signed not in sigs  # needs three periods
    with pytest.raises(ValueError):
        subword_set(w("aba^-1"), 2)  # not cyclically reduced


def test_compressed_word_length_examples():
    W = CompressedGenSet(2, [(w("ab"), 3)])
    assert compressed_word_length(F2.identity(), W) == 0
    assert compressed_word_length(w("ab") ** 3, W) == 1
    W2 = CompressedGenSet(2, [(w("ab"), 2)])
    assert compressed_word_length(w("ab") ** 5, W2) == 3


def test_compressed_word_length_against_naive_dijkstra():
    W = CompressedGenSet(2, [(w("ab"), 2)])
    gens = all_generator_sigs(W)
    for text in ("1", "a", "ab", "abab", "ababa", "b^-1a^-1b", "a^2b^2", "abab^2a"):
        g = w(text)
        naive = dijkstra_compressed_naive(g.signed, gens, radius=8)
        assert compressed_word_length(g, W) == naive


def test_compressed_word_length_two_families_against_naive():
    W = CompressedGenSet(2, [(w("ab"), 2), (w("a^2b"), 3)])
    gens = all_generator_sigs(W)
    for text in ("ab", "abab", "a^2b", "a^2ba^2b", "b^4", "aba^2b", "ba^2"):
        g = w(text)
        naive = dijkstra_compressed_naive(g.signed, gens, radius=6)
        assert compressed_word_length(g, W) == naive


def agrees_with_bfs(g, W):
    """The walk returns what the position BFS returns, or, on an unreachable
    word, raises ValueError."""
    sigs = {u.signed for u in W.jump_table()}
    expected = compressed_length_bfs(g.signed, sigs, W.rank)
    if expected is None:
        with pytest.raises(ValueError):
            compressed_word_length(g, W)
        return True
    return compressed_word_length(g, W) == expected


@st.composite
def genset_and_word(draw):
    """A compressed set of rank 1-3 with one to three families (caps 1-4) and
    a target: a reduced word of length <= 60, a family power w^-20 .. w^59,
    or a product of up to eight jump words, optionally with a letter outside
    the base."""
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    families = []
    for _ in range(draw(st.integers(1, 3))):
        word = FreeWord(draw(st.lists(letters, min_size=1, max_size=5)))
        while len(word) >= 2 and word.signed[0] == -word.signed[-1]:
            word = FreeWord(word.signed[1:-1])
        if word:
            families.append((word, draw(st.integers(1, 4))))
    if not families:
        families = [(FreeWord((1,)), 2)]
    W = CompressedGenSet(rank, families)
    kind = draw(st.sampled_from(["word", "power", "product"]))
    if kind == "word":
        size = draw(st.integers(0, 60))
        g = FreeWord(draw(st.lists(letters, min_size=size, max_size=size)))
    elif kind == "power":
        g = draw(st.sampled_from([w for w, _ in families])) ** draw(st.integers(-20, 59))
    else:
        size = draw(st.integers(0, 8))
        jumps = st.sampled_from(sorted(W.jump_table(), key=lambda u: u.signed))
        g = FreeWord()
        for u in draw(st.lists(jumps, min_size=size, max_size=size)):
            g = g * u
    if draw(st.booleans()):
        at = draw(st.integers(0, len(g)))
        g = FreeWord(g.signed[:at] + (rank + 1,) + g.signed[at:])
    return W, g


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(genset_and_word())
def test_walk_agrees_with_position_bfs(case):
    W, g = case
    assert agrees_with_bfs(g, W)


def test_walk_agrees_with_position_bfs_on_the_k80_lengths():
    W = CompressedGenSet(2, [(w("ab^3"), 2), (w("ab^9"), 3)])
    for word, _ in W.families:
        for k in range(1, 81):
            assert agrees_with_bfs(word**k, W)


def test_walk_agrees_with_position_bfs_on_the_borel_order_generators():
    cfg = BorelMapConfig(2, ["ab", "ab^2", "a^2b"], [1, 1, 1])
    r, s = PiPrefix((1, 2, 3)), PiPrefix((1, 1, 1))
    Wr = borel_map_f(r, cfg)
    generators = borel_map_f(s, cfg).jump_table()
    assert len(generators) == 84
    for u in generators:
        assert agrees_with_bfs(u, Wr)


def test_walk_budget_counts_membership_probes():
    W = CompressedGenSet(2, [(w("ab"), 2)])
    g = w("ab") ** 6  # three hops of four letters: five probes, the last hop four
    assert compressed_word_length(g, W, budget=14) == 3
    with pytest.raises(BudgetExceeded) as exc:
        compressed_word_length(g, W, budget=13)
    assert exc.value.extent == {"positions": 13, "depth_reached": 2}


def walk_outcome(g, W, budget):
    """compressed_word_length's result in the oracle's outcome terms."""
    try:
        return ("hops", compressed_word_length(g, W, budget=budget))
    except BudgetExceeded as exc:
        return ("budget", str(exc), exc.extent)
    except ValueError as exc:
        return ("unreachable", str(exc))


class CountingNode(dict):
    """A trie node that counts the lookups made through it."""

    lookups = 0

    def get(self, key, default=None):
        CountingNode.lookups += 1
        return dict.get(self, key, default)


def counting_copy(node):
    return CountingNode({x: counting_copy(child) for x, child in node.items()})


def trie_paths(node, prefix=()):
    for x, child in node.items():
        yield prefix + (x,)
        yield from trie_paths(child, prefix + (x,))


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(genset_and_word())
def test_trie_walk_matches_the_sliced_walk_at_every_budget(case):
    """Hops, the budget message and extent, and the unreachable error agree
    with the slice-and-hash walk for every budget from 1 to one past what
    the whole walk needs, and no walk looks up more trie nodes than its
    budget allows."""
    W, g = case
    sigs = {u.signed for u in W.jump_table()}
    _, needed = compressed_length_sliced(g.signed, sigs, W.rank, float("inf"))
    W.trie = counting_copy(W.trie)
    for budget in range(1, needed + 2):
        expected, _ = compressed_length_sliced(g.signed, sigs, W.rank, budget)
        CountingNode.lookups = 0
        assert walk_outcome(g, W, budget) == expected, budget
        assert CountingNode.lookups <= budget


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(genset_and_word())
def test_trie_spells_the_generators_and_decides_membership(case):
    W, g = case
    base = {(x,) for i in range(1, W.rank + 1) for x in (i, -i)}
    sigs = {u.signed for u in W.jump_table()}
    assert set(trie_paths(W.trie)) == sigs | base
    assert FreeWord() not in W
    for i in range(len(g)):
        for j in range(i + 1, min(len(g), i + 12) + 1):
            u = FreeWord(g.signed[i:j])
            assert (u in W) == (u.signed in sigs | base)


def test_compressed_monotone_in_caps():
    g = w("ab") ** 6
    lengths = []
    for cap in (1, 2, 3, 4, 6):
        W = CompressedGenSet(2, [(w("ab"), cap)])
        lengths.append(compressed_word_length(g, W))
    assert lengths == sorted(lengths, reverse=True)


def test_compressed_never_exceeds_plain_length():
    W = CompressedGenSet(2, [(w("ab^3"), 2)])
    rng = random.Random(0)
    ball = F2.enumerate_ball(5)
    for g in rng.sample(ball.elements, 25):
        assert compressed_word_length(g, W) <= len(g)


def test_verify_length_bounds():
    W = CompressedGenSet(2, [(w("ab^3"), 2), (w("ab^9"), 3)])
    rep = verify_length_bounds(0, 6, W, alpha=0.0005)
    assert rep.upper_ok and rep.lower_ok
    assert rep.upper_bound == 3
    assert rep.fitted_alpha >= 0.0005
    rep = verify_length_bounds(1, 3, W, alpha=0.0005)
    assert rep.exact_length == 1 and rep.upper_bound == 1  # tight at k = cap
    rep = verify_length_bounds(0, 1, W, alpha=3 * 2)  # alpha <= 3 n_j is trivial
    assert rep.lower_ok and rep.upper_bound == 1


def test_upper_bound_holds_on_grid():
    W = CompressedGenSet(2, [(w("ab"), 2), (w("a^2b"), 3)])
    for j, (word, cap) in enumerate(W.families):
        for k in range(1, 9):
            rep = verify_length_bounds(j, k, W, alpha=0.0005)
            assert rep.upper_ok


def test_overlap_scan_self_and_disjoint():
    a_axis = build_quasi_axis(w("a"), 3)
    b_axis = build_quasi_axis(w("b"), 3)
    ball = F2.enumerate_ball(3)
    assert overlap_scan(a_axis, a_axis, 0.0, [F2.identity()]) == 6.0  # the whole materialized window
    assert overlap_scan(a_axis, b_axis, 0.0, ball.elements) == 0.0  # distinct tree axes share at most a point


def test_overlap_scan_conjugate_axes():
    ab_axis = build_quasi_axis(w("ab"), 2)
    ba_axis = build_quasi_axis(w("ba"), 2)
    # a * axis(ba) coincides with axis(ab) up to translation
    assert overlap_scan(ab_axis, ba_axis, 0.0, [w("a")]) >= 2 * 2 * 2 - 2


def test_make_bf_family():
    fam = make_bf_family(w("a"), w("b"), count=2)
    assert fam.members == [w("ab^3"), w("ab^9")]
    assert len({g.signed for g in fam.members}) == 2
    assert fam.K >= 1.0 and fam.L >= 0.0
    assert [axis.points() for axis in fam.axes] == [build_quasi_axis(g, 1).points() for g in fam.members]
    fam0 = make_bf_family(w("a"), w("b"), count=0)
    assert fam0.members == []
    fam1 = make_bf_family(w("b"), w("a"), count=1)
    assert fam1.members == [w("ba^3")]
    with pytest.raises(ValueError, match="not loxodromic"):
        # f1 f2^3 collapses to the identity
        make_bf_family(w("b") ** -3, w("b"), count=1)


def test_bf_family_overlap_shadow():
    # distinct members overlap boundedly, while self-overlap fills the window
    fam = make_bf_family(w("a"), w("b"), count=2)
    ball = F2.enumerate_ball(3)
    cross = overlap_scan(fam.axes[0], fam.axes[1], 0.0, ball.elements)
    self_scan = overlap_scan(fam.axes[0], fam.axes[0], 0.0, [F2.identity()])
    assert cross < 2 * len(fam.members[0])
    assert self_scan >= 2 * len(fam.members[0])


def test_surrogate_overlap_caps():
    from hypactions.compression import surrogate_overlap_caps

    fam = make_bf_family(w("a"), w("b"), count=2)
    ball = F2.enumerate_ball(3)
    caps = surrogate_overlap_caps(fam.axes, 0.0, ball.elements)
    # each cap is the other axis's scan maximum plus the margin 1
    assert overlap_scan(fam.axes[0], fam.axes[1], 0.0, ball.elements) == 7.0
    assert overlap_scan(fam.axes[1], fam.axes[0], 0.0, ball.elements) == 7.0
    assert caps == [8, 8]
    # the caps feed straight into the prefix-to-genset map
    cfg = BorelMapConfig(2, [str(g) for g in fam.members], caps)
    W = borel_map_f(PiPrefix((1, 2)), cfg)
    assert [cap for _, cap in W.families] == caps


def test_pi_prefix_validation():
    PiPrefix((1, 2, 3, 4))
    PiPrefix((1, 1, 1, 1))
    with pytest.raises(ValueError):
        PiPrefix((2, 1))
    with pytest.raises(ValueError):
        PiPrefix((1, 0))


def test_qks_compare_examples():
    r = PiPrefix((1, 2, 3, 4))
    s = PiPrefix((1, 1, 1, 1))
    assert qks_compare(r, r).sup_diff == 0
    assert qks_compare(r, s).sup_diff == 3
    assert qks_compare(s, r).sup_diff == 0
    assert qks_compare(r, s).max_abs_diff == 3
    with pytest.raises(ValueError):
        qks_compare(r, PiPrefix((1, 1)))


def test_qks_triangle_property():
    rng = random.Random(42)
    length = 8
    def rand_prefix():
        return PiPrefix(tuple(rng.randint(1, i) for i in range(1, length + 1)))
    for _ in range(300):
        r, s, t = rand_prefix(), rand_prefix(), rand_prefix()
        assert qks_compare(r, t).sup_diff <= qks_compare(r, s).sup_diff + qks_compare(s, t).sup_diff


CFG = BorelMapConfig(2, ["ab", "ab^2", "a^2b", "ab^3"], [1, 1, 1, 1])


def test_borel_map_caps():
    W = borel_map_f(PiPrefix((1, 2, 3, 4)), CFG)
    assert [cap for _, cap in W.families] == [1, 1, 1, 1]  # r(i) = i
    W = borel_map_f(PiPrefix((1, 1, 1, 1)), CFG)
    assert [cap for _, cap in W.families] == [1, 2, 4, 8]  # r(i) = 1
    with pytest.raises(ValueError):
        borel_map_f(PiPrefix((1, 2, 3, 4, 5)), CFG)  # config too short


def test_order_preservation_trivial_and_k1():
    r = PiPrefix((1, 2, 3, 4))
    rep = order_preservation_check(r, r, CFG)
    assert rep.k == 0 and rep.bound == 1 and rep.max_length == 1 and not rep.violations
    s = PiPrefix((1, 1, 2, 3))  # r - s = (0, 1, 1, 1): k = 1
    rep = order_preservation_check(r, s, CFG)
    assert rep.k == 1 and rep.bound == 2 and rep.max_length <= 2 and not rep.violations


def test_order_preservation_k2_exact_cross_check():
    cfg = BorelMapConfig(2, ["ab", "ab^2", "a^2b"], [1, 1, 1])
    r = PiPrefix((1, 2, 3))
    s = PiPrefix((1, 1, 1))  # sup diff 2 at index 3
    rep = order_preservation_check(r, s, cfg)
    assert rep.k == 2 and rep.bound == 4 and not rep.violations
    # cross-check the certified bounds with exact searches on this small case
    Wr = borel_map_f(r, cfg)
    Ws = borel_map_f(s, cfg)
    for u in Ws.jump_table():
        assert compressed_word_length(u, Wr) <= rep.bound


def test_order_preservation_k_is_never_negative():
    # r(1) = s(1) = 1 forces sup(r - s) >= 0 for any two valid prefixes
    r = PiPrefix((1, 1, 1, 1))
    s = PiPrefix((1, 2, 3, 4))
    rep = order_preservation_check(r, s, CFG)
    assert rep.k == 0 and rep.max_length == 1 and not rep.violations


def test_genset_json_roundtrip():
    W = CompressedGenSet(2, [("ab^3", 2), ("ab^9", 3)])
    blob = W.to_json()
    assert blob == {
        "base": ["a", "b"],
        "families": [{"w": "ab^3", "cap": 2}, {"w": "ab^9", "cap": 3}],
    }
    assert repr(W) == "CompressedGenSet(rank=2, families=[(ab^3,2), (ab^9,3)])"
    with pytest.raises(ValueError, match="caps must be >= 1"):
        CompressedGenSet(2, [("ab", 0)])


@pytest.mark.parametrize("word, message", [
    (FreeWord((3, 1)), "^family word ca exceeds rank 2$"),
    (FreeWord((1, -3)), "^family word ac\\^-1 exceeds rank 2$"),
    ("c", "^generator 'c' exceeds rank 2$"),
], ids=["c", "C", "string"])
def test_genset_refuses_a_family_letter_beyond_the_rank(word, message):
    # a letter c of F3 would otherwise get compressed length 1 in F2
    with pytest.raises(ValueError, match=message):
        CompressedGenSet(2, [(word, 2)])
    assert CompressedGenSet(3, [(word, 2)]).rank == 3
