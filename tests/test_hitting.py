"""Hitting set enumeration: the two implementations against each other."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from vud.hitting import is_hitting_set, minimal_hitting_sets

from oracles import minimal_hitting_sets_bb


def fs(*xs):
    return frozenset(xs)


def test_singleton_dominates():
    fam = [fs("a"), fs("a", "e"), fs("a", "f")]
    assert minimal_hitting_sets(fam) == (fs("a"),)


def test_two_overlapping_sets():
    fam = [fs("a", "e"), fs("a", "f")]
    assert minimal_hitting_sets(fam) == (fs("a"), fs("e", "f"))


def test_pairwise_triangle():
    fam = [fs("x", "y"), fs("y", "z"), fs("x", "z")]
    assert minimal_hitting_sets(fam) == (fs("x", "y"), fs("x", "z"), fs("y", "z"))


def test_degenerate_families():
    assert minimal_hitting_sets([]) == (frozenset(),)
    assert minimal_hitting_sets([frozenset()]) == (frozenset(),)
    assert minimal_hitting_sets([frozenset(), fs("a")]) == (fs("a"),)
    assert minimal_hitting_sets_bb([]) == (frozenset(),)


def test_is_hitting_set():
    fam = [fs("a", "e"), fs("a", "f")]
    assert is_hitting_set(fs("a"), fam)
    assert is_hitting_set(fs("e", "f"), fam)
    assert is_hitting_set(fs("a", "e"), fam)  # hitting, though not minimal
    assert not is_hitting_set(fs("e"), fam)
    assert not is_hitting_set(fs("a", "z"), fam)  # z is outside the union
    assert is_hitting_set(frozenset(), [])


_families = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
    max_size=5,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(_families)
def test_implementations_agree(family):
    assert minimal_hitting_sets(family) == minimal_hitting_sets_bb(family)


@settings(max_examples=150, deadline=None)
@given(_families)
def test_results_are_minimal_complete_hitting_sets(family):
    results = minimal_hitting_sets(family)
    for h in results:
        assert is_hitting_set(h, family)
    for a, b in itertools.combinations(results, 2):
        assert not a <= b and not b <= a
    # completeness: every hitting subset of the union contains a result
    union = sorted(frozenset().union(*[frozenset(s) for s in family])) if family else []
    for n in range(len(union) + 1):
        for combo in itertools.combinations(union, n):
            if is_hitting_set(frozenset(combo), family):
                assert any(r <= frozenset(combo) for r in results)
