"""Hitting set enumeration: the incremental transversals against the
exhaustive sweep and the branch-and-bound references."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from vud.hitting import minimal_hitting_sets

from oracles import is_hitting_set, minimal_hitting_sets_bb, minimal_hitting_sets_sweep


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


def _random_family(rng: random.Random) -> list[frozenset]:
    """Up to 30 members over a union of up to 14 elements, with empty,
    repeated and nested members mixed in."""
    universe = ["e%d" % i for i in range(rng.randint(1, 14))]
    family: list[frozenset] = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if family and kind < 0.15:
            family.append(rng.choice(family))
        elif family and kind < 0.35:
            extra = rng.sample(universe, rng.randint(0, len(universe)))
            family.append(rng.choice(family) | frozenset(extra))
        elif kind < 0.4:
            family.append(frozenset())
        else:
            family.append(frozenset(rng.sample(universe, rng.randint(1, min(5, len(universe))))))
    return family


def test_agrees_with_exhaustive_sweep_on_seeded_families():
    rng = random.Random(4)
    sizes = set()
    for trial in range(300):
        family = _random_family(rng)
        sizes.add(len(frozenset().union(*family)))
        assert minimal_hitting_sets(family) == minimal_hitting_sets_sweep(family), (trial, family)
    assert max(sizes) == 14


def test_agrees_with_exhaustive_sweep_on_kernel_shaped_families():
    # the two-support chain's kernels: one of a_i, b_i from every link
    for n in range(1, 7):
        links = [("a%d" % i, "b%d" % i) for i in range(1, n + 1)]
        family = [frozenset(choice) for choice in itertools.product(*links)]
        result = minimal_hitting_sets(family)
        assert result == minimal_hitting_sets_sweep(family)
        assert set(result) == {frozenset(link) for link in links}


_families = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
    max_size=5,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(_families)
def test_implementations_agree(family):
    assert minimal_hitting_sets(family) == minimal_hitting_sets_bb(family)
    assert minimal_hitting_sets(family) == minimal_hitting_sets_sweep(family)


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
