import random
from itertools import permutations

import pytest

from chartab import Permutation, parse_cycles

from helpers import reference_cycle_string


def test_identity():
    e = Permutation.identity(5)
    assert e.images == (0, 1, 2, 3, 4)
    assert e.is_identity() and e.order() == 1
    assert e.cycle_string() == "()"


def test_compose_left_to_right():
    p = parse_cycles("(0 1)", 3)
    q = parse_cycles("(1 2)", 3)
    # apply p first: 0 -> 1 -> 2
    assert (p * q).images[0] == 2
    assert (q * p).images[0] == 1


def test_product_and_identity_at_every_degree():
    # degrees 0 and 1 hold only the identity, where the product kernel
    # cannot use itemgetter; larger degrees are checked on seeded pairs
    pairs = [(p, q) for n in (0, 1, 2) for p in permutations(range(n))
             for q in permutations(range(n))]
    rng = random.Random(3)
    for n in (16, 1000):
        for _ in range(20):
            p, q = list(range(n)), list(range(n))
            rng.shuffle(p)
            rng.shuffle(q)
            pairs.append((tuple(p), tuple(q)))
    for p, q in pairs:
        product = Permutation(p) * Permutation(q)
        assert product.images == tuple(q[i] for i in p)
        assert type(product.images) is tuple
        identity = tuple(range(len(p)))
        assert product.is_identity() == (product.images == identity)
        assert Permutation(p).is_identity() == (p == identity)


def test_inverse_and_power():
    p = parse_cycles("(0 1 2 3 4)", 5)
    assert (p * p.inverse()).is_identity()
    fifth = p * p * p * p * p
    assert fifth == Permutation.identity(5)
    assert hash(fifth) == hash(Permutation.identity(5)) == hash((0, 1, 2, 3, 4))
    assert p.inverse() * p.inverse() == p * p * p
    assert p.order() == 5


def test_order_lcm():
    p = parse_cycles("(0 1 2)(3 4)", 5)
    assert p.order() == 6


def test_conjugate():
    p = parse_cycles("(0 1)", 3)
    g = parse_cycles("(0 1 2)", 3)
    assert p.conjugate(g) == parse_cycles("(1 2)", 3)


def test_cycle_roundtrip():
    p = parse_cycles("(0 3)(1 2 4)", 5)
    assert parse_cycles(p.cycle_string(), 5) == p
    assert parse_cycles("()", 4).is_identity()
    assert parse_cycles("(0, 1, 2)", 3) == parse_cycles("(0 1 2)", 3)


def test_cycle_string_matches_a_reference_walk():
    # every degree from 0, the byte-word limit and past it, with fixed points
    rng = random.Random(11)
    for n in (0, 1, 2, 5, 255, 256, 257, 300):
        for _ in range(5):
            images = list(range(n))
            moved = rng.sample(range(n), rng.randint(0, n))
            shuffled = moved[:]
            rng.shuffle(shuffled)
            for x, y in zip(moved, shuffled):
                images[x] = y
            p = Permutation(images)
            assert p.cycle_string() == reference_cycle_string(p)
            written = "".join("(" + " ".join(map(str, c)) + ")" for c in p.cycles())
            assert (written or "()") == reference_cycle_string(p)
            assert parse_cycles(p.cycle_string(), n) == p


def test_not_a_permutation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        parse_cycles("(0 5)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 1) junk", 3)
