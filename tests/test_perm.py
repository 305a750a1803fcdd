import random
import time
from itertools import permutations

import numpy as np
import pytest

from chartab import Permutation, parse_cycles
from chartab.perm import point_dtype

from helpers import reference_cycle_string


def test_identity():
    e = Permutation.identity(5)
    assert e.images.tolist() == [0, 1, 2, 3, 4]
    assert e.images.dtype == point_dtype(5) and not e.images.flags.writeable
    assert e.is_identity() and e.order() == 1
    assert e.cycle_string() == "()"


def test_compose_left_to_right():
    p = parse_cycles("(0 1)", 3)
    q = parse_cycles("(1 2)", 3)
    # apply p first: 0 -> 1 -> 2
    assert (p * q).images[0] == 2
    assert (q * p).images[0] == 1


def test_product_and_identity_at_every_degree():
    # degrees 0 and 1 hold only the identity, the edge cases of the gather;
    # larger degrees are checked on seeded pairs
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
        assert product.images.tolist() == [q[i] for i in p]
        assert product.images.dtype == point_dtype(len(p))
        assert not product.images.flags.writeable
        identity = tuple(range(len(p)))
        assert product.is_identity() == (tuple(product.images.tolist()) == identity)
        assert Permutation(p).is_identity() == (p == identity)


def test_inverse_and_power():
    p = parse_cycles("(0 1 2 3 4)", 5)
    assert (p * p.inverse()).is_identity()
    fifth = p * p * p * p * p
    assert fifth == Permutation.identity(5)
    assert hash(fifth) == hash(Permutation.identity(5))
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


@pytest.mark.parametrize("images", [[-1, 0, 1], [0, 1, 2 ** 64], [0, 1, 2 ** 63], [0, 0, 1],
                                    "(0 3)", [0, 2], [1], [0.0, 1.0], [[0, 1]],
                                    np.array([0, 0, 1])],
                         ids=["negative", "2^64", "2^63", "repeated", "cycle-string", "gap",
                              "degree-1", "floats", "nested", "repeated-array"])
def test_permutation_rejects_what_is_not_a_permutation(images):
    # checked before the cast to a point array, which would wrap or overflow
    with pytest.raises(ValueError):
        Permutation(images)


def test_permutation_copies_its_images_into_a_read_only_point_array():
    for n in (0, 1, 3, 257):
        expected = list(range(n - 1, -1, -1))
        for source in (list(expected), np.array(expected)):
            p = Permutation(source)
            if n > 1:
                source[0], source[1] = source[1], source[0]
            assert p.images.tolist() == expected
            assert p.images.dtype == point_dtype(n) and not p.images.flags.writeable
            if n:
                with pytest.raises(ValueError):
                    p.images[0] = 0


def _reference_parse(cycles, degree):
    """Cycles composed left to right by rebuilding every image per cycle."""
    images = list(range(degree))
    for c in cycles:
        step = dict(zip(c, c[1:] + c[:1]))
        images = [step.get(x, x) for x in images]
    return images


def test_parse_cycles_matches_a_reference_and_takes_linear_time():
    rng = random.Random(5)
    for degree in (1, 2, 3, 7, 300):
        for _ in range(20):
            cycles = [rng.sample(range(degree), rng.randint(1, min(degree, 5)))
                      for _ in range(rng.randint(0, 6))]
            text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"
            assert parse_cycles(text, degree).images.tolist() == _reference_parse(cycles, degree)
    assert parse_cycles("(0 1)(1 2)", 3).images.tolist() == [2, 0, 1]
    # n/2 disjoint transpositions at degree n: quadratic when each cycle
    # rebuilds the images
    degree = 100_000
    points = list(range(degree))
    rng.shuffle(points)
    pairs = list(zip(points[::2], points[1::2]))
    text = "".join(f"({a} {b})" for a, b in pairs)
    started = time.perf_counter()
    p = parse_cycles(text, degree)
    assert time.perf_counter() - started < 1.0
    expected = list(range(degree))
    for a, b in pairs:
        expected[a], expected[b] = b, a
    assert p.images.tolist() == expected
