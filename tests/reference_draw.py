"""The sampler's draw written with randint, on one Random per run, as an
oracle for sampler._draw."""

import random


def draw_box(rng):
    """The box of a draw: 5 with probability 0.8, randint(1, 4) with 0.15,
    and otherwise 8 doubled while random() < 0.5, up to 4096."""
    u = rng.random()
    if u < 0.8:
        return 5
    if u < 0.95:
        return rng.randint(1, 4)
    box = 8
    while rng.random() < 0.5 and box < 1 << 12:
        box <<= 1
    return box


def randint_draw(rng, dim, bound):
    """One master draw of integer coordinates in [-box, box], drawn whole,
    then rejected when a coordinate lies outside [-bound, bound]."""
    box = draw_box(rng)
    vec = tuple(rng.randint(-box, box) for _ in range(dim))
    if all(abs(c) <= bound for c in vec):
        return vec
    return None


def reference_draws(seed, trials, dim, bound):
    """The draw of every trial 1..trials from one random.Random(seed), None
    where it was rejected."""
    rng = random.Random(seed)
    return [randint_draw(rng, dim, bound) for _ in range(trials)]
