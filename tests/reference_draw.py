"""The sampler's draw written with randint, on a Random built per trial, as
an oracle for sampler._draw on its reseeded generator."""

import random


def trial_rng(seed, t):
    """The generator of trial t of a run with this seed."""
    return random.Random(seed * 1_000_003 + t)


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
    """The draw of every trial 1..trials, None where it was rejected."""
    return [randint_draw(trial_rng(seed, t), dim, bound) for t in range(1, trials + 1)]
