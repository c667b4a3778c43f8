"""Deterministic random generators shared by the CLI law suites and tests.

Everything takes an explicit ``random.Random`` so identical seeds give
identical streams; the checkers themselves stay pure consumers.
"""

from __future__ import annotations

from .cosets import GammaCoset, coset_of, hyperadd
from .oag import GroupElement, INF


def sample_element(field, rng, height=30, zero_chance=0.05):
    """A field element with a spread of valuations, occasionally zero."""
    if rng.random() < zero_chance:
        return field.zero()
    x = field.random_nonzero(rng, height)
    shift = rng.randint(-3, 5)
    if shift:
        x = field.mul(x, field.uniformizer_pow(shift))
    return x


def sample_nonzero(field, rng):
    return sample_element(field, rng, zero_chance=0.0)


def sample_coset(field, rng, level):
    return coset_of(field, sample_element(field, rng), level)


def sample_hypersum(field, rng):
    level = rng.randint(0, 4)
    x = sample_nonzero(field, rng)
    if rng.random() < 0.25:
        y = field.neg(x) if rng.random() < 0.5 else field.mul(x, field.unit_digit(1))
    else:
        y = sample_nonzero(field, rng)
    return hyperadd(coset_of(field, x, level), coset_of(field, y, level))


def sample_member(s, rng):
    """A genuine member class of a sum descriptor: its center, or the
    center moved by u * pi^(radius + k) when the radius is finite."""
    f = s.field
    k, i = rng.randint(1, 4), rng.randrange(4)
    if rng.random() < 0.2 or s.radius is INF:
        return s.center
    w = f.mul(f.uniformizer_pow(s.radius + k), f.unit_digit(i))
    return GammaCoset(f, s.level, f.add(s.center.rep, w))


def sample_nonmember(s, rng):
    """A class just outside a sum descriptor.

    Perturbing the center by an element whose valuation sits exactly at
    the radius lands outside, as the ball is open; a ball of radius INF
    is the zero class alone, left by a perturbation of value g.
    """
    f = s.field
    r = s.level if s.radius is INF else s.radius
    w = f.mul(f.uniformizer_pow(r), f.unit_digit(rng.randrange(4)))
    return GammaCoset(f, s.level, f.add(s.center.rep, w))


def sample_trop_value(rng, arity=1, inf_chance=0.05):
    if rng.random() < inf_chance:
        return INF
    return GroupElement(tuple(rng.randint(-25, 25) for _ in range(arity)))
