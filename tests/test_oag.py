import pytest
from hypothesis import given, strategies as st

from hypertower.oag import (
    INF,
    GroupElement,
    TropSet,
    group_add,
    group_cmp,
    order_from_hyperadd,
    trop_hyperadd,
    trop_member,
    trop_translate,
    value_to_json,
)


def g2(a, b):
    return GroupElement((a, b))


class TestGroupOps:
    def test_add_ints(self):
        assert group_add(3, 5) == 8

    def test_inf_absorbs(self):
        assert group_add(GroupElement(7), INF) is INF
        assert group_add(INF, 7) is INF
        assert group_add(INF, INF) is INF

    def test_add_rank2(self):
        assert group_add(g2(1, -2), g2(0, 5)) == g2(1, 3)

    def test_cmp_ints(self):
        assert group_cmp(3, 5) == -1
        assert group_cmp(5, 3) == 1
        assert group_cmp(4, 4) == 0

    def test_cmp_lex(self):
        assert group_cmp(g2(0, 7), g2(1, -100)) == -1

    def test_inf_is_max(self):
        assert group_cmp(INF, 3) == 1
        assert group_cmp(g2(10, 10), INF) == -1
        assert INF > GroupElement(10 ** 9)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            group_add(g2(1, 2), GroupElement(3))
        with pytest.raises(ValueError):
            group_cmp(g2(1, 2), 3)

    def test_int_interop(self):
        assert GroupElement(3) == 3
        assert 3 < GroupElement(5)
        assert hash(GroupElement(3)) == hash(3)


class TestTropical:
    def test_distinct_values(self):
        assert trop_hyperadd(3, 5) == TropSet.singleton(3)

    def test_equal_values(self):
        assert trop_hyperadd(4, 4) == TropSet.up_interval(4)

    def test_inf_neutral(self):
        assert trop_hyperadd(7, INF) == TropSet.singleton(7)
        assert trop_hyperadd(INF, 7) == TropSet.singleton(7)
        assert trop_hyperadd(INF, INF) == TropSet.singleton(INF)

    def test_member_upinterval(self):
        s = TropSet.up_interval(4)
        assert trop_member(9, s)
        assert not trop_member(3, s)
        assert trop_member(INF, s)
        assert trop_member(4, s)

    def test_member_open(self):
        s = TropSet.up_interval(4, open_lower=True)
        assert not trop_member(4, s)
        assert trop_member(5, s)
        assert trop_member(INF, s)

    def test_order_recovery(self):
        assert order_from_hyperadd(2, 5)
        assert not order_from_hyperadd(5, 2)
        assert order_from_hyperadd(3, 3)

    def test_tropset_validation(self):
        with pytest.raises(ValueError):
            TropSet.up_interval(INF)
        with pytest.raises(ValueError):
            TropSet("upset", GroupElement(1))


values = st.one_of(
    st.integers(-40, 40).map(GroupElement),
    st.just(INF),
)
finite = st.integers(-40, 40).map(GroupElement)
pairs2 = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(GroupElement)


@given(finite, finite, finite)
def test_add_associative_commutative(a, b, c):
    assert group_add(group_add(a, b), c) == group_add(a, group_add(b, c))
    assert group_add(a, b) == group_add(b, a)


@given(values)
def test_zero_is_identity(a):
    # the group zero is the multiplicative identity of the min-based algebra
    assert group_add(a, 0) == a
    assert group_add(0, a) == a


@given(finite, finite, finite)
def test_order_translation_invariant(a, b, e):
    if group_cmp(a, b) == -1:
        assert group_cmp(group_add(a, e), group_add(b, e)) == -1


@given(pairs2, pairs2)
def test_lex_total_order(a, b):
    assert group_cmp(a, b) == -group_cmp(b, a)


@given(values, values)
def test_order_from_hyperadd_matches_cmp(a, b):
    assert order_from_hyperadd(a, b) == (group_cmp(a, b) <= 0)


@given(values, values)
def test_hyperadd_commutative(a, b):
    assert trop_hyperadd(a, b) == trop_hyperadd(b, a)


@given(values)
def test_inf_is_neutral(a):
    assert trop_hyperadd(a, INF) == TropSet.singleton(a)


@given(values, values, st.integers(0, 10))
def test_reversibility(a, b, k):
    # pick a member c of a (+) b, then a must belong to c (+) b
    s = trop_hyperadd(a, b)
    if s.kind == "singleton":
        c = s.value
    else:
        c = INF if k == 10 else group_add(s.value, GroupElement(k))
    assert trop_member(c, s)
    assert trop_member(a, trop_hyperadd(c, b))


@given(finite, values, values)
def test_translation_distributes(e, a, b):
    lhs = trop_translate(e, trop_hyperadd(a, b))
    rhs = trop_hyperadd(group_add(e, a), group_add(e, b))
    assert lhs == rhs


def as_value(v, arity=1):
    """Referee for ``value_to_json``: read a JSON extended value back."""
    if v == "inf":
        return INF
    g = GroupElement(v)
    if g.arity != arity:
        raise ValueError(f"arity mismatch: expected {arity}, got {g.arity}")
    return g


@given(values)
def test_json_roundtrip(v):
    assert as_value(value_to_json(v)) == v


def test_json_rank2():
    assert value_to_json(g2(1, -2)) == [1, -2]
    assert as_value([1, -2], arity=2) == g2(1, -2)
    assert value_to_json(INF) == "inf"
    assert as_value("inf") is INF
