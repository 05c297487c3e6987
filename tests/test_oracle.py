import pytest

from dmwc.fixtures import hub_fan, named_fixture, two_cycle
from dmwc.graph import Digraph, Instance
from dmwc.oracle import brute_force_important, brute_force_mwc, generate_instance


def test_brute_force_mwc_examples():
    assert brute_force_mwc(two_cycle(2)) == frozenset({2, 3})
    fx = hub_fan(3, 2, budget=0)
    assert brute_force_mwc(fx.instance) == frozenset()
    direct = Instance(Digraph(2, [(0, 1)], {0, 1}), frozenset({0, 1}), 5)
    assert brute_force_mwc(direct) is None


def test_brute_force_mwc_cap():
    g = Digraph(25, [], {0, 1})
    with pytest.raises(ValueError):
        brute_force_mwc(Instance(g, frozenset({0, 1}), 1))


def test_brute_force_important_examples():
    path = Digraph(4, [(0, 1), (1, 2), (2, 3)], {0, 3})
    got = brute_force_important(path, {0}, {3}, 2)
    assert got == [frozenset({2})]
    fx = hub_fan(3, 2)
    got = brute_force_important(
        fx.instance.graph, {fx.c(1, 2)}, fx.instance.terminals, 2
    )
    assert got == [frozenset({fx.a(1), fx.a(2)})]
    apart = Digraph(3, [(0, 1)])
    got = brute_force_important(apart, {1}, {2}, 2)
    assert got == [frozenset()]
    with pytest.raises(ValueError):
        brute_force_important(Digraph(25), {0}, {1}, 1)


def test_generator_is_deterministic():
    a = generate_instance(7, 8, 0.3, 2, 2, 0.2)
    b = generate_instance(7, 8, 0.3, 2, 2, 0.2)
    assert a == b
    c = generate_instance(8, 8, 0.3, 2, 2, 0.2)
    assert a != c  # astronomically unlikely to collide


def test_generator_contract():
    inst = generate_instance(1, 10, 0.0, 3, 2)
    assert inst.graph.edges == ()
    assert brute_force_mwc(inst) == frozenset()
    dense = generate_instance(2, 6, 1.0, 2, 1)
    assert all(u != v for u, v in dense.graph.edges)
    assert dense.terminals <= dense.graph.infinite


def test_generator_validates():
    with pytest.raises(ValueError):
        generate_instance(0, 3, 0.5, 4, 1)
    with pytest.raises(ValueError):
        generate_instance(0, 3, 1.5, 2, 1)
    with pytest.raises(ValueError):
        generate_instance(0, 3, 0.5, 2, -1)
    with pytest.raises(ValueError):
        generate_instance(0, 3, 0.5, 2, 1, 2.0)


def test_hub_fan_validates():
    for r, k in [(0, 2), (3, 0)]:
        with pytest.raises(ValueError, match="positive"):
            hub_fan(r, k)
    fx = hub_fan(3, 2)
    for i, j in [(0, 2), (2, 2), (2, 1), (1, 4)]:
        with pytest.raises(ValueError, match="1 <= i < j <= r"):
            fx.c(i, j)


def test_named_fixtures():
    fx = named_fixture("remark2:r=3,k=2")
    assert fx == hub_fan(3, 2).instance
    assert named_fixture("remark2: r = 3 ,k=02 ") == fx  # values are stripped like keys
    assert named_fixture("twocycle:p=1") == two_cycle(1)
    assert named_fixture("twocycle") == two_cycle(2)
    with pytest.raises(ValueError):
        named_fixture("nope")
    with pytest.raises(ValueError):
        named_fixture("twocycle:q=1")
    with pytest.raises(ValueError):
        named_fixture("twocycle:p")
    # a repeated parameter is an error, not a silent last-one-wins
    for name in ("twocycle:p=1,p=3", "remark2:r=3, r=3"):
        with pytest.raises(ValueError, match="repeated fixture parameter"):
            named_fixture(name)
