"""Named instance fixtures used by tests and the CLI generator."""

from __future__ import annotations

from dataclasses import dataclass, field

from .fileformat import MAX_VERTICES, _integer
from .graph import Digraph, Instance


@dataclass(frozen=True)
class HubFanFixture:
    """The hub-and-fan graph with a_1..a_r feeding every terminal, b_i feeding
    a_i, and c_{i,j} feeding both a_i and a_j.  Its important-separator and
    exact-shadow structure is known in closed form, which makes it the main
    hand-checkable fixture.

    Layout: terminals 0..k-1, then a_1..a_r, then b_1..b_r, then c_{i,j}
    for 1 <= i < j <= r in lexicographic order.
    """

    r: int
    k: int
    budget: int = 2
    instance: Instance = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r, k = self.r, self.k
        if r < 1 or k < 1:
            raise ValueError("r and k must be positive")
        n = k + 2 * r + r * (r - 1) // 2
        if n > MAX_VERTICES:  # checked before the r * (r + k) edges are built
            raise ValueError(f"vertex count {n} exceeds the limit {MAX_VERTICES}")
        edges: list[tuple[int, int]] = []
        for i in range(1, r + 1):
            edges += [(self.a(i), self.t(j)) for j in range(1, k + 1)]
            edges.append((self.b(i), self.a(i)))
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                edges += [(self.c(i, j), self.a(i)), (self.c(i, j), self.a(j))]
        terminals = frozenset(range(k))
        inst = Instance(Digraph(n, edges, terminals), terminals, self.budget)
        object.__setattr__(self, "instance", inst)

    def t(self, j: int) -> int:
        return j - 1

    def a(self, i: int) -> int:
        return self.k + i - 1

    def b(self, i: int) -> int:
        return self.k + self.r + i - 1

    def c(self, i: int, j: int) -> int:
        if not 1 <= i < j <= self.r:
            raise ValueError("need 1 <= i < j <= r")
        # (i - 1) * (2r - i) / 2 pairs start with an index below i
        return self.k + 2 * self.r + (i - 1) * (2 * self.r - i) // 2 + j - i - 1


def hub_fan(r: int = 3, k: int = 2, budget: int = 2) -> HubFanFixture:
    return HubFanFixture(r, k, budget)


def two_cycle(budget: int = 2) -> Instance:
    """t1 -> x -> t2 and t2 -> y -> t1; the unique optimum cut is {x, y}."""
    t1, t2, x, y = 0, 1, 2, 3
    g = Digraph(4, [(t1, x), (x, t2), (t2, y), (y, t1)], {t1, t2})
    return Instance(g, frozenset({t1, t2}), budget)


def named_fixture(name: str) -> Instance:
    """Parse fixture names like "remark2:r=3,k=2" or "twocycle:p=2"."""
    head, _, rest = name.partition(":")
    params: dict[str, int] = {}
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key in params:
                raise ValueError(f"repeated fixture parameter {key!r}")
            try:
                params[key] = _integer(value.strip())
            except ValueError as exc:
                raise ValueError(f"fixture parameter {key!r}: {exc}") from None
    if head == "remark2":
        inst = hub_fan(
            r=params.pop("r", 3), k=params.pop("k", 2), budget=params.pop("p", 2)
        ).instance
    elif head == "twocycle":
        inst = two_cycle(budget=params.pop("p", 2))
    else:
        raise ValueError(f"unknown fixture {head!r}")
    if params:
        raise ValueError(f"unknown fixture parameters {sorted(params)}")
    return inst
