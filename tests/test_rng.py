from dmwc.rng import SplitMix64


def test_stream_is_seed_deterministic():
    a = [SplitMix64(42).next_u64() for _ in range(1)]
    b = [SplitMix64(42).next_u64() for _ in range(1)]
    assert a == b
    run1 = SplitMix64(7)
    run2 = SplitMix64(7)
    assert [run1.next_u64() for _ in range(50)] == [run2.next_u64() for _ in range(50)]


def test_known_first_output():
    # first output for seed 0, frozen so ports can cross-check the constants
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_coin_is_roughly_fair():
    rng = SplitMix64(3)
    heads = sum(rng.coin() for _ in range(4000))
    assert 1700 < heads < 2300


def test_unit_in_range():
    rng = SplitMix64(9)
    for _ in range(1000):
        u = rng.unit()
        assert 0.0 <= u < 1.0


def test_below_bounds_and_errors():
    rng = SplitMix64(5)
    assert all(0 <= rng.below(7) < 7 for _ in range(200))
    try:
        rng.below(0)
    except ValueError:
        pass
    else:
        raise AssertionError("below(0) must fail")


def test_sample_distinct_and_deterministic():
    got = SplitMix64(11).sample(10, 4)
    assert len(set(got)) == 4
    assert all(0 <= v < 10 for v in got)
    assert got == SplitMix64(11).sample(10, 4)
    try:
        SplitMix64(0).sample(3, 4)
    except ValueError:
        pass
    else:
        raise AssertionError("oversampling must fail")


class _Fixed(SplitMix64):
    """A stream stubbed to return one given output forever."""

    __slots__ = ("_x",)

    def __init__(self, x):
        super().__init__(0)
        self._x = x

    def next_u64(self):
        return self._x


def test_unit_reaches_one_at_the_top_of_the_stream():
    # x / 2^64 rounds to 1.0 in double precision for the 1,024 largest outputs
    assert _Fixed((1 << 64) - 1).unit() == 1.0
    assert _Fixed((1 << 64) - 1024).unit() == 1.0
    assert _Fixed((1 << 64) - 1025).unit() < 1.0
