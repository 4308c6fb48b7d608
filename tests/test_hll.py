"""darklens.hll stays, unused by darklens, only while bench/layers.py patches Hll.estimate."""
import random

import pytest

from darklens.hll import Hll


class TestHll:
    def test_empty_estimates_zero(self):
        assert Hll().estimate() == pytest.approx(0.0)

    def test_single_value(self):
        h = Hll()
        h.add_int(12345)
        assert 1 <= h.estimate() < 2

    def test_duplicates_do_not_inflate(self):
        h = Hll()
        for _ in range(10000):
            h.add_int(42)
        assert h.estimate() < 2

    @pytest.mark.parametrize("n", [1000, 100_000])
    def test_relative_error_within_3_percent(self, n):
        # Standard error at precision 14 is 0.81%; 3% is ~3.7 sigma.
        rng = random.Random(1_000_003 + n)
        h = Hll()
        truth = set()
        for _ in range(n):
            v = rng.getrandbits(32)
            truth.add(v)
            h.add_int(v)
        est = h.estimate()
        assert abs(est - len(truth)) / len(truth) < 0.03

    def test_merge_free_accumulation_is_order_independent(self):
        values = [random.Random(7).getrandbits(32) for _ in range(5000)]
        a, b = Hll(), Hll()
        for v in values:
            a.add_int(v)
        for v in reversed(values):
            b.add_int(v)
        assert a.estimate() == b.estimate()

    def test_large_cardinality(self):
        rng = random.Random(99)
        h = Hll()
        n = 2_000_000
        for _ in range(n):
            h.add_int(rng.getrandbits(64))
        assert abs(h.estimate() - n) / n < 0.03
