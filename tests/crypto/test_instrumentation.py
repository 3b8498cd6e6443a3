"""Tests for the primitive-usage instrumentation."""

import threading

from repro.crypto import paillier, symmetric
from repro.crypto.instrumentation import count_primitives, record


class TestCounter:
    def test_records_inside_context(self):
        with count_primitives() as counter:
            record("hash.ideal")
            record("hash.ideal")
            record("commutative.encrypt", amount=3)
        assert counter.counts["hash.ideal"] == 2
        assert counter.counts["commutative.encrypt"] == 3

    def test_silent_outside_context(self):
        record("hash.ideal")  # must not raise, must not be visible anywhere
        with count_primitives() as counter:
            pass
        assert not counter.counts

    def test_nested_counters_both_observe(self):
        with count_primitives() as outer:
            record("a.x")
            with count_primitives() as inner:
                record("b.y")
            record("a.x")
        assert outer.counts == {"a.x": 2, "b.y": 1}
        assert inner.counts == {"b.y": 1}

    def test_counter_is_thread_scoped(self):
        with count_primitives() as counter:
            record("hash.ideal")
            other = threading.Thread(target=record, args=("paillier.encrypt",))
            other.start()
            other.join(timeout=10)
            assert not other.is_alive()
        assert counter.counts == {"hash.ideal": 1}


class TestPrimitivesReport:
    def test_paillier_operations_recorded(self):
        with count_primitives() as counter:
            key = paillier.generate_keypair(256)
            ct = paillier.encrypt(key.public_key, 5)
            paillier.add(ct, ct)
            paillier.decrypt(key, ct)
        assert counter.counts["paillier.keygen"] == 1
        assert counter.counts["paillier.encrypt"] == 1
        assert counter.counts["paillier.add"] == 1
        assert counter.counts["paillier.decrypt"] == 1

    def test_symmetric_operations_recorded(self):
        with count_primitives() as counter:
            key = symmetric.generate_key()
            ct = symmetric.encrypt(key, b"x")
            symmetric.decrypt(key, ct)
        assert counter.counts["symmetric.encrypt"] == 1
        assert counter.counts["symmetric.decrypt"] == 1
        assert counter.counts["random.session_key"] == 1
