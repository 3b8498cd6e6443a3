"""Tests for the statistical indistinguishability checks."""

import math
import random
import secrets

import pytest

from repro import run_join_query
from repro.analysis.statistics import (
    byte_uniformity,
    chi_square_tail,
    ciphertext_material,
    commutative_tag_spread,
    mediator_ciphertext_uniformity,
)
from repro.analysis.views import mediator_party
from repro.errors import ProtocolError

QUERY = "select * from R1 natural join R2"


@pytest.fixture(scope="module")
def factory(ca, client, workload):
    from repro import Federation
    from repro.mediation.access_control import allow_all

    def make():
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        federation.add_source("S2", [(workload.relation_2, allow_all())])
        federation.attach_client(client)
        return federation

    return make


class TestByteUniformity:
    def test_random_bytes_pass(self):
        report = byte_uniformity(secrets.token_bytes(1 << 16))
        assert report.looks_uniform
        assert report.sample_bytes == 1 << 16

    def test_structured_bytes_fail(self):
        report = byte_uniformity(b"AAAA" * 1024)
        assert not report.looks_uniform

    def test_english_text_fails(self):
        text = (b"the quick brown fox jumps over the lazy dog " * 100)
        assert not byte_uniformity(text).looks_uniform

    def test_small_sample_rejected(self):
        with pytest.raises(ProtocolError):
            byte_uniformity(b"tiny")


def seeded_material(seed: int, skew: float, size: int) -> bytes:
    """``size`` bytes drawn with weight ``exp(-skew * value)``: uniform
    at ``skew == 0``, ever more lopsided above it."""
    rng = random.Random(seed)
    weights = [math.exp(-skew * value) for value in range(256)]
    return bytes(rng.choices(range(256), weights=weights, k=size))


#: (seed, skew, size): uniform, mildly and strongly skewed histograms,
#: with p-values from ~0.5 down to 1e-51 and to underflow.
HISTOGRAMS = [
    (1, 0.0, 1024), (2, 0.0, 65536), (3, 0.001, 4096), (4, 0.001, 65536),
    (5, 0.003, 4096), (6, 0.01, 1024), (7, 0.05, 4096), (8, 0.3, 65536),
]


class TestChiSquareTail:
    @pytest.mark.parametrize("seed, skew, size", HISTOGRAMS)
    def test_matches_scipy_chisquare(self, seed, skew, size):
        stats = pytest.importorskip("scipy.stats")
        material = seeded_material(seed, skew, size)
        histogram = [material.count(value) for value in range(256)]
        chi2, p_value = stats.chisquare(histogram)
        report = byte_uniformity(material)
        assert math.isclose(report.chi2, chi2, rel_tol=1e-12)
        # Relative error 1e-9 wherever the tail is a normal double; below
        # that both sides have underflowed.
        assert math.isclose(
            chi_square_tail(float(chi2), 255), p_value,
            rel_tol=1e-9, abs_tol=1e-300,
        )
        assert math.isclose(
            report.p_value, p_value, rel_tol=1e-9, abs_tol=1e-300
        )

    @pytest.mark.parametrize("dof", [1, 2, 3, 10, 255])
    def test_known_tails(self, dof):
        # Q(a, 0) = 1; with two degrees of freedom the tail is exp(-x/2).
        assert chi_square_tail(0.0, dof) == 1.0
        if dof == 2:
            for chi2 in (0.5, 5.0, 50.0):
                assert math.isclose(
                    chi_square_tail(chi2, 2), math.exp(-chi2 / 2),
                    rel_tol=1e-12,
                )
        # The mean (= dof) sits above the median: a tail under one half.
        assert 0.3 < chi_square_tail(float(dof), dof) < 0.5


class TestMediatorMaterial:
    @pytest.mark.parametrize(
        "protocol", ["das", "commutative", "private-matching"]
    )
    def test_ciphertext_material_looks_uniform(self, factory, protocol):
        result = run_join_query(factory(), QUERY, protocol=protocol)
        report = mediator_ciphertext_uniformity(result)
        assert report.looks_uniform, (
            protocol, report.p_value, report.sample_bytes,
        )

    def test_material_extraction_nonempty(self, factory):
        result = run_join_query(factory(), QUERY, protocol="das")
        view = result.network.view(mediator_party(result.network))
        assert len(ciphertext_material(view)) > 1024


class TestTagSpread:
    def test_commutative_tags(self, factory, workload):
        result = run_join_query(factory(), QUERY, protocol="commutative")
        report = commutative_tag_spread(result)
        n = len(workload.relation_1.active_domain("k"))
        m = len(workload.relation_2.active_domain("k"))
        assert report.tags == n + m
        assert report.collision_free
        assert report.well_spread

    def test_requires_commutative_run(self, factory):
        result = run_join_query(factory(), QUERY, protocol="das")
        with pytest.raises(ProtocolError):
            commutative_tag_spread(result)
