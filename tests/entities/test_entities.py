"""Tests for domain generation."""

import numpy as np

from repro.entities import sample_domain_count, shared_domains, unique_domain


class TestDomains:
    def test_unique_domains_mostly_unique(self, rng):
        domains = {unique_domain(rng) for _ in range(200)}
        assert len(domains) > 190

    def test_shared_domains_stable(self):
        assert "lnk.ly" in shared_domains()
        assert "bountymax.com" in shared_domains()

    def test_single_ad_single_domain(self, rng):
        assert sample_domain_count(rng, 1, is_fraud=True) == 1
        assert sample_domain_count(rng, 1, is_fraud=False) == 1

    def test_fraud_domain_distribution(self, rng):
        counts = np.asarray(
            [sample_domain_count(rng, 30, is_fraud=True) for _ in range(2000)]
        )
        # Section 5.2.4: multi-ad accounts average ~3 domains, p90 large.
        assert 1.5 < counts.mean() < 5.0
        assert np.percentile(counts, 90) >= 3
        assert counts.max() <= 30

    def test_legit_rarely_rotates(self, rng):
        counts = [sample_domain_count(rng, 30, is_fraud=False) for _ in range(500)]
        assert np.mean(counts) < 1.5
