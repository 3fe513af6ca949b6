"""Content filtering at ad-posting time.

When new ads are created the platform vets the ad text, keywords and
destination site.  Blacklisted terms (trademarks, tech-support policy
vocabulary after the ban), un-obfuscated phone numbers, and blacklisted
domains are near-certain catches; scammy-but-unlisted copy is caught
heuristically.  Evasion (homoglyphs, phone obfuscation) degrades the
scanner, but obfuscation itself is an anomaly signal
(:func:`repro.matching.evasion.obfuscation_score`).
"""

from __future__ import annotations

import numpy as np

from ..behavior.factory import MaterializedAccount
from ..config import DetectionConfig
from ..entities.enums import AdvertiserKind
from ..matching.blacklist import Blacklist
from ..matching.evasion import deobfuscate, obfuscation_score
from ..taxonomy.keywords import keyword_pool
from .hazards import sample_exponential_delay

__all__ = ["content_filter_catch_prob", "evaluate_content"]

#: Probability the de-obfuscation pass recovers an account's evasive
#: writing style (one style per operator, so one recall draw).
DEOBFUSCATION_RECALL = 0.30
#: Catch probability when a blacklist violation is plainly visible.
PLAIN_VIOLATION_CATCH = 0.95
#: Anomaly catch contribution when copy looks heavily obfuscated.
OBFUSCATION_ANOMALY_CATCH = 0.25


def content_filter_catch_prob(
    account: MaterializedAccount,
    blacklist: Blacklist,
    config: DetectionConfig,
    hardening: float,
) -> float:
    """Probability the content filter flags this account at posting.

    Evidence is aggregated at the *account* level: an operator uses one
    copy/evasion style across their ads, so a plainly-visible violation
    anywhere is one (near-certain) catch, a style that only a
    de-obfuscation pass can see is one recall-limited catch, and heavy
    obfuscation itself is an anomaly signal.  The population's
    heuristic base rate (scammy-but-unlisted copy) stacks on top --
    more ads and keywords mean "greater surface area ... to detect
    dubious activity" (Section 5.2).
    """
    profile = account.profile
    if profile.kind is AdvertiserKind.FRAUD_PROLIFIC:
        base = config.prolific_content_filter_prob
    else:
        base = config.content_filter_prob
    base = min(0.97, base * hardening)

    plain_violation = False
    hidden_violation = False
    max_suspicion = 0.0
    for copy, domain in zip(account.ad_copies, account.ad_domains):
        text = copy.text()
        if blacklist.scan_text(text) or blacklist.is_domain_blacklisted(domain):
            plain_violation = True
        elif blacklist.scan_text(deobfuscate(text)):
            hidden_violation = True
        max_suspicion = max(max_suspicion, obfuscation_score(text))
    for vertical, kw_idx_col in zip(profile.verticals, account.kw_idx_cols):
        pool = keyword_pool(vertical)
        if any(blacklist.term_hits(" ".join(pool[i])) for i in set(kw_idx_col)):
            plain_violation = True

    evasion_discount = 1.0 - 0.5 * profile.evasion_skill
    miss = 1.0 - base
    if plain_violation:
        miss *= 1.0 - PLAIN_VIOLATION_CATCH * evasion_discount
    if hidden_violation:
        miss *= 1.0 - DEOBFUSCATION_RECALL * PLAIN_VIOLATION_CATCH * evasion_discount
    if max_suspicion > 0:
        miss *= 1.0 - OBFUSCATION_ANOMALY_CATCH * min(1.0, max_suspicion)
    return 1.0 - max(0.0, miss)


def evaluate_content(
    account: MaterializedAccount,
    first_ad_time: float,
    blacklist: Blacklist,
    config: DetectionConfig,
    hardening: float,
    rng: np.random.Generator,
) -> float | None:
    """Shutdown time from the content filter, or None if it misses."""
    probability = content_filter_catch_prob(
        account, blacklist, config, hardening
    )
    if rng.random() >= probability:
        return None
    return first_ad_time + sample_exponential_delay(
        config.content_filter_mean_days, rng
    )
