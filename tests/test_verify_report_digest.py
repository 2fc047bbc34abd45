"""The whole verify report, pinned by its sha256.

Every check's name, parameters, status and witness enter the digest, so any
change to what verify checks or finds shows here.
"""

import hashlib
import json

import pytest

from gtbasis.verify import SUITES, _check_rng, build_checks, run_verify

STREAMS_SHA256 = "4f527b1124290753a45dd6610912793afed86d3c50551f265322fe769e4c167d"


@pytest.mark.parametrize("m_max, digest", [
    (4, "bbc97a531b7ed157c45128d91e013ec944ce75304f2992de6ddd8c30bc374627"),
    (5, "736a107382158d312ec0ef0a68409be10f0e82a3c8bfa4bfa0b26ddf14e169db"),
], ids=["m_max4", "m_max5"])
def test_verify_all_report_is_pinned(m_max, digest):
    report = run_verify(("all",), m_max=m_max, seed=0)[0]
    assert report["overall"] == "pass"
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_check_streams_are_pinned():
    # No passing report holds a sampled value, so the report digests above do
    # not see the streams; the first draws of every check's stream pin them.
    digest = hashlib.sha256()
    for check in build_checks(SUITES, 4, 4, 3):
        rng = _check_rng(0, check.name, check.params)
        digest.update(repr((rng.uniform(-1.0, 1.0), rng.randrange(-9, 10))).encode())
    assert digest.hexdigest() == STREAMS_SHA256
