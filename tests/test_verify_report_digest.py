"""The whole verify report, pinned by its sha256.

Every check's name, parameters, status and witness enter the digest, so any
change to what verify checks or finds shows here.
"""

import hashlib
import json

import pytest

from gtbasis.verify import run_verify


@pytest.mark.parametrize("m_max, digest", [
    (4, "bbc97a531b7ed157c45128d91e013ec944ce75304f2992de6ddd8c30bc374627"),
    (5, "736a107382158d312ec0ef0a68409be10f0e82a3c8bfa4bfa0b26ddf14e169db"),
], ids=["m_max4", "m_max5"])
def test_verify_all_report_is_pinned(m_max, digest):
    report = run_verify(("all",), m_max=m_max, seed=0)[0]
    assert report["overall"] == "pass"
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
