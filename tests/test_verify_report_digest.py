"""The whole verify report, pinned by the sha256 of what `gtbasis verify` prints.

That is `json.dumps(report, sort_keys=True)` and a newline.  Every check's
name, parameters, status and witness enter the digest, so any change to what
verify checks or finds shows here.
"""

import hashlib

import pytest

from gtbasis.verify import SUITES, _check_rng, build_checks
from test_pinned_outputs import cli_stdout_sha256

VERIFY_SEED0_SHA256 = "e13e131bf68ee683a831e474e85a23c9466ab10b79e2c9ae060846550232664b"
VERIFY_SEED777_SHA256 = "25983bf867dba81c69ec55182353441c519ddfabb625552784cc90901f977ca9"
VERIFY_M_MAX5_SHA256 = "a9e187681446936f1d4b195871dc0d724c40b2c9050e5a9d03d7fc6bde7d4fd3"
STREAMS_SHA256 = "4f527b1124290753a45dd6610912793afed86d3c50551f265322fe769e4c167d"


@pytest.mark.parametrize("flags, digest", [
    ("--seed 0", VERIFY_SEED0_SHA256),
    ("--seed 777", VERIFY_SEED777_SHA256),
    ("--seed 0 --m-max 5", VERIFY_M_MAX5_SHA256),
], ids=["seed0", "seed777", "seed0-m_max5"])
def test_verify_report_is_pinned(flags, digest):
    # exit code 0 means every check passed
    assert cli_stdout_sha256("verify", *flags.split()) == digest


def test_check_streams_are_pinned():
    # No passing report holds a sampled value, so the report digests above do
    # not see the streams; the first draws of every check's stream pin them.
    digest = hashlib.sha256()
    for check in build_checks(SUITES, 4, 4, 3):
        rng = _check_rng(0, check.name, check.params)
        digest.update(repr((rng.uniform(-1.0, 1.0), rng.randrange(-9, 10))).encode())
    assert digest.hexdigest() == STREAMS_SHA256
