"""The verify checks see what they claim to cover.

Checks are built in loops, one per (m, norm, sign) combination.  If a check
captured a loop variable late, every check would test the last combination:
the report would still pass and keep its shape.  Breaking a single case
shows that exactly the checks covering it fail, with the expected witness.
"""

import json

from gtbasis import CLIFFORD, PLAIN, MPoly, verify

_BIG = 2.0 ** 20

# (check name, params) -> witness, for every check the breaks below must fail
EXPECTED_FAILURES = {
    ("extract.harm_series_equals_basis",
     '{"m": 3, "norm": "factorial", "order": 3, "sign": -1}'):
        "coefficient at k=(0, 0) differs from harm_basis",
    ("extract.harm_series_equals_basis",
     '{"m": 3, "norm": "plain", "order": 3, "sign": -1}'):
        "coefficient at k=(0, 0) differs from harm_basis",
    ("extract.mon_series_equals_basis", '{"m": 3, "norm": "plain", "order": 3}'):
        "coefficient at k=(0, 0) differs from mon_basis",
    ("gf.harm_closed_vs_series", '{"m": 3, "norm": "factorial", "points": 20}'):
        "point 0: |closed-series| = 1048575.9999999999",
    ("gf.harm_closed_vs_series", '{"m": 3, "norm": "plain", "points": 20}'):
        "point 0: |closed-series| = 1048576.0",
    ("gf.harm_m3_closed_formula", '{"norm": "factorial", "sign": -1}'):
        "point 0: m3 formula vs recurrence 1048576.0",
    ("gf.harm_m3_closed_formula", '{"norm": "plain", "sign": -1}'):
        "point 0: m3 formula vs recurrence 1048576.0",
    ("gf.mon_closed_vs_series", '{"m": 3, "norm": "plain", "points": 20}'):
        "point 0: component error 1048576.0",
    ("gf.mon_m3_closed_formula", '{"norm": "plain"}'):
        "point 0: m3 formula vs recurrence 1048576.0",
    ("ortho.harm_pairwise", '{"deg_max": 4, "m": 3, "norm": "factorial"}'):
        "<harm_{0,0}^+ [factorial],harm_{1,0}^- [factorial]> = 4/15*pi != 0",
    ("pde.harm_laplacian_zero", '{"deg_max": 4, "m": 3, "norm": "factorial"}'):
        "laplacian(harm harm_{1,0}^- [factorial]) != 0",
    ("pde.harm_laplacian_zero", '{"deg_max": 4, "m": 3, "norm": "plain"}'):
        "laplacian(harm harm_{1,0}^- [plain]) != 0",
    ("pde.mon_dirac_zero", '{"deg_max": 4, "m": 3, "norm": "plain"}'):
        "dirac(mon mon_{0,0} [plain]) != 0",
}


def _install_breaks(monkeypatch):
    """Break the harmonic functions at m=3, sign - and the monogenic ones at m=3, plain."""
    harm_basis, mon_basis = verify.harm_basis, verify.mon_basis
    gf_harm_closed, gf_mon_closed = verify.gf_harm_closed, verify.gf_mon_closed

    def broken_harm_basis(idx):
        poly = harm_basis(idx)
        if idx.m == 3 and idx.sign < 0:
            poly = poly + MPoly.variable(3, 1) ** 2
        return poly

    def broken_mon_basis(idx):
        poly = mon_basis(idx)
        if idx.m == 3 and idx.normalization == PLAIN:
            poly = poly + MPoly.variable(3, 1, CLIFFORD) ** 2
        return poly

    def broken_harm_closed(m, x, h, sign=+1, normalization="factorial",
                           unsafe_domain=False):
        value = gf_harm_closed(m, x, h, sign, normalization, unsafe_domain=unsafe_domain)
        return value + _BIG if m == 3 and sign < 0 else value

    def broken_mon_closed(m, x, h, normalization="factorial", unsafe_domain=False):
        value = gf_mon_closed(m, x, h, normalization, unsafe_domain=unsafe_domain)
        return value + _BIG if m == 3 and normalization == PLAIN else value

    monkeypatch.setattr(verify, "harm_basis", broken_harm_basis)
    monkeypatch.setattr(verify, "mon_basis", broken_mon_basis)
    monkeypatch.setattr(verify, "gf_harm_closed", broken_harm_closed)
    monkeypatch.setattr(verify, "gf_mon_closed", broken_mon_closed)


def test_broken_case_fails_exactly_the_checks_that_cover_it(monkeypatch):
    _install_breaks(monkeypatch)
    report, _ = verify.run_verify(("all",), m_max=3, seed=0)
    failed = {}
    for check in report["checks"]:
        key = (check["name"], json.dumps(check["params"], sort_keys=True))
        if check["status"] != "pass":
            failed[key] = check["witness"]
    assert failed == EXPECTED_FAILURES
    assert report["counts"] == {"pass": 42, "fail": len(EXPECTED_FAILURES)}

