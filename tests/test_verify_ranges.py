"""verify sizes every check by m_max, deg_max and order, and by nothing else.

The checks come from one range table.  At or below the defaults the check list
is pinned; above them every row grows with its parameters, so that no check
reports a pass for a range it never ran, and no check runs at a dimension above
m_max.  Each check's body is called with exactly the params its report prints.
These tests build checks and run none.
"""

import functools
import hashlib
import inspect
import json
from collections import Counter
from itertools import product

import pytest

from gtbasis.verify import _TABLE, DEFAULT, SUITES, Ranges, _Family, build_checks

# sha256 over m_max 2..4, deg_max 0..4, order 0..3 of the sorted (name, params) list
DEFAULT_BOX = "4b12b3fcd9c978355d0fff5894127f9e1146a8e05e921c51dc3a809b38cc5229"

# the parameter that sizes each parameter a row can take
SIZED_BY = {"m": "m_max", "m_max": "m_max", "deg_max": "deg_max", "order": "order"}


def test_check_lists_in_the_default_box_are_pinned():
    digest = hashlib.sha256()
    for m_max, deg_max, order in product(range(2, 5), range(5), range(4)):
        checks = sorted((c.name, json.dumps(c.params, sort_keys=True))
                        for c in build_checks(SUITES, m_max, deg_max, order))
        digest.update(json.dumps([m_max, deg_max, order, checks]).encode())
    assert digest.hexdigest() == DEFAULT_BOX


# the one row the defaults already cap below its parameters, and by how much
CAPPED = {("ortho.{tag}_pairwise", ("mon",)): {"m": -1, "deg_max": -1}}


def _gaps(values, ranges):
    """Each sized parameter of a row -> its largest value minus the parameter sizing it."""
    grid = values(ranges)
    return {key: max(grid[key]) - getattr(ranges, SIZED_BY[key])
            for key in grid if key in SIZED_BY and grid[key]}


def test_every_row_reaches_its_parameters_above_the_defaults():
    small = Counter(c.name for c in build_checks(SUITES, 5, 4, 3))
    grown = Counter(c.name for c in build_checks(SUITES, 6, 6, 5))
    assert small < grown
    for name, tags, _variants, _body, values, _labels in _TABLE:
        for step in range(4):
            gaps = _gaps(values, Ranges(*(p + step for p in DEFAULT)))
            assert gaps == {key: CAPPED.get((name, tags), {}).get(key, 0) for key in gaps}, name


def _dimension(check) -> int:
    """The largest dimension a check runs at: its m, its m_max, 3 for the m = 3 formulas."""
    if "m3_closed_formula" in check.name:
        return 3
    return check.params.get("m", check.params.get("m_max", 2))


@pytest.mark.parametrize("m_max", range(2, 7))
def test_no_check_runs_above_m_max(m_max):
    for check in build_checks(SUITES, m_max, DEFAULT.deg_max, DEFAULT.order):
        assert _dimension(check) <= m_max, (check.name, check.params)


@pytest.mark.parametrize("ranges", [(4, 4, 3), (6, 6, 5)])
def test_every_body_is_called_with_the_params_its_report_prints(ranges):
    for check in build_checks(SUITES, *ranges):
        fn = check.fn
        assert isinstance(fn, functools.partial), check.name
        assert fn.keywords == check.params, check.name
        assert all(isinstance(arg, _Family) for arg in fn.args), check.name
        # the body takes the rng and those params, and needs nothing else
        inspect.signature(fn.func).bind(*fn.args, None, **fn.keywords)
