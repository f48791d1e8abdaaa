"""The classify contract, fuzzed over every catalog entry: each input ends in
a strict-JSON, schema-valid report (exit 0, 1 or 3) or in one error line
(exit 2), with no warning and no exception escaping `main`.

The parameters are drawn from each entry's declared domains and from just
outside them, the points inside and outside the chart domain, together with
--k, --robinson, --tol and, in a few cases, --search.
"""

import contextlib
import io
import json
import math
import warnings

import jsonschema
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import report_schema
from robcls.catalog import ENTRIES
from robcls.cli import main

SCHEMA = report_schema()
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _inside(domain):
    if isinstance(domain, range):
        return st.sampled_from(list(domain))
    if isinstance(domain, tuple):
        return st.sampled_from(domain)
    reals = st.one_of(st.integers(-3, 3), st.floats(-5.0, 5.0), FINITE)
    return st.lists(reals, min_size=1, max_size=4) if domain is list else reals


def _outside(default, domain):
    wrong = [st.sampled_from(["1", True, False, [], {}]), NON_FINITE]
    if default is not None:
        wrong.append(st.none())
    if isinstance(domain, range):
        wrong += [st.integers().filter(lambda v: v not in domain), st.sampled_from([domain[0] + 0.0, domain[0] + 0.5])]
    elif isinstance(domain, tuple):
        wrong += [st.sampled_from(["cubes", 0, 1])]
    elif domain is list:
        wrong += [FINITE, st.lists(st.one_of(NON_FINITE, st.booleans(), st.text(max_size=2)), min_size=1, max_size=3)]
    else:
        wrong += [st.lists(FINITE, max_size=2)]
    return st.one_of(wrong)


@st.composite
def _params(draw, entry):
    params = {}
    for name, (default, domain) in entry.parameters.items():
        choice = draw(st.sampled_from(["absent"] * 3 + ["inside"] * 3 + ["outside"]))
        if choice != "absent":
            params[name] = draw(_inside(domain) if choice == "inside" else _outside(default, domain))
    if draw(st.integers(0, 7)) == 0:
        params[draw(st.sampled_from(["Mass", "foo", "dim ", ""]))] = draw(st.one_of(FINITE, NON_FINITE))
    return params


@st.composite
def _point(draw, entry, params):
    try:
        chart = entry.chart(params)
    except ValueError:
        chart = entry.chart()
    pt = np.array(draw(st.sampled_from(entry.sample_points(chart.params))), dtype=float)
    kind = draw(st.sampled_from(["near"] * 6 + ["scaled", "origin", "short", "non-finite"]))
    if kind == "near":
        pt = pt + np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=len(pt), max_size=len(pt))))
    elif kind == "scaled":
        pt = pt * draw(st.sampled_from([1e-8, 1e3, 1e8, 1e150]))
    elif kind == "origin":
        pt = np.zeros_like(pt)
    elif kind == "short":
        pt = pt[:-1]
    else:
        pt[draw(st.integers(0, len(pt) - 1))] = draw(NON_FINITE)
    return ",".join(repr(float(v)) for v in pt)


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(ENTRIES)))
    entry = ENTRIES[name]
    params = draw(_params(entry))
    point = draw(_point(entry, params))
    argv = ["classify", "--metric", name, "--params", json.dumps(params), f"--point={point}"]
    n = point.count(",") + 1
    k = draw(
        st.one_of(
            st.none(),
            st.none(),
            st.none(),
            st.sampled_from(["K", "L", "ingoing", "outgoing", "1,x"]),
            st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n).map(lambda v: ",".join(map(repr, v))),
        )
    )
    if k is not None:
        argv.append(f"--k={k}")
    names = sorted({s for extra in entry.variants for s in entry.registry(entry.chart(extra).params).structures})
    robinson = draw(
        st.one_of(st.none(), st.sampled_from(["standard", "nosuch", *names]), st.integers(0, 10**6).map("random:{}".format))
    )
    if robinson is not None:
        argv.append(f"--robinson={robinson}")
    tol = draw(st.sampled_from([None] * 4 + ["valid"] * 3 + ["bad"]))
    if tol is not None:
        value = draw(st.floats(1e-12, 1e-2) if tol == "valid" else st.sampled_from([-1e-9, math.nan, math.inf]))
        argv.append(f"--tol={value!r}")
    if draw(st.integers(0, 11)) == 0:
        argv.append("--search")
    return argv


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=200, derandomize=True, database=None, deadline=None, suppress_health_check=list(HealthCheck))
@given(_argv())
@example(["classify", "--metric", "myers-perry", "--params", '{"M": [0]}', "--point=0.3,-1.5,1.8,0.4,1.1"])
@example(["classify", "--metric", "minkowski", "--params", '{"foo": NaN}', "--point=0,0,0,0,0,0"])
@example(["classify", "--metric", "taub-nut", "--params", '{"N2": 1e300, "N3": 1e-300}', "--point=1e8,1e8,0.5,0.5,-2,1e8"])
def test_classify_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    else:
        assert code in (0, 1, 3), code
        assert err.getvalue() == ""
        jsonschema.validate(json.loads(out.getvalue(), parse_constant=_reject_constant), SCHEMA)
