"""Fuzzed configs through the command line.

Every config, valid or not, must end in an answer or in one typed
error line: an exit code in 0-4, no exception out of ``main``, no
warning, exactly one ``error[Type]: ...`` line when nothing is printed,
and output that parses as strict JSON (no NaN, no Infinity).

Values sit at the edges of the double range (0, +-1e300, 1.7e308, the
smallest subnormal) and caps reach 1e9 and 1e300, where an unguarded
enumeration would not fit in memory.
"""

import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liouville.cli import COMMANDS, main

DATA = Path(__file__).parent / "data"

EDGES = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300, -1e300, 1.7e308, -1.7e308, 5e-324)
CAPS = (0.5, 3.0, 20.0, 1e9, 1e300)
# Matrices that pass both hypotheses, to be scaled by an edge value.
PASSING = (
    [[1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
)

numbers = st.one_of(st.sampled_from(EDGES), st.floats(-4.0, 40.0), st.integers(-2, 3))
positive = st.floats(0.01, 10.0)
masses = st.one_of(st.sampled_from(EDGES), positive, positive)
gammas = st.one_of(
    st.sampled_from((-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 1e300, 5e-324)),
    st.floats(-0.99, 3.0),
)
OPTIONAL = {
    # Flat surfaces come up more often: only they reach the solver.
    "surface": st.sampled_from(
        (
            {"chi": 0},
            {"type": "closed", "genus": 1},
            {"chi": 0},
            {"chi": -3},
            {"chi": 2},
            {"type": "closed", "genus": 2},
            {"type": "domain", "holes": 0},
            {"type": "domain", "holes": 2},
        )
    ),
    "solver": st.fixed_dictionaries(
        {},
        optional={
            "resolution": st.sampled_from((4, 8, 16)),
            "tol": st.sampled_from((1e-8, 1e-3, 5e-324)),
            "steps": st.sampled_from((1, 2)),
        },
    ),
    "caps": st.fixed_dictionaries(
        {},
        optional={
            "exponent_cap": st.sampled_from(CAPS),
            "tolerance": st.sampled_from((0.0, 1e-8, 0.2)),
        },
    ),
    "mu": st.one_of(
        st.sampled_from((0.5, 1.0, 1e300, 1.7e308, 5e-324)), positive
    ),
}
# One entry no config should accept, planted in a small share of configs.
POISON = (
    ("matrix", [["1"]]),
    ("matrix", json.loads("[" * 500 + "1.0" + "]" * 500)),
    ("singularities", [{"gamma": -1.0}]),
    ("surface", {"type": "closed", "genus": -1}),
    ("solver", {"resolution": 3}),
    ("solver", {"steps": 0}),
    ("solver", {"tol": 0.0}),
    ("caps", {"exponent_cap": 0.0}),
    ("caps", {"tolerance": -1.0}),
    ("mu", 0.0),
    ("rho", [True]),
    ("sigma", [None]),
    ("direction", ["1"]),
    ("matrix", [[1.0], [1.0, 2.0]]),
    ("singularities", [{"gamma": 1, "position": [0.1, 0.2, 0.3]}]),
    ("extra", 1),
)
FLAG_VALUES = {
    "--cap": st.sampled_from((0.0, -1.0, *CAPS, float("nan"), float("inf"))).map(repr),
    "--tol-critical": st.sampled_from(("0", "1e-8", "0.2", "inf")),
    "--resolution": st.sampled_from(("4", "8", "16")),
}


@st.composite
def configs(draw):
    n = draw(st.integers(1, 3))

    def vector(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    if draw(st.integers(0, 3)) < 3:
        scale = draw(masses)
        cfg = {"matrix": [[scale * a for a in row] for row in PASSING[n - 1]]}
    else:
        cfg = {"matrix": [vector(numbers) for _ in range(n)]}
    sources = draw(st.lists(gammas, max_size=6))
    with_positions = draw(st.integers(0, 3)) < 3
    cfg["singularities"] = [
        {"gamma": g, "position": [l / 6, draw(st.floats(0.0, 0.99))]}
        if with_positions
        else {"gamma": g}
        for l, g in enumerate(sources)
    ]
    for key in ("rho", "sigma", "direction"):
        if draw(st.integers(0, 7)) < 7:
            cfg[key] = vector(masses)
    for key, strategy in OPTIONAL.items():
        if draw(st.integers(0, 7)) < 7:
            cfg[key] = draw(strategy)
    if draw(st.integers(0, 7)) == 5:
        key, value = draw(st.sampled_from(POISON))
        cfg[key] = value
    return cfg


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(set(COMMANDS) - {"verify"})))
    argv = [command, "--json"]
    for flag in COMMANDS[command][1]:
        if flag in FLAG_VALUES and draw(st.booleans()):
            argv += [flag, draw(FLAG_VALUES[flag])]
    return argv


def reject_constant(name):
    raise AssertionError(f"{name} in the JSON output")


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(cfg=configs(), argv=invocations())
def test_every_config_gives_an_answer_or_one_error_line(tmp_path_factory, cfg, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
    assert code in range(5)
    assert [str(w.message) for w in caught] == []
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        assert code != 0
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert re.match(r"error\[\w+\]: ", lines[0])


# Field dumps for ``verify``: with a bad header, with n or M other than
# the config's, cut short or padded, or holding values a solve never
# writes. Each config is paired with its number of components.
VERIFY_CONFIGS = (("readme_solve.json", 1), ("pair_solve.json", 2))
BAD_HEADERS = (
    b"",
    b"1 16",
    b"1 16 \n",
    b"+1 16\n",
    b"1\t16\n",
    b"1 16\r\n",
    b"\xff\xfe\n",
    b"99999999999 99999999999\n",
)
# Each value goes to one node, and its negative to another when paired,
# so a dump can hold huge values and still have mean zero.
NODE_VALUES = (math.nan, math.inf, -math.inf, 1.7e308, 1e300, 800.0, 5e-324, 1.0)
DUMP_KINDS = ("values", "values", "values", "shape", "truncated", "padded", "header")


@st.composite
def verify_cases(draw):
    config, n = draw(st.sampled_from(VERIFY_CONFIGS))
    kind = draw(st.sampled_from(DUMP_KINDS))
    if kind == "header":
        junk = bytes(draw(st.integers(0, 64)))
        return config, draw(st.sampled_from(BAD_HEADERS)) + junk
    m = draw(st.sampled_from((4, 16)))
    if kind == "shape":
        n = draw(st.sampled_from((0, n - 1, n + 1)))
        m = draw(st.sampled_from((0, 2, 15, 16)))
    values = np.zeros((n, m, m))
    if kind == "values":
        for _ in range(draw(st.integers(1, 2))):
            x = draw(st.sampled_from(NODE_VALUES))
            values.flat[draw(st.integers(0, values.size - 1))] = x
            if draw(st.booleans()):
                values.flat[draw(st.integers(0, values.size - 1))] = -x
    payload = values.astype("<f8").tobytes()
    if kind == "truncated":
        payload = payload[: draw(st.integers(0, len(payload) - 1))]
    elif kind == "padded":
        payload += bytes(draw(st.integers(1, 16)))
    return config, f"{n} {m}\n".encode() + payload


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=verify_cases())
def test_every_field_dump_gives_a_report_or_one_error_line(tmp_path_factory, case):
    config, dump = case
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(dump)
    argv = ["verify", str(DATA / config), "--json", "--field", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(5)
    assert [str(w.message) for w in caught] == []
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        assert code != 0
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert re.match(r"error\[\w+\]: ", lines[0])
