"""Inputs at the extremes of size, one row each.

A config nested deeper than its fields' rank, an integer literal past
Python's 4,300-digit limit or the signed 64-bit range, more sources than
the level guard allows, sources without the positions the solver needs,
or a series whose coefficients overflow: each ends in exactly one typed
error line that names its field, never in a traceback. The rows run the
command line in a fresh interpreter, as a user would, and each must
answer within 2 s.
"""

import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import liouville
from liouville import fieldio
from liouville.solver import SolverOptions
from liouville.spectrum import (
    SingularitySet,
    check_integer,
    check_real,
    check_reals,
)

SRC = os.path.dirname(os.path.dirname(liouville.__file__))
BASE = {
    "matrix": "[[2.0]]",
    "surface": '{"chi": 0}',
    "rho": "[10.0]",
    "singularities": '[{"gamma": 1.0, "position": [0.5, 0.5]}]',
    "solver": '{"resolution": 16}',
}
NO_POSITIONS = {"singularities": '[{"gamma": 1.0}]'}
NINES = "9" * 4300  # the longest literal Python reads as an int
HUGE_GENUS = {"surface": '{"type": "closed", "genus": %s}' % NINES}
OUT_OF_RANGE = "must lie in the signed 64-bit range, got an integer of 14285 bits"


def nested(leaf, depth):
    return "[" * depth + leaf + "]" * depth


def config_text(fields):
    """The base config as JSON text, with each given field's value
    replaced by raw JSON text; a long literal cannot come from json.dumps."""
    return "{" + ", ".join(f'"{k}": {v}' for k, v in {**BASE, **fields}.items()) + "}"


# Each row: the command with its flags, the fields it replaces, the error
# type and the start of the message, in which {path} stands for the
# config's path.
ROWS = {
    "rho nested 500 deep": (
        "degree",
        {"rho": nested("10.0", 500)},
        "ConfigError",
        "rho: rho must have shape (1,), got (1, 1)",
    ),
    "matrix nested 500 deep": (
        "degree",
        {"matrix": nested("2.0", 500)},
        "ConfigError",
        "matrix: matrix must have shape (n, n) with n >= 1, got (1, 1, 1)",
    ),
    "matrix nested 1000 deep": (
        "degree",
        {"matrix": nested("2.0", 1000)},
        "ConfigError",
        "{path}: invalid JSON: maximum recursion depth exceeded",
    ),
    "chi of 5001 digits": (
        "degree",
        {"surface": '{"chi": %s}' % ("1" * 5001)},
        "ConfigError",
        "{path}: invalid JSON: Exceeds the limit (4300",
    ),
    "rho entry of -10^4299": (
        "degree",
        {"rho": "[-1%s]" % ("0" * 4299)},
        "ConfigError",
        "rho: rho[0] must be a real number, finite, got -1000",
    ),
    "15000 sources": (
        "degree",
        {"singularities": "[%s]" % ", ".join(['{"gamma": 0.5}'] * 15000)},
        "TooManyLevels",
        "(ceil(cap)+1) * 2^N = 21 * 2^15000 candidate levels exceed the limit "
        "1000000; reduce cap or the number of sources",
    ),
    "solve without positions": (
        "solve",
        NO_POSITIONS,
        "ConfigError",
        "singularities: this command needs the source positions",
    ),
    "verify without positions": (
        "verify",
        NO_POSITIONS,
        "ConfigError",
        "singularities: this command needs the source positions",
    ),
    "genus of 4300 nines, series below the first level": (
        "series --cap 0.5",
        HUGE_GENUS,
        "ConfigError",
        f"surface.genus: genus {OUT_OF_RANGE}",
    ),
    "genus of 4300 nines, series below the first level, as JSON": (
        "series --cap 0.5 --json",
        HUGE_GENUS,
        "ConfigError",
        f"surface.genus: genus {OUT_OF_RANGE}",
    ),
    "genus of 4300 nines, degree": (
        "degree",
        HUGE_GENUS,
        "ConfigError",
        f"surface.genus: genus {OUT_OF_RANGE}",
    ),
    "chi of -(4300 nines) with one source, degree": (
        "degree",
        {"surface": '{"chi": -%s}' % NINES},
        "ConfigError",
        f"surface.chi: chi {OUT_OF_RANGE}",
    ),
    "chi of -10^6, series up to 10000": (
        "series --cap 10000",
        {"surface": '{"chi": -1000000}', "singularities": "[]"},
        "CoefficientOverflow",
        "coefficient 41666916667125000250000 at exponent 4.0 leaves the signed "
        "64-bit range",
    ),
}


@pytest.mark.parametrize("row", ROWS)
def test_an_extreme_config_ends_in_one_error_line(tmp_path, row):
    command, fields, kind, message = ROWS[row]
    command, *flags = command.split()
    path = tmp_path / "config.json"
    path.write_text(config_text(fields))
    argv = [command, str(path), *flags]
    if command == "verify":
        dump = tmp_path / "fields.bin"
        fieldio.write_binary(str(dump), np.zeros((1, 16, 16)))
        argv += ["--field", str(dump)]
    paths = filter(None, [SRC, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "liouville.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    seconds = time.perf_counter() - start
    assert "Traceback" not in run.stderr, run.stderr[-2000:]
    assert run.returncode == 1
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error[{kind}]: {message.format(path=path)}"), lines
    assert seconds < 2.0


# A float32 bound check once cast sys.float_info.max to float32 and
# leaked "overflow encountered in cast".
FLOAT32_CALLS = {
    "check_real": (lambda: check_real(np.float32(1e-8), "tol", 0.0), 1e-8),
    "SolverOptions": (lambda: SolverOptions(tol=np.float32(1e-8)).tol, 1e-8),
    "SingularitySet": (lambda: SingularitySet((np.float32(0.5),)).gammas[0], 0.5),
}


@pytest.mark.parametrize("call", FLOAT32_CALLS)
def test_a_float32_scalar_is_checked_without_a_warning(call):
    make, value = FLOAT32_CALLS[call]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = make()
    assert type(result) is float
    assert result == float(np.float32(value))


def test_a_refused_float32_is_quoted_as_given():
    nan = np.float32(math.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            check_real(nan, "tol", 0.0)
    assert str(refused.value) == (
        f"tol must be a real number, finite and positive, got {nan!r}"
    )


def test_an_int_past_2_to_the_64_is_read_as_a_double():
    rho = check_reals([2**64, 1.0], "rho", (2,))
    assert rho.dtype == np.float64
    assert rho.tolist() == [1.8446744073709552e19, 1.0]
    assert not rho.flags.writeable


@pytest.mark.parametrize("value", [2**63, -(2**63), 10**30, np.uint64(2**63)])
def test_an_integer_outside_int64_is_refused_by_its_size(value):
    bits = int(value).bit_length()
    with pytest.raises(ValueError) as refused:
        check_integer(value, "steps")
    assert str(refused.value) == (
        f"steps must lie in the signed 64-bit range, got an integer of {bits} bits"
    )
