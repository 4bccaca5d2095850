"""Property tests for the field dumps.

Any truncation of a dump written by ``write_binary``, and any garbled
header, makes ``read_binary`` raise ``ValueError``: never another
exception type, and never an array of a shape its header does not state.
``write_csv`` writes the same bytes as a per-node ``repr`` loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liouville import fieldio

property_settings = settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)

shapes = st.tuples(st.integers(0, 3), st.integers(1, 12))


@pytest.fixture(scope="module")
def dump_path(tmp_path_factory):
    return tmp_path_factory.mktemp("dumps") / "fields.bin"


def written_dump(path, shape):
    n, m = shape
    values = np.arange(n * m * m, dtype=np.float64).reshape(n, m, m) - 0.5
    fieldio.write_binary(path, values)
    return values, path.read_bytes()


@property_settings
@given(shape=shapes, data=st.data())
def test_every_truncation_is_rejected(dump_path, shape, data):
    _, full = written_dump(dump_path, shape)
    cut = data.draw(st.integers(0, len(full) - 1), label="cut")
    dump_path.write_bytes(full[:cut])
    with pytest.raises(ValueError):
        fieldio.read_binary(dump_path)


# A garbled header line: arbitrary bytes, one byte of the real header
# replaced, or two integers (possibly signed or out of proportion) in
# various spacings.
integer_headers = st.builds(
    lambda a, sep, b, end: f"{a}{sep}{b}{end}".encode("ascii"),
    st.integers(-40, 40),
    st.sampled_from([" ", "  ", "\t", ""]),
    st.integers(-40, 40),
    st.sampled_from(["\n", "", " \n", "\r\n"]),
)


@property_settings
@given(
    shape=shapes,
    kind=st.sampled_from(["bytes", "mutate", "integers"]),
    data=st.data(),
)
def test_garbled_header_is_rejected_or_read_as_stated(
    dump_path, shape, kind, data
):
    values, full = written_dump(dump_path, shape)
    header_end = full.index(b"\n") + 1
    header, payload = full[:header_end], full[header_end:]
    if kind == "bytes":
        garbled = data.draw(st.binary(max_size=16), label="header")
    elif kind == "mutate":
        at = data.draw(st.integers(0, len(header) - 1), label="at")
        byte = data.draw(st.integers(0, 255), label="byte")
        garbled = header[:at] + bytes([byte]) + header[at + 1 :]
    else:
        garbled = data.draw(integer_headers, label="header")
    dump_path.write_bytes(garbled + payload)
    try:
        out = fieldio.read_binary(dump_path)
    except ValueError:
        return
    # Accepted: the header must state two integers whose shape holds
    # exactly this payload, and the array has that shape and the data.
    n, m = (int(token) for token in garbled.split())
    assert out.shape == (n, m, m)
    np.testing.assert_array_equal(out.ravel(), values.ravel())


def per_node_csv(path, values):
    """Reference writer: one repr per node, in a Python loop."""
    n, m, _ = values.shape
    header = "x,y," + ",".join(f"u{i + 1}" for i in range(n))
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for i in range(m):
            x = i / m
            for j in range(m):
                y = j / m
                fields = [repr(x), repr(y)]
                fields.extend(repr(float(values[c, i, j])) for c in range(n))
                f.write(",".join(fields) + "\n")


# Signed zeros, subnormals and values near the double range, mixed with
# ordinary floats.
csv_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@property_settings
@given(
    values=st.tuples(st.integers(0, 3), st.integers(2, 16)).flatmap(
        lambda shape: hnp.arrays(
            np.float64, (shape[0], shape[1], shape[1]), elements=csv_floats
        )
    )
)
def test_csv_matches_the_per_node_writer(tmp_path_factory, values):
    folder = tmp_path_factory.mktemp("csv")
    fieldio.write_csv(folder / "fast.csv", values)
    per_node_csv(folder / "slow.csv", values)
    assert (folder / "fast.csv").read_bytes() == (folder / "slow.csv").read_bytes()
