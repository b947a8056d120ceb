"""Tests for the hex-float64 text codec of saved artifacts."""

import numpy as np
import pytest

from cbfforge.codec import decode_floats, encode_floats

# -0.0, the smallest subnormal, the largest finite magnitudes and a few
# values whose shortest decimal form has 17 significant digits.
SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, np.pi])


def test_encodes_the_big_endian_bit_pattern():
    assert encode_floats([1.0]) == "3ff0000000000000"
    assert encode_floats([-0.0, 5e-324]) == "8000000000000000 0000000000000001"
    assert encode_floats(np.array([[1.0], [2.0]]), sep="\n") == "3ff0000000000000\n4000000000000000"


def test_special_values_round_trip_bit_for_bit():
    decoded = decode_floats(encode_floats(SPECIAL), SPECIAL.size)
    assert decoded.dtype == np.float64
    assert decoded.tobytes() == SPECIAL.tobytes()
    assert np.signbit(decoded[0]) and not np.signbit(decoded[1])


@pytest.mark.parametrize("sep", [" ", "\n"])
def test_random_values_round_trip_bit_for_bit(sep):
    rng = np.random.default_rng(3)
    values = rng.normal(size=1000) * np.exp(rng.uniform(-700.0, 700.0, size=1000))
    text = encode_floats(values, sep=sep)
    assert len(text) == 17 * values.size - 1
    decoded = decode_floats(text, values.size)
    assert decoded.tobytes() == values.tobytes()
    decoded[0] = 1.0  # a writable native-order copy


def test_wrong_count_rejected():
    text = encode_floats([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="expected 2"):
        decode_floats(text, 2)
    with pytest.raises(ValueError, match="expected 4"):
        decode_floats(text, 4)


def test_non_hex_and_misplaced_separators_rejected():
    text = encode_floats([1.0, 2.0])
    with pytest.raises(ValueError, match="not hex-float64"):
        decode_floats(text.replace("f", "g"), 2)
    with pytest.raises(ValueError, match="not hex-float64"):
        decode_floats(text[:15] + " " + text[15] + text[17:], 2)  # odd-length token
    with pytest.raises(ValueError, match="expected 3 hex-float64 values, found 3.125"):
        decode_floats(encode_floats([1.0, 2.0, 3.0]).replace(" ", "0"), 3)  # digits in place of separators


def test_decimal_tokens_rejected():
    # A 17-digit decimal token is 17+ characters and holds a '.', so it
    # can never pass for one 16-digit bit pattern.
    with pytest.raises(ValueError):
        decode_floats("%.17g" % 0.1, 1)
    with pytest.raises(ValueError):
        decode_floats("0.1000000000000000", 1)
