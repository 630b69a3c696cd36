"""``serialize.loads`` against ``json.loads``: same answers, same errors.

For every input, ``loads(b)`` must return what ``json.loads(b.decode())``
returns — equal values, identical types, identical float bits and key
order — or raise the same exception type with the same message.  These
tests hold with or without the native scanner; without it ``loads`` is
``json.loads`` itself.
"""

from __future__ import annotations

import json
import math
import random
import struct
import sys
import threading
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native, serialize
from repro.core.paper_example import figure1_instance
from repro.core.serialize import instance_from_json, instance_to_dict, loads
from repro.errors import ValidationError

from tests.conftest import random_instance


def _same(got, want, path="$"):
    """Assert ``got`` is ``want`` down to types, float bits and key order."""
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, float):
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), (
            f"{path}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys differ"
        for key in want:
            _same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def _outcome(parse, data):
    try:
        return "ok", parse(data)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


def _agrees(data) -> None:
    """``loads(data)`` and the ``json.loads`` it promises give one outcome."""
    want = _outcome(
        lambda d: json.loads(d if isinstance(d, str) else d.decode("utf-8")), data
    )
    got = _outcome(loads, data)
    if want[0] == "ok" and got[0] == "ok":
        _same(got[1], want[1])
    else:
        assert got == want


def _instance_body(seed: int = 0) -> bytes:
    doc = {"instance": instance_to_dict(random_instance(seed, n_photos=12, n_subsets=3))}
    return json.dumps(doc).encode("utf-8")


# ------------------------------------------------------------- documents

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats()
    | st.text(alphabet=st.sampled_from('ab"\\[]1.5NaN,{}: \né'), max_size=12),
    lambda children: st.lists(children, max_size=6)
    | st.lists(st.floats(), min_size=1, max_size=8)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)

layouts = st.sampled_from(
    [
        {},
        {"separators": (",", ":")},
        {"separators": (" , ", " : ")},
        {"indent": 2},
        {"indent": "\t"},
        {"indent": 0, "separators": (",\r\n", ":\n")},
    ]
)


class TestDocuments:
    @settings(max_examples=300, deadline=None)
    @given(doc=json_values, layout=layouts, as_str=st.booleans())
    def test_dumped_documents_parse_identically(self, doc, layout, as_str):
        text = json.dumps(doc, **layout)
        _agrees(text if as_str else text.encode("utf-8"))

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "[[]]",
            "[1.5]",
            "NaN",
            "[NaN, Infinity, -Infinity]",
            "[1.5, NaN]",
            "[-Infinity, 2.5e3]",
            '{"a": NaN, "b": [1.5, 2.5], "c": Infinity, "d": [0.5], "e": -Infinity}',
            '{"a": [1.5], "a": [2.5], "a": NaN}',
            '{"a": 1, "b": 2, "a": [3.5, 4.5]}',
            "[[1.5, 2.5], [3.5], [], [4.5, [5.5]], [6.0, 7]]",
            "[1, 2.5]",
            "[2.5, 1]",
            "[2.5, true]",
            "[2.5, null, 3.5]",
            '[2.5, "3.5"]',
            "[0.0, -0.0, 0e0, -0E-0, 1E+2, 1e400, -1e400, 1e-400, -1e-400]",
            '["[1.5]", [1.5], "NaN", NaN, "\\"[2.5]", [2.5], "\\\\", [3.5]]',
            '{"[1.5]": [1.5], "x\\"[": [2.5, 3.5], "\\\\": "\\\\[4.5]"}',
            '["\\u005b1.5]", "\\ud83d\\ude00", [1.5]]',
            " \t\n\r[ \t\n\r1.5 \t\n\r, \t\n\r2.5 \t\n\r] \t\n\r",
            '{"nested": {"deeper": [[[[0.1, 0.2]]]], "ints": [1, 2, 3]}}',
            "[1.5][2.5]",
            "[1.5",
            "[1.5,]",
            "[1.5 2.5]",
            "[01.5]",
            "[1.]",
            "[.5]",
            "[1.5e]",
            "[+1.5]",
            "[1.5\f]",
            "[1.5, NaNx]",
            "{[1.5]: 1}",
            '{"a" [1.5]}',
            "-[1.5]",
            "[1.5]NaN",
            "﻿[1.5]",
            "[-NaN]",
            "[Infinity1.5]",
        ],
    )
    def test_fixed_documents(self, text):
        _agrees(text)
        _agrees(text.encode("utf-8"))

    def test_instance_bodies(self):
        _agrees(_instance_body())
        _agrees(json.dumps(instance_to_dict(figure1_instance(4.0))).encode())

    def test_lone_surrogates_in_a_str(self):
        _agrees('["\ud800", [1.5], "\udfff"]')

    def test_nesting_past_the_scan_limit_parses_like_json(self):
        for depth in (60, 70, 200):
            _agrees("[" * depth + "1.5, 2.5" + "]" * depth)
            _agrees("[" * depth + "[0.5]," * 3 + "1.5" + "]" * depth)
        _agrees(b"[" * 100000)

    def test_integer_past_the_digit_limit_raises_like_json(self):
        _agrees(b'{"a": [1.5], "b": ' + b"9" * 5000 + b"}")
        _agrees(b"[" + b"9" * 5000 + b".5]")  # a float: no digit limit

    def test_dense_short_floats_fill_the_first_buffers(self):
        # Four bytes per float and three per NaN overflow the buffers sized
        # for ordinary documents; the worst-case sizing must take over.
        _agrees("[" + ",".join(["0e0"] * 5000) + "]")
        _agrees("[" + ",".join(["[0.5]"] * 3000 + ["NaN"] * 3000) + "]")
        _agrees("NaN" * 1000)


class TestMalformedBodies:
    def test_every_truncation_raises_like_json(self):
        body = _instance_body(1)
        rng = random.Random(1)
        cuts = sorted(set(rng.randrange(len(body)) for _ in range(300)))
        for cut in [0, 1, 2, len(body) - 1] + cuts:
            _agrees(body[:cut])

    def test_mutated_bytes_raise_or_parse_like_json(self):
        body = _instance_body(2)
        rng = random.Random(2)
        alphabet = b'[]{}",:.eE+-0123456789 NaIfinty\\\n\x00\xff\xc3'
        for _ in range(400):
            raw = bytearray(body)
            for _ in range(rng.randint(1, 3)):
                raw[rng.randrange(len(raw))] = rng.choice(alphabet)
            _agrees(bytes(raw))

    def test_invalid_utf8_raises_like_json(self):
        _agrees(b'{"a": [1.5], "b": "\xff"}')
        _agrees(b'[1.5, 2.5]\xc3')


class TestInstanceFromJson:
    @pytest.mark.parametrize(
        "text", ["[" * 100000, '{"format": ' + "9" * 5000 + "}", "{", "[1.5"]
    )
    def test_unparsable_text_is_a_validation_error(self, text):
        with pytest.raises(ValidationError, match="invalid instance JSON"):
            instance_from_json(text)

    def test_round_trip(self):
        inst = random_instance(3, n_photos=10, n_subsets=3)
        back = instance_from_json(serialize.instance_to_json(inst))
        assert instance_to_dict(back) == instance_to_dict(inst)


# ---------------------------------------------------------- float corpus


def _literals_agree(literals) -> None:
    """Each literal, read inside a JSON array, is ``float(literal)``."""
    got = loads("[" + ", ".join(literals) + "]")
    assert len(got) == len(literals)
    for lit, value in zip(literals, got):
        assert type(value) is float
        assert value.hex() == float(lit).hex(), lit


def _around(value: Fraction, digits: int) -> List[str]:
    """The two decimals of ``digits`` significant digits on either side
    of ``value`` (> 0), as JSON float literals."""
    p, q = value.numerator, value.denominator
    e = len(str(p)) - len(str(q))  # within one of floor(log10(value))
    while True:
        shift = digits - 1 - e
        m = p * 10**shift // q if shift >= 0 else p // (q * 10**-shift)
        if m >= 10**digits:
            e += 1
        elif m < 10 ** (digits - 1):
            e -= 1
        else:
            return [f"{m}e{e - digits + 1}", f"{m + 1}e{e - digits + 1}"]


def _exact(value: Fraction) -> str:
    """A dyadic ``value`` (> 0), such as a midpoint of two doubles, as an
    exact JSON float literal."""
    k = value.denominator.bit_length() - 1  # the denominator is 2**k
    return f"{value.numerator * 5**k}e-{k}"


class TestFloatCorpus:
    def test_repr_of_random_bit_patterns(self):
        rng = random.Random(10)
        literals = []
        while len(literals) < 20000:
            (x,) = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
            if math.isfinite(x):
                literals.append(repr(x) if "e" in repr(x) or "." in repr(x) else f"{x!r}.0")
        _literals_agree(literals)

    def test_repr_of_random_unit_floats(self):
        rng = random.Random(11)
        _literals_agree([repr(rng.random()) for _ in range(20000)])

    def test_decimals_of_1_to_40_digits_with_exponents_within_350(self):
        rng = random.Random(12)
        literals = []
        for _ in range(20000):
            digits = rng.randint(1, 40)
            mantissa = str(rng.randrange(10 ** (digits - 1), 10**digits))
            sign = "-" if rng.random() < 0.3 else ""
            exp = rng.randint(-350, 350)
            if rng.random() < 0.5:
                cut = rng.randint(1, digits)
                frac = mantissa[cut:] or "0"
                literals.append(f"{sign}{mantissa[:cut]}.{frac}e{exp}")
            else:
                literals.append(f"{sign}{mantissa}E{'+' if exp >= 0 else ''}{exp}")
        _literals_agree(literals)

    def test_exact_midpoints_and_their_neighbours(self):
        rng = random.Random(13)
        literals = []
        while len(literals) < 20000:
            (x,) = struct.unpack("<d", rng.getrandbits(63).to_bytes(8, "little"))
            above = math.nextafter(x, math.inf)
            if not (x > 0 and math.isfinite(above)):
                continue
            mid = (Fraction(x) + Fraction(above)) / 2
            literals.append(_exact(mid))
            for digits in (16, 17, 18, 19, 20, 25):
                literals += _around(mid, digits)
        # Midpoints that are 16- and 17-digit integers: the fast path's
        # product is exact and ties to even.
        for j in range(64):
            literals.append(f"{2**53 + 2 * j + 1}.0")
            literals.append(f"{2**54 + 4 * j + 2}.0")
        _literals_agree(literals)

    def test_subnormal_and_max_double_boundaries(self):
        tiny = Fraction(2) ** -1074
        literals = [
            "5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
            "2.4703282292062328e-324", "2.4703282292062327208828439643e-324",
            "1e-323", "2.2250738585072011e-308", "2.2250738585072012e-308",
            "2.2250738585072014e-308", "2.225073858507201e-308",
            "1.7976931348623157e308", "1.7976931348623158e308",
            "1.7976931348623159e308", "1.797693134862315807e308",
            "1.7976931348623158079e308", "1e308", "1e309", "9e-325", "1e-400",
            "0.0", "-0.0", "0e-999999999999", "1e999999999999", "-1e-999999999999",
        ]
        for k in (1, 2, 3, 2**52 - 1, 2**52, 2**52 + 1):
            literals += _around(k * tiny, 17)
            literals.append(_exact((k + Fraction(1, 2)) * tiny))
            literals += _around((k + Fraction(1, 2)) * tiny, 30)
        top = Fraction(2) ** 1024 - Fraction(2) ** 970  # halfway past max
        literals.append(_exact(top))
        for digits in (17, 19, 25, 40):
            literals += _around(top, digits)
        _literals_agree(literals)


# The scan folds eight digits per step where eight digit bytes remain in
# the text and the 19-significant-digit budget allows, and the rest one
# at a time.  These literals put digit runs at every offset of an 8-byte
# block and every length around the steps and the budget; each literal
# sits alone in an array, after 0-7 pad bytes, so each offset occurs.


def _digits(rng: random.Random, count: int) -> str:
    """``count`` random digits, the first nonzero."""
    return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(count - 1))


def _padded_literals_agree(literals) -> None:
    """Each literal, alone in an array after 0-7 pad bytes, reads as
    ``json.loads`` reads it, bit for bit."""
    for lit in literals:
        for pad in range(8):
            _agrees(f"[{' ' * pad}{lit}]")


class TestEightDigitSteps:
    def test_1_to_25_significant_digits_at_every_split_and_offset(self):
        rng = random.Random(20)
        literals = []
        for digits in range(1, 26):
            run = _digits(rng, digits)
            literals.append(f"0.{run}")
            for cut in range(1, digits + 1):  # integer part of `cut` digits
                literals.append(f"{run[:cut]}.{run[cut:] or '0'}")
        _padded_literals_agree(literals + ["-" + lit for lit in literals[::5]])

    def test_runs_that_cross_the_19_digit_budget_mid_block(self):
        rng = random.Random(21)
        literals = []
        for before in range(9, 20):  # digits read before the run that crosses
            for run in range(1, 17):
                lead = _digits(rng, before)
                tail = "".join(rng.choice("0123456789") for _ in range(run))
                literals.append(f"{lead}{tail}.5")  # crossing in the integer part
                literals.append(f"{lead}.{tail}")  # crossing in the fraction
                literals.append(f"0.{lead}{tail}")
        _padded_literals_agree(literals)

    def test_0_to_12_leading_fraction_zeros(self):
        rng = random.Random(22)
        literals = []
        for zeros in range(13):
            for digits in (1, 7, 8, 9, 16, 17, 19, 20, 25):
                literals.append(f"0.{'0' * zeros}{_digits(rng, digits)}")
            literals.append(f"0.{'0' * zeros}0")
            literals.append(f"-0.{'0' * zeros}0")
        _padded_literals_agree(literals)

    def test_integer_parts_of_1_to_20_digits(self):
        rng = random.Random(23)
        literals = []
        for digits in range(1, 21):
            whole = _digits(rng, digits)
            literals += [f"{whole}.0", f"{whole}.5", f"{whole}e0", f"{whole}E-3"]
            literals.append(f"{whole}.{_digits(rng, 8)}")
        literals += [f"{'9' * d}.{'9' * (20 - d)}" for d in range(1, 20)]
        _padded_literals_agree(literals)

    def test_exponent_forms_and_negative_zero(self):
        rng = random.Random(24)
        literals = ["-0.0", "0.0", "-0.0e0", "-0E-0", "0.00000000e5", "-0.000000000000e-7"]
        for digits in (1, 8, 9, 16, 17, 19, 20):
            run = _digits(rng, digits)
            for exp in ("e0", "E+7", "e-8", "e16", "E-300", "e308", "e-330"):
                literals += [f"{run}{exp}", f"0.{run}{exp}", f"-{run[:1]}.{run[1:] or '0'}{exp}"]
        _padded_literals_agree(literals)

    def test_literals_ending_in_the_last_1_to_8_bytes(self):
        rng = random.Random(25)
        for digits in (1, 7, 8, 9, 15, 16, 17, 19, 23):
            run = _digits(rng, digits)
            for lit in (f"0.{run}", f"{run}.0", f"{run[:1]}.{run[1:] or '0'}e-5"):
                for after in range(8):  # bytes after the literal: after + 1
                    _agrees(f"[{lit}{' ' * after}]")
                    _agrees(f"[0.5, {lit}{' ' * after}]")
                    _agrees(f"[[{lit}]{' ' * after}]")
                _agrees(f"[{lit}")  # the text ends in the literal: json's error


# ------------------------------------------------------------- machinery


class TestProtocol:
    def test_a_valid_body_parses_one_skeleton_not_the_original(self, monkeypatch):
        if native.library() is None:
            pytest.skip("the native scanner cannot load here")
        body = _instance_body(4)
        calls = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: calls.append(s) or real(s, **kw))
        _same(loads(body), real(body.decode()))
        assert len(calls) == 1 and len(calls[0]) < len(body) // 2

    def test_a_disagreeing_scan_falls_back_to_the_original(self, monkeypatch):
        text = '{"a": [1.5, 2.5], "b": NaN, "c": [3.5]}'
        real = native.scan_json

        def drop_constant(raw):
            skeleton, tags, values = real(raw)
            return skeleton, [tag for tag in tags if tag > 0], values

        if real(text.encode()) is not None:
            monkeypatch.setattr(native, "scan_json", drop_constant)
        _agrees(text)

    def test_two_threads_parse_at_once(self):
        bodies = [_instance_body(s) for s in (5, 6)]
        want = [json.loads(b.decode()) for b in bodies]
        barrier = threading.Barrier(2)
        failures = []

        def parse(i):
            barrier.wait(timeout=60)
            try:
                for _ in range(30):
                    _same(loads(bodies[i]), want[i])
            except AssertionError as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=parse, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[0]
