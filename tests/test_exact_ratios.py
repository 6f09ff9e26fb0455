"""The integer paths of exact lengths, volumes and Polya constants against
the ``Fraction`` / ``PiRational`` arithmetic they replace.

``parse_length`` reads decimals as integers, ``spectra._interval_weight``
and ``box_meta`` work on numerators and denominators, and
``polya.polya_constant_exact`` / ``_exact_terms`` on those of omega_d and
the volume.  The references below are the former implementations, kept
here as the oracle: every exact result must be equal, every float equal
bit for bit, and every error of the same type.
"""

import math
import struct
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyaspec import cli, pivals, spectra
from polyaspec.constants import omega_d_exact
from polyaspec.errors import DomainError, ValidationError
from polyaspec.pivals import PiRational, parse_length
from polyaspec.polya import _exact_terms, polya_constant_exact


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _reference_float(p: PiRational) -> float:
    """``float(PiRational)`` through ``Fraction``, the subnormal scaling
    included."""
    coeff, power = float(p.coeff), p.pi_power
    scale = 0
    if power and abs(coeff) < sys.float_info.min and p.coeff:
        num, den = p.coeff.numerator, p.coeff.denominator
        scale = den.bit_length() - abs(num).bit_length() - 60
        coeff = float(Fraction(num << scale, den))
    value = coeff * math.pi ** power if power >= 0 else coeff / math.pi ** -power
    return math.ldexp(value, -scale)


def _frac(text, default=Fraction(1)) -> Fraction:
    return default if text is None or text == "" else Fraction(text)


def _reference_parse(text: str) -> PiRational:
    s = text.strip().lower().replace(" ", "")
    for pattern, power in ((pivals._PLAIN, 0), (pivals._PI_DEN, -1), (pivals._PI_NUM, 1)):
        m = pattern.match(s)
        if m:
            return PiRational(_frac(m.group(1)) / _frac(m.group(2)), power)
    raise AssertionError(f"drawn length {text!r} does not parse")


def _reference_weight(text: str):
    """``_interval_weight`` on PiRationals: the length as a float and
    exactly, pi**2 / a**2 exactly and as a float, or the error type."""
    a_pi = _reference_parse(text)
    try:
        a_float = _reference_float(a_pi)
    except OverflowError:
        a_float = math.inf
    if not 0 < a_float < math.inf:
        return DomainError
    coeff = PiRational(1, 2) / (a_pi * a_pi)
    try:
        coeff_float = _reference_float(coeff)
    except (OverflowError, ZeroDivisionError):
        coeff_float = math.inf
    if not 0 < coeff_float < math.inf:
        return DomainError
    return a_float, a_pi, coeff, coeff_float


def _ratio(p: PiRational) -> tuple[int, int, int]:
    return p.coeff.numerator, p.coeff.denominator, p.pi_power


#: positive decimals as the length grammar spells them, huge ones included
#: (and so tiny quotients)
_integers = st.one_of(st.integers(1, 50), st.integers(1, 10 ** 30),
                      st.integers(10 ** 290, 10 ** 330))
_decimals = st.one_of(_integers.map(str),
                      st.tuples(st.integers(1, 10 ** 6), st.integers(0, 10 ** 8),
                                st.integers(0, 3))
                      .map(lambda t: f"{t[0]}.{str(t[1]).zfill(t[2] + 1)}"))


@st.composite
def _lengths(draw) -> str:
    """p/q, p pi/q and q/(p pi), with p and q decimals."""
    p, q = draw(_decimals), draw(_decimals)
    form = draw(st.sampled_from(["{p}/{q}", "{p}", "{p}pi/{q}", "{p}*pi", "pi/{q}",
                                 "{q}/{p}pi", "{q}/pi"]))
    return form.format(p=p, q=q)


@settings(max_examples=300, deadline=None)
@given(_lengths())
@example("pi/24")
@example("1/4pi")
@example("0.5")
@example("3.25pi/7")
@example("1/" + "9" * 320 + "pi")  # a coefficient below the normal range
@example("1" + "0" * 320 + "pi")  # past float range
def test_parse_length_and_its_float_match_the_fraction_reference(text):
    parsed, reference = parse_length(text), _reference_parse(text)
    assert parsed == reference and type(parsed.coeff) is Fraction
    try:
        expected = _reference_float(reference)
    except OverflowError:
        with pytest.raises(OverflowError):
            float(parsed)
    else:
        assert _bits(float(parsed)) == _bits(expected)


@settings(max_examples=300, deadline=None)
@given(_lengths())
@example("pi/24")
@example("1/" + "9" * 160 + "pi")
@example("3/" + "1" * 200)
@example("1" + "0" * 160)  # pi**2 / a**2 is subnormal: the scaling branch
def test_interval_weight_matches_the_fraction_reference(text):
    reference = _reference_weight(text)
    if reference is DomainError:
        with pytest.raises(DomainError):
            spectra._interval_weight(text)
        return
    a_float, a_exact, coeff, coeff_float = spectra._interval_weight(text)
    assert _bits(a_float) == _bits(reference[0])
    assert a_exact == _ratio(reference[1])
    assert coeff == _ratio(reference[2])
    assert _bits(coeff_float) == _bits(reference[3])


@settings(max_examples=200, deadline=None)
@given(st.lists(_lengths(), min_size=1, max_size=3))
def test_box_meta_volume_matches_the_fraction_reference(sides):
    references = [_reference_weight(a) for a in sides]
    if DomainError in references:
        with pytest.raises(DomainError):
            spectra.box_meta(sides, "dirichlet")
        return
    volume = PiRational(1)
    for reference in references:
        volume = volume * reference[1]
    meta = spectra.box_meta(sides, "dirichlet")
    assert meta.exact_volume == volume and type(meta.exact_volume.coeff) is Fraction
    assert _bits(meta.volume) == _bits(math.prod(r[0] for r in references))


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 6),
       volume=st.builds(PiRational, st.builds(Fraction, _integers, _integers),
                        st.integers(-3, 6)),
       den=st.sampled_from([1, 2, 27, 10 ** 12, 3 ** 200]), pi_power=st.integers(-2, 2))
@example(3, PiRational(Fraction(1, 6), 2), 1, 0)  # (0, pi/24) x S^2: 1296 k^2
def test_polya_constant_and_exact_terms_match_the_fraction_reference(d, volume, den,
                                                                    pi_power):
    reference = PiRational(4, 2) ** d / (omega_d_exact(d) * volume) ** 2
    c = polya_constant_exact(d, volume)
    assert c == reference and type(c.coeff) is Fraction
    s = SimpleNamespace(exact_den=den, pi_power=pi_power)
    meta = SimpleNamespace(dimension=d, exact_volume=volume)
    assert _exact_terms(s, meta) == (reference.coeff.denominator,
                                     reference.coeff.numerator * den ** d,
                                     pi_power * d - reference.pi_power)


def test_a_verify_job_parses_its_length_once(monkeypatch, capsys):
    # the spec node parses "pi/24" on first use and keeps it for the
    # metadata and every cutoff tried; a second job builds a new node and
    # parses again, so nothing is kept across calls
    calls = []
    parse = pivals.parse_length
    monkeypatch.setattr(pivals, "parse_length", lambda text: calls.append(text) or parse(text))
    argv = ["verify", "--spec",
            '{"product":[{"interval":{"a":"pi/24","bc":"dirichlet"}},{"sphere2":{}}]}',
            "--k-max", "1000", "--exact", "--no-timestamp"]
    assert cli.main(argv) == 0
    assert calls == ["pi/24"]
    assert cli.main(argv) == 0
    assert calls == ["pi/24", "pi/24"]
    capsys.readouterr()


@pytest.mark.parametrize("text", ["1/0", "0/0", "3.5pi/0.0", "2/0pi"])
def test_a_zero_divisor_is_a_validation_error(text, capsys):
    # it was a ZeroDivisionError, which the command line let through as a
    # traceback with exit status 1, the status of a failed verification
    with pytest.raises(ValidationError, match="divides by zero"):
        parse_length(text)
    spec = f'{{"interval":{{"a":"{text}","bc":"dirichlet"}}}}'
    assert cli.main(["verify", "--spec", spec, "--k-max", "10"]) == 2
    assert "ValidationError" in capsys.readouterr().err
