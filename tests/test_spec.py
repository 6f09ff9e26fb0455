"""A spec node builds the same stream and metadata as the public generators.

``build_spec`` parses each string length of an interval or a box once, and
the node's ``stream`` and ``meta`` pass the parsed lengths to
``interval_spectrum``, ``box_spectrum``, ``interval_meta`` and ``box_meta``.
These tests hold the two paths to the same bits.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaspec import cli, spectra
from polyaspec.pivals import PiRational
from polyaspec.spec import build_spec, stream_covering_k

_lengths = st.one_of(
    st.integers(1, 6),
    st.floats(0.3, 6.0),
    st.builds("{}/{}".format, st.integers(1, 30), st.integers(1, 8)),
    st.builds("{} pi/{}".format, st.integers(1, 8), st.integers(1, 8)),
    st.builds("pi/{}".format, st.integers(1, 4)),
)
_bcs = st.sampled_from(["dirichlet", "neumann"])
_cutoffs = st.floats(1.0, 300.0)


def _assert_same_stream(have, want):
    assert have.values.tobytes() == want.values.tobytes()
    assert have.multiplicities.tobytes() == want.multiplicities.tobytes()
    assert have.cutoff == want.cutoff
    assert (have.exact_den, have.pi_power) == (want.exact_den, want.pi_power)
    if want.exact_nums is None:
        assert have.exact_nums is None
    else:
        assert have.exact_nums.dtype == want.exact_nums.dtype
        assert have.exact_nums.tolist() == want.exact_nums.tolist()


def _assert_same_meta(have, want):
    assert have == want
    assert repr(have.volume) == repr(want.volume)
    assert repr(have.surface_area) == repr(want.surface_area)
    assert str(have.exact_volume) == str(want.exact_volume)


@settings(max_examples=150, deadline=None)
@given(a=_lengths, bc=_bcs, cutoff=_cutoffs)
def test_an_interval_spec_matches_the_generator(a, bc, cutoff):
    spec = build_spec(json.dumps({"interval": {"a": a, "bc": bc}}))
    _assert_same_stream(spec.stream(cutoff), spectra.interval_spectrum(a, bc, cutoff))
    _assert_same_meta(spec.meta(), spectra.interval_meta(a, bc))


@settings(max_examples=150, deadline=None)
@given(sides=st.lists(_lengths, min_size=1, max_size=3), bc=_bcs, cutoff=_cutoffs)
def test_a_box_spec_matches_the_generator(sides, bc, cutoff):
    spec = build_spec(json.dumps({"box": {"sides": sides, "bc": bc}}))
    _assert_same_stream(spec.stream(cutoff), spectra.box_spectrum(sides, bc, cutoff))
    _assert_same_meta(spec.meta(), spectra.box_meta(sides, bc))


def test_covering_a_thin_product_calls_the_public_interval_generator(monkeypatch):
    # the name a tracer wraps: a spec-built interval is one of its calls
    calls = []
    generate = spectra.interval_spectrum

    def counted(a, bc, cutoff):
        calls.append(a)
        return generate(a, bc, cutoff)

    monkeypatch.setattr(spectra, "interval_spectrum", counted)
    spec = build_spec({"product": [{"interval": {"a": "pi/24", "bc": "dirichlet"}},
                                   {"sphere2": {}}]})
    stream, meta = stream_covering_k(spec, 1000)
    assert stream.total_count >= 1000 and meta.dimension == 3
    assert calls and all(a == PiRational(1, 1) / 24 for a in calls)


def test_a_parsed_length_keeps_its_text():
    spec = build_spec({"box": {"sides": ["7/2", " pi/24", 3, 0.5], "bc": "neumann"}})
    assert [str(a) for a in spec.params["sides"]] == ["7/2", " pi/24", "3", "0.5"]
    assert spec.params["sides"][0] == PiRational(7, 0) / 2


@pytest.mark.parametrize("a, error, message", [
    ('"0"', "DomainError", "interval length must be positive and finite, got 0"),
    ('"0/5"', "DomainError", "interval length must be positive and finite, got 0/5"),
    ('"1/0"', "ValidationError", "length '1/0' divides by zero"),
    ('"x"', "ValidationError", "cannot parse length 'x'"),
])
def test_a_bad_length_is_named_as_typed(capsys, a, error, message):
    spec = '{"interval":{"a":%s,"bc":"dirichlet"}}' % a
    assert cli.main(["verify", "--spec", spec, "--k-max", "10"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}
