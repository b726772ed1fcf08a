"""Canonical compact JSON and strict integer reading."""

import json

import pytest

from triplepack import jsonio
from triplepack.errors import InvalidParameterError
from triplepack.leave import achieved_lower_bound
from triplepack.params import CaseLabel

# one certificate of each residue case
CASES = {
    CaseLabel.DESIGN: (8, 4),
    CaseLabel.Q_NONZERO: (74, 5),
    CaseLabel.R_NONZERO: (1999, 5),
    CaseLabel.P_NONZERO: (1902, 7),
}


@pytest.mark.parametrize("case", list(CASES), ids=lambda c: c.value)
def test_certificate_text_is_canonical_and_compact(case):
    _xi, cert = achieved_lower_bound(*CASES[case])
    assert cert.case is case
    d = jsonio.certificate_to_dict(cert)
    text = jsonio.dumps(d)
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert ": " not in text and ", " not in text
    # the same document as the indented form, keys in sorted order
    assert json.loads(text) == json.loads(json.dumps(d, indent=2, sort_keys=True))
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    # parse -> rebuild -> dump gives the same bytes
    again = jsonio.certificate_from_dict(json.loads(text))
    assert jsonio.dumps(jsonio.certificate_to_dict(again)) == text


def test_largest_certificate_size():
    _xi, cert = achieved_lower_bound(1902, 7)
    assert len(jsonio.dumps(jsonio.certificate_to_dict(cert)).encode()) < 200_000


@pytest.mark.parametrize("bad", [1.0, 1.5, True, "1", None])
def test_readers_refuse_non_integers(bad):
    with pytest.raises(InvalidParameterError):
        jsonio.multigraph_from_dict({"n": 3, "edges": [[0, 1, bad]]})
    with pytest.raises(InvalidParameterError):
        jsonio.multigraph_from_dict({"n": bad, "edges": []})
    with pytest.raises(InvalidParameterError):
        jsonio.packing_from_dict({"n": 7, "k": 3, "t": 2, "lambda": 1, "blocks": [[0, 1, bad]]})
    with pytest.raises(InvalidParameterError):
        jsonio.dioph_from_dict({"equalities": [[4, bad]]})
    if bad is not None:  # a null solution means "no solution"
        with pytest.raises(InvalidParameterError):
            jsonio.dioph_solution({"equalities": [], "solution": bad})


def test_dioph_dict_round_trip():
    d = {"equalities": [[4, 1], [9, 2]], "avoidances": [[5, [0, 3]]]}
    assert jsonio.dioph_to_dict(jsonio.dioph_from_dict(d)) == d
    assert jsonio.dioph_solution(d) is None
