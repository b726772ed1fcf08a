"""Canonical compact JSON and strict integer reading."""

import hashlib
import json

import pytest

from triplepack import cli, jsonio
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


# the certificates of a fixed spread: for each k = 5..9 and each residue
# case that k has, the first n >= 60 that the constructors certify, then
# the sweep's largest items (2543, 9), (2367, 7) and (2946, 9)
SPREAD = [
    (62, 5), (60, 5), (74, 5), (68, 5), (62, 6), (60, 6), (70, 6), (77, 7),
    (60, 7), (67, 7), (72, 7), (128, 8), (60, 8), (86, 8), (62, 8), (65, 9),
    (60, 9), (114, 9), (72, 9), (2543, 9), (2367, 7), (2946, 9),
]


def test_spread_certificate_bytes_pinned():
    # sha256 over the concatenated certificate JSON: a faster writer must
    # not change one byte
    digest = hashlib.sha256()
    for n, k in SPREAD:
        cert = achieved_lower_bound(n, k)[1]
        digest.update(jsonio.dumps(jsonio.certificate_to_dict(cert)).encode())
    assert digest.hexdigest() == (
        "a3b2eda664fb38ff65fef924029d2ee1aea095d7d5bf7027d0696cbbffb8e2e2"
    )


ROWS = [[0, 1], [0, 1, 1, 1], 5, "abc"]  # edge rows that are not [u, v, mult]


@pytest.mark.parametrize("bad", [1.0, 1.5, True, "1", None, *ROWS])
def test_readers_refuse_non_integers(bad, tmp_path, capsys):
    graph = {"n": 3, "edges": [bad if bad in ROWS else [0, 1, bad]]}
    with pytest.raises(InvalidParameterError):
        jsonio.multigraph_from_dict(graph)
    (tmp_path / "g.json").write_text(json.dumps(graph))
    assert cli.main(["decompose", "--input", str(tmp_path / "g.json")]) == cli.BAD_INPUT
    assert capsys.readouterr().err.startswith("error:")
    if bad in ROWS:
        return  # the other readers take bad where a number goes
    with pytest.raises(InvalidParameterError):
        jsonio.multigraph_from_dict({"n": bad, "edges": []})
    with pytest.raises(InvalidParameterError):
        jsonio.packing_from_dict({"n": 7, "k": 3, "t": 2, "lambda": 1, "blocks": [[0, 1, bad]]})
    with pytest.raises(InvalidParameterError):
        jsonio.dioph_from_dict({"equalities": [[4, bad]]})
    if bad is not None:  # a null solution means "no solution"
        with pytest.raises(InvalidParameterError):
            jsonio.recorded_int({"equalities": [], "solution": bad}, "solution")


def test_dioph_dict_round_trip():
    d = {"equalities": [[4, 1], [9, 2]], "avoidances": [[5, [0, 3]]]}
    assert jsonio.dioph_to_dict(jsonio.dioph_from_dict(d)) == d
    assert jsonio.recorded_int(d, "solution") is None
