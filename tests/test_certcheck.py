"""Printed certificates against the seshadri-free checker in certcheck.py."""

import copy
import json
import random
from pathlib import Path

import pytest

from certcheck import check_ceiling_threshold, check_certified_min, check_sqrt_linear
from seshadri import bounds
from seshadri.bounds import ceiling_threshold, certified_min, sqrt_linear_threshold
from seshadri.cli import _cert_json

GOLDEN_DIR = Path(__file__).parent / "golden"


def _cert(n: int, scan_cap: int = 10**6) -> dict:
    return _cert_json(certified_min(n, scan_cap))


@pytest.mark.parametrize("name", ["bound_n_2_format_json", "bound_n_20000_format_json",
                                  "bound_n_3_scan_cap_8_format_json"])
def test_golden_certificates_check(name):
    report = json.loads((GOLDEN_DIR / f"{name}.out").read_text().split("\n", 1)[1])
    assert check_certified_min(report["inputs"]["n"], report["certificates"]["certified_min"]) == []


def test_certificates_check_up_to_20000():
    for n in range(2, 20_001):
        assert check_certified_min(n, _cert(n)) == [], n


def test_certificates_check_below_1e40():
    rng = random.Random(20200817)
    for n in [rng.randint(2, 10**40) for _ in range(200)]:
        assert check_certified_min(n, _cert(n)) == [], n


def test_uncertified_certificate_checks_its_scan():
    cert = _cert(3, 8)  # n = 3 certifies at m = 11
    assert not cert["certified"] and "tail" not in cert
    assert check_certified_min(3, cert) == []


@pytest.mark.parametrize("n, strict, disc_sign", [
    (17, True, -1),  # no real root, cutoff 2, P still decreasing at 2
    (14, False, 0),  # double root, not strict
])
def test_rootless_certificates_with_cutoff_2(n, strict, disc_sign):
    cert = _cert(n)
    tail = cert["tail"]
    a, b, c = tail["poly"]
    assert (tail["cutoff"], tail["strict"]) == (2, strict)
    assert (b * b - 4 * a * c > 0) - (b * b - 4 * a * c < 0) == disc_sign
    if disc_sign < 0:
        assert a * 5 + b < 0  # P(3) < P(2): not covered by the rising branch
    assert check_certified_min(n, cert) == []


def test_linear_certificate():
    cert = _cert(4)  # n = p^2 at threshold 2: A = 0, B = 0
    assert cert["tail"]["poly"][:2] == [0, 0]
    assert check_certified_min(4, cert) == []


def _mutated(n: int, change) -> tuple[dict, list[str]]:
    cert = copy.deepcopy(_cert(n))
    change(cert)
    return cert, check_certified_min(n, cert)


def test_rejects_cutoff_one_lower_where_the_poly_fails_there():
    rejected = 0
    for n in range(2, 2001):
        tail = _cert(n)["tail"]
        a, b, c = tail["poly"]
        m = tail["cutoff"] - 1
        v = (a * m + b) * m + c
        if m >= 2 and not (v > 0 if tail["strict"] else v >= 0):
            _, problems = _mutated(n, lambda cert: cert["tail"].update(cutoff=m))
            assert "poly does not hold from cutoff on" in problems, n
            rejected += 1
    assert rejected > 100


def test_rejects_cutoff_where_the_poly_holds_but_decreases():
    # 24m^2 - 219m + 497 holds at m = 4 but P(5) < P(4)
    assert _cert(249)["tail"]["cutoff"] == 5
    _, problems = _mutated(249, lambda cert: cert["tail"].update(cutoff=4))
    assert problems == ["poly does not hold from cutoff on"]


@pytest.mark.parametrize("index", [0, 1, 2])
def test_rejects_a_flipped_sign_in_the_poly(index):
    def flip(cert):
        cert["tail"]["poly"][index] *= -1

    for n in range(2, 500):
        cert, problems = _mutated(n, flip)
        if cert["tail"]["poly"][index] != 0:
            assert "poly is not derived from (n, value)" in problems, n


def test_rejects_a_dropped_argmin():
    for n in range(2, 500):
        _, problems = _mutated(n, lambda cert: cert["argmins"].pop())
        assert "argmins are not the scanned minimizers" in problems, n


def test_rejects_a_value_above_the_true_minimum():
    def raise_value(cert):  # p/q -> (2p + 1)/2q, in lowest terms
        p, _, q = cert["value"].partition("/")
        cert["value"] = cert["tail"]["threshold"] = f"{2 * int(p) + 1}/{2 * int(q or 1)}"

    for n in range(2, 500):
        cert, problems = _mutated(n, raise_value)
        assert f"ratio at m={cert['argmins'][0]} below value" in problems, n


#: bounds.SQRT_LINEAR restated, (p, a, q, b, c) of p*sqrt(a*n) >= q*sqrt(b*n) + c, and the
#: first n of each: "f7" is g(n,8) >= g(n,7) + 1/7, m is g(n,m) >= g(n,4) + 1/4
SQRT_LINEAR = {"f7": (7, 58, 8, 44, 8), 2: (4, 4, 2, 14, 2), 3: (4, 8, 3, 14, 3),
               5: (4, 22, 5, 14, 5), 6: (4, 32, 6, 14, 6), 7: (4, 44, 7, 14, 7)}
FIRST_N = {"f7": 1072, 2: 15, 3: 1143, 5: 8775, 6: 1143, 7: 421}


def _printed(name) -> dict:
    """The package's certificate of SQRT_LINEAR[name] in the printed JSON shape."""
    cert = sqrt_linear_threshold(*bounds.SQRT_LINEAR[name])
    return {"threshold": cert.threshold, "poly": list(cert.poly)}


def test_the_restated_table_names_every_entry():
    assert bounds.SQRT_LINEAR.keys() == SQRT_LINEAR.keys()


@pytest.mark.parametrize("name", list(SQRT_LINEAR))
def test_every_sqrt_linear_certificate_checks(name):
    cert = _printed(name)
    assert cert["threshold"] == FIRST_N[name]
    assert check_sqrt_linear(SQRT_LINEAR[name], cert) == []


@pytest.mark.parametrize("shift, problem", [
    (-1, "inequality fails at threshold"), (1, "inequality holds at threshold - 1")])
@pytest.mark.parametrize("name", list(SQRT_LINEAR))
def test_rejects_a_shifted_sqrt_linear_threshold(name, shift, problem):
    cert = _printed(name)
    cert["threshold"] += shift
    assert problem in check_sqrt_linear(SQRT_LINEAR[name], cert)


def test_rejects_the_f7_certificate_under_other_params():
    for params in [(7, 58, 8, 44, 7), (7, 58, 8, 45, 8), SQRT_LINEAR[7]]:
        assert "poly is not h of (p, a, q, b, c)" in check_sqrt_linear(params, _printed("f7"))


def _verify_certificates(name: str) -> dict:
    report = json.loads((GOLDEN_DIR / f"{name}.out").read_text().split("\n", 1)[1])
    return report["certificates"]


def _analytic_blocks(name: str) -> tuple[dict, dict]:
    certs = _verify_certificates(name)
    return certs["analytic_threshold"], certs["ceiling_threshold"]["analytic_per_m"]


VERIFY_GOLDENS = ["verify_format_json", "verify_agreement_to_300_scan_cap_3000_format_json"]


@pytest.mark.parametrize("name", VERIFY_GOLDENS)
def test_golden_analytic_thresholds_check(name):
    certs, even_per_m = _analytic_blocks(name)
    assert sorted(certs) == sorted(even_per_m) == ["2", "3", "5", "6", "7"]
    for m, cert in certs.items():
        assert check_sqrt_linear(SQRT_LINEAR[int(m)], cert, even_per_m[m]) == [], m


@pytest.mark.parametrize("change, problem", [
    (lambda cert: cert.update(threshold=cert["threshold"] - 1), "inequality fails at threshold"),
    (lambda cert: cert.update(threshold=cert["threshold"] + 1),
     "inequality holds at threshold - 1"),
])
def test_rejects_a_shifted_analytic_threshold(change, problem):
    certs, even_per_m = _analytic_blocks(VERIFY_GOLDENS[0])
    for m, cert in certs.items():
        cert = copy.deepcopy(cert)
        change(cert)
        assert problem in check_sqrt_linear(SQRT_LINEAR[int(m)], cert, even_per_m[m]), m


@pytest.mark.parametrize("index", [0, 1, 2])
def test_rejects_a_flipped_sign_in_the_analytic_poly(index):
    certs, _ = _analytic_blocks(VERIFY_GOLDENS[0])
    for m, cert in certs.items():
        cert = copy.deepcopy(cert)
        cert["poly"][index] *= -1
        assert "poly is not h of (p, a, q, b, c)" in check_sqrt_linear(
            SQRT_LINEAR[int(m)], cert), m


def test_rejects_an_analytic_certificate_filed_under_the_wrong_m():
    certs, even_per_m = _analytic_blocks(VERIFY_GOLDENS[0])
    ms = sorted(certs)
    for m, other in zip(ms, ms[1:] + ms[:1]):
        problems = check_sqrt_linear(SQRT_LINEAR[int(other)], certs[m], even_per_m[other])
        assert "poly is not h of (p, a, q, b, c)" in problems, (m, other)


def test_rejects_a_wrong_even_analytic_threshold():
    certs, even_per_m = _analytic_blocks(VERIFY_GOLDENS[0])
    for m, cert in certs.items():
        assert check_sqrt_linear(SQRT_LINEAR[int(m)], cert, even_per_m[m] + 2) == [
            "even threshold is not the first even n from threshold"], m


def _ceiling_json(even_only: bool) -> dict:
    """ceiling_threshold in the shape verify prints under certificates.ceiling_threshold."""
    rep = ceiling_threshold(even_only=even_only)
    return {"threshold": rep.threshold, "last_failure": rep.last_failure,
            "scanned_to": rep.scanned_to, "analytic_per_m": dict(rep.analytic.per_m)}


@pytest.mark.parametrize("name", VERIFY_GOLDENS)
def test_golden_ceiling_thresholds_check(name):
    cert = _verify_certificates(name)["ceiling_threshold"]
    assert (cert["threshold"], cert["last_failure"], cert["scanned_to"]) == (4982, 4980, 8775)
    assert check_ceiling_threshold(cert, even_only=True) == []


def test_all_integer_ceiling_threshold_checks():
    cert = _ceiling_json(even_only=False)
    assert (cert["threshold"], cert["last_failure"], cert["scanned_to"]) == (5286, 5285, 8774)
    assert check_ceiling_threshold(cert, even_only=False) == []


_NOT_BEFORE = "last failure is not the n of the parity before the threshold"


@pytest.mark.parametrize("change, problems", [
    (lambda c: c.update(threshold=c["threshold"] - 2), [_NOT_BEFORE, "m = 4 does not attain"]),
    (lambda c: c.update(threshold=c["threshold"] + 2), [_NOT_BEFORE]),
    (lambda c: c.update(threshold=c["threshold"] + 2, last_failure=c["last_failure"] + 2),
     ["m = 4 attains the minimum at the last failure"]),
    (lambda c: c.update(threshold=c["threshold"] - 2, last_failure=c["last_failure"] - 2),
     ["m = 4 does not attain"]),
    (lambda c: c.update(last_failure=c["last_failure"] - 2), [_NOT_BEFORE]),
    (lambda c: c.update(last_failure=None), ["no last failure, but the threshold is not 2"]),
    (lambda c: c.update(scanned_to=c["scanned_to"] - 100),
     ["scan stops before the analytic threshold"]),
])
@pytest.mark.parametrize("even_only", [True, False])
def test_rejects_a_wrong_ceiling_threshold(change, problems, even_only):
    cert = (_verify_certificates(VERIFY_GOLDENS[0])["ceiling_threshold"] if even_only
            else _ceiling_json(even_only=False))
    change(cert)
    found = check_ceiling_threshold(cert, even_only)
    for problem in problems:
        assert any(p.startswith(problem) for p in found), (problem, found)


def test_rejects_an_odd_even_ceiling_threshold():
    cert = _verify_certificates(VERIFY_GOLDENS[0])["ceiling_threshold"]
    cert.update(threshold=4983, last_failure=4981)
    assert "threshold is not an n >= 2 of the parity" in check_ceiling_threshold(cert, True)
