"""Printed certificates against the seshadri-free checker in certcheck.py."""

import copy
import json
import random
from pathlib import Path

import pytest

from certcheck import check_analytic_threshold, check_certified_min
from seshadri.bounds import certified_min
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


def _analytic_blocks(name: str) -> tuple[dict, dict]:
    report = json.loads((GOLDEN_DIR / f"{name}.out").read_text().split("\n", 1)[1])
    certs = report["certificates"]
    return certs["analytic_threshold"], certs["ceiling_threshold"]["analytic_per_m"]


VERIFY_GOLDENS = ["verify_format_json", "verify_agreement_to_300_scan_cap_3000_format_json"]


@pytest.mark.parametrize("name", VERIFY_GOLDENS)
def test_golden_analytic_thresholds_check(name):
    certs, even_per_m = _analytic_blocks(name)
    assert sorted(certs) == sorted(even_per_m) == ["2", "3", "5", "6", "7"]
    for m, cert in certs.items():
        assert check_analytic_threshold(int(m), cert, even_per_m[m]) == [], m


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
        assert problem in check_analytic_threshold(int(m), cert, even_per_m[m]), m


@pytest.mark.parametrize("index", [0, 1, 2])
def test_rejects_a_flipped_sign_in_the_analytic_poly(index):
    certs, _ = _analytic_blocks(VERIFY_GOLDENS[0])
    for m, cert in certs.items():
        cert = copy.deepcopy(cert)
        cert["poly"][index] *= -1
        assert "poly is not h of (4, m^2-m+2, m, 14, m)" in check_analytic_threshold(
            int(m), cert), m


def test_rejects_an_analytic_certificate_filed_under_the_wrong_m():
    certs, even_per_m = _analytic_blocks(VERIFY_GOLDENS[0])
    ms = sorted(certs)
    for m, other in zip(ms, ms[1:] + ms[:1]):
        problems = check_analytic_threshold(int(other), certs[m], even_per_m[other])
        assert "poly is not h of (4, m^2-m+2, m, 14, m)" in problems, (m, other)


def test_rejects_a_wrong_even_analytic_threshold():
    certs, even_per_m = _analytic_blocks(VERIFY_GOLDENS[0])
    for m, cert in certs.items():
        assert check_analytic_threshold(int(m), cert, even_per_m[m] + 2) == [
            "even threshold is not the first even n from threshold"], m
