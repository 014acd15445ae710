"""CLI surface: subcommands, formats, schema stability, exit codes."""

import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri import bielliptic, bounds, comparison
from seshadri import cli as cli_module
from seshadri import verify as verify_module
from seshadri.cli import (MAX_CENSUS_LISTING, MAX_DECIMALS, MAX_N_DIGITS, MAX_QUOTED,
                          MAX_RENDERED_DECIMALS, MAX_TABLE_NS, cli)

JSON_SCHEMA_KEYS = {
    "command", "inputs", "status", "exact_values", "decimal_renderings",
    "certificates", "paper_expectations",
}


def run(*args):
    return CliRunner().invoke(cli, list(args))


class TestBound:
    def test_n2_text(self):
        result = run("bound", "--n", "2")
        assert result.exit_code == 0
        assert "4/3" in result.output and "1.3333" in result.output
        assert "{3, 6}" in result.output

    def test_n20000_renders_132_5(self):
        result = run("bound", "--n", "20000")
        assert result.exit_code == 0
        assert "265/2" in result.output and "132.5" in result.output

    def test_usage_error_below_2(self):
        result = run("bound", "--n", "1")
        assert result.exit_code == 2

    def test_json_schema(self):
        result = run("bound", "--n", "100", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert JSON_SCHEMA_KEYS.issubset(payload)
        assert payload["exact_values"]["lower_bound"] == "47/5"
        assert payload["decimal_renderings"]["lower_bound"] == "9.4"
        assert payload["certificates"]["certified_min"]["certified"] is True
        assert payload["exact_values"]["priors"]["abelian_7_8"] == {
            "coef": "1/4", "radicand": "1400"
        }

    def test_full_precision_flag(self):
        result = run("bound", "--n", "100", "--full-precision")
        assert "9.4000" in result.output

    def test_value_disagreeing_with_certificate_is_a_discrepancy(self, monkeypatch):
        wrong = bounds.SmallBound(100, Fraction(47, 5) + Fraction(1, 5), frozenset({4}))
        monkeypatch.setattr(bounds, "lower_bound_small", lambda n: wrong)
        text = run("bound", "--n", "100")
        assert text.exit_code == 1
        assert "DISCREPANCY: the certified minimum is 47/5" in text.output
        result = run("bound", "--n", "100", "--format", "json")
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["status"] == "discrepancy"
        assert payload["exact_values"]["lower_bound"] == "48/5"
        assert payload["certificates"]["certified_min"]["value"] == "47/5"
        csv_row = run("bound", "--n", "100", "--format", "csv").output.splitlines()[1]
        assert csv_row.endswith(",discrepancy")


@pytest.mark.parametrize("args", [
    ["bound", "--n", "2", "--decimals", "-1"],
    ["bound", "--n", "2", "--scan-cap", "3"],
    ["bound", "--n", "2", "--scan-cap", "7", "--format", "json"],
    ["verify", "--scan-cap", "0"],
    ["verify", "--agreement-to", "2", "--scan-cap", "7", "--format", "json"],
    ["verify", "--agreement-to", "-5"],
    ["verify", "--agreement-to", "1", "--scan-cap", "3000"],
    ["candidates", "--n", "10", "--decimals", "-1"],
    ["omega", "--n", "2", "--m", "1"],
    ["candidates", "--n", "10", "--max-m", "1"],
    ["bielliptic", "ratio", "--type", "1", "--ample", "2,3", "--curve", "1,1", "--m", "0"],
    ["table", "--ns", "2,100", "--decimals", "-1", "--format", "csv"],
    ["bielliptic", "ratio", "--type", "1", "--ample", "2,3", "--curve", "1,1",
     "--decimals", "-1"],
    ["bielliptic", "star-check", "--c2", "10", "--mults", "2,3,"],
    ["table", "--ns", "2,3,"],
    ["bielliptic", "ratio", "--type", "1", "--ample", "1,2,3", "--curve", "1,1"],
    # past the caps, a rendered integer would exceed Python's int-to-str limit
    ["bound", "--n", "2", "--decimals", "4300"],
    ["table", "--preset", "paper", "--decimals", "5000"],
    ["bound", "--n", "9" * 4300],
    ["bound", "--n", "1" + "0" * MAX_N_DIGITS, "--format", "json"],
    ["table", "--ns", "2," + "9" * 4300],
    ["omega", "--n", "9" * 4300, "--m", "2", "--format", "json"],
    ["omega", "--n", "2", "--m", "9" * 4300],
    ["omega", "--n", "2", "--d", "1" + "0" * MAX_N_DIGITS],
    ["bielliptic", "ratio", "--type", "1", "--ample", f"{'9' * 3000},{'9' * 3000}",
     "--curve", f"{'9' * 3000},1"],
    ["bielliptic", "intersect", "--type", "1", "--c1", f"{'9' * 3000},{'9' * 3000}",
     "--c2", f"{'9' * 3000},1"],
    ["bielliptic", "fiber-degrees", "--type", "1", "--class", "1," + "9" * 4300],
    ["bielliptic", "intersect", "--type", "1", "--c1", "-1" + "0" * MAX_N_DIGITS + ",1",
     "--c2", "1,1"],
    # the refusal states the listing cap, not the range
    ["census", "--from", "2", "--to", "9" * MAX_N_DIGITS, "--per-n"],
    # past Python's 4300-digit limit int() cannot read the value at all
    ["bound", "--n", "9" * 5000],
    ["bielliptic", "intersect", "--type", "1", "--c1", "9" * 5000 + ",1", "--c2", "1,1"],
    ["census", "--from", "2", "--to", "9" * 5000],
    ["bielliptic", "star-check", "--c2", "9" * 5000],
    # a refused value within the digit cap is quoted only in part
    ["bound", "--n", "-" + "9" * MAX_N_DIGITS],
    ["bound", "--n", "2", "--decimals", "9" * MAX_N_DIGITS],
    ["bielliptic", "ratio", "--type", "1", "--ample", "2,3", "--curve", "1,1",
     "--m", "-" + "9" * MAX_N_DIGITS],
    ["bielliptic", "intersect", "--type", "1", "--c1", ",".join(["1"] * 3001), "--c2", "1,1"],
    ["bound", "--n", "9" * (MAX_N_DIGITS - 1) + "x"],
    ["candidates", "--n", "9" * MAX_N_DIGITS],
    ["table", "--ns", "-" + "9" * MAX_N_DIGITS],
    ["table", "--preset", "9" * MAX_N_DIGITS],
    ["bound", "--n", "2", "--format", "9" * MAX_N_DIGITS],
    # at N = 4 no (d, m) pair lies below sqrt(N): the refusal is on max_m itself
    ["candidates", "--n", "4", "--max-m", str(bounds.MAX_CANDIDATES + 1)],
])
def test_bad_numeric_input_is_a_usage_error(args):
    result = run(*args)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert len(result.output) < 200  # the message states the cap, not the number
    if any(len(number) > MAX_N_DIGITS for arg in args for number in re.findall(r"\d+", arg)):
        assert f"at most {MAX_N_DIGITS} digits" in result.output


#: (option, a command lacking only it, a malformed value of it)
LIST_OPTIONS = [
    ("--ns", ["table"], "2,x"),
    ("--mults", ["bielliptic", "star-check", "--c2", "10"], "2,x"),
    ("--c1", ["bielliptic", "intersect", "--type", "1", "--c2", "1,1"], "1;0"),
    ("--c2", ["bielliptic", "intersect", "--type", "1", "--c1", "1,1"], "1;0"),
    ("--class", ["bielliptic", "fiber-degrees", "--type", "1"], "1;0"),
    ("--ample", ["bielliptic", "ratio", "--type", "1", "--curve", "1,1"], "1;0"),
    ("--curve", ["bielliptic", "ratio", "--type", "1", "--ample", "2,3"], "1;0"),
]


@pytest.mark.parametrize("option, args, value", LIST_OPTIONS, ids=[o[0] for o in LIST_OPTIONS])
def test_a_malformed_list_or_class_is_a_usage_error_that_names_its_option(option, args, value):
    result = run(*args, option, value)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"Invalid value for '{option}'" in result.stderr


@pytest.mark.parametrize("args", [
    ["bound", "--n", "x"], ["bound", "--n", "2", "--decimals", "x"], ["table", "--ns", "2,x"],
], ids=["--n", "--decimals", "--ns"])
def test_a_bounded_integer_option_calls_a_non_integer_not_a_valid_integer(args):
    result = run(*args)
    assert result.exit_code == 2
    assert result.stderr.endswith("'x' is not a valid integer.\n")


@pytest.mark.parametrize("args", [
    ["bound", "--n", str(10**MAX_N_DIGITS - 1), "--decimals", str(MAX_DECIMALS)],
    ["table", "--ns", f"2,{10**MAX_N_DIGITS - 1}", "--decimals", str(MAX_DECIMALS),
     "--full-precision"],
    ["omega", "--n", str(10**MAX_N_DIGITS - 1), "--m", "7", "--d", "3"],
])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_inputs_at_the_caps_render_below_the_int_string_limit(args, fmt):
    result = run(*args, "--format", fmt)
    assert result.exit_code == 0, result.output
    longest = max(len(digits) for digits in re.findall(r"\d+", result.output))
    assert MAX_N_DIGITS // 2 < longest < sys.get_int_max_str_digits()


_AT_CAP = str(10**MAX_N_DIGITS - 1)


@pytest.mark.parametrize("args", [
    ["intersect", "--type", "1", "--c1", f"{_AT_CAP},-{_AT_CAP}", "--c2", f"-{_AT_CAP},{_AT_CAP}"],
    ["ratio", "--type", "1", "--ample", f"{_AT_CAP},{_AT_CAP}", "--curve", f"{_AT_CAP},{_AT_CAP}"],
    ["ratio", "--type", "1", "--ample", f"{_AT_CAP},{_AT_CAP}", "--curve", f"{_AT_CAP},{_AT_CAP}",
     "--m", "3", "--decimals", str(MAX_DECIMALS)],
    ["fiber-degrees", "--type", "7", "--class", f"-{_AT_CAP},{_AT_CAP}"],
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_class_coordinates_at_the_cap_render_below_the_int_string_limit(args, fmt):
    result = run("bielliptic", *args, "--format", fmt)
    assert result.exit_code == 0, result.output
    longest = max(len(digits) for digits in re.findall(r"\d+", result.output))
    assert MAX_N_DIGITS < longest < sys.get_int_max_str_digits()


class TestOmega:
    def test_membership(self):
        result = run("omega", "--n", "2", "--d", "3", "--m", "2")
        assert result.exit_code == 0
        assert "contains: True" in result.output
        assert "d_min: 3" in result.output
        assert "m_max: 2" in result.output

    def test_requires_d_or_m(self):
        assert run("omega", "--n", "2").exit_code == 2


class TestCandidates:
    def test_fiber_and_omega(self):
        result = run("candidates", "--n", "10", "--max-m", "5", "--format", "json")
        payload = json.loads(result.output)
        values = payload["exact_values"]["candidates"]
        fibers = [v["value"] for v in values if v["kind"] == "integer_fiber"]
        assert fibers == ["1/1", "2/1", "3/1"]

    #: N with 5000 and with 5001 candidates at the default --max-m: at --decimals
    #: MAX_DECIMALS, the budget itself and one value past it
    AT_BUDGET, PAST_BUDGET = 5953601, 5954577

    def test_rendered_decimals_budget_is_inclusive(self):
        assert len(bounds.candidate_values(self.AT_BUDGET, 7)) * MAX_DECIMALS == \
            MAX_RENDERED_DECIMALS
        result = run("candidates", "--n", str(self.AT_BUDGET), "--decimals", str(MAX_DECIMALS),
                     "--format", "csv")
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 1 + 5000

    def test_over_the_rendered_decimals_budget_is_refused_before_rendering(self, monkeypatch):
        def no_decimal(*_args):
            raise AssertionError("a decimal rendered")

        monkeypatch.setattr(cli_module, "_decimal", no_decimal)
        for n, count in ((self.PAST_BUDGET, 5001), (1_600_000_000, 81965)):
            result = run("candidates", "--n", str(n), "--decimals", str(MAX_DECIMALS))
            assert result.exit_code == 2, n
            assert result.stdout == ""
            assert (f"candidates renders at most {MAX_RENDERED_DECIMALS} decimals, and {count} "
                    f"values at --decimals {MAX_DECIMALS} are {count * MAX_DECIMALS}"
                    in result.stderr), n

    def test_table_cannot_reach_the_rendered_decimals_budget(self):
        # so table needs no budget check of its own
        assert MAX_TABLE_NS * len(comparison.TABLE_COLUMNS) * MAX_DECIMALS == 6 * 10**6
        assert MAX_TABLE_NS * len(comparison.TABLE_COLUMNS) * MAX_DECIMALS < MAX_RENDERED_DECIMALS


class TestCensus:
    def test_even_default_matches_published(self):
        result = run("census", "--from", "2", "--to", "10000", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["counts"] == {
            "2": 1, "3": 59, "4": 4656, "5": 274, "6": 9, "7": 1
        }

    def test_single_n_42(self):
        result = run("census", "--from", "42", "--to", "42", "--format", "json")
        assert json.loads(result.output)["counts"] == {"7": 1}

    def test_beyond_threshold_all_m4(self):
        result = run("census", "--from", "4982", "--to", "6000", "--format", "json")
        counts = json.loads(result.output)["counts"]
        assert set(counts) == {"4"}

    def test_bad_range(self):
        assert run("census", "--from", "10", "--to", "2").exit_code == 2

    def test_csv_format(self):
        result = run("census", "--from", "42", "--to", "42", "--format", "csv")
        assert result.output == "m,count\n7,1\n"

    def test_counts_to_1e30_in_bounded_time_and_memory(self):
        tracemalloc.start()
        start = time.perf_counter()
        result = run("census", "--from", "2", "--to", str(10**30), "--format", "json")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n_examined"] == 5 * 10**29
        assert payload["counts"]["4"] == 5 * 10**29 - 344
        assert elapsed < 1.0 and peak < 16 * 2**20  # at most 4387 N are evaluated

    def test_per_n_over_the_listing_cap_is_refused_before_computing(self, monkeypatch):
        # the census itself is O(1); what the cap spares is building the listing
        def no_listing(*_args, **_kwargs):
            raise AssertionError("listing built")

        monkeypatch.setattr(bounds.CensusReport, "listing", no_listing)
        for args in (["--from", "2", "--to", str(2 * MAX_CENSUS_LISTING + 2)],
                     ["--from", "2", "--to", str(MAX_CENSUS_LISTING + 2), "--include-odd"],
                     ["--from", "2", "--to", str(10**30)]):
            result = run("census", *args, "--per-n")
            assert result.exit_code == 2, args
            assert f"at most {MAX_CENSUS_LISTING} N" in result.output
            assert result.stdout == ""

    def test_per_n_listing_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli_module, "MAX_CENSUS_LISTING", 3)
        listed = run("census", "--from", "8773", "--to", "8778", "--per-n", "--format", "csv")
        assert listed.exit_code == 0
        assert [row.split(",")[0] for row in listed.output.splitlines()[1:]] == \
            ["8774", "8776", "8778"]
        assert run("census", "--from", "8773", "--to", "8780", "--per-n").exit_code == 2
        assert run("census", "--from", "8773", "--to", "8780").exit_code == 0
        # an invalid start is named as such, not as a listing over the cap
        assert "census needs 2 <= start <= stop, got [1, 8780]" in \
            run("census", "--from", "1", "--to", "8780", "--per-n").output


class TestTable:
    def test_preset_paper_text(self):
        result = run("table", "--preset", "paper")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 9  # header + 8 rows
        assert "132.5" in lines[-1] and "132.2876" in lines[-1]

    def test_byte_identical_across_runs(self):
        first = run("table", "--preset", "paper", "--format", "csv")
        second = run("table", "--preset", "paper", "--format", "csv")
        assert first.output == second.output

    def test_csv_decimal_points(self):
        result = run("table", "--ns", "2,100", "--format", "csv")
        assert result.output.splitlines() == [
            "n,abelian_7_8,hr_093,new_bound",
            "2,1.3229,1.3152,1.3333",
            "100,9.3541,9.3,9.4",
        ]

    def test_requires_ns_or_preset(self):
        assert run("table").exit_code == 2
        assert run("table", "--ns", "2,x").exit_code == 2
        assert run("table", "--ns", "1").exit_code == 2
        assert run("table", "--preset", "paper", "--ns", "5").exit_code == 2
        assert run("table", "--ns", "").exit_code == 2

    def test_an_ns_entry_below_2_is_refused_before_the_table_is_built(self, monkeypatch):
        def no_table(_ns):
            raise AssertionError("comparison_table called")

        monkeypatch.setattr(comparison, "comparison_table", no_table)
        result = run("table", "--ns", "2,1")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "1 is not in the range x>=2" in result.stderr

    def test_ns_cap_is_inclusive(self):
        ns = range(2, MAX_TABLE_NS + 2)
        result = run("table", "--ns", ",".join(map(str, ns)), "--format", "csv")
        assert result.exit_code == 0
        assert [row.split(",")[0] for row in result.output.splitlines()[1:]] == list(map(str, ns))

    def test_ns_over_the_cap_is_refused_before_the_table_is_built(self, monkeypatch):
        def no_table(_ns):
            raise AssertionError("comparison_table called")

        monkeypatch.setattr(comparison, "comparison_table", no_table)
        result = run("table", "--ns", ",".join(["2"] * (MAX_TABLE_NS + 1)))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"--ns lists at most {MAX_TABLE_NS} N, got {MAX_TABLE_NS + 1}" in result.stderr


class TestVerify:
    def test_failed_anchored_check_is_a_discrepancy(self, monkeypatch):
        monkeypatch.setattr(bounds, "sqrt58_threshold", lambda: 1071)
        text = run("verify", "--agreement-to", "10", "--scan-cap", "1000")
        assert text.exit_code == 1
        assert "[FAIL] sqrt58_threshold: computed 1071, expected 1072" in text.output
        assert text.output.endswith("verify: DISCREPANCY\n")
        result = run("verify", "--agreement-to", "10", "--scan-cap", "1000",
                     "--format", "json")
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["status"] == "discrepancy"
        assert payload["paper_expectations"]["sqrt58_threshold"]["pass"] is False
        assert payload["paper_expectations"]["census_even_counts"]["pass"] is True

    def test_certificates_are_the_union_of_the_checks_blocks(self):
        checks = verify_module.run(2, 8)
        keys = [key for check in checks for key in check.certificates]
        assert sorted(keys) == ["analytic_threshold", "ceiling_threshold"]  # one owner each
        union = {key: block for check in checks for key, block in check.certificates.items()}
        result = run("verify", "--agreement-to", "2", "--scan-cap", "8", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["certificates"] == json.loads(json.dumps(union))


class TestBielliptic:
    def test_types_matches_published_rows(self):
        result = run("bielliptic", "types", "--format", "json")
        payload = json.loads(result.output)
        assert payload["types"][0] == {
            "type": 1, "group": "Z2", "gamma": 2,
            "multiplicities": [2, 2, 2, 2], "mu": 2, "basis": ["E/2", "F"],
        }
        assert [t["basis"][1] for t in payload["types"]] == [
            "F", "F/2", "F", "F/2", "F", "F/3", "F"
        ]

    def test_intersect(self):
        result = run("bielliptic", "intersect", "--type", "1",
                     "--c1", "1,0", "--c2", "0,1")
        assert result.exit_code == 0
        assert result.output.strip() == "1"

    def test_fiber_degrees(self):
        result = run("bielliptic", "fiber-degrees", "--type", "2", "--class", "3,5")
        assert "L.E = 10" in result.output and "L.F = 6" in result.output

    def test_star_check_false_exits_1(self):
        result = run("bielliptic", "star-check", "--c2", "3", "--mults", "2")
        assert result.exit_code == 1
        assert result.output.strip() == "false"

    def test_star_check_true(self):
        result = run("bielliptic", "star-check", "--c2", "10", "--mults", "2,3")
        assert result.exit_code == 0
        assert result.output.strip() == "true"

    def test_star_check_reducible(self):
        result = run("bielliptic", "star-check", "--c2", "8", "--components", "2",
                     "--mults", "2")
        assert result.exit_code == 0

    def test_star_check_rejects_smooth_mults(self):
        assert run("bielliptic", "star-check", "--c2", "4",
                   "--mults", "1").exit_code == 2

    @pytest.mark.parametrize("mults, boundary", [("", 2), ("2", 4), ("2,3", 10)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_star_check_default_is_one_component(self, mults, boundary, offset):
        # boundary is 2 + sum m_i(m_i - 1); --components omitted means r = 1
        args = ["bielliptic", "star-check", "--c2", str(boundary + offset), "--mults", mults,
                "--format", "json"]
        default, explicit = run(*args), run(*args, "--components", "1")
        assert default.exit_code == explicit.exit_code == (1 if offset < 0 else 0)
        default, explicit = json.loads(default.output), json.loads(explicit.output)
        assert default["inputs"].pop("components") is None
        assert explicit["inputs"].pop("components") == 1
        assert default == explicit

    def test_star_check_refuses_the_component_count_first(self):
        result = run("bielliptic", "star-check", "--c2", "4", "--components", "0",
                     "--mults", "1")
        assert result.exit_code == 2
        assert "component count must be >= 1, got 0" in result.stderr

    def test_ratio(self):
        result = run("bielliptic", "ratio", "--type", "1", "--ample", "2,3",
                     "--curve", "1,1", "--m", "2")
        assert result.output.strip() == "5/2 = 2.5"

    def test_ratio_echoes_each_class_as_parsed(self):
        result = run("bielliptic", "ratio", "--type", "1", "--ample", "+2,03", "--curve", "1,1",
                     "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["inputs"]["ample"] == "2,3"

    def test_star_check_empty_mults_is_no_singular_point(self):
        result = run("bielliptic", "star-check", "--c2", "10", "--mults", "", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["inputs"]["mults"] == []

    def test_ratio_rejects_non_ample(self):
        assert run("bielliptic", "ratio", "--type", "1", "--ample", "0,5",
                   "--curve", "1,1", "--m", "1").exit_code == 2

    def test_invalid_type_index(self):
        assert run("bielliptic", "intersect", "--type", "9",
                   "--c1", "1,0", "--c2", "0,1").exit_code == 2

    def test_malformed_class(self):
        assert run("bielliptic", "intersect", "--type", "1",
                   "--c1", "1;0", "--c2", "0,1").exit_code == 2


def _commands(group, prefix=""):
    """(name, command) of every command under group, nested names joined by a space."""
    for name, command in group.commands.items():
        if hasattr(command, "commands"):
            yield from _commands(command, f"{prefix}{name} ")
        else:
            yield f"{prefix}{name}", command


#: the commands that offer --format csv, as the README's "Common flags" lists them
CSV_COMMANDS = {"bound", "omega", "candidates", "census", "table", "bielliptic types"}


#: (module, function, a command calling it, prefix of the command's message)
LIBRARY_CALLS = [
    (bounds, "lower_bound_small", ["bound", "--n", "5"], ""),
    (bounds, "d_min", ["omega", "--n", "5", "--m", "2"], ""),
    (bounds, "candidate_values", ["candidates", "--n", "5"], ""),
    (bounds, "census", ["census", "--from", "2", "--to", "10"], ""),
    (comparison, "comparison_table", ["table", "--ns", "2,5"], ""),
    (verify_module, "run", ["verify"], ""),
    (bielliptic, "intersect", ["bielliptic", "intersect", "--type", "1", "--c1", "1,1",
                               "--c2", "1,1"], ""),
    (bielliptic, "fiber_degrees", ["bielliptic", "fiber-degrees", "--type", "1",
                                   "--class", "1,1"], ""),
    (bielliptic, "star_check_reducible", ["bielliptic", "star-check", "--c2", "10"], ""),
    (bielliptic, "seshadri_ratio", ["bielliptic", "ratio", "--type", "1", "--ample", "2,3",
                                    "--curve", "1,1"], ""),
]


def test_library_calls_cover_every_command_but_types():
    called = {" ".join(args[:2] if args[0] == "bielliptic" else args[:1])
              for _, _, args, _ in LIBRARY_CALLS}
    assert called == {name for name, _ in _commands(cli)} - {"bielliptic types"}


@pytest.mark.parametrize("module, function, args, prefix", LIBRARY_CALLS,
                         ids=[f"{call[0].__name__}.{call[1]}" for call in LIBRARY_CALLS])
def test_a_library_value_error_and_only_it_is_a_short_usage_error(
        monkeypatch, module, function, args, prefix):
    def raise_(exc):
        def call(*_args, **_kwargs):
            raise exc
        return call

    monkeypatch.setattr(module, function, raise_(ValueError(f"refused {10**29 + 7}")))
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"Error: {prefix}refused 10000000000000000000... (30 digits)\n")
    failure = AssertionError("dominance chain violated")
    monkeypatch.setattr(module, function, raise_(failure))
    assert run(*args).exception is failure


def test_every_command_ends_with_its_format_option():
    layouts = {name: (last.name, last.opts, last.default, tuple(getattr(last.type, "choices", ())))
               for name, command in _commands(cli) for last in command.params[-1:]}
    assert layouts == {
        name: ("fmt", ["--format"], "text",
               ("text", "csv", "json") if name in CSV_COMMANDS else ("text", "json"))
        for name in ["bound", "omega", "candidates", "census", "table", "verify",
                     "bielliptic types", "bielliptic intersect", "bielliptic fiber-degrees",
                     "bielliptic star-check", "bielliptic ratio"]
    }


#: hostile option values: numbers at and past the digit cap, a long non-number, signs,
#: blanks, other bases, separators, non-ASCII digits, floats, malformed classes and
#: lists, long runs of a lone surrogate, a tag character and NUL, which repr escapes,
#: and a few valid values, so that every command also runs
_HOSTILE = [
    "9" * MAX_N_DIGITS, "-" + "9" * MAX_N_DIGITS, "1" + "0" * MAX_N_DIGITS,
    "x" * (MAX_N_DIGITS - 1), "+7", "-3", "",
    " ", " 5 ", "0x10", "1_000", "\u0661\u0662", "\uff11\uff12", "2.5", "1e3", "nan", "x",
    "0", "1", "2", "3", "8", "10", "paper", ",", "1,", ",1", "1,,2", "1;0", "2,3", "1,2,3",
    "\udcff" * MAX_N_DIGITS, "\U000e0001" * MAX_N_DIGITS, "\x00" * MAX_N_DIGITS,
]
_HOSTILE_VALUES = st.sampled_from(_HOSTILE) | st.lists(st.sampled_from(_HOSTILE), max_size=3).map(
    ",".join)
_FUZZED = [(name, command) for name, command in _commands(cli)
           if name not in {"verify", "bielliptic types"}]
#: most bytes of a usage error (usage line, hint and message)
USAGE_ERROR_BYTES = 300


@st.composite
def _invocations(draw):
    """A fuzzed command's name and arguments: each option present or not (a required one
    always), a hostile value for each valued one, and one of its formats."""
    name, command = draw(st.sampled_from(_FUZZED))
    args = name.split()
    *options, fmt = command.params
    for option in options:
        if option.required or draw(st.booleans()):
            args += [option.opts[0]] if option.is_flag else [option.opts[0],
                                                             draw(_HOSTILE_VALUES)]
    return name, [*args, "--format", draw(st.sampled_from(fmt.type.choices))]


def _assert_short_usage_error(args):
    result = run(*args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr.encode()) < USAGE_ERROR_BYTES, result.stderr
    return result.stderr


@pytest.mark.parametrize("args", [
    ["bound", "--n", "x" * (MAX_N_DIGITS - 1)],
    ["table", "--preset", "x" * (MAX_N_DIGITS - 1)],
    ["bound", "--format", "x" * (MAX_N_DIGITS - 1)],
    ["table", "--ns", "2," + "x" * (MAX_N_DIGITS - 1)],
], ids=["--n", "--preset", "--format", "--ns"])
def test_a_long_non_number_is_quoted_cut_in_a_short_usage_error(args):
    stderr = _assert_short_usage_error(args)
    assert f"{'x' * MAX_QUOTED!r}... ({MAX_N_DIGITS - 1} characters)" in stderr


_LONG = "x" * MAX_N_DIGITS
#: an argv that repeats a 2000-character token in its usage error, and the error's last line
_PARSER_ERRORS = {
    "extra argument": (["bound", "--n", "2", _LONG],
                       f"Got unexpected extra argument {'x' * MAX_QUOTED!r}... (2000 characters)"),
    "extra arguments": (["bound", "--n", "2", *"x" * MAX_N_DIGITS],
                        "Got unexpected extra arguments 'x x x x x x x x x x '... (3999 characters)"),
    "unknown option": (["bound", "--" + _LONG],
                       f"No such option {'--' + 'x' * (MAX_QUOTED - 2)!r}... (2002 characters)."),
    "unknown root option": (["--" + _LONG],
                            f"No such option {'--' + 'x' * (MAX_QUOTED - 2)!r}... (2002 characters)."),
    "unknown command": ([_LONG], f"No such command {'x' * MAX_QUOTED!r}... (2000 characters)."),
    "unknown bielliptic command": (["bielliptic", _LONG],
                                   f"No such command {'x' * MAX_QUOTED!r}... (2000 characters)."),
    # a token that is no str literal, though it holds quotes and an unknown escape
    "crafted extra argument": (["bound", "--n", "2", "a'\\N" + "b" * 30 + "'"],
                               "Got unexpected extra argument \"a'\\\\Nbbbbbbbbbbbbbbb\"... (36 characters)"),
}
_UNPRINTABLE_VALUES = {
    "--format": ["bound", "--n", "2", "--format"],
    "--n": ["bound", "--n"],
    "--c1": ["bielliptic", "intersect", "--type", "1", "--c2", "1,1", "--c1"],
}


@pytest.mark.parametrize("args, message", _PARSER_ERRORS.values(), ids=_PARSER_ERRORS)
def test_a_parser_error_is_cut_in_a_short_usage_error(args, message):
    stderr = _assert_short_usage_error(args)
    assert stderr.endswith(f"Error: {message}\n"), stderr
    assert cli_module._short(message) == message  # a second pass at the root leaves it


@pytest.mark.parametrize("char, printed", [("\udcff", r"\udcff"), ("\U000e0001", r"\U000e0001"),
                                           ("\x00", r"\x00")], ids=["surrogate", "tag", "nul"])
@pytest.mark.parametrize("option", _UNPRINTABLE_VALUES)
def test_an_unprintable_value_is_cut_by_printed_characters(option, char, printed):
    stderr = _assert_short_usage_error([*_UNPRINTABLE_VALUES[option], char * MAX_N_DIGITS])
    kept = printed * (MAX_QUOTED // len(printed))
    assert f"'{kept}'... ({len(printed) * MAX_N_DIGITS} characters)" in stderr, stderr


@pytest.mark.parametrize("group", [[], ["bielliptic"]], ids=["root", "bielliptic"])
def test_a_bare_group_prints_its_help_uncut(group):
    # click raises the help of a bare group as a usage error, so it passes the root hook too
    assert run(*group).output == run(*group, "--help").output


@pytest.mark.parametrize("group", [[], ["bielliptic"]], ids=["root", "bielliptic"])
def test_the_command_listing_cuts_no_help_at_click_s_default_width(group):
    # 78 columns is click's layout when no terminal is attached
    output = CliRunner().invoke(cli, [*group, "--help"], terminal_width=78).output
    rows = output.split("Commands:\n", 1)[1].splitlines()
    assert len(rows) == (5 if group else 7)
    assert [row for row in rows if row.endswith("...")] == []


#: click's and the writer's messages that repeat argv, each from one or more tokens
_ECHOING_MESSAGES = [
    lambda args: f"Got unexpected extra argument{'s' * (len(args) > 1)} ({' '.join(args)})",
    lambda args: f"{args[0]!r} is not one of 'text', 'csv', 'json'.",
    lambda args: f"No such command {args[0]!r}.",
    lambda args: f"expected 2 integers, got {','.join(args)!r}",
]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.sampled_from(_ECHOING_MESSAGES),
       st.lists(st.sampled_from(_HOSTILE) | st.text(), min_size=1, max_size=3))
def test_the_cut_is_short_and_a_second_pass_changes_nothing(message, args):
    cut = cli_module._short(message(args))
    assert cli_module._short(cut) == cut
    assert len(cut.encode("utf-8", "backslashreplace")) < USAGE_ERROR_BYTES // 2, cut


@settings(derandomize=True, max_examples=300, deadline=1000)
@given(_invocations())
def test_hostile_input_is_an_exit_0_1_or_2_with_a_short_usage_error(invocation):
    name, args = invocation
    result = run(*args)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert result.exit_code in (0, 1, 2)
    assert result.exit_code != 1 or name in {"bound", "bielliptic star-check"}
    if result.exit_code == 2:
        assert result.stdout == ""
        assert len(result.stderr.encode()) < USAGE_ERROR_BYTES, result.stderr


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


#: quotes, backslashes, control characters, DEL, non-ASCII and lone surrogates
_JSON_TEXT = st.text(st.characters(exclude_categories=())
                     | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u20ac\U0001f600\ud800\udfff'))
_JSON_LEAVES = (_JSON_TEXT | st.integers() | st.integers(-(2**200), 2**200) | st.booleans()
                | st.none() | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))


def _json_values(depth: int):
    """Leaves, and dicts, lists and tuples nested up to depth, empty ones included."""
    if depth == 0:
        return _JSON_LEAVES
    inner = _json_values(depth - 1)
    return (_JSON_LEAVES | st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(_JSON_TEXT, inner, max_size=4)
            | st.dictionaries(st.integers(), inner, max_size=4))


@settings(derandomize=True, max_examples=400)
@given(_json_values(4))
def test_json_writer_is_json_dumps(value):
    assert cli_module._json(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    {True: 1, False: [None]}, {None: "x"}, {1.5: 0, -0.0: 1, math.inf: 2, -(2**70): 3},
], ids=["bool keys", "None key", "float and wide int keys"])
def test_json_writer_spells_keys_as_json_dumps(value):
    assert cli_module._json(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    {1, 2}, {"a": [1, {2}]}, {"a": 1, 1: 2}, [{"b": 0, 2: 1}], {(1, 2): 3}, object(),
], ids=["set", "nested set", "mixed keys", "nested mixed keys", "tuple key", "object"])
def test_json_writer_raises_where_json_dumps_does(value):
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError):
        cli_module._json(value)


JSON_GOLDENS = sorted((Path(__file__).parent / "golden").glob("*_format_json.out"))


def test_json_goldens_are_found():
    assert len(JSON_GOLDENS) == 20


@pytest.mark.parametrize("path", JSON_GOLDENS, ids=[p.stem for p in JSON_GOLDENS])
def test_json_writer_reencodes_every_json_golden(path):
    text = path.read_text(encoding="utf-8").split("\n", 1)[1]  # after the "exit K" line
    assert cli_module._json(json.loads(text)) + "\n" == text


GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("args, code", [(["bound", "--n", "2"], 0), (["bound"], 2)],
                         ids=["bound_n_2", "bound_without_n"])
def test_the_console_entry_point_prints_and_exits_as_the_cli(args, code):
    # seshadri = "seshadri.cli:main" (pyproject.toml), in a fresh process
    run_main = ("import sys; sys.path.insert(0, 'src'); from seshadri.cli import main; "
                f"sys.argv = ['seshadri', *{args!r}]; main()")
    done = subprocess.run([sys.executable, "-I", "-c", run_main],
                          cwd=Path(__file__).parent.parent, capture_output=True, text=True)
    assert done.returncode == code
    if code == 0:
        golden = (GOLDEN_DIR / "bound_n_2.out").read_text(encoding="utf-8")
        assert "exit 0\n" + done.stdout == golden
    else:
        assert done.stdout == "" and "Usage: seshadri bound" in done.stderr
