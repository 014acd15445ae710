"""Golden CLI outputs: exit code and exact bytes of fixed invocations.

Each case is stored as tests/golden/<name>.out: a first line "exit K"
followed by the exact output.  Usage-error cases store the exit code
only, so their click messages may change without breaking the golden.

Capture the goldens of new cases with

    PYTHONPATH=src python tests/test_cli_golden.py

It writes only the golden files that are missing, prints the name of every
existing golden whose render differs, and then exits 1.  It never rewrites
an existing golden: to change one on purpose, delete it and run it again.
"""

import re
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from seshadri.cli import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

ALL_FORMATS = ("text", "csv", "json")
NO_CSV = ("text", "json")

#: (arguments, formats): every README CLI example plus edge renderings
OUTPUT_CASES = [
    ("bound --n 2", ALL_FORMATS),
    ("bound --n 20000", ALL_FORMATS),
    ("omega --n 2 --d 3 --m 2", ALL_FORMATS),
    ("candidates --n 10 --max-m 5", ALL_FORMATS),
    ("census --from 2 --to 10000", ALL_FORMATS),
    ("census --from 2 --to 100 --include-odd --per-n", ALL_FORMATS),
    ("table --preset paper", ALL_FORMATS),
    ("table --ns 2,100", ALL_FORMATS),
    ("verify", NO_CSV),
    ("bielliptic types", ALL_FORMATS),
    ("bielliptic intersect --type 1 --c1 1,0 --c2 0,1", NO_CSV),
    ("bielliptic fiber-degrees --type 2 --class 3,5", NO_CSV),
    ("bielliptic star-check --c2 10 --mults 2,3", NO_CSV),
    ("bielliptic star-check --c2 8 --components 2 --mults 2", NO_CSV),
    ("bielliptic ratio --type 1 --ample 2,3 --curve 1,1 --m 2", NO_CSV),
    ("bound --n 100 --full-precision", ("text",)),
    ("bound --n 100 --decimals 0", ("text",)),
    ("bound --n 123456789012345678901234567890 --decimals 9", ("text",)),
    ("bound --n 3 --scan-cap 8", ALL_FORMATS),
    ("table --ns 7,99999 --full-precision --decimals 6", ALL_FORMATS),
    ("verify --agreement-to 300 --scan-cap 3000", NO_CSV),
    ("bielliptic star-check --c2 3 --mults 2", NO_CSV),
    # 222 values with denominators up to 12; omega and fiber tie at 66, 67, 68 and 69
    ("candidates --n 4900 --max-m 12", ALL_FORMATS),
    ("candidates --n 50 --max-m 9 --decimals 0", ("text",)),
]

#: usage errors: the exit code is golden, the message is not
USAGE_ERROR_CASES = [
    "bound --n 1",
    "omega --n 2",
    "omega --n 2 --m 1",
    "omega --n 2 --d 0",
    "candidates --n 10 --max-m 1",
    "candidates --n 100000000000000000000",
    "candidates --n 2 --max-m 1000000000",
    "bound --n 2 --decimals 4300",
    "table --preset paper --decimals 5000",
    "census --from 10 --to 2",
    "census --from 1 --to 10",
    "table",
    "table --ns 2,x",
    "table --ns 1",
    "bielliptic star-check --c2 4 --mults 1",
    "bielliptic star-check --c2 4 --mults 2,x",
    "bielliptic ratio --type 1 --ample 0,5 --curve 1,1 --m 1",
    "bielliptic intersect --type 9 --c1 1,0 --c2 0,1",
    "bielliptic intersect --type 1 --c1 1;0 --c2 0,1",
]


def _invocations() -> list[tuple[str, list[str], bool]]:
    """(golden name, argv, output is golden) for every case."""
    out = []
    for args, formats in OUTPUT_CASES:
        for fmt in formats:
            argv = args.split() + ([] if fmt == "text" else ["--format", fmt])
            out.append((_name(argv), argv, True))
    out.extend((_name(args.split()), args.split(), False) for args in USAGE_ERROR_CASES)
    return out


def _name(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9.,]+", "_", "_".join(argv)).strip("_")


def _render(argv: list[str], with_output: bool) -> str:
    result = CliRunner().invoke(cli, argv)
    return f"exit {result.exit_code}\n" + (result.output if with_output else "")


INVOCATIONS = _invocations()


def test_names_are_unique():
    assert len({name for name, _, _ in INVOCATIONS}) == len(INVOCATIONS)


def test_no_orphan_goldens():
    names = {name for name, _, _ in INVOCATIONS}
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.out") if p.stem not in names) == []


def test_every_readme_example_is_golden():
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S).group(1)
    examples = [line.split("#")[0].split()[1:] for line in block.splitlines()
                if line.startswith("seshadri ")]
    assert examples
    golden = [argv for _, argv, with_output in INVOCATIONS if with_output]
    assert [argv for argv in examples if argv not in golden] == []


@pytest.mark.parametrize("name,argv,with_output", INVOCATIONS,
                         ids=[name for name, _, _ in INVOCATIONS])
def test_golden(name, argv, with_output):
    expected = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert _render(argv, with_output) == expected


def capture() -> int:
    """Write the missing goldens; print the differing ones and return 1 if any."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    differing = []
    for name, argv, with_output in INVOCATIONS:
        path = GOLDEN_DIR / f"{name}.out"
        rendered = _render(argv, with_output)
        if not path.exists():
            path.write_text(rendered, encoding="utf-8")
        elif path.read_text(encoding="utf-8") != rendered:
            differing.append(name)
    for name in differing:
        print(f"differs: {name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(capture())
