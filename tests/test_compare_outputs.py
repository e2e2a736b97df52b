"""``tools/compare_outputs.py`` reports a value that moves by one bit."""

import importlib.util
import struct
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def tool():
    # the tool imports its sibling bench_pairs, as it does when run as a script
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(TOOLS))
        spec = importlib.util.spec_from_file_location("compare_outputs",
                                                      TOOLS / "compare_outputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _flip_last_bit(value: float) -> float:
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


def test_a_flipped_bit_in_one_case_is_reported(tool):
    before = tool.seeded_cases(3, limit=4)
    after = tool.seeded_cases(3, limit=4)
    assert len(after) == 4
    moved = tool.differences(before, after)
    assert set(moved) == set(before) and not any(moved.values())
    assert tool.report(moved).endswith("4 of 4 outputs identical, 0 moved")

    label = list(after)[2]
    where, text = after[label][0]
    flipped = repr(_flip_last_bit(float(text)))
    after[label][0] = [where, flipped]
    moved = tool.differences(before, after)
    assert moved[label] == [f"{where}: {text} -> {flipped}"]
    assert [changed for changed, lines in moved.items() if lines] == [label]
    assert f"{label}: 1 moved" in tool.report(moved)
    assert tool.report(moved).endswith("3 of 4 outputs identical, 1 moved")


def test_a_cli_field_that_moves_is_reported(tool):
    before = {"cli scan": tool.split_output("family,V,value\nw3,5,2.21820803367\n")}
    after = {"cli scan": tool.split_output("family,V,value\nw3,5,2.21820803368\n")}
    assert tool.differences(before, after) == {
        "cli scan": ["line 2 field 3: 2.21820803367 -> 2.21820803368"]}


def test_every_flippable_term_is_compared(tool):
    # the tool keeps its own copy of the count, so that it imports without etsbell
    from etsbell.validation import FLIPPABLE_TERMS

    assert tool.FLIPPABLE_TERMS == FLIPPABLE_TERMS
