from pathlib import Path

import pytest

from ppt import Trace, parse_program

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# The paper's P1, and P2: P1 without the choice rule, so that the
# shoot/dead cycle has no external support.
P1_TEXT = (EXAMPLES / "p1.ppt").read_text(encoding="utf-8")
P2_TEXT = (EXAMPLES / "p2.ppt").read_text(encoding="utf-8")

TARGET = Trace.of(["load"], ["shoot", "dead"])


@pytest.fixture(scope="session")
def p1():
    return parse_program(P1_TEXT)


@pytest.fixture(scope="session")
def p2():
    return parse_program(P2_TEXT)
