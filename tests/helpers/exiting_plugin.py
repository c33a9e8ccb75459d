"""A plugin subject that calls ``sys.exit`` on one input, for the fault tests.

The language is a run of digits.  A leading ``q`` is a "quit" command the
parser obeys by calling ``sys.exit(EXIT_CODE)`` — the way a command-line
parser bails out mid-parse.  pFuzzer reaches it on its own: the parser
compares the first character against ``"q"``, so the first substitution
round proposes it.  The harness must turn the exit into a CRASH result
instead of letting it end the campaign.
"""

import sys

from repro.runtime.errors import ParseError
from repro.runtime.stream import InputStream
from repro.subjects.function import FunctionSubject
from repro.subjects.registry import register_subject

#: Exit code the parser passes to ``sys.exit``.
EXIT_CODE = 3

#: The input that makes the parser exit.
EXITING_INPUT = "q"


def parse_exiting(stream: InputStream) -> int:
    """Parse a run of digits; a leading ``q`` exits the process."""
    char = stream.next_char()
    if char == "q":
        sys.exit(EXIT_CODE)
    if not char.isdigit():
        raise ParseError("expected a digit or 'q'", char.index)
    digits = 1
    while not stream.peek().is_eof:
        char = stream.next_char()
        if not char.isdigit():
            raise ParseError("expected a digit", char.index)
        digits += 1
    return digits


def _make_subject() -> FunctionSubject:
    return FunctionSubject(parse_exiting, name="exiting")


def register() -> None:
    register_subject("exiting", _make_subject, replace=True)


if "__cov_line__" not in globals():
    register()
