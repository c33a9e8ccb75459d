"""Parser of the format-1 checkpoint fixture: sums of parenthesised ints.

Loaded as ``sums.py`` by ``tests/eval/test_checkpoint_v1.py`` so its arcs
and path signatures do not depend on where the checkout lives.  Do not
edit: the fixture records arcs by line number, so any change to this file
invalidates it.
"""

from repro.runtime.errors import ParseError


def parse_sums(stream):
    """Parse ``term (('+' | '-') term)*`` to the end of the input."""
    value = _term(stream)
    while True:
        operator = stream.peek()
        if operator == "+":
            stream.next_char()
            value += _term(stream)
        elif operator == "-":
            stream.next_char()
            value -= _term(stream)
        elif operator.is_eof:
            return value
        else:
            raise ParseError("expected '+', '-' or end", operator.index)


def _term(stream):
    lookahead = stream.next_char()
    if lookahead == "(":
        value = parse_group(stream)
        closing = stream.next_char()
        if closing != ")":
            raise ParseError("expected ')'", closing.index)
        return value
    if not lookahead.isdigit():
        raise ParseError("expected digit or '('", lookahead.index)
    value = lookahead.digit_value()
    while stream.peek().isdigit():
        value = value * 10 + stream.next_char().digit_value()
    return value


def parse_group(stream):
    value = _term(stream)
    while True:
        operator = stream.peek()
        if operator == "+":
            stream.next_char()
            value += _term(stream)
        elif operator == "-":
            stream.next_char()
            value -= _term(stream)
        else:
            return value
