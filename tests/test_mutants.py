"""The mutation catalogue (tests/mutants.py) still matches the source.

Running the mutants takes a minute and is its own CI job; this check is
instant, so a refactor that moves a recorded snippet fails here first.
"""

from mutants import snippet_errors


def test_every_recorded_original_occurs_once_in_the_source():
    assert snippet_errors() == []
