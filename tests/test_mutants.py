"""The mutation catalogue (tests/mutants.py) still matches the source.

Running the mutants takes a minute and is its own CI job; these checks are
instant, so a refactor that moves a recorded snippet, or renames or
retargets a test a mutant names, fails here first.
"""

from mutants import MUTANTS, Mutant, missing_tests, snippet_errors


def test_every_recorded_original_occurs_once_in_the_source():
    assert snippet_errors() == []


def test_every_named_test_exists():
    assert missing_tests() == []


def test_a_named_test_that_does_not_exist_is_reported():
    real = MUTANTS[0]
    path, name = real.tests[0].split("::")
    ghosts = Mutant("ghost", real.path, real.original, real.replacement,
                    (f"{path}::{name}_renamed", "tests/test_renamed.py",
                     f"{path}::{name}"))
    assert missing_tests([ghosts]) == [
        f"ghost: no test {name}_renamed in {path}",
        "ghost: no file tests/test_renamed.py"]
