"""The code-line counter (tests/codelines.py) on a synthetic source."""

from codelines import code_lines, main

SOURCE = '''"""Module docstring,
on two lines."""

# a comment line
import os  # a trailing comment does not hide the code


class Box:
    """Class docstring."""

    size = 1


def f(x):
    """Function docstring,

    with a blank line inside."""
    print("implicitly concatenated "
          "strings in a call "
          "count on every line")
    text = """a multi-line string
that is not a docstring"""
    "a later string statement is code"
    return (x +
            1)
'''


def test_code_lines_counts_tokens_and_skips_comments_and_docstrings():
    # import, class, size, def, the three call lines, the two lines of the
    # assigned string, the later string, and the two lines of the return
    assert code_lines(SOURCE) == 12


def test_a_source_of_docstrings_and_comments_alone_has_no_code():
    assert code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_main_prints_a_table_whose_last_row_is_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path / "pkg")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-3:] == [f"| `{tmp_path / 'pkg' / 'a.py'}` | 12 |",
                         f"| `{tmp_path / 'pkg' / 'b.py'}` | 1 |",
                         "| total | 13 |"]
