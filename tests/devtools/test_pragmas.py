"""Tests for the suppression-pragma parser (tokenize-based, same-line only)."""

from repro.devtools.pragmas import Pragma, extract_pragmas

KNOWN = ("RNG-001", "DET-001", "DET-002")


class TestWellFormedPragmas:
    def test_single_rule_with_reason(self):
        text = "rng = make()  # repro-lint: ok RNG-001 -- catalogue listing only\n"
        pragmas, errors = extract_pragmas(text, KNOWN)
        assert errors == []
        assert pragmas == [Pragma(1, ("RNG-001",), "catalogue listing only")]

    def test_multiple_rules_one_pragma(self):
        text = "x = f()  # repro-lint: ok RNG-001, DET-001 -- both intended here\n"
        pragmas, errors = extract_pragmas(text, KNOWN)
        assert errors == []
        assert pragmas[0].rule_ids == ("RNG-001", "DET-001")
        assert pragmas[0].suppresses("DET-001", 1)
        assert not pragmas[0].suppresses("DET-002", 1)

    def test_suppression_is_line_scoped(self):
        text = "a = 1\nb = f()  # repro-lint: ok RNG-001 -- here only\nc = 2\n"
        pragmas, _ = extract_pragmas(text, KNOWN)
        assert pragmas[0].suppresses("RNG-001", 2)
        assert not pragmas[0].suppresses("RNG-001", 1)
        assert not pragmas[0].suppresses("RNG-001", 3)

    def test_plain_comments_ignored(self):
        pragmas, errors = extract_pragmas("x = 1  # ordinary comment\n", KNOWN)
        assert pragmas == [] and errors == []

    def test_pragma_in_string_literal_is_not_a_pragma(self):
        text = 's = "# repro-lint: ok RNG-001 -- not a comment"\n'
        pragmas, errors = extract_pragmas(text, KNOWN)
        assert pragmas == [] and errors == []


class TestMalformedPragmas:
    def test_missing_reason_is_an_error(self):
        _, errors = extract_pragmas("x = f()  # repro-lint: ok RNG-001\n", KNOWN)
        assert len(errors) == 1
        assert errors[0].line == 1
        assert "malformed" in errors[0].message

    def test_missing_separator_is_an_error(self):
        _, errors = extract_pragmas(
            "x = f()  # repro-lint: ok RNG-001 reason without dashes\n", KNOWN
        )
        assert len(errors) == 1

    def test_unknown_rule_id_is_an_error(self):
        pragmas, errors = extract_pragmas(
            "x = f()  # repro-lint: ok NOPE-999 -- good reason\n", KNOWN
        )
        assert pragmas == []
        assert len(errors) == 1
        assert "NOPE-999" in errors[0].message

    def test_garbage_body_is_an_error(self):
        _, errors = extract_pragmas("x = f()  # repro-lint: whatever\n", KNOWN)
        assert len(errors) == 1
