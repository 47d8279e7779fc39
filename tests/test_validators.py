"""Unit tests for repro.knowledge.validators."""

import pytest

from repro.knowledge import validators


class TestValidators:
    @pytest.mark.parametrize(
        "name,value,expected",
        [
            ("time_12h", "7:10 a.m. dec 1", True),
            ("time_12h", "12:59 p.m. jan 28", True),
            ("time_12h", "19:10 dec 1", False),
            ("time_12h", "7:10 dec 1", False),
            ("iso_date", "2015-04-03", True),
            ("iso_date", "4/3/15", False),
            ("iso_date", "2015-4-3", False),
            ("issn", "1234-5678", True),
            ("issn", "12345678", False),
            ("issn", "nan", False),
            ("flight_code", "aa-1007-ord-phx", True),
            ("flight_code", "aa 1007 ord phx", False),
            ("pagination", "120-131", True),
            ("pagination", "120", False),
            ("unit_decimal", "0.05", True),
            ("unit_decimal", "0.05%", False),
            ("unit_decimal", "5.0", False),
            ("integer", "42", True),
            ("integer", "42.5x", False),
            ("integer", "nan", False),
            ("numeric", "19.2", True),
            ("numeric", "abc", False),
            ("no_percent", "0.05", True),
            ("no_percent", "0.05%", False),
            ("not_missing", "hello", True),
            ("not_missing", "nan", False),
            ("not_missing", "N/A", False),
            ("phone_spaced", "303 555 0147", True),
            ("phone_spaced", "303-555-0147", False),
        ],
    )
    def test_validator_cases(self, name, value, expected):
        assert validators.validate(name, value) is expected

    def test_unknown_validator(self):
        with pytest.raises(KeyError):
            validators.validate("nope", "x")

    def test_describe(self):
        assert "percent" in validators.describe("unit_decimal")
        with pytest.raises(KeyError):
            validators.describe("nope")

    def test_case_and_whitespace_insensitive(self):
        assert validators.validate("iso_date", "  2015-04-03  ")


class TestBanks:
    def test_known_banks_exist(self):
        for bank in ("cities", "beer_styles", "phone_brands", "journal_titles"):
            assert bank in validators.BANKS
            assert len(validators.BANKS[bank]) > 3

    def test_bank_contains_single_word(self):
        assert validators.bank_contains("cities", "portland")
        assert not validators.bank_contains("cities", "portlandia")

    def test_bank_contains_multiword_value(self):
        assert validators.bank_contains("beer_styles", "american ipa")

    def test_bank_contains_composed_words(self):
        # Word-level membership: composed names of in-bank words pass.
        assert validators.bank_contains("brewery_words", "hoppy trail brewery")

    def test_bank_contains_unknown_bank(self):
        with pytest.raises(KeyError):
            validators.bank_contains("nope", "x")

    def test_typo_fails_bank(self):
        assert not validators.bank_contains("beer_styles", "american ipaa")


def _rebuilt_bank_contains(bank_name, value):
    """The pre-memo logic: rebuild the bank's word set on every call."""
    words = set()
    for entry in validators.BANKS[bank_name]:
        words.update(entry.split())
    return all(word in words for word in value.strip().lower().split())


class TestBankMemo:
    @pytest.mark.parametrize("bank", sorted(validators.BANKS))
    def test_memo_matches_rebuilt_word_set(self, bank):
        entries = validators.BANKS[bank]
        other = validators.BANKS["cities"] + validators.BANKS["academic_words"]
        samples = ["", "   ", "zzzz", "[missing]"]
        for i, entry in enumerate(entries[:40]):
            words = entry.split()
            samples += [
                entry,
                f"  {entry.upper()}  ",
                words[-1] + "x",
                " ".join(reversed(words)),
                entry + " " + other[i % len(other)],
            ]
        for value in samples:
            assert validators.bank_contains(bank, value) == _rebuilt_bank_contains(
                bank, value
            ), (bank, value)
        assert isinstance(validators._BANK_WORDS[bank], frozenset)

    def test_unknown_bank_still_raises_after_warm_up(self):
        validators.bank_contains("cities", "portland")
        with pytest.raises(KeyError):
            validators.bank_contains("no-such-bank", "portland")
        assert "no-such-bank" not in validators._BANK_WORDS
