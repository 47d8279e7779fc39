"""Named value validators used by format-constraint knowledge rules.

A validator is a predicate over one cell value.  Knowledge rules refer
to validators *by name* so that rules stay serialisable text (the same
way the paper's knowledge is plain prompt text); the rule applier and
MockGPT's rule-induction both consult this registry.  Vocabulary
membership checks get their banks from :data:`BANKS`.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, FrozenSet, Sequence, Tuple

from ..data import vocab
from ..data.schema import MISSING_MARKERS

__all__ = ["VALIDATORS", "BANKS", "validate", "bank_contains", "describe"]

_TIME_12H = re.compile(r"^\d{1,2}:\d{2} [ap]\.m\. [a-z]{3} \d{1,2}$")
_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_ISSN = re.compile(r"^\d{4}-\d{4}$")
_FLIGHT_CODE = re.compile(r"^[a-z0-9]{2}-\d+-[a-z]{3}-[a-z]{3}$")
_PAGINATION = re.compile(r"^\d+-\d+$")
_PHONE_SPACED = re.compile(r"^\d{3} \d{3} \d{4}$")


def _is_float(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True


def _is_int(value: str) -> bool:
    return value.isdigit()


def _unit_decimal(value: str) -> bool:
    return _is_float(value) and 0.0 <= float(value) <= 1.0


#: name -> (predicate, human-readable description for knowledge text)
VALIDATORS: Dict[str, Tuple[Callable[[str], bool], str]] = {
    "time_12h": (
        lambda v: bool(_TIME_12H.match(v)),
        "a 12-hour time like '7:10 a.m. dec 1'",
    ),
    "iso_date": (
        lambda v: bool(_ISO_DATE.match(v)),
        "an ISO date in YYYY-MM-DD format",
    ),
    "issn": (lambda v: bool(_ISSN.match(v)), "an ISSN matching dddd-dddd"),
    "flight_code": (
        lambda v: bool(_FLIGHT_CODE.match(v)),
        "a dashed flight code like aa-1007-ord-phx",
    ),
    "pagination": (
        lambda v: bool(_PAGINATION.match(v)),
        "a page range like 120-131",
    ),
    "unit_decimal": (
        _unit_decimal,
        "a decimal between 0 and 1 without a percent sign",
    ),
    "integer": (_is_int, "a plain integer"),
    "numeric": (_is_float, "a numeric value"),
    "no_percent": (lambda v: "%" not in v, "free of percent signs"),
    "phone_spaced": (
        lambda v: bool(_PHONE_SPACED.match(v)),
        "a space-separated phone number like 303 555 0147",
    ),
    "not_missing": (
        lambda v: v.strip().lower() not in MISSING_MARKERS,
        "present (nan/n-a are errors)",
    ),
}

#: Vocabulary banks addressable from knowledge rules.
BANKS: Dict[str, Tuple[str, ...]] = {
    "cities": vocab.CITIES,
    "states": vocab.STATES,
    "beer_styles": vocab.BEER_STYLES,
    "phone_brands": vocab.PHONE_BRANDS,
    "electronics_brands": vocab.ELECTRONICS_BRANDS,
    "retail_brands": vocab.RETAIL_BRANDS,
    "grocery_brands": vocab.GROCERY_BRANDS,
    "flavors": vocab.FLAVORS,
    "scents": vocab.SCENTS,
    "journal_titles": tuple(t for t, __ in vocab.JOURNALS),
    "journal_abbreviations": tuple(a for __, a in vocab.JOURNALS),
    "colors": vocab.COLORS,
    "materials": vocab.MATERIALS,
    "genders": vocab.GENDERS,
    "sport_types": vocab.SPORT_TYPES,
    "features": vocab.FEATURES,
    "cuisines": vocab.CUISINES,
    "item_forms": vocab.ITEM_FORMS,
    "brewery_words": vocab.BEER_ADJECTIVES + vocab.BEER_NOUNS + vocab.BREWERY_SUFFIXES,
    "beer_words": vocab.BEER_ADJECTIVES
    + vocab.BEER_NOUNS
    + tuple(s.split()[-1] for s in vocab.BEER_STYLES),
    "academic_words": vocab.ACADEMIC_WORDS,
}


def validate(name: str, value: str) -> bool:
    """Apply a named validator to one value."""
    if name not in VALIDATORS:
        raise KeyError(f"unknown validator {name!r}")
    predicate, __ = VALIDATORS[name]
    return predicate(value.strip().lower())


def describe(name: str) -> str:
    """Human-readable description of a named validator."""
    if name not in VALIDATORS:
        raise KeyError(f"unknown validator {name!r}")
    return VALIDATORS[name][1]


#: Each bank's flattened word set, built on first use by bank_contains.
_BANK_WORDS: Dict[str, FrozenSet[str]] = {}


def bank_contains(bank_name: str, value: str) -> bool:
    """True when every word of ``value`` appears in the named bank.

    Multi-word banks (e.g. ``beer_styles``) are flattened to a word set;
    this keeps the check robust to composed names ("hoppy trail ipa").
    The set is built once per bank (profiling calls this per cell).
    """
    words = _BANK_WORDS.get(bank_name)
    if words is None:
        if bank_name not in BANKS:
            raise KeyError(f"unknown bank {bank_name!r}")
        words = frozenset(
            word for entry in BANKS[bank_name] for word in entry.split()
        )
        _BANK_WORDS[bank_name] = words
    return all(word in words for word in value.strip().lower().split())
