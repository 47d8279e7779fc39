"""World-knowledge pretraining for base models.

Real base LLMs arrive with two capabilities this substrate must also
provide before any data-preparation fine-tuning happens:

1. **Copy bias** — a candidate that appears verbatim in the prompt is a
   likely answer (the mechanism behind extraction and imputation).
2. **World knowledge** — brand ↔ product-line, journal ↔ abbreviation
   and similar associations from "pretraining data".

:func:`build_pretraining_corpus` synthesises both kinds of instance
from the vocabulary banks; :func:`pretrain` runs the standard trainer
over them.  Model tiers differ in corpus size (a "13B" analogue saw
more pretraining data), which is how capability scales with size here.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .. import obs
from ..data import vocab
from .linalg import rng_for
from .model import ScoringLM
from .trainer import TrainConfig, Trainer, TrainingExample

__all__ = ["build_pretraining_corpus", "pretrain"]


def _bank_union() -> List[str]:
    entries: List[str] = []
    for bank in (
        vocab.PHONE_BRANDS,
        vocab.ELECTRONICS_BRANDS,
        vocab.RETAIL_BRANDS,
        vocab.GROCERY_BRANDS,
        vocab.FLAVORS,
        vocab.SCENTS,
        vocab.COLORS,
        vocab.MATERIALS,
        vocab.CITIES,
        vocab.BEER_STYLES,
        vocab.CUISINES,
        vocab.SPORT_TYPES,
        vocab.FEATURES,
        vocab.ACADEMIC_WORDS,
        vocab.RETAIL_PRODUCTS,
        vocab.ITEM_FORMS,
        vocab.GENDERS,
    ):
        entries.extend(bank)
    return entries


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _random_word(rng: np.random.Generator) -> str:
    length = int(rng.integers(3, 9))
    return "".join(_LETTERS[int(rng.integers(26))] for __ in range(length))


def _copy_example(
    rng: np.random.Generator, entries: List[str]
) -> TrainingExample:
    """Teach the copy path: the answer is the candidate seen in context."""
    indices = rng.choice(len(entries), size=6, replace=False)
    options = [entries[int(i)] for i in indices]
    answer = options[int(rng.integers(len(options)))]
    fillers = [entries[int(i)] for i in rng.choice(len(entries), size=4)]
    context = " ".join(fillers[:2] + [answer] + fillers[2:])
    return TrainingExample(
        prompt=f"text [ {context} ] question which item is mentioned",
        candidates=tuple(options),
        target=options.index(answer),
    )


def _association_example(rng: np.random.Generator) -> TrainingExample:
    """Teach world knowledge: product line → brand, journal → abbreviation."""
    kind = int(rng.integers(3))
    if kind == 0:
        brand = vocab.choice(rng, vocab.PHONE_BRANDS)
        line = vocab.choice(rng, vocab.PHONE_LINES[brand])
        distractors = [b for b in vocab.PHONE_BRANDS if b != brand]
        rng.shuffle(distractors)
        options = [brand] + distractors[:5]
        prompt = f"text [ {line} smartphone ] question which brand makes this"
    elif kind == 1:
        brand = vocab.choice(rng, vocab.ELECTRONICS_BRANDS)
        product = vocab.choice(rng, vocab.ELECTRONICS_PRODUCTS[brand])
        distractors = [b for b in vocab.ELECTRONICS_BRANDS if b != brand]
        rng.shuffle(distractors)
        options = [brand] + distractors[:5]
        prompt = f"text [ {product} ] question which brand makes this"
    else:
        title, abbreviation = vocab.JOURNALS[int(rng.integers(len(vocab.JOURNALS)))]
        distractors = [a for __, a in vocab.JOURNALS if a != abbreviation]
        rng.shuffle(distractors)
        options = [abbreviation] + distractors[:5]
        prompt = f"text [ {title} ] question what is the abbreviation"
        brand = abbreviation
    answer = options[0]
    order = list(range(len(options)))
    rng.shuffle(order)
    shuffled = [options[i] for i in order]
    return TrainingExample(
        prompt=prompt,
        candidates=tuple(shuffled),
        target=shuffled.index(answer),
    )


#: attribute name → the bank its values draw from: the "semantic type"
#: knowledge a base LLM has about everyday attributes.
_TYPED_ATTRIBUTES = {
    "color": vocab.COLORS,
    "material": vocab.MATERIALS,
    "gender": vocab.GENDERS,
    "sport type": vocab.SPORT_TYPES,
    "feature": vocab.FEATURES,
    "flavor": vocab.FLAVORS,
    "scent": vocab.SCENTS,
    "city": vocab.CITIES,
    "brand": vocab.PHONE_BRANDS + vocab.ELECTRONICS_BRANDS
    + vocab.RETAIL_BRANDS + vocab.GROCERY_BRANDS,
    "style": vocab.BEER_STYLES,
    "cuisine": vocab.CUISINES,
    "item form": vocab.ITEM_FORMS,
}


def _typed_extraction_example(rng: np.random.Generator) -> TrainingExample:
    """Teach attribute semantics: "what is the color" → the color word.

    The context mixes one value from several attribute types; the
    question names one type and the answer is the matching value, with
    the other in-context values as distractors — exactly the shape of
    attribute value extraction, learned as world knowledge.
    """
    names = list(_TYPED_ATTRIBUTES)
    picked = [names[int(i)] for i in rng.choice(len(names), size=4, replace=False)]
    values = {name: vocab.choice(rng, _TYPED_ATTRIBUTES[name]) for name in picked}
    target_name = picked[int(rng.integers(len(picked)))]
    # A third of queries ask for an attribute the context does not carry
    # — the model must learn to abstain with "n/a" (the null answer the
    # AVE task uses), not to grab the nearest plausible word.
    absent = rng.random() < 0.3
    context_values = [
        value for name, value in values.items()
        if not (absent and name == target_name)
    ]
    rng.shuffle(context_values)
    options = list(values.values()) + ["n/a"]
    rng.shuffle(options)
    answer = "n/a" if absent else values[target_name]
    return TrainingExample(
        prompt=(
            "text [ " + " ".join(context_values) + " ] "
            f"question what is the {target_name} of this product"
        ),
        candidates=tuple(options),
        target=options.index(answer),
    )


#: Value families a base LLM can *name* when shown samples ("these look
#: like cuisines") — the inverse direction of typed extraction, and the
#: world knowledge behind zero-shot column type annotation.
def _nameable_types(rng: np.random.Generator) -> Dict[str, List[str]]:
    person = [
        vocab.choice(rng, vocab.FIRST_NAMES) + " " + vocab.choice(rng, vocab.LAST_NAMES)
        for __ in range(6)
    ]
    # Synthetic surface families a web-scale pretraining corpus exposes:
    # codes, URLs, coordinates, phones, dates, price runs, free text.
    # The grammars resemble (but are generated independently of) the
    # benchmark's column generators, the way GPT's pretraining covered
    # the web tables SOTAB was sampled from.
    codes = ["be", "fr", "de", "us", "it", "nl", "es", "uk", "jp", "ca",
             "au", "br", "cn", "se", "pl"]
    urls = [
        "https://schema.org/eventscheduled",
        "https://schema.org/eventcancelled",
        "https://schema.org/eventpostponed",
        "https://schema.org/eventrescheduled",
        "https://schema.org/eventmovedonline",
    ]
    coordinates = [
        f"{float(rng.uniform(-90, 90)):.4f}, {float(rng.uniform(-180, 180)):.4f}"
        for __ in range(6)
    ]
    phones = [
        f"+{int(rng.integers(1, 99))} {int(rng.integers(100, 999))} "
        f"{int(rng.integers(100, 999))} {int(rng.integers(1000, 9999))}"
        for __ in range(6)
    ]
    dates = [
        f"{int(rng.integers(1990, 2026))}-{int(rng.integers(1, 13)):02d}-"
        f"{int(rng.integers(1, 29)):02d}"
        for __ in range(6)
    ]
    postal = [str(int(rng.integers(10000, 99999))) for __ in range(6)]
    prices = ["$" * int(rng.integers(1, 5)) for __ in range(6)]
    sentences = [
        "the " + vocab.choice(rng, vocab.ACADEMIC_WORDS)
        + " " + vocab.choice(rng, vocab.ACADEMIC_WORDS)
        + " brings together local " + vocab.choice(rng, vocab.ACADEMIC_WORDS)
        + " and visitors for a weekend of events"
        for __ in range(4)
    ]
    return {
        "cuisine": list(vocab.CUISINES),
        "city locality": list(vocab.CITIES),
        "color": list(vocab.COLORS),
        "material": list(vocab.MATERIALS),
        "flavor": list(vocab.FLAVORS),
        "music genre": list(vocab.MUSIC_GENRES),
        "person name": person,
        "organization": list(vocab.ORGANIZATIONS),
        "brand": list(vocab.PHONE_BRANDS + vocab.GROCERY_BRANDS),
        "sport": list(vocab.SPORT_TYPES),
        "country": codes,
        "event status": urls,
        "coordinate": coordinates,
        "telephone": phones,
        "date": dates,
        "postal code": postal,
        "price range": prices,
        "description": sentences,
    }


def _type_naming_example(rng: np.random.Generator) -> TrainingExample:
    """Teach value-family naming: samples of a family → its type name.

    The prompt mirrors the annotated-web-table format (schema.org-style
    column + pattern observations + type question) that column-type
    benchmarks were themselves sampled from — the reason real LLMs do
    CTA zero-shot.
    """
    from ..knowledge.apply import column_observations

    families = _nameable_types(rng)
    names = list(families)
    picked = [names[int(i)] for i in rng.choice(len(names), size=5, replace=False)]
    target = picked[0]
    bank = families[target]
    sample_size = min(int(rng.integers(3, 6)), len(bank))
    idx = rng.choice(len(bank), size=sample_size, replace=False)
    values = [bank[int(i)] for i in idx]
    options = list(picked)
    rng.shuffle(options)
    body = "column values [ " + " ; ".join(values) + " ]"
    observations = column_observations(values)
    if observations:
        body += " observations [ " + " ; ".join(observations) + " ]"
    return TrainingExample(
        prompt=(
            body
            + " question what kind of values are these and what is the semantic type"
        ),
        candidates=tuple(options),
        target=options.index(target),
    )


def build_pretraining_corpus(
    size: int, seed: int = 0
) -> List[TrainingExample]:
    """Synthesise ``size`` pretraining instances.

    Mix: ≈20% bank copy, ≈15% random-word copy, ≈20% brand/journal
    association, ≈25% typed extraction (attribute semantics), ≈20%
    value-family naming (column-type semantics).
    """
    rng = rng_for(seed, "pretrain")
    entries = _bank_union()
    corpus: List[TrainingExample] = []
    for __ in range(size):
        roll = rng.random()
        if roll < 0.2:
            corpus.append(_copy_example(rng, entries))
        elif roll < 0.35:
            # Copy over *random* words — generalises the copy head to
            # vocabulary never seen in any bank.
            random_entries = [_random_word(rng) for __ in range(12)]
            corpus.append(_copy_example(rng, random_entries))
        elif roll < 0.55:
            corpus.append(_association_example(rng))
        elif roll < 0.80:
            corpus.append(_typed_extraction_example(rng))
        else:
            corpus.append(_type_naming_example(rng))
    return corpus


def pretrain(
    model: ScoringLM, corpus_size: int = 3000, epochs: int = 2, seed: int = 0
) -> None:
    """Pretrain a freshly initialised base model in place."""
    corpus = build_pretraining_corpus(corpus_size, seed=seed)
    trainer = Trainer(
        model,
        TrainConfig(
            learning_rate=4e-3,
            batch_size=16,
            epochs=epochs,
            seed=seed,
            weight_decay=2e-5,
        ),
        train_base=True,
    )
    with obs.span("pretrain", tier=model.config.name, examples=len(corpus)):
        trainer.fit(corpus)
