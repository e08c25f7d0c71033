"""Heuristic token-class hierarchy for audit stratification.

Six rules, applied in order, first match wins:

1. structural: every character is Unicode punctuation (P*) or symbol
   (S*), or the token is whitespace-only;
2. numeric: matches ``^[0-9][0-9,./:%+-]*$``;
3. function word: pure alphabetic and its lowercased form is in the
   pinned 101-word list (articles, prepositions, pronouns, auxiliaries,
   conjunctions) shipped with the package;
4. entity-like: Capitalized-then-lowercase or all-caps of length >= 2;
5. content word: any remaining pure alphabetic token;
6. fragment: everything else (including the empty string).

Classification is a total function on strings.  Tokens may carry leading
or trailing whitespace (as emitted by sub-word tokenizers); rules 1-5
test the whitespace-stripped core so that e.g. " the" still counts as a
function word, while a whitespace-only token is structural.

This is a coarse taxonomy, not a linguistic gold standard; its job is to
separate punctuation/formatting cleanup from content-bearing changes.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .audit import _share, _tally, churn_report
from .errors import DataError
from .margins import Audit

_NUMERIC_RE = re.compile(r"^[0-9][0-9,./:%+-]*$")
_CAPITALIZED_RE = re.compile(r"^[A-Z][A-Za-z]+$")
_ALLCAPS_RE = re.compile(r"^[A-Z]{2,}$")
_ALPHA_RE = re.compile(r"^[A-Za-z]+$")


class TokenClass(Enum):
    STRUCTURAL = "structural"
    NUMERIC = "numeric"
    FUNCTION_WORD = "function_word"
    ENTITY_LIKE = "entity_like"
    CONTENT_WORD = "content_word"
    FRAGMENT = "fragment"


@functools.cache
def function_words() -> frozenset[str]:
    """The pinned 101-word function-word list (lowercase)."""
    text = resources.files("marginlab").joinpath("data/function_words.txt").read_text()
    return frozenset(text.split())


def _all_punct_or_symbol(text: str) -> bool:
    return all(unicodedata.category(ch)[0] in ("P", "S") for ch in text)


def classify_token(token_text: str) -> TokenClass:
    """Classify one decoded token; total on all strings."""
    if token_text == "":
        return TokenClass.FRAGMENT
    core = token_text.strip()
    if core == "" or _all_punct_or_symbol(core):
        return TokenClass.STRUCTURAL
    if _NUMERIC_RE.match(core):
        return TokenClass.NUMERIC
    if _ALPHA_RE.match(core):
        if core.lower() in function_words():
            return TokenClass.FUNCTION_WORD
        if _CAPITALIZED_RE.match(core) or _ALLCAPS_RE.match(core):
            return TokenClass.ENTITY_LIKE
        return TokenClass.CONTENT_WORD
    return TokenClass.FRAGMENT


@dataclass(frozen=True)
class ClassAuditRow:
    token_class: TokenClass
    count: int
    w2r: int
    r2w: int
    net_corrected: int
    share_of_net: float | None  # None when total net corrected is 0


@dataclass(frozen=True)
class ClassAudit:
    rows: tuple[ClassAuditRow, ...]
    total_net_corrected: int


def class_audit(baseline: Audit, polished: Audit, token_texts: dict[int, str]) -> ClassAudit:
    """Net corrections per token class, with shares of the total.

    ``token_texts`` maps each target token id to its decoded text, as
    ``frequency_audit``'s counts do; a missing target is a data error and
    ids that no position targets are ignored.  Each distinct text is
    classified once.  The fragment class gets its own row like every
    other class.
    """
    overall = churn_report(baseline, polished)
    ids, inverse = np.unique(baseline.target, return_inverse=True)
    try:
        texts = [token_texts[t] for t in ids.tolist()]
    except KeyError as e:  # the lowest target without a text: ids ascend
        raise DataError(f"no text for target token {e.args[0]}") from None
    order = {cls: i for i, cls in enumerate(TokenClass)}
    class_of = {text: order[classify_token(text)] for text in set(texts)}
    group = np.array([class_of[text] for text in texts], dtype=np.intp)[inverse]
    rows = []
    for cls, (ww, w2r, r2w, rr) in zip(TokenClass, _tally(baseline, polished, group, len(order))):
        rows.append(
            ClassAuditRow(
                token_class=cls,
                count=ww + w2r + r2w + rr,
                w2r=w2r,
                r2w=r2w,
                net_corrected=w2r - r2w,
                share_of_net=_share(w2r - r2w, overall.net_corrected),
            )
        )
    return ClassAudit(rows=tuple(rows), total_net_corrected=overall.net_corrected)
