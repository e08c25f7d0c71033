"""Whitespace/punctuation tokenizer with a frequency-ranked vocabulary.

Words (maximal ``\\w+`` runs) and individual punctuation characters are
tokens; whitespace only separates.  The vocabulary keeps the most
frequent types; everything else maps to ``<unk>`` (id 0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

UNK = "<unk>"


def tokenize(text: str) -> list[str]:
    """Split text into word and single-character punctuation tokens."""
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class Vocab:
    id_to_token: tuple[str, ...]
    token_to_id: dict

    @classmethod
    def from_tokens(cls, tokens: list[str], vocab_size: int) -> "Vocab":
        """Build a vocabulary of the most frequent types (plus <unk>).

        Types are ranked by descending count with lexicographic tie-break,
        so construction is deterministic.
        """
        if vocab_size < 2:
            raise UsageError("vocab_size must be at least 2")
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        ranked = sorted(counts, key=lambda t: (-counts[t], t))
        kept = [UNK] + ranked[: vocab_size - 1]
        return cls(id_to_token=tuple(kept), token_to_id={t: i for i, t in enumerate(kept)})

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.array([self.token_to_id.get(t, 0) for t in tokens], dtype=np.int64)
