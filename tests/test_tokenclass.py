"""Token-class rules, rule ordering, and the pinned function-word list."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab.audit import churn_report
from marginlab.errors import DataError
from marginlab.margins import Audit
from marginlab.tokenclass import TokenClass, class_audit, classify_token, function_words


class TestClassifyToken:
    @pytest.mark.parametrize(
        "token,expected",
        [
            (",", TokenClass.STRUCTURAL),
            (".", TokenClass.STRUCTURAL),
            ('"', TokenClass.STRUCTURAL),
            ("@", TokenClass.STRUCTURAL),
            ("=", TokenClass.STRUCTURAL),
            ("---", TokenClass.STRUCTURAL),
            ("   ", TokenClass.STRUCTURAL),
            ("123", TokenClass.NUMERIC),
            ("2023", TokenClass.NUMERIC),
            ("3.14", TokenClass.NUMERIC),
            ("50%", TokenClass.NUMERIC),
            ("the", TokenClass.FUNCTION_WORD),
            ("of", TokenClass.FUNCTION_WORD),
            ("is", TokenClass.FUNCTION_WORD),
            ("they", TokenClass.FUNCTION_WORD),
            ("which", TokenClass.FUNCTION_WORD),
            ("Paris", TokenClass.ENTITY_LIKE),
            ("John", TokenClass.ENTITY_LIKE),
            ("USA", TokenClass.ENTITY_LIKE),
            ("NLP", TokenClass.ENTITY_LIKE),
            ("running", TokenClass.CONTENT_WORD),
            ("x3", TokenClass.FRAGMENT),
            ("", TokenClass.FRAGMENT),
        ],
    )
    def test_rule_table(self, token, expected):
        assert classify_token(token) == expected

    def test_function_beats_entity(self):
        # Rule 3 fires before rule 4: capitalized function words stay function.
        assert classify_token("The") == TokenClass.FUNCTION_WORD
        assert classify_token("His") == TokenClass.FUNCTION_WORD

    def test_leading_whitespace_preserved_tokens(self):
        assert classify_token(" the") == TokenClass.FUNCTION_WORD
        assert classify_token(" ,") == TokenClass.STRUCTURAL
        assert classify_token(" Paris") == TokenClass.ENTITY_LIKE

    def test_rule_order_x3_falls_through(self):
        # alphanumeric mix fails rules 1-5
        assert classify_token("x3") == TokenClass.FRAGMENT
        assert classify_token("3x") == TokenClass.FRAGMENT
        assert classify_token("co-op") == TokenClass.FRAGMENT

    def test_numeric_requires_leading_digit(self):
        assert classify_token("%50") == TokenClass.FRAGMENT
        assert classify_token("1,000") == TokenClass.NUMERIC
        assert classify_token("10:30") == TokenClass.NUMERIC

    def test_single_capital_is_content(self):
        # One capital letter matches neither entity pattern; "I" is a
        # function word, "A" an article.
        assert classify_token("I") == TokenClass.FUNCTION_WORD
        assert classify_token("A") == TokenClass.FUNCTION_WORD
        assert classify_token("X") == TokenClass.CONTENT_WORD

    @given(st.text(max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_total_function(self, s):
        assert classify_token(s) in TokenClass


class TestFunctionWords:
    def test_exactly_101_words(self):
        assert len(function_words()) == 101

    def test_required_members(self):
        words = function_words()
        for w in ("the", "of", "is", "they", "which", "and", "he", "his", "with", "it", "their"):
            assert w in words

    def test_all_lowercase_alpha(self):
        assert all(w.isalpha() and w == w.lower() for w in function_words())


def rec(pos, target, top1, margin=0.5):
    return (pos, target, top1, top1 + 1, margin, top1 == target)


def audit_of(rows):
    """The audit of (position, target, top1, top2, margin, correct) rows."""
    return Audit(*zip(*rows))


class TestClassAudit:
    def test_identical_audits_all_zero(self):
        base = audit_of([rec(0, 1, 1), rec(1, 2, 3)])
        audit = class_audit(base, base, {1: ",", 2: "the"})
        assert all(r.net_corrected == 0 for r in audit.rows)

    def test_structural_w2r_full_share(self):
        base = audit_of([rec(0, 1, 2), rec(1, 3, 3), rec(2, 4, 4), rec(3, 5, 6)])
        pol = audit_of([rec(0, 1, 1), rec(1, 3, 3), rec(2, 4, 4), rec(3, 5, 6)])
        texts = {1: ",", 3: "word", 4: "Paris", 5: "the"}
        audit = class_audit(base, pol, texts)
        by_class = {r.token_class: r for r in audit.rows}
        assert by_class[TokenClass.STRUCTURAL].net_corrected == 1
        assert by_class[TokenClass.STRUCTURAL].share_of_net == pytest.approx(1.0)
        assert audit.total_net_corrected == 1

    def test_matches_churn_totals(self):
        import numpy as np

        rng = np.random.default_rng(13)
        texts_pool = [",", "the", "Paris", "word", "3.14", "x3"]
        texts = {t: texts_pool[int(rng.integers(0, len(texts_pool)))] for t in range(10)}
        base, pol = [], []
        for i in range(2000):
            t = int(rng.integers(0, 10))
            base.append(rec(i, t, int(rng.integers(0, 10))))
            pol.append(rec(i, t, int(rng.integers(0, 10))))
        base, pol = audit_of(base), audit_of(pol)
        audit = class_audit(base, pol, texts)
        churn = churn_report(base, pol)
        assert sum(r.net_corrected for r in audit.rows) == churn.net_corrected
        assert sum(r.count for r in audit.rows) == len(base)
        assert audit.total_net_corrected == churn.net_corrected

    def test_missing_text_names_the_lowest_target(self):
        base = audit_of([rec(0, 9, 9), rec(1, 4, 4), rec(2, 7, 7), rec(3, 2, 2)])
        with pytest.raises(DataError, match="^no text for target token 4$"):
            class_audit(base, base, {2: ",", 9: "the"})

    def test_unused_ids_are_ignored(self):
        base = audit_of([rec(0, 1, 2), rec(1, 3, 3)])
        pol = audit_of([rec(0, 1, 1), rec(1, 3, 3)])
        used = {1: ",", 3: "the"}
        assert class_audit(base, pol, {**used, 0: "Paris", 5: "word", 10**30: "x"}) == (
            class_audit(base, pol, used)
        )

    def test_classifies_each_distinct_text_once(self, monkeypatch):
        import marginlab.tokenclass as tokenclass

        calls = []
        original = tokenclass.classify_token

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(tokenclass, "classify_token", counting)
        pool = [",", "the", "Paris", "word", "3.14", "x3"]
        base = audit_of([rec(i, i % 10, (i * 7) % 10) for i in range(600)])
        # Ten target ids share the six texts: ids 0 and 6 both read ",".
        texts = {t: pool[t % len(pool)] for t in range(10)}
        audit = class_audit(base, base, texts)
        assert sorted(calls) == sorted(pool)
        assert sum(r.count for r in audit.rows) == 600
