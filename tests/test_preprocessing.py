"""Text normalization rules and their idempotence."""
import numpy as np

from lexfuse.lexicon import default_stopwords
from lexfuse.preprocessing import PreprocessRules, preprocess


class TestRules:
    def test_url_digits_punctuation_stopwords(self):
        out = preprocess("I took 2 pills and felt dizzy! http://t.co")
        assert out == ["took", "pills", "felt", "dizzy"]

    def test_tweet_noise_only(self):
        assert preprocess("@user RT \U0001f61e") == []

    def test_mentions_and_reserved_words(self):
        assert preprocess("RT @doctor_99 feeling nauseous") == ["feeling", "nauseous"]

    def test_emoji_stripped(self):
        assert preprocess("headache ☀️ \U0001f912 again") == ["headache"]

    def test_in_place_punctuation_deletion(self):
        assert preprocess("can't stop shaking...") == ["cant", "stop", "shaking"]

    def test_empty_result_is_legal(self):
        assert preprocess("") == []
        assert preprocess("2 4 6 !!") == []

    def test_rules_can_disable_stopword_removal(self):
        rules = PreprocessRules(stopword_list=frozenset())
        assert preprocess("I felt bad", rules) == ["i", "felt", "bad"]

    def test_keeps_digitless_lowercase_tokens(self):
        assert preprocess("Myalgia AND FATIGUE") == ["myalgia", "fatigue"]


class TestDefaultStopwords:
    def test_read_once_and_shared(self):
        assert default_stopwords() is default_stopwords()
        assert PreprocessRules().stopword_list is default_stopwords()
        assert "only" in default_stopwords()

    def test_default_rules_equal_explicit_rules(self):
        text = "I only took 2 of the pills and felt dizzy @user"
        assert preprocess(text) == preprocess(text, PreprocessRules()) == ["took", "pills", "felt", "dizzy"]


class TestIdempotence:
    def test_on_random_corpus_lines(self):
        """Re-normalizing normalized output changes nothing."""
        rng = np.random.default_rng(0)
        pieces = [
            "took", "pills!", "2nd", "@user", "http://x.io/a", "RT", "\U0001f622",
            "dizzy,", "the", "SEVERE-rash", "day3", "nausea.", "and", "o'clock",
        ]
        for _ in range(1000):
            n = rng.integers(0, 10)
            line = " ".join(pieces[i] for i in rng.integers(len(pieces), size=n))
            once = preprocess(line)
            again = preprocess(" ".join(once))
            assert once == again
