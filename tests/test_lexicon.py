"""Dictionary normalization, lexicon membership, and keyword extraction."""
import numpy as np
import pytest

from lexfuse.lexicon import (
    DictionaryConfig,
    PhraseFormatError,
    build_dictionary,
    build_trie,
    default_stopwords,
    export_dictionary,
    extract_keywords,
    read_phrase_file,
)


class TestDictionaryConfig:
    def test_defaults(self):
        cfg = DictionaryConfig()
        assert cfg.min_word_length == 3
        assert cfg.strip_digits is True
        assert build_dictionary(["the rash"], cfg) == {"rash"}

    def test_rejects_bad_min_length(self):
        with pytest.raises(ValueError):
            DictionaryConfig(min_word_length=0)

    def test_shipped_stopword_list_size(self):
        assert 150 <= len(default_stopwords()) <= 220


class TestBuildDictionary:
    def test_stopword_removed(self):
        words = build_dictionary(["Unable to walk", "haematuria"])
        assert words == {"unable", "walk", "haematuria"}

    def test_digits_and_punctuation(self):
        assert build_dictionary(["a 2nd rash!!"]) == {"rash"}

    def test_short_words_removed(self):
        assert build_dictionary(["an ox is ill"]) == {"ill"}

    def test_empty_result_is_legal(self):
        assert build_dictionary(["a of the"]) == set()

    def test_special_characters_deleted_in_place(self):
        # characters outside a-z vanish without splitting the token
        assert build_dictionary(["head-ache", "naus'ea"]) == {"headache", "nausea"}

    def test_keep_digit_tokens_when_configured(self):
        cfg = DictionaryConfig(strip_digits=False)
        # digits are still deleted as non-letters, leaving "nd" (too short)
        assert build_dictionary(["2nd rash"], cfg) == {"rash"}

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(0)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789!?-"
        phrases = [
            "".join(alphabet[i] for i in rng.integers(len(alphabet), size=rng.integers(3, 30)))
            for _ in range(500)
        ]
        once = build_dictionary(phrases)
        twice = build_dictionary(sorted(once))
        assert once == twice


class TestTrie:
    """The lexicon is a frozenset: whole-word membership, one entry per word."""

    def test_empty(self):
        lexicon = build_trie(set())
        assert lexicon == frozenset()
        assert len(lexicon) == 0
        assert "rash" not in lexicon

    def test_exact_membership(self):
        lexicon = build_trie({"rash"})
        assert "rash" in lexicon
        assert "ras" not in lexicon
        assert "rashy" not in lexicon

    def test_shared_prefix(self):
        lexicon = build_trie({"rash", "rat"})
        assert len(lexicon) == 2
        assert "rash" in lexicon and "rat" in lexicon
        assert "ra" not in lexicon

    def test_duplicate_insert_counts_once(self):
        assert len(build_trie(["rash", "rash"])) == 1

    def test_contains_and_len(self):
        lexicon = build_trie({"abc", "abd"})
        assert "abc" in lexicon
        assert len(lexicon) == 2

    def test_words_enumeration_sorted(self):
        words = ["rat", "aches", "rash", "ache", "rat"]
        assert sorted(build_trie(words)) == ["ache", "aches", "rash", "rat"]

    def test_membership_equals_set_membership(self):
        """Membership agrees with set membership for stored words, their
        prefixes, and their extensions."""
        rng = np.random.default_rng(1)
        letters = "abcdefgh"
        words = {
            "".join(letters[i] for i in rng.integers(len(letters), size=rng.integers(1, 9)))
            for _ in range(800)
        }
        lexicon = build_trie(words)
        probes = set(words)
        for w in list(words)[:200]:
            probes.add(w[:-1])
            probes.add(w + "x")
        for p in probes:
            assert (p in lexicon) == (p in words)


class TestExtractKeywords:
    def test_direct_membership(self):
        trie = build_trie({"rash", "haematuria"})
        ks = extract_keywords(["i", "developed", "rash", "and", "haematuria"], trie)
        assert ks == ["rash", "haematuria"]
        assert len(ks) == 2

    def test_deduplication(self):
        trie = build_trie({"rash"})
        assert extract_keywords(["rash", "rash", "rash"], trie) == ["rash"]

    def test_first_occurrence_order(self):
        trie = build_trie({"b", "a"})
        assert extract_keywords(["b", "a", "b"], trie) == ["b", "a"]

    def test_matches_brute_force_scan(self):
        """Output equals a brute-force scan of every token against the set."""
        rng = np.random.default_rng(2)
        letters = "abcde"

        def rand_word():
            return "".join(letters[i] for i in rng.integers(len(letters), size=rng.integers(1, 5)))

        for _ in range(300):
            vocab = {rand_word() for _ in range(rng.integers(1, 60))}
            tokens = [rand_word() for _ in range(rng.integers(0, 40))]
            trie = build_trie(vocab)
            got = extract_keywords(tokens, trie)
            seen = set()
            expected = []
            for t in tokens:
                if t in vocab and t not in seen:
                    seen.add(t)
                    expected.append(t)
            assert got == expected

    def test_output_is_subset_of_tokens_and_dictionary(self):
        rng = np.random.default_rng(3)
        words = {"aa", "bb", "cc"}
        trie = build_trie(words)
        for _ in range(50):
            tokens = [["aa", "bb", "cc", "dd", "ee"][i] for i in rng.integers(5, size=10)]
            got = extract_keywords(tokens, trie)
            assert set(got) <= set(tokens)
            assert set(got) <= words
            assert len(got) == len(set(got))


class TestFiles:
    def test_phrase_file_roundtrip(self, tmp_path):
        p = tmp_path / "phrases.txt"
        p.write_text("Unable to walk\n\nhaematuria\n", encoding="utf-8")
        assert read_phrase_file(p) == ["Unable to walk", "haematuria"]

    def test_phrase_file_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_phrase_file(tmp_path / "nope.txt")

    def test_phrase_file_bad_encoding_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"fine line\n\xff\xfe broken\n")
        with pytest.raises(PhraseFormatError, match=":2"):
            read_phrase_file(p)

    def test_dictionary_export_sorted_roundtrip(self, tmp_path):
        words = {"zebra", "ache", "rash"}
        out = tmp_path / "dict.txt"
        export_dictionary(words, out)
        assert out.read_text(encoding="utf-8") == "ache\nrash\nzebra\n"
