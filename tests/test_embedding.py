"""Vocabulary, input composition, embedding sums, vectors, synonyms."""
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexfuse import embedding
from lexfuse.autodiff import Tensor
from lexfuse.data import SynthSpec, generate_synthetic, generate_synthetic_vectors
from lexfuse.embedding import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    EmbeddingTable,
    SynonymSet,
    VectorFormatError,
    _row_norms,
    batch_embed,
    build_synonym_catalog,
    build_vocab,
    compose_input,
    load_embedding_table,
    nearest_synonyms,
)
from lexfuse.encoder import EncoderConfig
from lexfuse.harness import run_cv
from lexfuse.lexicon import build_trie
from lexfuse.pipeline import TrainConfig


class TestVocab:
    def test_min_freq_filters(self):
        v = build_vocab([["a", "b"], ["b", "c"]], min_freq=2)
        assert v.id("b") == 4
        assert v.id("a") == UNK_ID
        assert len(v) == 5

    def test_single_token(self):
        v = build_vocab([["x"]], min_freq=1)
        assert v.id("x") == 4

    def test_deterministic_assignment(self):
        seqs = [["m", "z", "a"], ["z", "a"], ["a"]]
        v1 = build_vocab(seqs)
        v2 = build_vocab(seqs)
        assert v1.id_to_word == v2.id_to_word
        # frequency desc, then lexicographic
        assert v1.id("a") == 4 and v1.id("z") == 5 and v1.id("m") == 6

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_reserved_ids(self):
        v = build_vocab([["w"]])
        assert v.id("[PAD]") == PAD_ID == 0
        assert v.id("[UNK]") == UNK_ID == 1
        assert v.id("[CLS]") == CLS_ID == 2
        assert v.id("[SEP]") == SEP_ID == 3


class TestComposeInput:
    def vocab(self):
        return build_vocab([["feel", "dizzy", "weak", "sick"]])

    def test_worked_example(self):
        v = self.vocab()
        inp = compose_input(["feel", "dizzy"], ["dizzy"], v, 8)
        d = v.id("dizzy")
        assert inp.tokens == ["[CLS]", "feel", "dizzy", "[SEP]", "dizzy", "[SEP]"]
        np.testing.assert_array_equal(inp.token_ids, [CLS_ID, v.id("feel"), d, SEP_ID, d, SEP_ID])
        np.testing.assert_array_equal(inp.segment_ids, [0, 0, 0, 0, 1, 1])
        np.testing.assert_array_equal(inp.keyword_mask, [0, 0, 1, 0, 1, 0])
        for arr in (inp.token_ids, inp.segment_ids, inp.keyword_mask):
            assert arr.dtype == np.int64

    def test_empty_keyword_set(self):
        v = self.vocab()
        inp = compose_input(["feel"], [], v, 6)
        np.testing.assert_array_equal(inp.token_ids, [CLS_ID, v.id("feel"), SEP_ID, SEP_ID])
        np.testing.assert_array_equal(inp.segment_ids, [0, 0, 0, 1])
        np.testing.assert_array_equal(inp.keyword_mask, [0, 0, 0, 0])

    def test_no_keywords_single_segment(self):
        v = self.vocab()
        inp = compose_input(["feel", "dizzy"], None, v, 6)
        np.testing.assert_array_equal(inp.token_ids, [CLS_ID, v.id("feel"), v.id("dizzy"), SEP_ID])
        np.testing.assert_array_equal(inp.segment_ids, [0, 0, 0, 0])
        np.testing.assert_array_equal(inp.keyword_mask, [0, 0, 0, 0])
        inp = compose_input(["feel"] * 9, None, v, 6)
        np.testing.assert_array_equal(inp.token_ids, [CLS_ID] + [v.id("feel")] * 4 + [SEP_ID])

    def test_truncates_s1_before_s2(self):
        v = self.vocab()
        s1 = ["feel"] * 100
        inp = compose_input(s1, ["dizzy", "weak", "sick"], v, 16)
        ids = inp.token_ids
        # budget 13: S1 keeps 10, S2 keeps all 3
        assert (ids == SEP_ID).sum() == 2
        first_sep = int(np.argmax(ids == SEP_ID))
        assert first_sep == 11  # [CLS] + 10 tokens
        assert list(ids[12:15]) == [v.id("dizzy"), v.id("weak"), v.id("sick")]

    def test_s2_truncated_only_when_alone_too_long(self):
        v = self.vocab()
        inp = compose_input(["feel"] * 10, ["dizzy", "weak", "sick"], v, 5)
        # budget 2: S1 drops to zero, S2 keeps 2
        np.testing.assert_array_equal(
            inp.token_ids, [CLS_ID, SEP_ID, v.id("dizzy"), v.id("weak"), SEP_ID]
        )

    def test_max_len_too_small(self):
        with pytest.raises(ValueError):
            compose_input(["x"], [], self.vocab(), 3)

    def test_invariants_on_random_inputs(self):
        """The three arrays and the token strings share the composed
        length, which fills ``max_len`` exactly when the text is cut;
        nothing is padded; the separator/class-token counts match the
        composition form."""
        rng = np.random.default_rng(0)
        words = ["feel", "dizzy", "weak", "sick", "zonk"]
        v = build_vocab([words])
        for _ in range(300):
            max_len = int(rng.integers(4, 20))
            s1 = [words[i] for i in rng.integers(len(words), size=rng.integers(0, 25))]
            kws = [w for w in dict.fromkeys(s1) if rng.random() < 0.5]
            inp = compose_input(s1, kws, v, max_len)
            n = len(inp.tokens)
            assert n == min(max_len, len(s1) + len(kws) + 3)
            for arr in (inp.token_ids, inp.segment_ids, inp.keyword_mask):
                assert arr.shape == (n,) and arr.dtype == np.int64
            np.testing.assert_array_equal(inp.token_ids, v.encode(inp.tokens))
            assert not (inp.token_ids == PAD_ID).any()
            ids = inp.token_ids
            assert ids[0] == CLS_ID
            assert (ids == CLS_ID).sum() == 1
            assert (ids == SEP_ID).sum() == 2
            assert ids[-1] == SEP_ID
            # keyword mask only on keyword tokens
            kw_ids = {v.id(k) for k in kws}
            flagged = set(inp.token_ids[inp.keyword_mask == 1].tolist())
            assert flagged <= (kw_ids | {UNK_ID})


def embed(inp, tok_emb, seg_emb, pos_emb):
    """``batch_embed`` on a one-row batch, as a (T, d) tensor."""
    out = batch_embed(inp.token_ids[None], inp.segment_ids[None], tok_emb, seg_emb, pos_emb)
    return out.reshape(*out.shape[1:])


class TestEmbed:
    def make(self, seed, V=8, d=4, T=6):
        rng = np.random.default_rng(seed)
        tok = Tensor(rng.normal(size=(V, d)))
        seg = Tensor(rng.normal(size=(2, d)))
        pos = Tensor(rng.normal(size=(T, d)))
        v = build_vocab([["a", "b", "c"]])
        inp = compose_input(["a", "b", "c"], ["b"], v, T)
        return inp, tok, seg, pos

    def test_zero_tables(self):
        inp, tok, seg, pos = self.make(0)
        z = Tensor(np.zeros_like(tok.data)), Tensor(np.zeros_like(seg.data)), Tensor(np.zeros_like(pos.data))
        np.testing.assert_array_equal(embed(inp, *z).data, np.zeros((6, 4)))

    def test_reduces_to_token_embedding(self):
        inp, tok, seg, pos = self.make(1)
        out = embed(inp, tok, Tensor(np.zeros_like(seg.data)), Tensor(np.zeros_like(pos.data)))
        np.testing.assert_array_equal(out.data, tok.data[inp.token_ids])

    def test_matches_explicit_sum(self):
        inp, tok, seg, pos = self.make(2)
        out = embed(inp, tok, seg, pos).data
        for i in range(6):
            expected = (
                tok.data[inp.token_ids[i]]
                + seg.data[inp.segment_ids[i]]
                + pos.data[i]
            )
            np.testing.assert_allclose(out[i], expected, atol=0)

    def test_linear_in_each_table(self):
        inp, tok, seg, pos = self.make(3)
        zero_tok = Tensor(np.zeros_like(tok.data))
        base = embed(inp, zero_tok, seg, pos).data
        one = embed(inp, tok, seg, pos).data
        two = embed(inp, Tensor(2.0 * tok.data), seg, pos).data
        np.testing.assert_allclose(two - base, 2.0 * (one - base), rtol=1e-12)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pos_emb_gradient_matches_add_at_oracle(self, dtype):
        """On a padded batch, the position-table gradient is byte for byte
        the ``np.add.at`` scatter of the upstream gradient over (B, T)
        position ids, also where every upstream entry of a position is
        -0.0: the oracle's zero start makes that entry +0.0, where a sum
        that starts from the first row would keep -0.0."""
        rng = np.random.default_rng(40)
        B, T, d = 3, 5, 4
        token_ids = np.array([[2, 5, 6, 3, 0], [2, 7, 3, 0, 0], [2, 4, 5, 6, 3]])
        segment_ids = np.array([[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 1, 1]])
        tok, seg, pos = (Tensor(rng.normal(size=(n, d)).astype(dtype), requires_grad=True) for n in (8, 2, 6))
        c = rng.normal(size=(B, T, d)).astype(dtype)
        c[:, 1, 2] = -0.0
        c[:, 4, 0] = [-0.0, 0.0, -0.0]
        out = batch_embed(token_ids, segment_ids, tok, seg, pos)
        (out * Tensor(c)).mean().backward()
        y = Tensor(np.zeros((B, T, d), dtype), requires_grad=True)
        (y * Tensor(c)).mean().backward()  # the gradient that reaches ``out``
        want = np.zeros((6, d), dtype)
        np.add.at(want, np.broadcast_to(np.arange(T), (B, T)).reshape(-1), y.grad.reshape(-1, d))
        assert pos.grad.dtype == dtype
        assert pos.grad.tobytes() == want.tobytes()
        up = y.grad[:, 1, 2]
        assert np.signbit(up[0] + up[1] + up[2]) and not np.signbit(want[1, 2])


class TestEmbeddingTableIO:
    def test_parse_with_header(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 3\napple 1 0 0\npear 0 1 0\n", encoding="utf-8")
        t = load_embedding_table(p)
        assert len(t) == 2 and t.dim == 3
        np.testing.assert_array_equal(t.get("apple"), [1, 0, 0])

    def test_parse_without_header(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("apple 1 0\npear 0 1\n", encoding="utf-8")
        assert load_embedding_table(p).dim == 2

    def test_dimension_mismatch_reports_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("3 3\napple 1 0 0\npear 0 1\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match=":3"):
            load_embedding_table(p)

    def test_non_numeric_component(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("apple 1 zero\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match=":1"):
            load_embedding_table(p)

    def test_duplicate_first_wins(self, tmp_path, caplog):
        p = tmp_path / "v.txt"
        p.write_text("apple 1 0\napple 9 9\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            t = load_embedding_table(p)
        np.testing.assert_array_equal(t.get("apple"), [1, 0])
        assert "duplicate" in caplog.text

    def test_direct_table_duplicate_first_wins(self):
        """A table built directly resolves a repeated word as the loader does."""
        m = np.arange(6, dtype=np.float64).reshape(3, 2)
        t = EmbeddingTable(["a", "b", "a"], m)
        np.testing.assert_array_equal(t.get("a"), m[0])
        np.testing.assert_array_equal(t.get("b"), m[1])
        assert len(t) == 3

    def test_300_dimensional_table(self, tmp_path):
        rng = np.random.default_rng(0)
        p = tmp_path / "v300.txt"
        rows = [f"w{i} " + " ".join(f"{x:.5f}" for x in rng.normal(size=300)) for i in range(4)]
        p.write_text("4 300\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert load_embedding_table(p).dim == 300

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], np.array([[np.nan, 1.0]]))
        for bad in (np.nan, np.inf, -np.inf):  # the check reads the row norms, scaled rows included
            for row in ([bad, 1.0], [1e300, bad]):
                m = np.ones((3000, 2))
                m[2047] = row
                with pytest.raises(ValueError, match="NaN or Inf"):
                    EmbeddingTable([f"w{i}" for i in range(3000)], m)

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        t = EmbeddingTable(["a", "b"], rng.normal(size=(2, 5)))
        p = tmp_path / "rt.txt"
        t.save(p)
        back = load_embedding_table(p)
        np.testing.assert_array_equal(back.matrix, t.matrix)


class TestNearestSynonyms:
    def test_worked_example(self):
        t = EmbeddingTable(["good", "great", "bad"], np.array([[1, 0], [0.9, 0.1], [-1, 0.0]]))
        s = nearest_synonyms("good", t, 1)
        assert s.synonyms == ["great"]
        np.testing.assert_array_equal(s.vectors, [[0.9, 0.1]])

    def test_absent_keyword(self):
        t = EmbeddingTable(["a"], np.eye(1))
        s = nearest_synonyms("zzz", t, 3)
        assert s.synonyms == [] and s.vectors.shape == (0, 1)

    def test_cap_by_table_size(self):
        t = EmbeddingTable(["a", "b", "c"], np.eye(3))
        assert len(nearest_synonyms("a", t, 5).synonyms) == 2

    def test_h_max_validated(self):
        t = EmbeddingTable(["a"], np.eye(1))
        with pytest.raises(ValueError):
            nearest_synonyms("a", t, 0)

    def test_ties_break_lexicographically(self):
        t = EmbeddingTable(["q", "zz", "aa"], np.array([[1.0, 0], [1.0, 0], [1.0, 0]]))
        assert nearest_synonyms("q", t, 2).synonyms == ["aa", "zz"]

    def test_matches_exhaustive_cosine_scan(self):
        """Agreement with a brute-force python-loop cosine ranking."""
        rng = np.random.default_rng(4)
        for trial in range(40):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 6))
            words = [f"w{i:02d}" for i in range(n)]
            t = EmbeddingTable(words, rng.normal(size=(n, d)))
            kw = words[int(rng.integers(n))]
            h = int(rng.integers(1, 8))
            got = nearest_synonyms(kw, t, h).synonyms

            q = t.get(kw)
            scored = []
            for w in words:
                if w == kw:
                    continue
                v = t.get(w)
                nq = math.sqrt(float(q @ q))
                nv = math.sqrt(float(v @ v))
                cos = 0.0 if nq == 0 or nv == 0 else float(q @ v) / (nq * nv)
                scored.append((-cos, w))
            expected = [w for _, w in sorted(scored)[:h]]
            assert got == expected


def reference_nearest_synonyms(keyword: str, table: EmbeddingTable, h_max: int) -> SynonymSet:
    """The library's former implementation: a Python sort of every row."""
    if h_max < 1:
        raise ValueError(f"h_max must be >= 1, got {h_max}")
    query = table.get(keyword)
    if query is None:
        return SynonymSet(keyword, [], np.zeros((0, table.dim)))
    qn = np.linalg.norm(query)
    norms = np.linalg.norm(table.matrix, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = table.matrix @ query / (norms * qn)
    sims = np.where((norms == 0) | (qn == 0), 0.0, sims)
    order = sorted(
        (i for i, w in enumerate(table.words) if w != keyword),
        key=lambda i: (-sims[i], table.words[i]),
    )
    chosen = order[:h_max]
    return SynonymSet(
        keyword,
        [table.words[i] for i in chosen],
        table.matrix[chosen].copy() if chosen else np.zeros((0, table.dim)),
    )


# Sizes around the norm block edge (1024 rows) and one spanning three blocks.
TABLE_SIZES = [1, 2, 1023, 1024, 1025, 2500]


def _search_case(n: int):
    """A seeded table of ``n`` rows and the keywords to search in it.

    Words are shuffled so that index order is not word order.  From 16
    rows on, keyword ``words[1]`` has two exactly tied top rows and five
    exactly tied next rows, so the ``h_max`` cut-off falls inside a tie
    group for several ``h_max``; three rows and the keyword ``words[12]``
    have zero norm; and ``words[14]`` occurs in two rows.
    """
    rng = np.random.default_rng([17, n])
    d = 8
    matrix = rng.normal(size=(n, d))
    words = [f"w{p:05d}" for p in rng.permutation(n)]
    keywords = [words[0], words[-1], "absent"]
    if n == 2:
        matrix[1] = 0.0
    if n >= 16:
        q = matrix[1]
        matrix[2:4] = 2.0 * q
        matrix[4:9] = q + rng.normal(scale=0.05, size=d)
        matrix[9:13] = 0.0
        words[13] = words[14]
        keywords += [words[1], words[12], words[14]]
    return EmbeddingTable(words, matrix), keywords


def assert_searches_like_reference(table: EmbeddingTable, keywords, h_values) -> None:
    for kw in keywords:
        for h in h_values:
            got, want = nearest_synonyms(kw, table, h), reference_nearest_synonyms(kw, table, h)
            assert got.keyword == want.keyword and got.synonyms == want.synonyms, (kw, h)
            assert got.vectors.shape == want.vectors.shape and got.vectors.tobytes() == want.vectors.tobytes(), (kw, h)


class TestNearestSynonymsEquivalence:
    """The partition-based search returns exactly what a full sort does."""

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_matches_full_sort(self, n):
        table, keywords = _search_case(n)
        assert_searches_like_reference(table, keywords, [*range(1, 9), n + 3])

    def test_cases_reach_ties_and_duplicates(self):
        """The fixture holds what its docstring promises."""
        table, keywords = _search_case(1025)
        tied = reference_nearest_synonyms(keywords[3], table, 8).vectors
        assert np.array_equal(tied[0], tied[1]) and all(np.array_equal(tied[2], v) for v in tied[3:7])
        others = sorted(w for w in table.words if w != keywords[4])
        assert reference_nearest_synonyms(keywords[4], table, 8).synonyms == others[:8]
        assert table.words.count(keywords[5]) == 2

    def test_catalog_matches_full_sort(self):
        table, keywords = _search_case(2500)
        catalog = build_synonym_catalog(keywords, table, 5)
        assert sorted(catalog) == sorted(keywords)
        for kw, got in catalog.items():
            want = reference_nearest_synonyms(kw, table, 5)
            assert got.synonyms == want.synonyms
            assert np.array_equal(got.vectors, want.vectors)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_blocked_norms_bitwise_equal(self, n):
        m = np.random.default_rng([18, n]).normal(size=(n, 100))
        m[n // 2] = 0.0
        np.testing.assert_array_equal(_row_norms(m).view(np.uint64), np.linalg.norm(m, axis=1).view(np.uint64))



def _equal_cosine_rows(d: int) -> np.ndarray:
    """``2 (d - 1)`` distinct rows ``e0 ± e_j``: each has dot product 1 and
    squared norm 2 with ``e0``, so their similarities to it tie exactly."""
    rows = []
    for j in range(1, d):
        for sign in (1.0, -1.0):
            r = np.zeros(d)
            r[0], r[j] = 1.0, sign
            rows.append(r)
    return np.array(rows)


class TestRankedTieBreak:
    """The search orders rows by ``(-similarity, word)`` with equal words in
    row order, through the table's word ranks, exactly as the former full
    sort (``reference_nearest_synonyms``) does."""

    @pytest.mark.parametrize("n", [1000, 2999, 5000])
    def test_zero_norm_keyword_in_large_tables(self, n):
        """A zero-norm keyword ties every row, so word order alone picks its
        synonyms; words are shuffled and some repeat, so row order is not
        word order."""
        rng = np.random.default_rng([20, n])
        matrix = rng.normal(size=(n, 6))
        words = [f"w{p:05d}" for p in rng.permutation(n)]
        for i in rng.choice(n, size=40, replace=False):
            words[i] = words[int(rng.integers(n))]
        zero = rng.choice(n, size=25, replace=False)
        matrix[zero] = 0.0
        keywords = [words[i] for i in zero[:3]] + [words[0], min(words)]
        assert_searches_like_reference(EmbeddingTable(words, matrix), keywords, [1, 2, 5, 17])

    def test_identical_rows_straddle_the_cut(self):
        """Groups of identical rows tie exactly; every ``h_max`` from inside
        the first group to past the second cuts one of them."""
        rng = np.random.default_rng(21)
        n, d = 60, 5
        matrix = rng.normal(size=(n, d))
        q = matrix[0]
        matrix[1:7] = 3.0 * q  # similarity 1, six ways
        matrix[7:12] = q + 0.5  # one lower similarity, five ways
        words = [f"w{p:02d}" for p in rng.permutation(n)]
        table = EmbeddingTable(words, matrix)
        assert_searches_like_reference(table, [words[0]], range(1, 15))
        top = nearest_synonyms(words[0], table, 6).synonyms
        assert top == sorted(words[1:7])

    def test_one_word_on_several_tied_rows(self):
        """Equal words on distinct rows with equal similarity come in row
        order: the vectors tell the rows apart."""
        tied = _equal_cosine_rows(11)  # 20 rows
        words = ["dup" if i % 2 else f"t{19 - i:02d}" for i in range(len(tied))]
        table = EmbeddingTable(["q", *words, "far"], np.vstack([np.eye(11)[0], tied, -np.eye(11)[0]]))
        assert_searches_like_reference(table, ["q"], [1, 3, 10, 11, 15, 20, 21, 40])
        got = nearest_synonyms("q", table, 10)
        assert got.synonyms == ["dup"] * 10
        assert got.vectors.tobytes() == tied[1::2].tobytes()

    def test_keyword_on_repeated_rows(self):
        """Every row holding the keyword is excluded, a zero-norm one too;
        rows identical to the keyword's first row tie."""
        rng = np.random.default_rng(22)
        matrix = rng.normal(size=(40, 4))
        words = [f"w{i:02d}" for i in range(40)]
        for i in (5, 17, 33):
            words[i] = "kw"
        matrix[17] = 0.0
        matrix[20:25] = matrix[5]
        table = EmbeddingTable(words, matrix)
        assert_searches_like_reference(table, ["kw", "w20"], [1, 4, 5, 6, 37, 38])
        assert "kw" not in nearest_synonyms("kw", table, 40).synonyms

    def test_h_max_at_or_above_the_table_size(self):
        table, keywords = _search_case(300)
        assert_searches_like_reference(table, keywords, [298, 299, 300, 301, 1000])
        assert len(nearest_synonyms(keywords[0], table, 1000).synonyms) == 299

    def test_all_zero_table(self):
        """Every similarity is 0, so each keyword gets the other words in
        word order, repeated words in row order."""
        words = ["m", "c", "x", "c", "a", "m", "b"]
        table = EmbeddingTable(words, np.zeros((len(words), 3)))
        assert_searches_like_reference(table, sorted(set(words)), range(1, 9))
        assert nearest_synonyms("x", table, 4).synonyms == ["a", "b", "c", "c"]

    def test_pickled_table_gives_the_same_catalog(self):
        """``run_cv(jobs>1)`` sends the table to workers by pickle, ranks and
        zero-norm rows included."""
        table, keywords = _search_case(2500)
        back = pickle.loads(pickle.dumps(table))
        assert back._rank.tobytes() == table._rank.tobytes()
        assert back._zero_rows.tobytes() == table._zero_rows.tobytes()
        for h in (1, 5, 9):
            want, got = build_synonym_catalog(keywords, table, h), build_synonym_catalog(keywords, back, h)
            assert list(got) == list(want)
            for kw, syn in got.items():
                assert syn.synonyms == want[kw].synonyms
                assert syn.vectors.tobytes() == want[kw].vectors.tobytes()

    def test_ranks_follow_stable_word_order(self):
        table = EmbeddingTable(["b", "a", "b", "c", "a"], np.ones((5, 2)))
        assert table._rank.tolist() == [2, 0, 3, 4, 1]
        assert table._zero_rows.tolist() == []


class TestTableWorkOncePerTable:
    """Norms, zero-norm rows, word ranks and repeated-word rows are
    computed when the table is built.

    ``TestNearestSynonymsEquivalence`` and ``TestRankedTieBreak`` check
    each search against the former full sort, on a repeated keyword, a
    zero-norm keyword, a tie group that spans the ``h_max`` cut-off and
    ``h_max`` above the table size.
    """

    def test_norms_once_per_table(self, monkeypatch):
        """Neither a catalog, a ``run_cv`` fold nor unpickling recomputes the
        norms or the word ranks."""
        calls, ranks, searches = [], [], []
        search = embedding.nearest_synonyms
        word_ranks = embedding._word_ranks

        def counted(matrix):
            calls.append(matrix.shape)
            return _row_norms(matrix)

        def counted_ranks(words):
            ranks.append(len(words))
            return word_ranks(words)

        def counted_search(keyword, table, h_max):
            searches.append(keyword)
            return search(keyword, table, h_max)

        monkeypatch.setattr(embedding, "_row_norms", counted)
        monkeypatch.setattr(embedding, "_word_ranks", counted_ranks)
        monkeypatch.setattr(embedding, "nearest_synonyms", counted_search)
        ds, lex = generate_synthetic(SynthSpec(n_pos=8, n_neg=16, seed=0))
        table = generate_synthetic_vectors(lex, dim=5, seed=0)
        assert calls == [table.matrix.shape] and ranks == [len(table)]
        catalog = build_synonym_catalog(lex, table, 3)
        assert len(catalog) == len(searches) == len(lex) > 1 and all(s.synonyms for s in catalog.values())
        enc = EncoderConfig(d_model=8, n_heads=2, d_ff=16, n_layers=2, fusion_layer=1)
        cfg = TrainConfig(epochs=1, batch_size=8, max_len=16, seed=0, h_max=2)
        run_cv(cfg, enc, ds, k=3, trie=build_trie(lex), table=table)
        assert len(searches) > len(lex)  # the folds searched the same table again
        build_synonym_catalog(lex, pickle.loads(pickle.dumps(table)), 3)  # as a jobs>1 worker would
        assert calls == [table.matrix.shape] and ranks == [len(table)]

    def test_matrix_is_read_only(self):
        m = np.arange(6, dtype=np.float64).reshape(3, 2)
        t = EmbeddingTable(["a", "b", "c"], m)
        with pytest.raises(ValueError, match="read-only"):
            t.matrix[0, 0] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            t.get("b")[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):  # as a run_cv worker receives it
            pickle.loads(pickle.dumps(t)).matrix[0, 0] = 9.0
        assert m.flags.writeable  # the caller's array is left as it was
        s = nearest_synonyms("a", t, 2)
        s.vectors[0, 0] = 1.0  # a catalog's vectors are its own copy
        assert t.matrix[1, 0] == 2.0

    @pytest.mark.parametrize(
        "shape, message", [((0, 3), "no vectors found"), ((2, 0), "no vector components")]
    )
    def test_empty_matrix_rejected_as_by_the_loader(self, shape, message):
        with pytest.raises(ValueError, match=message):
            EmbeddingTable(["w"] * shape[0], np.zeros(shape))


def reference_load_embedding_table(path):
    """The library's former loader, one ``float()`` per component.

    Returns ``(words, matrix, duplicate_linenos)``: the line numbers of
    the repeated words it dropped, which it logged as warnings.
    """
    words: list = []
    rows: list = []
    duplicates: list = []
    dim = None
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2:
            try:
                int(head[0]), int(head[1])
                start = 1
            except ValueError:
                start = 0
    for lineno in range(start, len(lines)):
        parts = lines[lineno].split()
        if not parts:
            continue
        word, comps = parts[0], parts[1:]
        if dim is None:
            dim = len(comps)
            if dim == 0:
                raise VectorFormatError(f"{path}:{lineno + 1}: no vector components")
        elif len(comps) != dim:
            raise VectorFormatError(f"{path}:{lineno + 1}: expected {dim} components, found {len(comps)}")
        try:
            vec = [float(c) for c in comps]
        except ValueError as e:
            raise VectorFormatError(f"{path}:{lineno + 1}: non-numeric component ({e})") from e
        if word in words:
            duplicates.append(lineno + 1)
            continue
        words.append(word)
        rows.append(vec)
    if not words:
        raise VectorFormatError(f"{path}: no vectors found")
    return words, np.array(rows, dtype=np.float64), duplicates


# Signed zeros, the smallest and largest subnormals, the smallest normal,
# values near the float64 limits, and numbers that need all 17 digits.
SPECIAL_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -2.5e-7,
]


def _vector_lines(n: int, dim: int, style: str, seed: int) -> list:
    """``n`` rows of ``word v1 .. v_dim`` text; the first row starts with
    :data:`SPECIAL_VALUES` (as far as ``dim`` allows)."""
    rng = np.random.default_rng([seed, n, dim])
    m = rng.normal(scale=2.0, size=(n, dim)) * 10.0 ** rng.integers(-8, 8, size=(n, dim))
    k = min(dim, len(SPECIAL_VALUES))
    m[0, :k] = SPECIAL_VALUES[:k]
    fmt = (lambda x: f"{x:.6f}") if style == "6dec" else repr
    return [f"w{i}" + "".join(" " + fmt(float(x)) for x in row) for i, row in enumerate(m)]


def _loader_case(tmp_path, text: str, name: str = "v.txt"):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))
    return p


def assert_loads_like_reference(path, caplog) -> None:
    """Same words, bitwise the same float64 matrix, and a warning on the
    same lines as the former loader."""
    words, matrix, duplicates = reference_load_embedding_table(path)
    caplog.clear()
    with caplog.at_level("WARNING", logger="lexfuse.embedding"):
        table = load_embedding_table(path)
    assert table.words == words
    assert table.matrix.dtype == np.float64 and table.matrix.shape == matrix.shape
    assert table.matrix.tobytes() == matrix.tobytes()
    warned = [int(re.search(r":(\d+) ignored", r.getMessage()).group(1)) for r in caplog.records]
    assert warned == duplicates


def test_row_norm_of_a_huge_row_is_finite():
    t = EmbeddingTable(["a"], np.array([[1e308, -1e308]]))
    assert np.isfinite(t._norms).all()


def test_only_rows_whose_squares_overflow_are_scaled():
    """A row with a component above about 1.3e154 gets a scaled norm; every
    other row keeps the bits of ``np.linalg.norm``, subnormal rows too."""
    rng = np.random.default_rng(19)
    m = rng.normal(size=(2100, 6)) * 10.0 ** rng.integers(-150, 150, size=(2100, 1))
    huge = [3, 1024, 2099]
    m[huge] = [[1e308, -1e308, 0, 0, 0, 0], [2e154, 0, 0, 0, 0, 1.0], [-3e200, 4e200, 0, 0, 0, 5e-324]]
    m[7] = 5e-324
    norms = _row_norms(m)
    ordinary = np.setdiff1d(np.arange(len(m)), huge)
    assert norms[ordinary].tobytes() == np.linalg.norm(m[ordinary], axis=1).tobytes()
    np.testing.assert_allclose(norms[huge], [math.sqrt(2) * 1e308, 2e154, 5e200], rtol=1e-15)


def test_a_norm_beyond_the_float64_range_is_inf_without_a_warning():
    m = np.array([[1.7e308, 1.7e308], [3.0, 4.0]])
    assert _row_norms(m).tolist() == [math.inf, 5.0]


def test_a_huge_query_keeps_its_synonyms():
    """The query's norm and its dot products overflow; the scaled path
    ranks as the cosines do: b (0.949), then the tie a, c (0.707)."""
    t = EmbeddingTable(["big", "a", "b", "c"], np.array([[1e200, 1e200], [1, 0], [1e200, 5e199], [0, 1]]))
    assert nearest_synonyms("big", t, 3).synonyms == ["b", "a", "c"]


def test_a_huge_row_keeps_its_similarity():
    """An ordinary query against a row whose dot product and norm overflow."""
    t = EmbeddingTable(["q", "a", "b", "c"], np.array([[1.0, 1.0], [1, 0], [1.7e308, 1.7e308], [0, 1]]))
    assert nearest_synonyms("q", t, 3).synonyms == ["b", "a", "c"]


def test_huge_vectors_rank_as_their_scaled_copies():
    """Cosine does not depend on scale: a table with huge rows ranks like
    the same table divided by 1e200."""
    rng = np.random.default_rng(23)
    small = rng.normal(size=(40, 5))
    m = small.copy()
    m[::3] *= 1e200
    words = [f"w{i:02d}" for i in range(40)]
    huge, plain = EmbeddingTable(words, m), EmbeddingTable(words, small)
    for kw in words:
        assert nearest_synonyms(kw, huge, 6).synonyms == nearest_synonyms(kw, plain, 6).synonyms, kw


class TestLoaderMatchesFloatParser:
    """``load_embedding_table`` (numpy's C reader) against the former
    per-component ``float()`` loader, bitwise."""

    @pytest.mark.parametrize("style", ["6dec", "repr"])
    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    def test_rows(self, tmp_path, caplog, style, header):
        lines = _vector_lines(40, 16, style, seed=1)
        text = (f"{len(lines)} 16\n" if header else "") + "\n".join(lines) + "\n"
        assert_loads_like_reference(_loader_case(tmp_path, text), caplog)

    @pytest.mark.parametrize("style", ["6dec", "repr"])
    def test_300_dimensional_rows(self, tmp_path, caplog, style):
        lines = _vector_lines(12, 300, style, seed=2)
        assert_loads_like_reference(_loader_case(tmp_path, "12 300\n" + "\n".join(lines)), caplog)

    def test_special_values_survive(self, tmp_path, caplog):
        p = _loader_case(tmp_path, "\n".join(_vector_lines(3, len(SPECIAL_VALUES), "repr", seed=3)))
        assert_loads_like_reference(p, caplog)
        row = load_embedding_table(p).matrix[0]
        assert row.tobytes() == np.array(SPECIAL_VALUES).tobytes()  # -0.0 stays -0.0

    @pytest.mark.parametrize(
        "layout",
        [
            pytest.param(lambda ls: "\r\n".join(ls) + "\r\n", id="crlf"),
            pytest.param(lambda ls: "\r".join(ls), id="cr"),
            pytest.param(lambda ls: "\n".join("\t" + l.replace(" ", "\t") for l in ls), id="tabs"),
            pytest.param(lambda ls: "\n".join("   " + l.replace(" ", "  \t ") + "  " for l in ls), id="spaces"),
            pytest.param(lambda ls: "\n\n" + "\n \t\n".join(ls) + "\n\n\n", id="blank-lines"),
            pytest.param(lambda ls: "\n".join(l.replace(" ", "\xa0　") for l in ls), id="unicode-space"),
        ],
    )
    def test_whitespace_layouts(self, tmp_path, caplog, layout):
        lines = _vector_lines(20, 8, "repr", seed=4)
        assert_loads_like_reference(_loader_case(tmp_path, layout(lines)), caplog)
        assert load_embedding_table(_loader_case(tmp_path, layout(lines), "h.txt")).words == [
            f"w{i}" for i in range(20)
        ]

    def test_words_outside_latin1(self, tmp_path, caplog):
        """Words are handed to the C reader as str, so any Unicode word
        loads (numpy < 2 would re-encode lines as latin-1 by default)."""
        p = _loader_case(tmp_path, "日本 1 2\npain—severe 3 4\nцефтриаксон 5 6\n😀 7 8\n")
        assert_loads_like_reference(p, caplog)
        assert load_embedding_table(p).words == ["日本", "pain—severe", "цефтриаксон", "😀"]

    def test_duplicates_first_wins_with_line_numbers(self, tmp_path, caplog):
        lines = _vector_lines(10, 4, "6dec", seed=5)
        lines[3] = "w1" + lines[3][2:]
        lines[7] = "w1" + lines[7][2:]
        lines[9] = "w8" + lines[9][2:]
        p = _loader_case(tmp_path, "10 4\n" + "\n\n".join(lines) + "\n")
        assert_loads_like_reference(p, caplog)
        assert len(caplog.records) == 3
        assert f"{p}:8 " in caplog.records[0].getMessage()  # header, then a blank line between rows

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
            min_size=1, max_size=6,
        ),
        seps=st.lists(st.sampled_from([" ", "  ", "\t", "\xa0", "　", "\x0b", "\x0c", " \t"]), min_size=1),
        newline=st.sampled_from(["\n", "\r\n"]),
        header=st.booleans(),
    )
    def test_random_layouts(self, tmp_path_factory, rows, seps, newline, header):
        out = []
        for i, row in enumerate(rows):
            fields = [f"w{i % 4}", *(repr(x) for x in row)]
            out.append("".join(f + seps[(i + j) % len(seps)] for j, f in enumerate(fields)))
        text = (f"{len(rows)} 3{newline}" if header else "") + newline.join(out) + newline
        p = _loader_case(tmp_path_factory.mktemp("layout"), text)
        words, matrix, _ = reference_load_embedding_table(p)
        table = load_embedding_table(p)
        assert table.words == words and table.matrix.tobytes() == matrix.tobytes()


class TestLoaderErrors:
    """Each malformed file is a ``VectorFormatError`` naming ``path:line``,
    the line the former loader named."""

    @pytest.mark.parametrize(
        "text, match",
        [
            pytest.param("2 3\napple 1 0 0\n\npear 0 1\n", r":4: expected 3 components, found 2", id="short-row"),
            pytest.param("apple 1 0\npear 0 1 2\n", r":2: expected 2 components, found 3", id="long-row"),
            pytest.param("apple 1 0\npear 0 1\nplum 1 zero\n", r":3: non-numeric component 'zero'", id="non-numeric"),
            pytest.param("\napple\npear\n", r":2: no vector components", id="word-only-first"),
            pytest.param("apple 1 0\npear\n", r":2: expected 2 components, found 0", id="word-only-later"),
            pytest.param("2 3\n", r"v\.txt: no vectors found", id="header-only"),
            pytest.param("", r"v\.txt: no vectors found", id="empty"),
            pytest.param("\n \n\t\n", r"v\.txt: no vectors found", id="blank"),
        ],
    )
    def test_error_names_the_line(self, tmp_path, text, match):
        p = _loader_case(tmp_path, text)
        with pytest.raises(VectorFormatError, match=match):
            load_embedding_table(p)
        with pytest.raises(VectorFormatError, match=match.split(" ")[0]):
            reference_load_embedding_table(p)

    @pytest.mark.parametrize("token", ["nan", "NaN", "-inf", "Infinity", "1e999"])
    def test_non_finite_component_names_line_and_token(self, tmp_path, token):
        """The reader parses ``nan`` / ``inf`` (and an overflowing exponent
        to inf); the loader rejects the line, as it does a bad component."""
        p = _loader_case(tmp_path, f"3 2\napple 1 2\n\npear 3 4\nplum {token} 5\n")
        with pytest.raises(VectorFormatError, match=rf"v\.txt:5: non-finite component '{re.escape(token)}'"):
            load_embedding_table(p)

    def test_non_finite_error_names_the_first_such_line_it_keeps(self, tmp_path, caplog):
        """A dropped duplicate line is not part of the table, so its ``nan``
        is ignored, as by the former loader; the first kept one is named."""
        text = "apple 1 2\npear 3 4\napple nan 0\nplum 5 6\nfig 1 -inf\nkiwi nan 1\n"
        p = _loader_case(tmp_path, text)
        with pytest.raises(VectorFormatError, match=r"v\.txt:5: non-finite component '-inf'"):
            load_embedding_table(p)
        p = _loader_case(tmp_path, "apple 1 2\npear 3 4\napple nan 0\n", "dup.txt")
        assert_loads_like_reference(p, caplog)

    def test_first_bad_line_wins(self, tmp_path):
        rows = _vector_lines(30, 5, "6dec", seed=6)
        rows[11] += " 1.0"
        rows[7] = rows[7].replace(" ", " x", 1)
        with pytest.raises(VectorFormatError, match=r":8: non-numeric component 'x"):
            load_embedding_table(_loader_case(tmp_path, "\n".join(rows)))

    @pytest.mark.parametrize("token", ["1_0", "１", "0x1p3"])
    def test_rejects_what_float_would_accept_only_with_python_syntax(self, tmp_path, token):
        """Underscores and non-ASCII digits, which ``float()`` accepts,
        are format errors (``0x1p3`` is rejected by both)."""
        p = _loader_case(tmp_path, f"apple 1 2\npear 3 {token}\n")
        with pytest.raises(VectorFormatError, match=r":2: non-numeric component"):
            load_embedding_table(p)

    def test_unexplained_line_failure_keeps_the_line(self, tmp_path, monkeypatch):
        """A line the reader rejects although each component parses on its
        own is still a ``VectorFormatError`` naming that line."""
        monkeypatch.setattr(embedding, "_parses", lambda component: True)
        p = _loader_case(tmp_path, "apple 1 2\npear 3 x\n")
        with pytest.raises(VectorFormatError, match=r"v\.txt:2: \S"):
            load_embedding_table(p)

    def test_line_search_runs_only_after_a_failed_parse(self, tmp_path, monkeypatch):
        def fail(path):
            raise AssertionError("the line-by-line search ran on a good file")

        monkeypatch.setattr(embedding, "_first_bad_line", fail)
        p = _loader_case(tmp_path, "\n".join(_vector_lines(50, 6, "repr", seed=7)))
        assert len(load_embedding_table(p)) == 50


class TestLoadedTableLayout:
    """A loaded table has the layout of one built from an array, so its
    synonym search, and that of the copy ``run_cv(jobs>1)`` unpickles in a
    worker, runs on the same data layout."""

    @pytest.mark.parametrize("duplicates", [False, True], ids=["unique", "duplicates"])
    def test_catalog_equals_contiguous_and_unpickled(self, tmp_path, caplog, duplicates):
        lines = _vector_lines(301, 24, "6dec", seed=8)[1:]  # row 0's norm exceeds the float64 range
        if duplicates:
            lines[50] = "w7" + lines[50][3:]
        with caplog.at_level("ERROR", logger="lexfuse.embedding"):
            loaded = load_embedding_table(_loader_case(tmp_path, "\n".join(lines)))
        assert loaded.matrix.flags.c_contiguous
        rebuilt = EmbeddingTable(loaded.words, np.ascontiguousarray(loaded.matrix))
        unpickled = pickle.loads(pickle.dumps(loaded))
        keywords = [f"w{i}" for i in range(1, 301, 7)] + ["absent"]
        want = build_synonym_catalog(keywords, loaded, 5)
        for other in (rebuilt, unpickled):
            assert other._norms.tobytes() == loaded._norms.tobytes()
            got = build_synonym_catalog(keywords, other, 5)
            assert list(got) == list(want)
            for kw, s in got.items():
                assert s.synonyms == want[kw].synonyms
                assert s.vectors.tobytes() == want[kw].vectors.tobytes()


def reference_save(table: EmbeddingTable, path) -> None:
    """The library's former writer, one ``repr(float(v))`` per component."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(table.words)} {table.dim}\n")
        for w, row in zip(table.words, table.matrix):
            f.write(w + " " + " ".join(repr(float(v)) for v in row) + "\n")


class TestSaveLoadRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_save_writes_the_bytes_of_the_former_writer(self, tmp_path, dtype):
        """A 2000×100 table like perfbench's, and one holding signed zeros,
        the smallest subnormal, 1e16 and exponents up to ±300 (float64 only)."""
        tables = [EmbeddingTable([f"w{i}" for i in range(2000)],
                                 np.random.default_rng(7).normal(size=(2000, 100)).astype(dtype))]
        if dtype == np.float64:
            extremes = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e300, -1e-300, 1.5e-300, 2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1, 123456789.0, 1e-5, 1e-4]
            tables.append(EmbeddingTable([f"x{i}" for i in range(3)], np.array(extremes).reshape(3, 5)))
        for k, t in enumerate(tables):
            got, want = tmp_path / f"got{k}.txt", tmp_path / f"want{k}.txt"
            t.save(got)
            reference_save(t, want)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("word", ["new york", "", "tab\there", " lead", "trail\n", "nb\xa0sp"])
    def test_save_rejects_a_word_the_format_cannot_hold(self, tmp_path, word):
        t = EmbeddingTable(["ok", word], np.ones((2, 3)))
        p = tmp_path / "v.txt"
        with pytest.raises(ValueError, match=re.escape(repr(word))):
            t.save(p)
        assert not p.exists()

    @settings(max_examples=60, deadline=None)
    @given(
        words=st.lists(
            st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
                lambda w: w.split() == [w]
            ),
            min_size=1, max_size=8, unique=True,
        ),
        dim=st.integers(1, 5),
        header=st.booleans(),
        data=st.data(),
    )
    def test_round_trip_is_bitwise(self, tmp_path_factory, words, dim, header, data):
        values = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=len(words) * dim, max_size=len(words) * dim,
            )
        )
        t = EmbeddingTable(words, np.array(values, dtype=np.float64).reshape(len(words), dim))
        p = tmp_path_factory.mktemp("rt") / "v.txt"
        t.save(p)
        reference_save(t, p.with_suffix(".want"))
        assert p.read_bytes() == p.with_suffix(".want").read_bytes()
        if not header:  # a headerless file, as published vectors may come
            p.write_bytes(p.read_bytes().split(b"\n", 1)[1])
        back = load_embedding_table(p)
        assert back.words == t.words
        assert back.matrix.tobytes() == t.matrix.tobytes()
