"""Folds, metrics, cross-validation, leakage guard, ablation grid."""
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from lexfuse import harness, pipeline
from lexfuse.data import Dataset, SynthSpec, generate_synthetic, generate_synthetic_vectors
from lexfuse.encoder import EncoderConfig
from lexfuse.harness import (
    ABLATION_VARIANTS,
    AblationRow,
    LeakageError,
    _check_fold_isolation,
    evaluate,
    format_metrics_table,
    run_ablation,
    run_cv,
    stratified_kfold,
    write_ablation_csv,
)
from lexfuse.lexicon import build_trie
from lexfuse.metrics import Metrics, metrics_from_predictions
from lexfuse.pipeline import TrainConfig, train
from lexfuse.preprocessing import preprocess


def balanced_dataset(n_pos, n_neg):
    ex = [(f"pos text {i}", 1) for i in range(n_pos)]
    ex += [(f"neg text {i}", 0) for i in range(n_neg)]
    return Dataset(ex)


class TestMetrics:
    def test_hand_worked_confusion(self):
        m = Metrics(tp=2, fp=1, fn=1, tn=5)
        np.testing.assert_allclose(m.precision, 2 / 3)
        np.testing.assert_allclose(m.recall, 2 / 3)
        np.testing.assert_allclose(m.f1, 2 / 3)

    def test_perfect(self):
        m = metrics_from_predictions([1, 0, 1], [1, 0, 1])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_no_positive_predictions_convention(self):
        m = metrics_from_predictions([1, 1, 0], [0, 0, 0])
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_identities_on_random_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            y = rng.integers(2, size=n)
            p = rng.integers(2, size=n)
            m = metrics_from_predictions(y, p)
            assert m.tp + m.fp + m.fn + m.tn == n
            prec = m.tp / (m.tp + m.fp) if (m.tp + m.fp) else 0.0
            rec = m.tp / (m.tp + m.fn) if (m.tp + m.fn) else 0.0
            f1 = 2 * prec * rec / (prec + rec) if (prec + rec) else 0.0
            np.testing.assert_allclose((m.precision, m.recall, m.f1), (prec, rec, f1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            metrics_from_predictions([1, 0], [1])


class TestStratifiedKFold:
    def test_exact_division(self):
        plan = stratified_kfold(balanced_dataset(5, 5), k=5, seed=0)
        labels = balanced_dataset(5, 5).labels()
        for f in range(5):
            test = plan.test_indices(f)
            assert len(test) == 2
            assert labels[test].sum() == 1

    def test_imbalanced_division(self):
        ds = balanced_dataset(2, 8)
        plan = stratified_kfold(ds, k=2, seed=0)
        labels = ds.labels()
        for f in range(2):
            test = plan.test_indices(f)
            assert len(test) == 5
            assert labels[test].sum() == 1

    def test_partition_properties(self):
        """Folds are disjoint, cover everything, sizes differ by <= 1 per
        class (stratification)."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_pos = int(rng.integers(5, 30))
            n_neg = int(rng.integers(5, 30))
            k = int(rng.integers(2, 6))
            ds = balanced_dataset(n_pos, n_neg)
            plan = stratified_kfold(ds, k=k, seed=int(rng.integers(1000)))
            labels = ds.labels()
            all_test = np.concatenate([plan.test_indices(f) for f in range(k)])
            assert len(all_test) == len(ds)
            assert len(set(all_test.tolist())) == len(ds)
            pos_counts = [labels[plan.test_indices(f)].sum() for f in range(k)]
            assert max(pos_counts) - min(pos_counts) <= 1
            sizes = [len(plan.test_indices(f)) for f in range(k)]
            assert max(sizes) - min(sizes) <= 2  # <=1 per class

    def test_class_smaller_than_k_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(balanced_dataset(2, 10), k=5, seed=0)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            stratified_kfold(balanced_dataset(5, 5), k=1, seed=0)

    def test_seed_determinism(self):
        ds = balanced_dataset(7, 9)
        a = stratified_kfold(ds, 3, seed=4).assignments
        b = stratified_kfold(ds, 3, seed=4).assignments
        c = stratified_kfold(ds, 3, seed=5).assignments
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def quick_cv_setup(seed=0, n_pos=8, n_neg=16):
    ds, lex = generate_synthetic(SynthSpec(n_pos=n_pos, n_neg=n_neg, seed=seed))
    trie = build_trie(lex)
    table = generate_synthetic_vectors(lex, dim=5, seed=seed)
    enc = EncoderConfig(d_model=8, n_heads=2, d_ff=16, n_layers=2, fusion_layer=1)
    cfg = TrainConfig(epochs=1, batch_size=8, max_len=16, seed=seed, h_max=2)
    return ds, trie, table, enc, cfg


class TestRunCV:
    def test_structure_and_mean(self):
        ds, trie, table, enc, cfg = quick_cv_setup()
        result = run_cv(cfg, enc, ds, k=4, trie=trie, table=table)
        assert len(result.fold_metrics) == 4
        np.testing.assert_allclose(
            result.mean_f1, np.mean([m.f1 for m in result.fold_metrics]), atol=1e-12
        )
        np.testing.assert_allclose(
            result.mean_precision,
            np.mean([m.precision for m in result.fold_metrics]),
            atol=1e-12,
        )

    def test_seed_determinism(self):
        ds, trie, table, enc, cfg = quick_cv_setup()
        r1 = run_cv(cfg, enc, ds, k=3, trie=trie, table=table)
        r2 = run_cv(cfg, enc, ds, k=3, trie=trie, table=table)
        assert [m.as_dict() for m in r1.fold_metrics] == [m.as_dict() for m in r2.fold_metrics]

    def test_each_fold_is_scored_once(self, monkeypatch):
        """Training gets no dev set, so over k folds predictions run k
        times, once per held-out part, whatever the number of epochs."""
        calls = []
        original = pipeline.predict_labels

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "predict_labels", counting)
        monkeypatch.setattr(pipeline, "predict_labels", counting)
        ds, trie, table, enc, cfg = quick_cv_setup()
        run_cv(replace(cfg, epochs=3), enc, ds, k=4, trie=trie, table=table)
        assert len(calls) == 4

    def test_parallel_folds_match_sequential(self):
        ds, trie, table, enc, cfg = quick_cv_setup()
        seq = run_cv(cfg, enc, ds, k=3, trie=trie, table=table, jobs=1)
        par = run_cv(cfg, enc, ds, k=3, trie=trie, table=table, jobs=2)
        assert [m.as_dict() for m in seq.fold_metrics] == [m.as_dict() for m in par.fold_metrics]


class TestLeakageGuard:
    def test_clean_fold_passes(self):
        ds, trie, table, enc, cfg = quick_cv_setup()
        model = train(cfg, enc, ds, None, trie=trie, table=table).model
        _check_fold_isolation(model, ds.texts(), trie)

    def test_vocabulary_leak_detected(self):
        ds, trie, table, enc, cfg = quick_cv_setup()
        model = train(cfg, enc, ds, None, trie=trie, table=table).model
        # pretend training only saw the first half of the texts
        half = ds.texts()[: len(ds) // 4]
        with pytest.raises(LeakageError, match="vocabulary"):
            _check_fold_isolation(model, half, trie)

    def test_synonym_catalog_leak_detected(self):
        ds, trie, table, enc, cfg = quick_cv_setup()
        model = train(cfg, enc, ds, None, trie=trie, table=table).model
        assert model.keyword_syn_ids, "setup must produce synonym entries"
        texts_without_keywords = ["plain words only"] * 3
        model.vocab.id_to_word = model.vocab.id_to_word[:4] + ["plain", "words", "only"]
        model.vocab.word_to_id = {w: i for i, w in enumerate(model.vocab.id_to_word)}
        with pytest.raises(LeakageError, match="catalog"):
            _check_fold_isolation(model, texts_without_keywords, trie)

    def keyword_free_fold(self, vocab_words):
        """A trained model whose catalog has keywords that the fold's texts lack."""
        ds, trie, table, enc, cfg = quick_cv_setup()
        model = train(cfg, enc, ds, None, trie=trie, table=table).model
        assert model.keyword_syn_ids, "setup must produce synonym entries"
        model.vocab.id_to_word = model.vocab.id_to_word[:4] + list(vocab_words)
        model.vocab.word_to_id = {w: i for i, w in enumerate(model.vocab.id_to_word)}
        return model, trie

    def test_catalog_only_leak_names_only_catalog(self):
        texts = ["plain words only"] * 3
        model, trie = self.keyword_free_fold(preprocess(texts[0]))
        with pytest.raises(LeakageError, match="catalog") as err:
            _check_fold_isolation(model, texts, trie)
        assert "vocabulary" not in str(err.value)

    def two_violation_error(self):
        model, trie = self.keyword_free_fold(["plain", "words", "only"])
        with pytest.raises(LeakageError) as err:
            _check_fold_isolation(model, ["plain words only"] * 3, trie)
        return err.value, model

    def test_both_leaks_reported_in_one_error(self):
        err, model = self.two_violation_error()
        message = str(err)
        assert "vocabulary" in message and "catalog" in message
        assert "(1): ['only']" in message
        assert f"({len(model.keyword_syn_ids)}):" in message

    def test_error_survives_pickle(self):
        err, _ = self.two_violation_error()
        restored = pickle.loads(pickle.dumps(err))
        assert type(restored) is LeakageError
        assert str(restored) == str(err)


class TestAblation:
    def test_variant_grid(self):
        assert [v for v, _ in ABLATION_VARIANTS] == [
            "full",
            "no_keywords",
            "no_synonyms",
            "cross_entropy",
            "no_keywords_no_synonyms",
            "baseline",
        ]

    def test_six_rows_and_zero_delta_for_full(self, tmp_path):
        ds, trie, table, enc, cfg = quick_cv_setup(n_pos=6, n_neg=10)
        rows = run_ablation(cfg, enc, ds, k=2, trie=trie, table=table)
        assert len(rows) == 6
        assert rows[0].variant == "full"
        assert rows[0].delta_f1 == 0.0
        for row in rows[1:]:
            np.testing.assert_allclose(row.delta_f1, row.f1 - rows[0].f1, atol=1e-12)

        csv_path = tmp_path / "ablation.csv"
        write_ablation_csv(rows, csv_path)
        import csv as csvmod

        with open(csv_path, newline="") as f:
            parsed = list(csvmod.DictReader(f))
        assert [r["variant"] for r in parsed] == [r.variant for r in rows]
        for got, row in zip(parsed, rows):
            np.testing.assert_allclose(float(got["f1"]), row.f1, atol=1e-12)


    def test_csv_and_json_columns_in_field_order(self, tmp_path):
        """The CSV header, each CSV row and each JSON record list the
        fields in declaration order, byte for byte."""
        rows = [
            AblationRow("full", 0.5, 0.25, 1 / 3, 0.0),
            AblationRow("baseline", 1.0, 0.125, 0.2, 0.2 - 1 / 3),
        ]
        csv_path = tmp_path / "ablation.csv"
        write_ablation_csv(rows, csv_path)
        assert csv_path.read_bytes() == (
            b"variant,precision,recall,f1,delta_f1\r\n"
            b"full,0.5,0.25,0.3333333333333333,0.0\r\n"
            b"baseline,1.0,0.125,0.2,-0.1333333333333333\r\n"
        )
        assert json.dumps([r.as_dict() for r in rows], sort_keys=True) == (
            '[{"delta_f1": 0.0, "f1": 0.3333333333333333, "precision": 0.5, "recall": 0.25,'
            ' "variant": "full"}, {"delta_f1": -0.1333333333333333, "f1": 0.2, "precision": 1.0,'
            ' "recall": 0.125, "variant": "baseline"}]'
        )
        assert list(rows[0].as_dict()) == ["variant", "precision", "recall", "f1", "delta_f1"]


class TestEvaluate:
    def test_empty_dataset_rejected(self):
        ds, trie, table, enc, cfg = quick_cv_setup()
        model = train(cfg, enc, ds, None, trie=trie, table=table).model
        with pytest.raises(ValueError):
            evaluate(model, Dataset([]))

    def test_counts_sum_to_dataset_size(self):
        ds, trie, table, enc, cfg = quick_cv_setup()
        model = train(cfg, enc, ds, None, trie=trie, table=table).model
        m = evaluate(model, ds)
        assert m.tp + m.fp + m.fn + m.tn == len(ds)


class TestFormatting:
    def test_aligned_table(self):
        rows = [{"a": 1.0, "b": "x"}, {"a": 0.25, "b": "longer"}]
        text = format_metrics_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 3
        assert "0.2500" in lines[2]
