"""Lexicon-fused transformer for adverse-drug-reaction text classification.

The model composes the input text with its extracted domain keywords
([CLS] S1 [SEP] S2 [SEP]), injects attention-weighted synonym vectors at
keyword positions between two encoder layers, and trains with focal loss
against class imbalance.  Everything runs on numpy with hand-verified
gradients.
"""
from .classifier import HeadParams
from .data import (
    Dataset,
    DatasetStats,
    SynthSpec,
    dataset_stats,
    generate_synthetic,
    generate_synthetic_vectors,
    load_dataset,
    save_dataset,
)
from .embedding import (
    EmbeddingTable,
    ModelInput,
    SynonymSet,
    Vocab,
    build_synonym_catalog,
    build_vocab,
    compose_input,
    load_embedding_table,
    nearest_synonyms,
)
from .encoder import (
    EncoderConfig,
    LayerParams,
    encoder_layer,
    feed_forward,
    layer_norm,
    multi_head_attention,
    run_encoder,
)
from .fusion import FusionContext, FusionParams, deep_fusion
from .gradcheck import GradCheckReport, gradient_check
from .harness import (
    CVResult,
    FoldPlan,
    LeakageError,
    evaluate,
    run_ablation,
    run_cv,
    stratified_kfold,
)
from .lexicon import (
    DictionaryConfig,
    build_dictionary,
    build_trie,
    default_stopwords,
    extract_keywords,
)
from .metrics import Metrics, metrics_from_predictions
from .pipeline import (
    AdamState,
    ModelParams,
    TrainConfig,
    TrainedModel,
    TrainResult,
    adam_step,
    backward,
    forward,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .preprocessing import PreprocessRules, preprocess

__version__ = "0.1.0"
