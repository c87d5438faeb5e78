"""Character n-gram compositional text embeddings.

Texts are embedded by summing learned vectors for their character n-grams
(word-boundary spaces included) plus a bias, through an elementwise
nonlinearity. Models are trained on paraphrase pairs with a margin-based
contrastive loss and in-batch negative examples, and evaluated on word and
sentence similarity via rank correlation against human gold scores.
"""

from .errors import DataError, ModelFormatError, NumericalError
from .evaluate import (
    BinResult,
    EvalReport,
    ReferenceVocab,
    SimDataset,
    binned_eval,
    eval_sts,
    eval_word_sim,
    max_token_length,
    oov_count,
    pearson,
    spearman,
)
from .io import (
    RunConfig,
    load_groups,
    load_model,
    load_pairs,
    load_reference_vocab,
    load_run_config,
    load_simset,
    load_vocab,
    load_wordlist,
    save_curve,
    save_model,
    save_vocab,
)
from .model import (
    ACTIVATIONS,
    Embedding,
    Model,
    apply_activation,
    cosine,
    embed,
    embed_matrix,
    encode_matrix,
    preactivation,
    verify_binding,
)
from .neighbors import (
    WorkingVocab,
    build_working_vocab,
    nearest_neighbors,
    ngram_neighbors,
)
from .train import (
    AdamState,
    PairDataset,
    TrainConfig,
    TrainingCurve,
    epoch_permutation,
    finite_diff_audit,
    init_model,
    select_negatives,
    train,
)
from .vocab import (
    MinCount,
    NGramVocab,
    TopKPerOrder,
    build_vocab,
    encode,
    encode_batch,
    normalize,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "BinResult",
    "DataError",
    "Embedding",
    "EvalReport",
    "MinCount",
    "Model",
    "ModelFormatError",
    "NGramVocab",
    "NumericalError",
    "PairDataset",
    "ReferenceVocab",
    "RunConfig",
    "SimDataset",
    "TopKPerOrder",
    "TrainConfig",
    "TrainingCurve",
    "WorkingVocab",
    "apply_activation",
    "binned_eval",
    "build_vocab",
    "build_working_vocab",
    "cosine",
    "embed",
    "embed_matrix",
    "encode",
    "encode_batch",
    "encode_matrix",
    "epoch_permutation",
    "eval_sts",
    "eval_word_sim",
    "finite_diff_audit",
    "init_model",
    "load_groups",
    "load_model",
    "load_pairs",
    "load_reference_vocab",
    "load_run_config",
    "load_simset",
    "load_vocab",
    "load_wordlist",
    "max_token_length",
    "nearest_neighbors",
    "ngram_neighbors",
    "normalize",
    "oov_count",
    "pearson",
    "preactivation",
    "save_curve",
    "save_model",
    "save_vocab",
    "select_negatives",
    "spearman",
    "train",
    "verify_binding",
]
